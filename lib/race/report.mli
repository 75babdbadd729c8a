(** Data-race reports. *)

type kind = Write_write | Write_read | Read_write

type t = {
  var : string;  (** name of the racing location *)
  kind : kind;
  first_tid : int;  (** thread of the earlier (shadow) access *)
  second_tid : int;  (** thread whose access detected the race *)
}

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
(** Structural equality ([=] on the record), without a polymorphic
    compare. *)

val compare : t -> t -> int
(** [Stdlib.compare]'s order on the record, field by field: [var] (by
    bytes, then by length), [kind] (in declaration order), [first_tid],
    [second_tid]. The sign agrees with [Stdlib.compare]; neither
    function allocates. *)

val norm : t -> t
(** Canonical key for the symmetric pair: a [Read_write] is rewritten
    to the equivalent [Write_read] with the tids swapped, and a
    [Write_write] orders its tids ascending — so the same race sighted
    in opposite observation orders across runs keys identically in
    histograms. Idempotent; [norm a = norm b] iff [a] and [b] name the
    same unordered racing pair. *)
