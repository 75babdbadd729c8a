(** Vector clocks for happens-before tracking.

    The race detector (tsan11 substrate) keeps one clock per thread and
    per synchronisation object; the memory model attaches clocks to
    release stores. Clocks are immutable values: [join] and [tick]
    return fresh clocks, which keeps the detector logic easy to reason
    about (and to property-test). Thread ids index components; a clock
    is conceptually infinite with zeros beyond its physical length.

    Representation invariant: clocks are always normalised (no trailing
    zero components), so [equal] is structural and a clock that is
    physically longer than another can never be [leq] it.

    The hot path avoids this immutable interface where it can: a
    thread's own clock lives in a {!Mut} (updated in place, snapshotted
    on demand) and FastTrack-style epoch comparisons use {!leq_epoch}
    instead of materialising singleton clocks. *)

type t

val empty : t
(** The zero clock (bottom of the join semilattice). *)

val is_empty : t -> bool
(** [is_empty c] iff [c] has no nonzero component ([equal c empty]). *)

val get : t -> int -> int
(** [get c tid] is component [tid] (0 for unset components). *)

val set : t -> int -> int -> t
(** [set c tid v] replaces component [tid]. *)

val tick : t -> int -> t
(** [tick c tid] increments component [tid]. *)

val join : t -> t -> t
(** Componentwise maximum. Returns one of its arguments (no
    allocation) when it already dominates the other. *)

val leq : t -> t -> bool
(** Pointwise order: [leq a b] iff every component of [a] is [<=] the
    corresponding component of [b]. Refutes on length alone when [a]
    is longer, and stops at the first failing component. *)

val lt : t -> t -> bool
(** [leq a b && a <> b]. *)

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val equal : t -> t -> bool

val leq_epoch : tid:int -> epoch:int -> t -> bool
(** [leq_epoch ~tid ~epoch c] is [epoch <= get c tid] — the FastTrack
    epoch test ({i does this access happen before clock [c]?}) without
    building a singleton clock. *)

val size : t -> int
(** Physical length (highest nonzero component + 1). *)

val to_list : t -> int list
(** Components in thread-id order, trailing zeros trimmed. *)

val of_list : int list -> t

val pp : Format.formatter -> t -> unit

(** In-place vector clocks for single-owner state (a thread's own
    clock). The backing array over-allocates so [incr]/[join_imm]
    almost never copy; [snapshot] produces a fresh immutable clock.

    Ownership rule: a [mut] has exactly one writer and is never shared;
    the backing array never escapes (snapshots copy). *)
module Mut : sig
  type mut

  val create : unit -> mut
  (** The zero clock. *)

  val reset : mut -> unit
  (** Back to the zero clock in place, keeping the backing array. *)

  val reset_to_mut : mut -> mut -> unit
  (** [reset_to_mut m src] makes [m] equal to [src] in place, as
      [of_imm (snapshot src)] would, without building either. *)

  val of_imm : t -> mut
  (** Mutable copy of an immutable clock. *)

  val get : mut -> int -> int

  val set : mut -> int -> int -> unit

  val incr : mut -> int -> unit
  (** Increment component [tid] in place. *)

  val join_imm : mut -> t -> bool
  (** Fold an immutable clock into the mut (componentwise max).
      Returns [true] iff any component changed. *)

  val join_mut : mut -> mut -> bool
  (** [join_mut m src] is [join_imm m (snapshot src)], without building
      the snapshot. *)

  val snapshot : mut -> t
  (** Fresh immutable (normalised) copy of the current value. *)
end
