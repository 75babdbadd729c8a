(** Plain-text table rendering for the benchmark harness.

    Renders the paper's tables as aligned monospace text so the bench
    output can be eyeballed against the paper side by side. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> unit

val render : t -> string
(** Aligned ASCII rendering, first column left-aligned and the rest
    right-aligned (the paper's table convention). *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)
