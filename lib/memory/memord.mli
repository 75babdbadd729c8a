(** C++11 memory orders ([std::memory_order]).

    [Consume] is treated as [Acquire], as all mainstream compilers (and
    tsan11) do. *)

type t = Relaxed | Consume | Acquire | Release | Acq_rel | Seq_cst

val is_acquire : t -> bool
(** Orders that perform acquire synchronisation on a load/RMW/fence:
    [Consume], [Acquire], [Acq_rel], [Seq_cst]. *)

val is_release : t -> bool
(** Orders that perform release synchronisation on a store/RMW/fence:
    [Release], [Acq_rel], [Seq_cst]. *)

val is_seq_cst : t -> bool

val to_string : t -> string
val of_string : string -> t option
val all : t list
