(** Lock-order inversion detection (potential deadlocks).

    ThreadSanitizer reports more than data races: acquiring locks in
    inconsistent orders is flagged as a potential deadlock even on runs
    where the deadlock does not manifest — exactly the kind of bug
    controlled scheduling wants to surface on every run rather than
    once in a thousand.

    The detector maintains the classic lock-order graph: an edge
    [A -> B] means some thread acquired [B] while holding [A]. A cycle
    in the graph is a potential deadlock; each cycle is reported once,
    with the locks involved and witness threads for each edge. *)

type t

type edge = {
  from_lock : string;
  to_lock : string;
  witness_tid : int;  (** a thread that acquired [to_lock] under [from_lock] *)
}

type cycle = edge list
(** The edges of one inconsistent-order cycle, e.g.
    [\[A->B (T1); B->A (T2)\]]. *)

val create : unit -> t

val reset : t -> unit
(** In-place reset to the post-[create] state (graph, held sets and
    reported cycles cleared; table capacity retained). *)

val acquired : t -> tid:int -> lock:int -> name:string -> unit
(** Thread [tid] acquired [lock]; edges are added from every lock it
    currently holds. *)

val released : t -> tid:int -> lock:int -> unit

val cycles : t -> cycle list
(** All distinct cycles found so far, in detection order. Each set of
    locks is reported once, mirroring tsan's report deduplication. *)

val cycle_count : t -> int
val pp_cycle : Format.formatter -> cycle -> unit
