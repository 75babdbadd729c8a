(** Structured run-event stream.

    A trace is a preallocated ring buffer of fixed-width event slots:
    emitting an event writes into parallel int arrays (plus one string
    slot holding the operation label by reference), so an enabled trace
    allocates nothing per event and a {!disabled} trace costs a single
    branch — the interpreter threads one of these through every run
    unconditionally, and the words/op budgets in test/test_alloc.ml
    enforce that the disabled path stays at 0 words per operation.

    When more events are emitted than the buffer holds, the oldest are
    overwritten; {!dropped} reports how many were lost so exporters can
    say so instead of silently truncating. *)

type kind =
  | Sched  (** the scheduler switched to a different thread *)
  | Op  (** a visible operation (one critical section) *)
  | Stale_read  (** an atomic load served from an older store in the window *)
  | Fault  (** an injected environment fault surfaced to the program *)
  | Race  (** a data-race report was emitted *)
  | Desync  (** a replay divergence was noted *)

type event = {
  ev_kind : kind;
  ev_tick : int;  (** critical-section index at emission *)
  ev_tid : int;  (** thread the event belongs to *)
  ev_label : string;  (** operation label / race variable / desync site *)
  ev_ts : int;  (** simulated start time, µs *)
  ev_dur : int;  (** simulated duration, µs — 0 for instant events *)
}

type t

val disabled : t
(** The shared no-op trace: [enabled] is [false], every [emit] is a
    single branch, nothing is ever stored. *)

val create : ?capacity:int -> unit -> t
(** A live trace retaining the last [capacity] events (default 65536).
    All storage is allocated here, up front. *)

val enabled : t -> bool

val reset : t -> unit
(** Forget all events in place, keeping the ring's storage. *)

val emit :
  t -> kind -> tick:int -> tid:int -> label:string -> ts:int -> dur:int -> unit
(** Record one event. Allocation-free: ints are stored unboxed and the
    label string is stored by reference. No-op on a disabled trace. *)

val kind_name : kind -> string

val total : t -> int
(** Events emitted over the trace's lifetime, including overwritten ones. *)

val length : t -> int
(** Events currently retained ([min total capacity]). *)

val dropped : t -> int
(** Events lost to ring-buffer wraparound ([total - length]). *)

val capacity : t -> int

val to_list : t -> event list
(** Retained events, oldest first. *)
