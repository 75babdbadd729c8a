(** Per-thread synchronisation state.

    Each simulated thread carries a happens-before vector clock plus the
    two fence accumulators tsan11 uses to give memory-fence semantics to
    relaxed accesses:

    - [acq_pending] collects the release clocks of stores observed by
      relaxed loads; an acquire fence folds it into the thread clock
      (C++11 §29.8: fence-synchronisation through atomic reads).
    - [rel_fence] snapshots the thread clock at the last release fence;
      subsequent relaxed stores publish that snapshot.

    Hot-path layout: the thread's own clock is a single-owner
    {!T11r_util.Vclock.Mut.mut} updated in place — [tick] and [acquire]
    allocate nothing in the common case. [clock] returns a cached
    immutable snapshot (recomputed lazily after mutation), and the
    FastTrack epoch (the thread's own component) is mirrored in a plain
    [int] so timestamping an access reads one field. *)

type t = {
  mutable tid : int;
  mut : T11r_util.Vclock.Mut.mut;
  mutable snap : T11r_util.Vclock.t;
  mutable snap_ok : bool;
  mutable ep : int;
  mutable acq_pending : T11r_util.Vclock.t;
  mutable rel_fence : T11r_util.Vclock.t;
}
(** [mut] is exclusively owned by this thread state; read it only via
    {!clock} / {!clock_get}. [snap]/[snap_ok]/[ep] are caches — never
    write them directly. [acq_pending] and [rel_fence] are ordinary
    immutable clock values and may be read or replaced freely. *)

val create : tid:int -> t
(** Fresh thread state with clock [{tid -> 1}] (a thread is always
    up-to-date with its own epoch). *)

val epoch : t -> int
(** The thread's own component of its clock — the FastTrack epoch used
    to timestamp its accesses. O(1), no allocation. *)

val clock : t -> T11r_util.Vclock.t
(** Immutable snapshot of the thread clock. Cached: repeated calls
    between mutations return the same (safely shareable) value. *)

val clock_get : t -> int -> int
(** [clock_get t tid] is component [tid] of the thread clock, without
    materialising a snapshot. *)

val tick : t -> unit
(** Advance the thread's own component; called after every operation
    that must be distinguishable in happens-before terms. *)

val acquire : t -> T11r_util.Vclock.t -> unit
(** Join a release clock into the thread clock (acquire load, mutex
    lock, join, ...). In place; allocates only when the incoming clock
    is longer than the backing array. *)

val acquire_thread : t -> t -> unit
(** [acquire_thread t other] is [acquire t (clock other)] (a join),
    without building [other]'s clock. *)

val fork : parent:t -> tid:int -> t
(** Child thread state at creation: inherits the parent's clock (thread
    creation synchronises-with the start of the child), then both sides
    tick. *)

val reinit : t -> tid:int -> unit
(** In-place [create]: after [reinit t ~tid], [t] is observably
    identical to [create ~tid] (recycling the clock's backing array).
    Used by run arenas to reuse thread states across campaign runs. *)

val reinit_fork : t -> parent:t -> tid:int -> unit
(** In-place [fork] with the same post-state as [fork ~parent ~tid]
    (including the parent tick). *)
