(** Operational C++11 atomics with per-location store histories.

    This is the weak-memory engine in the style of tsan11 (Lidbury &
    Donaldson, POPL 2017): every atomic location keeps a bounded history
    of stores in modification order; a load may read any *admissible*
    store, where admissibility encodes coherence, happens-before
    visibility and a seq-cst floor. Which admissible store a load reads
    is the memory model's source of nondeterminism — the [choose]
    callback resolves it, and in the full tool that callback is the
    scheduler's recorded PRNG, which is what makes weak-memory behaviour
    replayable.

    Admissibility for a load by thread [T] at location [L]:
    - modification-order index [>=] the newest store [T] has already
      read or written at [L] (read-read and read-write coherence);
    - index [>=] any store [s] with [s] happens-before [T]'s current
      clock (a thread cannot read a store it provably overwrote — the
      FastTrack epoch test [s.epoch <= clock_T(s.tid)]);
    - for seq-cst loads, index [>=] the last seq-cst store to [L]
      (approximating the SC total order, as tsan11 does);
    - index within the bounded history window.

    The newest store is always admissible, so the candidate set is never
    empty. *)

type t
(** The atomic memory of one simulated process. *)

type loc
(** An atomic location (any size; values are OCaml [int]s). *)

val create : ?max_history:int -> unit -> t
(** [max_history] bounds how far back in modification order a load may
    read (default 8, tsan11 uses a similarly small ring). *)

val max_history : t -> int
(** The bound this memory was created with. *)

val reset : t -> unit
(** In-place reset to the post-[create] state, recycling every location
    ever created: after [reset], [fresh_loc] hands back the existing
    location records (ids restart at 0) re-initialised in place, so a
    run executed against a reset memory allocates nothing for locations
    it has space for. Observable behaviour is identical to a fresh
    [create] with the same [max_history]. *)

val fresh_loc : t -> name:string -> init:int -> loc
(** New location, initialised with a store visible to every thread. *)

val loc_name : loc -> string
val loc_id : loc -> int

val load :
  t -> loc -> Tstate.t -> Memord.t -> choose:(int -> int) -> int
(** [load mem l st mo ~choose] returns the value read. [choose n] must
    return an index in [\[0, n)] selecting among the [n] admissible
    stores, oldest first ([choose] is called even when [n = 1], so that
    the PRNG draw count is schedule-independent — a record/replay
    invariant). Acquire orders join the store's release clock into the
    thread clock; relaxed loads bank it for a later acquire fence. *)

val store : t -> loc -> Tstate.t -> Memord.t -> int -> unit
(** Append a store at the tail of modification order. Release orders
    attach the thread clock; relaxed stores attach the release-fence
    snapshot if one is pending. *)

val rmw : t -> loc -> Tstate.t -> Memord.t -> (int -> int) -> int
(** Atomic read-modify-write: always reads the newest store (RMW
    atomicity), returns the old value. Continues the release sequence of
    the store it replaces (C++11 §1.10): the new store's release clock
    includes the old one's even for relaxed RMWs. *)

val cas :
  t ->
  loc ->
  Tstate.t ->
  success:Memord.t ->
  failure:Memord.t ->
  expected:int ->
  desired:int ->
  choose:(int -> int) ->
  bool * int
(** Strong compare-and-swap. Succeeds iff the newest store's value
    equals [expected] (RMWs act on the tail of modification order);
    on failure performs a load with the [failure] order, which — being
    a plain load — may legitimately observe a stale value. Returns
    [(succeeded, value_read)]. *)

val fence : t -> Tstate.t -> Memord.t -> unit
(** Memory fence. Acquire fences publish banked relaxed-load clocks;
    release fences snapshot the thread clock; seq-cst fences
    additionally synchronise through a global SC clock (cumulativity). *)

val newest_value : t -> loc -> int
(** The value at the tail of modification order (for assertions and
    tests; not a C++11 operation). *)

val history_length : t -> loc -> int
(** Number of stores currently retained for [loc]. *)

val candidates : t -> loc -> Tstate.t -> Memord.t -> int list
(** The admissible values for a load, oldest first — exposed for
    property tests of the coherence rules. *)

val evictions : t -> int
(** Stores pushed out of a full per-location history ring since
    [create] — the window-pressure counter of the run metrics. *)

val stale_reads : t -> int
(** Loads (including failed-CAS loads) that observed an admissible
    store older than the newest one. *)

val rand_choices : t -> int
(** Loads (including failed-CAS loads) whose [choose] call was offered
    two or more admissible stores — i.e. draws whose {e value}
    actually influenced behaviour, as opposed to forced [choose 1]
    calls made only to keep the PRNG stream aligned. Systematic
    exploration uses the delta of this counter across one visible
    operation to decide whether the operation's scheduler-PRNG draws
    are behaviour-relevant (see {!T11r_race.Decision.t}). *)
