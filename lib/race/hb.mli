(** Incremental happens-before over a path of recorded decisions — the
    analysis behind dynamic partial-order reduction
    ([T11r_harness.Systematic]).

    The path is a stack: {!add} appends an event, {!pop} removes the
    newest one (an undo log restores every table it touched). The
    index keeps, per thread, the latest path position of each kind of
    thing an event can touch: any event of the thread, world-coupled
    ops, each atomic location (any access, and writes/updates), any
    atomic, fences, each sync id, spawns, each spawn/join target, and
    the two scheduler-PRNG classes ([d_rand] events and draw-consuming
    events). Every row lives in one int array, as do the clocks and the
    undo log, so neither analysing nor popping an event stores a
    pointer other than the event's enabled set. The latest event of thread [p] dependent with a new event
    [e] — [j_p] — is then the maximum over the few tables [e]'s
    footprint selects, so analysing [e] costs O(threads²) clock work
    and a handful of array lookups instead of a scan of the path. The
    keyed tables are dense: atomic location ids, object ids and tids
    are per-run counters from 0, so key [k]'s row is slot [k] of an
    array grown on demand (memory proportional to the largest key
    seen, not to the number of keys). Keys must be [>= 0].

    Clocks follow the DPOR convention: the clock [c] of the event at
    position [m] has [c.(q)] = 1 + the position of thread [q]'s latest
    event that happens-before it (0 = none); the event itself is not
    counted, and happens-before is the transitive closure of {!dep}
    along the path. *)

val dep : Decision.t -> Decision.t -> bool
(** The dependence relation: two decisions conflict iff swapping two
    adjacent occurrences could change behaviour. Symmetric. *)

type t

val create : unit -> t
(** An empty path. *)

val length : t -> int
(** Number of events on the path. *)

val add : t -> enabled:int array -> Decision.t -> int
(** [add t ~enabled e] analyses [e] as the event at position [length t],
    taken at a node whose runnable threads were [enabled] (ascending),
    appends it, and returns the number of [e]'s reversible races, which
    {!race_pos} and {!race_initial} read until the next [add]. Analysing
    an event allocates nothing once the index has grown to the path's
    depth, its threads and its keys.
    @raise Invalid_argument when [e]'s footprint names a negative
    location, object or tid; [t] is unusable afterwards. *)

val race_pos : t -> int -> int
(** [race_pos t r] is the path position of race [r] of the last {!add}:
    ascending in [r].
    @raise Invalid_argument unless [0 <= r <] that count. *)

val race_initial : t -> int -> int
(** [race_initial t r] is the thread the node at [race_pos t r] must
    also try — the first thread of the reordered segment — or [-1]
    when no thread enabled there starts that segment (try them all).
    @raise Invalid_argument unless [0 <= r <] that count. *)

val pop : t -> unit
(** Remove the newest event.
    @raise Invalid_argument on an empty path. *)

val clock : t -> int -> int array
(** [clock t m] is the clock of the event at position [m] (entries
    past the array's end are 0).
    @raise Invalid_argument unless [0 <= m < length t]. *)

val last_dep : t -> Decision.t -> int -> int
(** [last_dep t e p] is the position of thread [p]'s latest event on
    the path that is {!dep}endent with [e], or [-1]. *)
