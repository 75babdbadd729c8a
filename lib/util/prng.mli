(** Deterministic pseudo-random number generator.

    The scheduler's nondeterministic choices (random strategy picks,
    weak-memory read selection, signal victim selection) are all drawn
    from one PRNG of this type. Per the paper (§4), the PRNG is "seeded
    by two calls to [rdtsc()]"; we mirror the two-seed initialisation
    so a demo's [META] file stores exactly two 64-bit seeds.

    The implementation is xoshiro256** with a SplitMix64 seed expander:
    high quality, tiny state, and — crucially for record/replay —
    bit-for-bit reproducible across runs and platforms. *)

type t

val create : seed1:int64 -> seed2:int64 -> t
(** [create ~seed1 ~seed2] builds a generator from two 64-bit seeds. *)

val of_time : unit -> t
(** Generator seeded from the wall clock — the "record" mode seeding,
    standing in for the paper's two [rdtsc()] calls. *)

val seeds : t -> int64 * int64
(** The two seeds this generator was created from (for demo [META]). *)

val draws : t -> int
(** Number of draws made so far. Replay correctness requires the draw
    count per critical section to match the recording (§4.5); tests and
    the replayer use this counter to check that invariant. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is in [\[0, bound)]: one {!bits64} draw's high 63
    bits reduced modulo [bound], with no rejection. So it is not quite
    uniform: each value's probability is [1/bound] times a factor
    within [bound / 2^63] of 1 (negligible for the scheduler's small
    bounds). A power of two
    (1 included) gets exactly the low [log2 bound] bits of those 63,
    the same value without a divide. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** A choice from a non-empty array, indexed by {!int}.
    @raise Invalid_argument on [||]. *)

val splitmix_next : int64 ref -> int64
(** One SplitMix64 step (Steele, Lea & Flood): advance [state] and
    return the next avalanched 64-bit value. The seed expander behind
    {!create}, and the repo-wide idiom for deriving decorrelated seed
    pairs from an index. *)

val copy : t -> t
(** Independent copy with the same state and draw count. *)

val reseed : t -> seed1:int64 -> seed2:int64 -> unit
(** In-place re-initialisation: after [reseed t ~seed1 ~seed2] the
    generator's state, seeds and draw count are indistinguishable from
    a fresh [create ~seed1 ~seed2]. Used by run arenas to recycle the
    generator across campaign runs without allocating. *)
