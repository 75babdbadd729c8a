(** Per-run schedule-coverage fingerprints.

    A fingerprint is a fixed 4096-bit hash set over the events that
    distinguish one schedule from another: racing-pair sites,
    happens-before edges between distinct (tid, object) pairs,
    stale-read sites, and preemption points. The interpreter marks
    bits during the run; harness code works with the immutable
    {!summary} extracted at the end.

    The mutable collector follows [T11r_obs.Trace]'s discipline: the
    interpreter threads a handle through every run, and when coverage
    is off ({!disabled}) each {!mark} is a single branch with zero
    allocation — enforced by the budgets in test/test_alloc.ml. *)

type t
(** A mutable per-run bit collector. *)

val disabled : t
(** The shared no-op collector: {!mark} returns immediately. *)

val create : unit -> t
(** A fresh all-zero collector. *)

val enabled : t -> bool

val reset : t -> unit
(** Clear all bits and the {!count} in place (no-op on {!disabled}). *)

val mark : t -> int -> unit
(** Set the bit addressed by a site hash (mod the bitmap width),
    counting it if it was clear. One branch and no allocation when the
    collector is {!disabled}. *)

val count : t -> int
(** Bits set since {!create} or the last {!reset} — equal to
    [popcount (summarize t)], kept by {!mark} so reading it costs no
    scan. 0 for {!disabled}. *)

(** {2 Site hashes}

    Deterministic FNV-1a site addresses, one salt per event family.
    All are allocation-free. *)

val site_race : var:string -> kind:int -> first_tid:int -> second_tid:int -> int
val site_edge : tid:int -> obj:int -> int
val site_stale : tid:int -> var:string -> int
val site_preempt : prev:int -> next:int -> int

(** {2 Summaries} *)

type summary = string
(** An immutable fingerprint: either the empty string (coverage was
    disabled, or nothing merged yet — the {!union} identity) or the
    raw 512-byte bitmap. Plain data: marshal-stable, structurally
    comparable, safe inside campaign journals and digests. *)

val empty : summary

val summarize : t -> summary
(** Freeze a collector's bits. {!empty} for a {!disabled} collector. *)

(** The operations below read a summary a 64-bit word at a time (any
    tail shorter than a word byte by byte), skip a zero word before any
    other work on it (a run sets a few dozen of the 4,096 bits), and
    allocate nothing but {!union}'s result and a {!merge}'s buffer. *)

val union : summary -> summary -> summary
(** Bitwise or. An operand that {!is_empty} — {!empty} or an all-zero
    bitmap — yields the other operand unchanged, the left one tested
    first. So the bytes can depend on operand order: [union zeros
    empty] is {!empty}, while [union empty zeros] is the all-zero
    bitmap, and marshalled digests see the difference. Merges of many
    summaries are deterministic only because every caller folds them
    in run-index order.
    @raise Invalid_argument when neither operand {!is_empty} and their
    widths differ. *)

type merge
(** A left fold of {!union} over summaries, ORed into one buffer:
    [merge_add] of [s1 .. sn] on a fresh {!merge}, then
    {!merge_result}, gives the bytes of
    [List.fold_left union empty [s1; ...; sn]], its physical sharing
    (the last operand when none is non-empty, the non-empty one when
    there is exactly one) and its [Invalid_argument]. Only the second
    non-empty operand allocates (a copy of the first); later ones are
    ORed in place. *)

val merge : unit -> merge
(** A fold with no operand yet: its result is {!empty}. *)

val merge_add : merge -> summary -> unit
(** Fold in the next operand.
    @raise Invalid_argument as {!union} does, on a non-empty operand
    whose width differs from the non-empty ones before it. *)

val merge_result : merge -> summary
(** The fold's value. The merge can go on after it: a later non-empty
    operand ORs into a fresh copy, never into the returned summary. *)

val new_bits : base:summary -> summary -> int
(** Bits set in the summary but not in [base] — the corpus admission
    test. 0 when the summary {!is_empty}; [popcount s] when [base]
    does.
    @raise Invalid_argument when neither {!is_empty} and their widths
    differ. *)

val popcount : summary -> int

val is_empty : summary -> bool
(** [true] for {!empty} and for an all-zero bitmap. *)

val digest : summary -> string
(** Hex MD5 of the bitmap bytes. *)
