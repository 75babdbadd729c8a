(** Happens-before race detection for non-atomic accesses.

    The tsan11 substrate: every instrumented non-atomic location carries
    shadow state — the last write (as a FastTrack epoch) and the clock
    of reads since that write. An access races with a shadow entry that
    is not ordered before the accessing thread's current vector clock.

    Non-atomic accesses are *invisible* operations for the scheduler
    (§2: they are not scheduling points) but they are still checked
    here, exactly as tsan's instrumentation checks them without
    affecting scheduling. *)

type t

type var
(** A shadowed non-atomic location. *)

val create : unit -> t

val reset : t -> unit
(** In-place reset to the post-[create] state (reports, dedup table,
    callbacks, suppressions, counters all cleared), recycling shadow
    vars: after [reset], [fresh_var] re-initialises previously created
    var records in place (ids restart at 0) instead of allocating. *)

val fresh_var : t -> name:string -> var
val var_name : var -> string

val var_id : var -> int
(** Dense id, assigned in creation order (restarting at 0 after
    {!reset}) — the stable per-run key the predictive analysis uses to
    pair accesses across threads. *)

val read : t -> var -> st:T11r_mem.Tstate.t -> unit
(** Check-and-update for a non-atomic read.

    @raise Failure if the accessing thread's id or epoch exceeds what
    the packed shadow representation can hold (2^20 threads,
    [max_int asr 20] epochs) — out-of-range values would silently
    corrupt shadow state for every later access. *)

val write : t -> var -> st:T11r_mem.Tstate.t -> unit
(** Check-and-update for a non-atomic write. Same bounds as {!read}. *)

val checks : t -> int
(** Shadow-state checks performed (one per {!read} or {!write}) — the
    detector-load counter of the run metrics. *)

val reports : t -> Report.t list
(** All distinct races found, in detection order. A given
    (location, kind, thread-pair) is reported once, matching tsan's
    report deduplication. *)

val report_count : t -> int
(** Number of distinct reports (the paper's per-run race count). *)

val racy : t -> bool
(** Whether at least one race was detected (Table 1's race "Rate" is
    the fraction of runs for which this is true). *)

val on_report : t -> (Report.t -> unit) -> unit
(** Register a callback invoked on each fresh report; the harness uses
    it to model the cost of emitting race reports (§5.2 "Race reports"
    vs "No reports" columns). *)

val set_access_hook : t -> (var -> tid:int -> write:bool -> unit) option -> unit
(** Stream every shadow-checked access (before the check) to the
    offline predictive analysis. [None] — the default, restored by
    {!reset} — costs one branch per check and allocates nothing, so
    configurations that do not capture decisions stay on the
    zero-allocation path (the budgets in test/test_alloc.ml are
    unchanged). *)

val set_suppressions : t -> string list -> unit
(** tsan-style suppression patterns: an exact location name, or a
    ['*']-terminated prefix ("scoreboard*"). Matching races are
    not reported — how a team mutes known-benign races
    while hunting new ones (the paper's Table 2 discusses httpd
    results "in which many races are fixed"). *)

