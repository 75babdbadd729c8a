(** Systematic schedule exploration with dynamic partial-order
    reduction (DPOR) — stateless model checking in the CHESS tradition
    (§2, §6 of the paper).

    Where the random strategy samples the schedule space, this explorer
    enumerates it: depth-first over the tree of scheduling decisions,
    one run per distinct schedule, until the tree is exhausted or a
    budget runs out. Each node is reached by a {e guided prefix} (an
    index per tick into the ascending-tid enabled set, [Conf.Guided])
    and each edge carries the {!T11r_race.Decision.t} the interpreter
    recorded for it — chosen tid, enabled set, dependency footprint,
    scheduler-PRNG draws. For closed programs within the bounds the
    result is a *verification*: an empty race list means no explored-
    equivalent schedule (with the given weak-memory read seed) exhibits
    a race.

    By default the walk performs sleep-set DPOR (Flanagan–Godefroid
    style, applied to whole recorded runs): when the new event of a
    descent is in a reversible race with an earlier event of the
    current path, the earlier node's backtrack set gains the first
    thread of the reordered segment; sleep sets prune siblings whose
    subtrees would only re-interleave independent operations. Two
    decisions are dependent when their footprints conflict (same atomic
    location with a write, shared lock/condvar/rwlock object, fences,
    spawn/join against the affected thread, anything world-coupled) or
    when PRNG coupling could change behaviour (an op whose draw chose
    among two or more live alternatives against any other
    draw-consuming op). DPOR visits at least one run per Mazurkiewicz
    trace, so it reports the same distinct outcomes and the same
    distinct races as the exhaustive walk ([~dpor:false]) whenever both
    exhaust the space — usually in far fewer runs.

    The race analysis runs on {!T11r_race.Hb}, an incremental
    happens-before index over the current path: per thread, the latest
    path position of each object an event can touch, with an undo log
    popped alongside the DFS stack. Analysing a descent's new event
    costs O(threads²) plus a few array lookups, independent of the
    path length, and allocates nothing once the index has grown: rows,
    clocks, undo log and races live in int arrays. Frames are records
    reused in place, and share their run's decision array instead of
    copying their prefix; a frame's backtrack set is a small int array
    and its sleep set a slice of one sleep stack, so neither is rebuilt
    as a list. Each frame keeps the guided index of its current
    transition, so a fresh schedule's prefix is one array, a copy of
    the stack's indices. The aggregate tallies outcomes in an
    {!Outcome.tally}, as every engine does, and dedupes races in a
    table hashed over their fields; the journal's tables are consulted
    only when a resumed journal served entries. Following a run of depth D therefore costs O(D ×
    threads²) analysis on top of the run itself. Over perfbench
    check's exhausting set (10 litmus programs at 4 seed pairs, 15,357
    schedules, about 23 ticks each) the explorer's own step costs
    about 0.7 µs and 20 minor words per schedule, and decision
    capture about 0.6 µs and 42 words, beside about 3.5 µs for the
    run; see
    docs/ARCHITECTURE.md, "Cost of one DPOR schedule", and
    [bench/main.exe costs].

    Every prefix is one {!Campaign.run_one} from tick 0 on the
    domain's recycled arena and world, executed on the calling domain,
    one at a time, in analysis order, under one Guided configuration
    per exploration whose prefix alone changes. A run's scheduling points are its
    recorded decisions: the node at depth [k] of a run offers
    [r.decisions.(k).d_enabled].

    Caveats, also true of CHESS: the program must be closed (fixed
    input, no environment nondeterminism — exploration runs in [Free]
    mode with a fixed world seed), and weak-memory read choices are
    driven by the scheduler PRNG rather than enumerated, so the
    exploration is systematic over schedules, randomized over reads
    (the PRNG-coupling dependence keeps the reduction sound for that
    randomization). *)

type result = {
  runs : int;  (** distinct schedules executed or replayed from journal *)
  resumed_runs : int;  (** of those, replayed from a resume journal *)
  complete : bool;  (** the (reduced) choice tree was exhausted in budget *)
  racy_schedules : int;
  races : T11r_race.Report.t list;  (** distinct, in discovery order *)
  deadlock_schedules : int;
  crash_schedules : int;
      (** schedules whose run crashed: a program thread raised, or the
          run itself raised and was quarantined as [Crashed (-1, _)] *)
  outcomes : Outcome.histogram;  (** sorted by key *)
  max_depth_seen : int;  (** longest run, in scheduling points *)
}

val journal_schema : int
(** Version of the marshalled result layout, pinned in the header of
    an exploration journal; {!explore} rejects a journal of another
    schema with [Invalid_argument] before unmarshalling any entry. *)

val explore :
  ?max_runs:int ->
  ?jobs:int ->
  ?dpor:bool ->
  ?deadline_s:float ->
  ?tick_budget:int ->
  ?world_seed:int64 ->
  ?seeds:int64 * int64 ->
  ?journal:string ->
  ?cancel:(unit -> bool) ->
  build:(unit -> T11r_vm.Api.program) ->
  unit ->
  result
(** DFS over scheduling decisions. [max_runs] bounds the number of
    executions (default 2000); [seeds] fixes the PRNG used for
    weak-memory read choices.

    [dpor] (default [true]) enables sleep-set partial-order reduction;
    [~dpor:false] restores the exhaustive walk (every enabled thread
    tried at every node), which visits the same distinct outcomes and
    races in more runs — useful as a soundness oracle.

    [deadline_s] (default off) and [tick_budget] (default off) bound
    each individual run as {!Campaign.run_one} does (a budget only
    lowers [max_ticks]), so one livelocking schedule cannot wedge the
    whole exploration; a run cut short is aggregated under its
    [Timeout] / [Tick_limit] outcome, is treated as a leaf of the
    tree, and its journal entry resumes identically. A schedule whose
    setup, build or run raises does not abort the exploration:
    [Outcome.protect] turns the exception into a result (a quarantined
    [Crashed (-1, _)] counts in [crash_schedules]), and the run is a
    leaf too.

    [jobs] is accepted and ignored: the walk runs on one domain.
    Speculative pre-execution on a pool was measured slower than the
    sequential walk once the analysis became cheap (each wave paid a
    domain spawn and join for one or two runs), and was removed.

    [journal] makes the exploration crash-safe and resumable: each
    analyzed prefix is appended (checksummed, with its result) and a
    rerun with the same seeds replays
    journalled prefixes instead of executing them ([resumed_runs]
    counts them, on the supervising domain only). The journal is
    opened by {!T11r_util.Journal.open_pinned} and its header pins the
    schema, seeds, world seed and [tick_budget]; before any entry is
    served, the first verifiable entry in file order is executed again
    and must reproduce ({!Campaign.check_reproduces}), which refuses
    another workload's journal. [cancel] is polled between descents; a
    cancelled exploration returns [complete = false] and can be
    resumed from its journal.

    @raise Invalid_argument before any run executes when [max_runs <
    1], or when [journal] is refused: its first line is damaged or it
    is not a journal, it is another engine's journal, its header is
    unreadable or has another schema, it was written with different
    seeds, world seed or tick budget, or its first verifiable entry
    does not reproduce. *)

val pp : Format.formatter -> result -> unit
