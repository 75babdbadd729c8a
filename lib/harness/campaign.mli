(** The unified campaign engine: every "run workload W under strategy
    S, N times with derived seeds" experiment in the paper's evaluation
    goes through this one module, optionally sharded across an OCaml 5
    domain pool.

    A campaign is a pure function of its {!spec}: run [i] constructs
    its own [Conf], [World] and program from the index alone, runs on
    exactly one domain, and shares nothing with any other run. The
    per-run results are collected by index and aggregated by a
    sequential fold in index order, so the {!report} — histograms,
    race-sighting tables, schedule counts, float statistics, byte for
    byte — is identical whatever [jobs] is. [jobs = 1] is exactly the
    old sequential loop. *)

type spec = {
  label : string;  (** row/column label, e.g. "tsan11rec rnd" *)
  conf : int -> Tsan11rec.Conf.t;  (** configuration for run [i] *)
  instance : int -> T11r_env.World.t * T11r_vm.Api.program;
      (** world {e and} program for run [i], built together so the
          program closure can capture handles (fds) created during
          world setup — no globals, no cross-run state *)
}

val spec :
  label:string ->
  ?base_conf:Tsan11rec.Conf.t ->
  ?setup_world:(T11r_env.World.t -> unit) ->
  (unit -> T11r_vm.Api.program) ->
  spec
(** Convenience constructor for workloads whose program does not
    depend on world setup: derives per-run scheduler and world seeds
    from the run index, applies [setup_world] to each fresh world. *)

val spec_io :
  label:string ->
  ?base_conf:Tsan11rec.Conf.t ->
  (int -> T11r_env.World.t -> unit -> T11r_vm.Api.program) ->
  spec
(** Like {!spec} for workloads that must thread per-run state from
    world setup into the program: [prepare i world] sets up [world]
    for run [i] (connections, fault plans, files) and returns the
    program builder, typically capturing fds from setup. *)

val scheduler_seeds : Tsan11rec.Conf.t -> int -> Tsan11rec.Conf.t
(** [scheduler_seeds base i] is [base] with run [i]'s two scheduler
    seeds — the derivation {!spec} and {!spec_io} use for every run. *)

(** {1 Domain-local recycling} *)

val domain_arena : unit -> Tsan11rec.Interp.arena
(** The calling domain's run arena (created on first use). Every
    {!run_one} executes through it; other per-domain run loops (the
    benchmark) may share it. Never hand it to another domain. *)

val recycled_world : seed:int64 -> T11r_env.World.t
(** The calling domain's recycled default-config world, reset in place
    to [World.create ~seed ()]'s exact state. Valid until the next
    [recycled_world] call on this domain — build and run the instance
    before requesting another. *)

(** {1 Running} *)

val run_one :
  deadline_s:float ->
  tick_budget:int option ->
  Tsan11rec.Conf.t ->
  (unit -> T11r_env.World.t * T11r_vm.Api.program) ->
  Tsan11rec.Interp.result
(** [run_one ~deadline_s ~tick_budget conf instance] is the one
    supervised single run every harness engine executes ({!run},
    [Systematic], [Minimize], [Predictor], [Faultsweep]). A
    [tick_budget] lowers [conf]'s [max_ticks] to it and never raises
    it; a positive [deadline_s] becomes [conf]'s wall-clock deadline.
    [instance ()] builds the world and program, and the run executes
    on the calling domain's {!domain_arena} under [Outcome.protect],
    the harness's one crash rule: it never raises. A setup or build
    failure becomes an [App_error]/[Unsupported_app] result, and any
    other exception the quarantine result [Crashed (-1, msg)]. *)

val check_reproduces :
  who:string ->
  tick_budget:int option ->
  string ->
  T11r_util.Journal.writer ->
  ('k -> Tsan11rec.Conf.t * (unit -> T11r_env.World.t * T11r_vm.Api.program)) ->
  ('k * Tsan11rec.Interp.result) list ->
  unit
(** The resume check every engine makes before serving a journalled
    entry: the first [(key, result)] of [runs] whose outcome is neither
    [Timeout] nor a quarantined [Crashed (-1, _)] runs again through
    {!run_one} under [setup key] with the deadline off, and its result
    without demo must marshal ([No_sharing]) to the journalled bytes.
    This refuses what a header cannot name: another strategy, world
    seed or workload.
    @raise Invalid_argument naming [who] and [path], after closing
    [w], when the run does not reproduce. *)

type observer = { on_run : int -> Tsan11rec.Interp.result -> unit }
(** Extra per-run hook. Observers are invoked after the campaign
    completes, on the calling domain, in run-index order — they may
    keep ordinary mutable state without any synchronisation. *)

val observer : (int -> Tsan11rec.Interp.result -> unit) -> observer

type sighting = {
  s_race : T11r_race.Report.t;
  s_first : int;  (** lowest run index that exposed it *)
  s_count : int;  (** how many runs exposed it *)
}

val compare_sighting : sighting -> sighting -> int
(** The one sighting order: most-sighted first, then lowest first
    index, then [T11r_race.Report.compare]. Campaign and guided reports
    both sort their sightings with it. *)

type supervision = {
  sup_resumed : int;  (** runs replayed from the journal, not executed *)
  sup_quarantined : (int * string) list;
      (** runs that raised, i.e. the [Crashed (-1, msg)] results, as
          [(index, msg)] in index order. Derived from the results like
          [sup_timeouts], so a quarantine served from a journal is
          listed in the resumed report too. *)
  sup_timeouts : int;  (** runs that hit the wall-clock deadline *)
  sup_journal_dropped : int;  (** corrupt or torn journal lines ignored *)
  sup_interrupted : bool;  (** cancelled before all [n] runs finished *)
  sup_done : int;  (** runs present in this report *)
}
(** What the supervisor did. Deliberately NOT part of {!equal} /
    {!digest}: resumes and journal damage depend on conditions outside
    the campaign's pure function of the index. *)

type report = {
  label : string;
  n : int;
  first : int;  (** first run index (run [k] of the array is [first + k]) *)
  jobs : int;  (** worker domains used *)
  wall_s : float;  (** real wall-clock of the whole campaign *)
  results : Tsan11rec.Interp.result array;
      (** slot [k] = run [first + k]; in a report of {!run}, runs with
          equal schedules share one [trace] list *)
  time_ms : T11r_util.Stats.summary;  (** simulated makespans, ms *)
  race_rate : float;  (** % of runs with at least one race *)
  mean_reports : float;
  mean_ticks : float;
  completed : int;
  racy_runs : int;
  distinct_schedules : int;
      (** distinct [(tid, op)] sequences of the runs' traces, counted
          exactly (ticks ignored) *)
  outcomes : (string * int) list;  (** outcome histogram, sorted by key *)
  sightings : sighting list;  (** distinct races, most-sighted first *)
  crashes : (int * string) list;  (** (run index, message), in run order *)
  metrics : T11r_obs.Metrics.t;
      (** campaign-wide counter totals: per-run [Interp.result.metrics]
          summed in run-index order (a commutative-looking but
          deliberately ordered monoid fold), so the totals are
          bit-identical whatever [jobs] was *)
  coverage : T11r_race.Coverage.summary;
      (** union of every run's schedule-coverage fingerprint, folded in
          run-index order; [T11r_race.Coverage.empty] unless the
          campaign's configurations enabled [Conf.coverage] *)
  supervision : supervision;
      (** excluded from {!equal}/{!digest}, like [wall_s] and [jobs] *)
}

(** On an interrupted (cancelled) campaign, [results] holds only the
    completed runs, still in index order; [supervision.sup_interrupted]
    is set and the digest is not meaningful until the campaign is
    resumed to completion. *)

val run :
  spec ->
  n:int ->
  ?jobs:int ->
  ?first:int ->
  ?deadline_s:float ->
  ?tick_budget:int ->
  ?journal:string ->
  ?cancel:(unit -> bool) ->
  observer list ->
  report
(** Execute runs [first .. first + n - 1] ([first] defaults to 0) on
    up to [jobs] domains (default 1 = sequential) and aggregate.
    Aggregates are bit-identical for every [jobs]; only [wall_s],
    [jobs] and [supervision] themselves vary. Every run goes through
    {!run_one}, so a run that raises becomes a result rather than
    killing the campaign.

    Supervision:
    - [deadline_s] imposes a per-run wall-clock deadline (a wedged run
      becomes a [Timeout] outcome instead of hanging its domain). Wall
      time is nondeterministic; deterministic campaigns should use
      [tick_budget], which caps each run's [max_ticks] (a
      [Tick_limit] outcome) deterministically.
    - a run that raises anything but [World.Unsupported], [Failure]
      or [Invalid_argument] is executed once and quarantined as a
      [Crashed (-1, _)] result, listed in
      [supervision.sup_quarantined] — one crashing run never aborts
      the campaign.
    - [journal] appends every completed run to a checksummed JSONL
      journal opened by {!T11r_util.Journal.open_pinned}, whose header
      identity is the label, [n], [first] and [tick_budget]; runs the
      file already holds are not re-executed — this is [--resume] —
      once its lowest-index verifiable run reproduces
      ({!check_reproduces}). Resumed and [jobs]-varied
      campaigns all produce bit-identical digests: aggregation replays
      journal entries in run-index order.
    - [cancel] is polled between runs (SIGINT draining): when it turns
      true the campaign stops claiming work, finishes in-flight runs,
      flushes the journal and returns a partial report with
      [supervision.sup_interrupted] set.

    @raise Invalid_argument when [n < 1], or before any run executes
    when [journal] is refused: its first line is damaged or it is not
    a journal, it is another engine's journal, its header is
    unreadable or has another {!journal_schema}, it pins another
    campaign (label/n/first/tick budget), or its first verifiable run
    does not reproduce under [s]. *)

val aggregate :
  label:string ->
  n:int ->
  first:int ->
  jobs:int ->
  wall_s:float ->
  ?supervision:supervision ->
  (int * Tsan11rec.Interp.result) array ->
  report
(** The report {!run} returns for the runs [(index, result)] it holds,
    given in index order: one pass that keeps every result and folds
    the counts, histograms, sightings, schedules, metrics and coverage
    in that order. [supervision] (default: nothing happened) supplies
    the fields a run loop knows; [sup_done], [sup_interrupted] (fewer
    runs than [n]), [sup_quarantined] and [sup_timeouts] are derived
    from the results. *)

val journal_schema : int
(** Version of the marshalled run layout, pinned in every journal's
    header. It changes whenever [Interp.result] (or anything it
    contains) changes layout; {!run} and {!journal_results} reject a
    journal of another schema with [Invalid_argument] before
    unmarshalling any run entry. *)

val journal_results : string -> (int * Tsan11rec.Interp.result) list
(** Read-only access to a campaign journal's completed runs, in index
    order (newest entry wins per index on resumed journals) — the
    input of offline analyses ([Predictor]) over a finished campaign.
    The Marshal schema pin is enforced; the campaign identity pins are
    not. Entries that do not unmarshal are skipped.
    @raise Invalid_argument on a file with no campaign header, a
    damaged first line, another engine's journal, an unreadable
    header or a schema mismatch. *)

val equal : report -> report -> bool
(** Structural equality of everything except [wall_s], [jobs] and the
    recorded demo handles — the determinism check for
    [-j1] vs [-jN] campaigns. *)

val digest : report -> string
(** Hex digest of everything {!equal} compares — a compact fingerprint
    for cross-build regression fixtures: two reports are [equal] iff
    their digests match (up to hash collision). *)

val pp : Format.formatter -> report -> unit
(** The one printer of a report: run count and racy percentage over
    the runs the report holds (fewer than [n] when interrupted),
    totals, the outcome histogram, each sighting with its first run
    index, the first crash, and the supervision lines (interruption,
    resumes, journal damage, quarantines). *)
