(** The tsan11rec runtime: controlled scheduling, record and replay,
    race detection — one interpreter for every tool configuration.

    Programs (lib/vm) perform effects; this module is the
    "instrumentation layer" that catches them. Each visible operation
    becomes a critical section: the thread waits to be scheduled
    ([Wait()]), the operation executes, and the scheduler picks the next
    thread ([Tick()]). Invisible regions run on the thread's own
    simulated clock and, except under the rr model, in parallel.

    Record mode captures the demo (QUEUE/SIGNAL/SYSCALL/ASYNC + META);
    replay mode enforces it, aborting with a {e hard desynchronisation}
    when a constraint cannot be satisfied and flagging a {e soft
    desynchronisation} when all constraints hold but observable output
    diverges (§4). *)

type outcome =
  | Completed
  | Deadlock of int list  (** tids still blocked *)
  | Crashed of int * string  (** a thread raised: the program's bug *)
  | Hard_desync of string
  | Unsupported_app of string
      (** the tool cannot drive this program at all (rr vs the opaque
          display driver, a recording policy vs [epoll_wait]) *)
  | App_error of string
      (** the workload itself failed outside any thread (setup or
          build raised) — reported by the harness, never by {!run} *)
  | Tick_limit
  | Timeout
      (** the run exceeded [Conf.deadline_s] wall-clock seconds — the
          supervision outcome for wedged/livelocked runs. New
          constructors go at the end: campaign journals marshal results,
          so existing tags must keep their numbering. *)
  | Corrupt_demo of string
      (** replay input failed verification ({!Demo.Corrupt}) *)

(** One replay divergence: at op (tick) [div_tick], [div_site] (QUEUE,
    SYSCALL, SIGNAL or ASYNC) expected [div_expected] but the run
    produced [div_actual]. [div_trail] holds the last trace events
    before the divergence (populated under [Conf.Diagnose]). *)
type divergence = {
  div_tick : int;
  div_tid : int;
  div_site : string;
  div_expected : string;
  div_actual : string;
  div_trail : (int * int * string) list;
}

type result = {
  outcome : outcome;
  makespan_us : int;  (** simulated wall-clock of the whole run *)
  ticks : int;  (** critical sections executed *)
  races : T11r_race.Report.t list;
  race_count : int;
  lock_cycles : T11r_race.Lockorder.cycle list;
      (** lock-order inversions observed — potential deadlocks reported
          even on runs where the deadlock did not manifest *)
  trace_divergence : string option;
      (** replay only: the first point where the replayed schedule
          departs from the recording. Checked on {e every} replay: when
          the demo carries a TRACE file (recorded under
          [Conf.debug_trace]) the report is op-precise; otherwise it
          falls back to comparing executed op counts against META *)
  output : string;  (** observable output (fd 1) *)
  soft_desync : bool;  (** replay only: output diverged from recording *)
  demo : Demo.t option;  (** record mode: the captured demo *)
  trace : (int * int * string) list;
      (** (tick, tid, op label) per critical section, in order —
          the ground truth for replay-fidelity tests *)
  thread_names : (int * string) list;
      (** tid -> program-supplied thread name, creation order *)
  rng_draws : int;  (** scheduler-PRNG draws (replay must match) *)
  desync_count : int;
      (** replay divergences encountered; only [Conf.Resync] can
          produce values above 1 — [Abort]/[Diagnose] stop at the
          first *)
  divergences : divergence list;
      (** structured reports for the first divergences (capped at 64
          under [Resync]; exactly the diagnosed one under [Diagnose]) *)
  metrics : T11r_obs.Metrics.t;
      (** per-run counters (ticks, waits, preemptions, evictions, stale
          reads, detector checks, desyncs) — collected on every run at
          no allocation cost, summed by [Campaign] in index order *)
  events : T11r_obs.Trace.event list;
      (** structured event stream, oldest first — empty unless
          [Conf.trace_events] was set; export with [T11r_obs.Chrome] *)
  events_dropped : int;
      (** events lost to the trace ring buffer's capacity *)
  coverage : T11r_race.Coverage.summary;
      (** the run's schedule-coverage fingerprint —
          [T11r_race.Coverage.empty] unless [Conf.coverage] was set *)
  decisions : T11r_race.Decision.t array;
      (** one entry per executed tick, in order — empty unless the run
          used the [Conf.Guided] strategy (systematic exploration,
          predictive analysis); every other configuration pays one
          branch per tick and allocates nothing *)
  accesses : T11r_race.Decision.acc array;
      (** every shadow-checked non-atomic access in stream order, with
          its thread-position attribution — empty unless the run used
          the [Conf.Guided] strategy (captured for the offline
          predictive race analysis; other configurations stay on the
          detector's zero-allocation path) *)
}

type arena
(** A domain-local bundle of the allocation-heavy structures a run
    needs (weak memory, detectors, PRNG, object tables, thread vector,
    observability buffers), recycled across runs: passing the same
    arena to consecutive {!run}s reuses all of it in place, so a short
    run allocates close to nothing beyond the program's own state.

    Ownership rules: an arena belongs to one domain and at most one
    live run at a time; never share one across domains or pass it to a
    run while another run on it is still executing. Results never
    alias arena state (everything escaping a run is copied), so
    recycling is observationally invisible — a run on a recycled arena
    is bit-identical to a run on a fresh arena. *)

val create_arena : unit -> arena

val run :
  ?world:T11r_env.World.t ->
  ?arena:arena ->
  Conf.t ->
  T11r_vm.Api.program ->
  result
(** Execute [program] under the given configuration. [world] defaults
    to a fresh wall-seeded world; experiments pass seeded worlds. In
    [Record dir] mode the demo is also saved to [dir]; in [Replay dir]
    mode it is loaded from [dir] and enforced. [arena] recycles run
    state (see {!arena}); without it the run gets a fresh arena. *)

val completed : result -> bool
(** [outcome = Completed]. *)

val to_predict_input : result -> T11r_race.Predict.input
(** Bundle a Guided run's decisions, access stream and race sightings
    as the input of [T11r_race.Predict.analyze]. Recordings
    made under decision capture also persist this input in the demo's
    DECISIONS aux file ([T11r_race.Predict.encode_input]), so the
    analysis can run offline on the demo alone. *)

val result_of_outcome : outcome -> result
(** An empty result carrying just [outcome] — for failures that happen
    before a run starts (the harness wraps workload setup/build
    exceptions this way). *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_divergence : Format.formatter -> divergence -> unit
