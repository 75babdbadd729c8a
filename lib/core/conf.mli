(** Tool configurations.

    One interpreter executes every configuration of the evaluation:
    native, tsan11, the rr model, tsan11+rr, and tsan11rec with either
    strategy, with or without recording. A configuration bundles the
    scheduling model, the race-detection switches, the cost model that
    drives the simulated clock, and the record/replay mode. *)

type strategy =
  | Random
  | Queue
  | Pct of int
  | Delay_bounded of int
  | Preempt_bounded of int
  | Guided of { prefix : int array; observed : int list ref }
      (** Controlled-scheduling strategies. [Random] and [Queue] are
          §3's two strategies. The rest are the schedule-bounding
          extensions the paper's conclusion calls for: [Pct d]
          approximates probabilistic concurrency testing with priority
          change points; [Delay_bounded d] follows the deterministic
          FCFS schedule but may divert from it at most [d] times (Emmi
          et al., POPL 2011); [Preempt_bounded b] runs each thread
          without preemption, allowing at most [b] preemptions at
          visible operations (Musuvathi & Qadeer, PLDI 2007). All are
          PRNG-randomised and therefore replayable from the demo's two
          seeds alone. [Pct d]'s [d] is never read: every [Pct] runs
          the same strategy, and [d] survives only in names such as
          ["pct:3"], which corpus digests carry.

          [Guided] is the substrate of {!T11r_harness.Systematic}'s
          stateless model checking: at tick [i] it picks the
          [prefix.(i)]-th enabled thread (tid order), leftmost beyond
          the prefix. Each tick's [T11r_race.Decision.t] (in
          [Interp.result.decisions]) holds its enabled set, from which
          the explorer enumerates the untried alternatives. [observed]
          is no longer written: it stays only because benchmark code
          outside the library builds the record. Not replayable — but
          recordable: guided recordings carry the DECISIONS metadata
          the offline predictive race analysis ([T11r_race.Predict])
          consumes. *)

type sched_model =
  | Os_model
      (** uncontrolled: visible ops execute in arrival order with
          physical jitter and no global serialization — how native,
          tsan11 and tsan11+rr runs are scheduled *)
  | Controlled of strategy
      (** the tsan11rec scheduler: one visible operation at a time *)

type mode =
  | Free  (** run without recording or replaying *)
  | Record of string  (** record a demo into the given directory *)
  | Replay of string
      (** replay the demo in the given directory, under its META's
          strategy ([sched] is not read) *)

(** What the replayer does when the run diverges from the demo in a
    way that cannot be reconciled (a hard desynchronisation, §4.2). *)
type desync_mode =
  | Abort  (** stop immediately with [Hard_desync] — the paper's
               behaviour, and the default *)
  | Diagnose
      (** stop at the first divergence but produce a structured report
          (op index, thread, expected-vs-actual constraint, recent
          trace) in [Interp.result.divergences] *)
  | Resync
      (** best-effort continuation: skip or pad recorded events to get
          past each divergence, count them all, and report them in
          [Interp.result] instead of aborting *)

type t = {
  name : string;
  sched : sched_model;
  race_detection : bool;
  emit_reports : bool;  (** model the cost of printing race reports *)
  serialize_visible : bool;
      (** tsan11rec: visible operations are totally ordered on the
          global clock; invisible regions stay parallel *)
  serialize_all : bool;
      (** rr: invisible work is also globally sequentialized *)
  invis_mult : float;  (** instrumentation slowdown on invisible work *)
  var_cost : int;  (** µs per instrumented non-atomic access *)
  vis_cost : int;  (** µs per visible operation, including interception *)
  vis_cost_syscall : int;
      (** µs per intercepted syscall — higher than [vis_cost] for tools
          that trap to a supervisor process (the rr model) *)
  record_cost : int;  (** extra µs per item written to the demo *)
  report_cost : int;  (** µs consumed by emitting one race report *)
  resched_ms : int;  (** liveness: force a reschedule after this many ms
                         (§3.3); [0] disables *)
  seeds : (int64 * int64) option;
      (** scheduler PRNG seeds; [None] seeds from the wall clock (and
          is what [Record] stores in META) *)
  policy : Policy.t;
  mode : mode;
  forbid_opaque_ioctl : bool;
      (** rr model: refuse to run when the program talks to the opaque
          display driver *)
  queue_jitter_us : int;
      (** physical-timing noise added to Wait() arrival order — this is
          why queue recordings differ run to run (§4.2) *)
  startup_us : int;
      (** fixed tool startup overhead added to every run's makespan —
          large for the rr model ("huge increases due to a constant
          overhead applied to all programs", §5.1), zero otherwise *)
  max_ticks : int;  (** safety valve against livelock in tests *)
  deadline_s : float;
      (** wall-clock budget for one run, seconds; [0.] disables. Hitting
          it yields the {!Interp.Timeout} outcome. Wall time is
          inherently nondeterministic — deterministic campaigns should
          bound runs with [max_ticks] (tick budgets) instead and keep
          the deadline as a supervision backstop for wedged runs. *)
  max_history : int;
      (** store-history window of the weak-memory model; [1] makes
          every atomic location a sequentially consistent register *)
  suppressions : string list;
      (** tsan-style race-suppression patterns (exact location name or
          '*'-terminated prefix); matching races are muted *)
  debug_trace : bool;
      (** also write a TRACE file (tick/tid/op per critical section)
          into recorded demos — a debugging aid beyond the paper's demo
          format, off by default. Replays always diff against a TRACE
          file when the demo has one, whatever this flag says. *)
  trace_events : bool;
      (** collect a structured event stream ([T11r_obs.Trace]) during
          the run, surfaced in [Interp.result.events] and exportable as
          Chrome trace-event JSON. Off by default; when off the hot
          path pays one branch and zero allocation per operation. *)
  trace_capacity : int;
      (** ring-buffer capacity of the event stream (default 65536
          events); older events are overwritten beyond it *)
  on_desync : desync_mode;
      (** replay divergence handling; [Abort] by default *)
  coverage : bool;
      (** collect the per-run schedule-coverage fingerprint
          ([T11r_race.Coverage]), surfaced in [Interp.result.coverage].
          Off by default; when off the hot path pays one branch and
          zero allocation per mark site. *)
}

val default : t
(** tsan11rec with the random strategy, race detection on, free mode. *)

val native : t
val tsan11 : t
val rr_model : t
(** The rr baseline: queue-like FCFS, full sequentialization, full
    recording semantics, no race detection. *)

val tsan11_rr : t
val tsan11rec : ?strategy:strategy -> ?mode:mode -> unit -> t

(** {2 Builders}

    The canonical construction path: start from a preset (or [make]'s
    [?base], which defaults to {!default}), override the fields you
    care about, and never spell the record out at a call site — this
    keeps callers insulated from field additions. *)

val make :
  ?base:t ->
  ?name:string ->
  ?strategy:strategy ->
  ?mode:mode ->
  ?race_detection:bool ->
  ?emit_reports:bool ->
  ?seeds:int64 * int64 ->
  ?policy:Policy.t ->
  ?resched_ms:int ->
  ?queue_jitter_us:int ->
  ?max_ticks:int ->
  ?deadline_s:float ->
  ?max_history:int ->
  ?suppressions:string list ->
  ?debug_trace:bool ->
  ?trace_events:bool ->
  ?trace_capacity:int ->
  ?on_desync:desync_mode ->
  ?coverage:bool ->
  unit ->
  t
(** Build a configuration by overriding fields of [?base] (default
    {!default}). Every argument simply replaces the corresponding
    field; [?strategy] sets [sched] to [Controlled strategy]. *)

val with_seeds : t -> int64 -> int64 -> t
val with_policy : t -> Policy.t -> t
val with_name : t -> string -> t
val with_strategy : t -> strategy -> t
val with_mode : t -> mode -> t
val with_race_detection : t -> bool -> t
val with_max_ticks : t -> int -> t
val with_max_history : t -> int -> t

val with_trace : t -> capacity:int -> t
(** Enable structured event tracing with the given ring capacity. *)

val with_on_desync : t -> desync_mode -> t
val with_coverage : t -> bool -> t

val validate : t -> (t, string) result
(** Reject inconsistent configurations: [trace_capacity <= 0],
    [max_history < 1], [max_ticks < 1], and negative costs,
    multipliers, jitters or deadlines. Returns the configuration
    unchanged when consistent. *)

val strategy_name : strategy -> string
val strategy_of_name : string -> strategy option

val sched_name : sched_model -> string
val sched_of_name : string -> sched_model option
(** The strategy a demo's META records ({!strategy_name}, or ["os"])
    and back; [None] for ["guided"] and unknown names, which no replay
    can follow. *)

val desync_mode_name : desync_mode -> string
val desync_mode_of_name : string -> desync_mode option
