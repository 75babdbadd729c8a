type strategy =
  | Random
  | Queue
  | Pct of int
  | Delay_bounded of int
  | Preempt_bounded of int
  | Guided of { prefix : int array; observed : int list ref }

type sched_model = Os_model | Controlled of strategy

type mode = Free | Record of string | Replay of string

type desync_mode = Abort | Diagnose | Resync

type t = {
  name : string;
  sched : sched_model;
  race_detection : bool;
  emit_reports : bool;
  serialize_visible : bool;
  serialize_all : bool;
  invis_mult : float;
  var_cost : int;
  vis_cost : int;
  vis_cost_syscall : int;
  record_cost : int;
  report_cost : int;
  resched_ms : int;
  seeds : (int64 * int64) option;
  policy : Policy.t;
  mode : mode;
  forbid_opaque_ioctl : bool;
  queue_jitter_us : int;
  startup_us : int;
  max_ticks : int;
  deadline_s : float;
  max_history : int;
  suppressions : string list;
  debug_trace : bool;
  trace_events : bool;
  trace_capacity : int;
  on_desync : desync_mode;
  coverage : bool;
}

(* Cost-model notes. Baseline visible ops take ~1µs natively. tsan11's
   instrumentation slows invisible work ~3-4x and visible ops ~5x
   (the paper reports 3x on httpd without reporting, 10-12x for tsan on
   memory-heavy code). rr's per-event cost is low but everything is
   serialized. These constants, together with each workload's
   visible/invisible mix, reproduce the *shape* of Tables 1-5. *)

let default =
  {
    name = "tsan11rec-rnd";
    sched = Controlled Random;
    race_detection = true;
    emit_reports = true;
    serialize_visible = true;
    serialize_all = false;
    invis_mult = 1.25;
    var_cost = 1;
    vis_cost = 12;
    vis_cost_syscall = 12;
    record_cost = 2;
    report_cost = 3000;
    resched_ms = 10;
    seeds = None;
    policy = Policy.default;
    mode = Free;
    forbid_opaque_ioctl = false;
    queue_jitter_us = 40;
    startup_us = 0;
    max_ticks = 5_000_000;
    deadline_s = 0.;
    max_history = 8;
    suppressions = [];
    debug_trace = false;
    trace_events = false;
    trace_capacity = 65536;
    on_desync = Abort;
    coverage = false;
  }

let native =
  {
    default with
    name = "native";
    sched = Os_model;
    race_detection = false;
    emit_reports = false;
    serialize_visible = false;
    invis_mult = 1.0;
    var_cost = 0;
    vis_cost = 1;
    vis_cost_syscall = 2;
    resched_ms = 0;
  }

let tsan11 =
  {
    native with
    name = "tsan11";
    race_detection = true;
    emit_reports = true;
    invis_mult = 1.25;
    var_cost = 1;
    vis_cost = 5;
    vis_cost_syscall = 6;
  }

let rr_model =
  {
    native with
    name = "rr";
    sched = Controlled Queue;
    serialize_visible = true;
    serialize_all = true;
    invis_mult = 1.15;
    (* rr does not intercept user-space atomics or uncontended mutexes;
       only syscalls (and signals) trap to the supervisor. *)
    vis_cost = 1;
    vis_cost_syscall = 25;
    record_cost = 22;  (* every recorded syscall round-trips the trace *)
    forbid_opaque_ioctl = true;
    startup_us = 570_000;
    (* rr records everything; its policy is "all kinds". *)
    policy =
      {
        Policy.default with
        name = "rr-full";
        record_file_rw = true;
        full_interposition = true;
      };
  }

let tsan11_rr =
  {
    rr_model with
    name = "tsan11+rr";
    race_detection = true;
    emit_reports = true;
    invis_mult = 1.45;  (* both instrumentations stack *)
    var_cost = 1;
    vis_cost = 5;
    vis_cost_syscall = 30;
  }

let tsan11rec ?(strategy = Random) ?(mode = Free) () =
  let sname =
    match strategy with
    | Random -> "rnd"
    | Queue -> "queue"
    | Pct d -> Printf.sprintf "pct%d" d
    | Delay_bounded d -> Printf.sprintf "db%d" d
    | Preempt_bounded b -> Printf.sprintf "pb%d" b
    | Guided _ -> "guided"
  in
  let mname = match mode with Free -> "" | Record _ -> "+rec" | Replay _ -> "+replay" in
  {
    default with
    name = "tsan11rec-" ^ sname ^ mname;
    sched = Controlled strategy;
    mode;
  }

let with_seeds t s1 s2 = { t with seeds = Some (s1, s2) }
let with_policy t p = { t with policy = p }

(* Builder API — the canonical way to construct and adjust
   configurations. Call sites should not spell out the record: presets
   plus [make]/[with_*] keep them insulated from field additions. *)

let make ?(base = default) ?name ?strategy ?mode ?race_detection ?emit_reports
    ?seeds ?policy ?resched_ms ?queue_jitter_us ?max_ticks ?deadline_s
    ?max_history ?suppressions ?debug_trace ?trace_events ?trace_capacity
    ?on_desync ?coverage () =
  let t = base in
  let t = match name with Some v -> { t with name = v } | None -> t in
  let t =
    match strategy with Some s -> { t with sched = Controlled s } | None -> t
  in
  let t = match mode with Some v -> { t with mode = v } | None -> t in
  let t =
    match race_detection with
    | Some v -> { t with race_detection = v }
    | None -> t
  in
  let t =
    match emit_reports with Some v -> { t with emit_reports = v } | None -> t
  in
  let t =
    match seeds with Some (s1, s2) -> { t with seeds = Some (s1, s2) } | None -> t
  in
  let t = match policy with Some v -> { t with policy = v } | None -> t in
  let t =
    match resched_ms with Some v -> { t with resched_ms = v } | None -> t
  in
  let t =
    match queue_jitter_us with
    | Some v -> { t with queue_jitter_us = v }
    | None -> t
  in
  let t = match max_ticks with Some v -> { t with max_ticks = v } | None -> t in
  let t =
    match deadline_s with Some v -> { t with deadline_s = v } | None -> t
  in
  let t =
    match max_history with Some v -> { t with max_history = v } | None -> t
  in
  let t =
    match suppressions with Some v -> { t with suppressions = v } | None -> t
  in
  let t =
    match debug_trace with Some v -> { t with debug_trace = v } | None -> t
  in
  let t =
    match trace_events with Some v -> { t with trace_events = v } | None -> t
  in
  let t =
    match trace_capacity with
    | Some v -> { t with trace_capacity = v }
    | None -> t
  in
  let t = match on_desync with Some v -> { t with on_desync = v } | None -> t in
  let t = match coverage with Some v -> { t with coverage = v } | None -> t in
  t

let with_name t name = { t with name }
let with_strategy t s = { t with sched = Controlled s }
let with_mode t mode = { t with mode }
let with_race_detection t race_detection = { t with race_detection }
let with_max_ticks t max_ticks = { t with max_ticks }
let with_max_history t max_history = { t with max_history }
let with_trace t ~capacity = { t with trace_events = true; trace_capacity = capacity }
let with_on_desync t on_desync = { t with on_desync }
let with_coverage t coverage = { t with coverage }

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if t.trace_capacity <= 0 then
    err "trace_capacity must be positive (got %d)" t.trace_capacity
  else if t.max_history < 1 then
    err "max_history must be at least 1 (got %d)" t.max_history
  else if t.max_ticks < 1 then
    err "max_ticks must be at least 1 (got %d)" t.max_ticks
  else if t.var_cost < 0 then err "var_cost must not be negative (got %d)" t.var_cost
  else if t.vis_cost < 0 then err "vis_cost must not be negative (got %d)" t.vis_cost
  else if t.vis_cost_syscall < 0 then
    err "vis_cost_syscall must not be negative (got %d)" t.vis_cost_syscall
  else if t.record_cost < 0 then
    err "record_cost must not be negative (got %d)" t.record_cost
  else if t.report_cost < 0 then
    err "report_cost must not be negative (got %d)" t.report_cost
  else if t.invis_mult < 0. then
    err "invis_mult must not be negative (got %g)" t.invis_mult
  else if t.resched_ms < 0 then
    err "resched_ms must not be negative (got %d)" t.resched_ms
  else if t.queue_jitter_us < 0 then
    err "queue_jitter_us must not be negative (got %d)" t.queue_jitter_us
  else if t.startup_us < 0 then
    err "startup_us must not be negative (got %d)" t.startup_us
  else if t.deadline_s < 0. then
    err "deadline_s must not be negative (got %g)" t.deadline_s
  else Ok t

let desync_mode_name = function
  | Abort -> "abort"
  | Diagnose -> "diagnose"
  | Resync -> "resync"

let desync_mode_of_name = function
  | "abort" -> Some Abort
  | "diagnose" -> Some Diagnose
  | "resync" -> Some Resync
  | _ -> None

let strategy_name = function
  | Random -> "random"
  | Queue -> "queue"
  | Pct d -> Printf.sprintf "pct:%d" d
  | Delay_bounded d -> Printf.sprintf "db:%d" d
  | Preempt_bounded b -> Printf.sprintf "pb:%d" b
  | Guided _ -> "guided"

let sched_name = function
  | Os_model -> "os"
  | Controlled s -> strategy_name s

let strategy_of_name s =
  let prefixed (prefix, mk) =
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      Option.map mk (int_of_string_opt (String.sub s n (String.length s - n)))
    else None
  in
  match s with
  | "random" -> Some Random
  | "queue" -> Some Queue
  | _ ->
      List.find_map prefixed
        [
          ("pct:", fun d -> Pct d);
          ("db:", fun d -> Delay_bounded d);
          ("pb:", fun b -> Preempt_bounded b);
        ]

let sched_of_name = function
  | "os" -> Some Os_model
  | s -> Option.map (fun s -> Controlled s) (strategy_of_name s)
