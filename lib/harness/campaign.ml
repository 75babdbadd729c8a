open T11r_util
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Report = T11r_race.Report
module Decision = T11r_race.Decision

type spec = {
  label : string;
  conf : int -> Conf.t;
  instance : int -> World.t * T11r_vm.Api.program;
}

(* The seed discipline: run [i]
   gets scheduler seeds derived from [i] (the stand-in for the two
   rdtsc() calls of a real recording, §4) and a world seed derived
   from [i], so the whole campaign is a pure function of the spec. *)
let scheduler_seeds base i =
  Conf.with_seeds base
    (Int64.of_int ((i * 2654435761) + 17))
    (Int64.of_int ((i * 40503) + 9176))

let world_seed i = Int64.of_int ((i * 7919) + 3)

(* -- domain-local run recycling -------------------------------------- *)

(* One arena and one default-config world per worker domain, reused by
   every run that domain executes. Both recycles are observationally
   invisible (Interp.run results never alias arena state; World.reset
   reproduces World.create bit-for-bit), so campaigns with and without
   them have identical digests — recycling is therefore always on. *)
let domain_arena = Interp.domain_arena

let dls_world : World.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let recycled_world ~seed =
  let slot = Domain.DLS.get dls_world in
  match !slot with
  | Some w ->
      World.reset w ~seed;
      w
  | None ->
      let w = World.create ~seed () in
      slot := Some w;
      w

let spec_io ~label ?base_conf prepare =
  let base = match base_conf with Some c -> c | None -> Conf.default in
  {
    label;
    conf = scheduler_seeds base;
    instance =
      (fun i ->
        let world = recycled_world ~seed:(world_seed i) in
        let build = prepare i world in
        (world, build ()));
  }

let spec ~label ?base_conf ?(setup_world = fun _ -> ()) build =
  spec_io ~label ?base_conf (fun _ w ->
      setup_world w;
      build)

(* ------------------------------------------------------------------ *)

type observer = { on_run : int -> Interp.result -> unit }

let observer on_run = { on_run }

type sighting = { s_race : Report.t; s_first : int; s_count : int }

(* Everything the supervisor did that is NOT part of the deterministic
   aggregate: journal salvage depends on transient conditions, and an
   interrupted campaign is by definition partial — none of it may enter
   the fingerprint/digest. *)
type supervision = {
  sup_resumed : int;
  sup_quarantined : (int * string) list;
  sup_timeouts : int;
  sup_journal_dropped : int;
  sup_interrupted : bool;
  sup_done : int;
}

let no_supervision =
  {
    sup_resumed = 0;
    sup_quarantined = [];
    sup_timeouts = 0;
    sup_journal_dropped = 0;
    sup_interrupted = false;
    sup_done = 0;
  }

type report = {
  label : string;
  n : int;
  first : int;
  jobs : int;
  wall_s : float;
  results : Interp.result array;
  time_ms : Stats.summary;
  race_rate : float;
  mean_reports : float;
  mean_ticks : float;
  completed : int;
  racy_runs : int;
  distinct_schedules : int;
  outcomes : Outcome.histogram;
  sightings : sighting list;
  crashes : (int * string) list;
  metrics : T11r_obs.Metrics.t;
  coverage : T11r_race.Coverage.summary;
  supervision : supervision;
}

(* Distinct schedules are distinct (tid, op) sequences. A schedule is
   the run's code array and label table (Interp.schedule), and equal
   sequences give equal arrays, so [same_schedule] compares ints and a
   few labels. The set holds the retained schedules themselves, so it
   adds no per-run key: a table from a schedule's hash to the distinct
   schedules with that hash. A schedule is hashed once, and
   [Schedules.entry] compares it with each schedule under that hash,
   exactly, so the count is exact whatever the hash does. The hash
   folds every code, and each label's length, first and last byte:
   OCaml arithmetic, no C call. Equal schedules hash equal, as the hash
   reads only what [same_schedule] compares. *)
let same_schedule (a : Interp.schedule) (b : Interp.schedule) =
  a == b
  || Array.length a.Interp.codes = Array.length b.Interp.codes
     && Array.length a.Interp.labels = Array.length b.Interp.labels
     &&
     let rec codes i =
       i < 0 || (Int.equal a.Interp.codes.(i) b.Interp.codes.(i) && codes (i - 1))
     in
     let rec labels i =
       i < 0
       || (let l1 = a.Interp.labels.(i) and l2 = b.Interp.labels.(i) in
           (l1 == l2 || String.equal l1 l2) && labels (i - 1))
     in
     codes (Array.length a.Interp.codes - 1)
     && labels (Array.length a.Interp.labels - 1)

let label_hash l =
  match String.length l with
  | 0 -> 0
  | n ->
      (n * 961)
      + (Char.code (String.unsafe_get l 0) * 31)
      + Char.code (String.unsafe_get l (n - 1))

(* Tables index buckets by the low bits, so the sum is mixed at the
   end. *)
let schedule_hash (sch : Interp.schedule) =
  let h = ref 0 in
  for k = 0 to Array.length sch.Interp.labels - 1 do
    h := (!h * 65599) + label_hash sch.Interp.labels.(k)
  done;
  for i = 0 to Array.length sch.Interp.codes - 1 do
    h := (!h * 65599) + sch.Interp.codes.(i)
  done;
  let h = !h in
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* [compare a b = 0] on each field type of a result, without the
   polymorphic compare: none holds a float, closure or custom block. *)
let same_outcome (a : Interp.outcome) (b : Interp.outcome) =
  match (a, b) with
  | Interp.Completed, Interp.Completed
  | Interp.Tick_limit, Interp.Tick_limit
  | Interp.Timeout, Interp.Timeout -> true
  | Interp.Deadlock x, Interp.Deadlock y -> List.equal Int.equal x y
  | Interp.Crashed (t, m), Interp.Crashed (u, n) -> t = u && String.equal m n
  | Interp.Hard_desync m, Interp.Hard_desync n
  | Interp.Unsupported_app m, Interp.Unsupported_app n
  | Interp.App_error m, Interp.App_error n
  | Interp.Corrupt_demo m, Interp.Corrupt_demo n -> String.equal m n
  | _ -> false

let same_edge (a : T11r_race.Lockorder.edge) (b : T11r_race.Lockorder.edge) =
  String.equal a.from_lock b.from_lock
  && String.equal a.to_lock b.to_lock
  && a.witness_tid = b.witness_tid

let same_cycle a b = List.equal same_edge a b

let same_divergence (a : Interp.divergence) (b : Interp.divergence) =
  a.div_tick = b.div_tick
  && a.div_tid = b.div_tid
  && String.equal a.div_site b.div_site
  && String.equal a.div_expected b.div_expected
  && String.equal a.div_actual b.div_actual
  && List.equal
       (fun (i, t, l) (j, u, m) -> i = j && t = u && String.equal l m)
       a.div_trail b.div_trail

let same_event (a : T11r_obs.Trace.event) (b : T11r_obs.Trace.event) =
  a.ev_kind == b.ev_kind
  && a.ev_tick = b.ev_tick
  && a.ev_tid = b.ev_tid
  && String.equal a.ev_label b.ev_label
  && a.ev_ts = b.ev_ts
  && a.ev_dur = b.ev_dur

let same_array eq a b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (eq a.(i) b.(i) && go (i - 1)) in
     go (Array.length a - 1)

let same_footprint (a : Decision.footprint) (b : Decision.footprint) =
  match (a, b) with
  | F_local, F_local | F_fence, F_fence | F_global, F_global -> true
  | F_atomic (l, k), F_atomic (m, j) -> l = m && k == j
  | F_sync (x, y), F_sync (u, v) -> x = u && y = v
  | F_spawn x, F_spawn y | F_join x, F_join y | F_syscall x, F_syscall y -> x = y
  | _ -> false

let same_lock_event (a : Decision.lock_event) (b : Decision.lock_event) =
  match (a, b) with
  | L_none, L_none -> true
  | L_acquire x, L_acquire y | L_release x, L_release y | L_blocked x, L_blocked y
    ->
      x = y
  | _ -> false

let same_decision (a : Decision.t) (b : Decision.t) =
  a.d_tid = b.d_tid
  && same_array Int.equal a.d_enabled b.d_enabled
  && same_footprint a.d_foot b.d_foot
  && a.d_draws = b.d_draws
  && Bool.equal a.d_rand b.d_rand
  && same_lock_event a.d_lock b.d_lock

let same_access (a : Decision.acc) (b : Decision.acc) =
  a.a_tick = b.a_tick
  && a.a_tid = b.a_tid
  && a.a_pos = b.a_pos
  && a.a_var = b.a_var
  && Bool.equal a.a_write b.a_write
  && String.equal a.a_name b.a_name

(* [compare r c = 0], field by field: the ints and strings that tell
   two results apart nearly always go first, the schedule last. A
   demo is left to [compare]: no result [share] compares has one. *)
let same_result (r : Interp.result) (c : Interp.result) =
  r == c
  || r.ticks = c.ticks
     && r.makespan_us = c.makespan_us
     && r.race_count = c.race_count
     && r.rng_draws = c.rng_draws
     && String.equal r.output c.output
     && String.equal r.coverage c.coverage
     && same_outcome r.outcome c.outcome
     && List.equal Report.equal r.races c.races
     && List.equal same_cycle r.lock_cycles c.lock_cycles
     && Option.equal String.equal r.trace_divergence c.trace_divergence
     && Bool.equal r.soft_desync c.soft_desync
     && (match (r.demo, c.demo) with
        | None, None -> true
        | _ -> compare r.demo c.demo = 0)
     && List.equal
          (fun (t, n) (u, m) -> t = u && String.equal n m)
          r.thread_names c.thread_names
     && r.desync_count = c.desync_count
     && List.equal same_divergence r.divergences c.divergences
     && T11r_obs.Metrics.equal r.metrics c.metrics
     && List.equal same_event r.events c.events
     && r.events_dropped = c.events_dropped
     && same_array same_decision r.decisions c.decisions
     && same_array same_access r.accesses c.accesses
     && same_schedule r.trace c.trace

module Schedules = struct
  module By_hash = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash h = h
  end)

  (* One distinct schedule, as the first run that took it has it, and the
     distinct demo-less results run under it (at most [kept], so a
     schedule whose runs all differ costs a bounded scan). *)
  type entry = {
    trace : Interp.schedule;
    mutable results : Interp.result list;
  }

  type t = { by_hash : entry list By_hash.t; mutable n : int }

  let kept = 8
  let create () = { by_hash = By_hash.create 64; n = 0 }

  let rec find trace = function
    | [] -> None
    | e :: es -> if same_schedule trace e.trace then Some e else find trace es

  (* The set's entry for [trace], [h] its hash, added with [trace]
     itself when the set has none. *)
  let entry s h trace =
    let es = try By_hash.find s.by_hash h with Not_found -> [] in
    match find trace es with
    | Some e -> e
    | None ->
        let e = { trace; results = [] } in
        By_hash.replace s.by_hash h (e :: es);
        s.n <- s.n + 1;
        e

  (* The first of [cs] equal to [r], or [r]. *)
  let rec find_result r = function
    | [] -> r
    | c :: cs -> if same_result r c then c else find_result r cs

  (* A demo-less [r] replaced by the equal result the set already
     keeps, else [r] on its schedule's one trace. *)
  let share s h (r : Interp.result) =
    let e = entry s h r.Interp.trace in
    let found =
      if Option.is_some r.Interp.demo then r else find_result r e.results
    in
    if found != r then found
    else
      let r =
        if e.trace == r.Interp.trace then r else { r with Interp.trace = e.trace }
      in
      if Option.is_none r.Interp.demo && List.compare_length_with e.results kept < 0
      then e.results <- r :: e.results;
      r

  let length s = s.n
end

(* Most-sighted first; ties broken by the lowest first index, then by
   the race itself, so the order is total and deterministic. *)
let compare_sighting a b =
  match compare b.s_count a.s_count with
  | 0 -> (
      match compare a.s_first b.s_first with
      | 0 -> Report.compare a.s_race b.s_race
      | c -> c)
  | c -> c

(* The sighting counts, keyed on the race as [Report.norm] has it; the
   key's hash and equality read the normalized fields in place, so
   counting a race sighted before allocates nothing. *)
module Sightings = Hashtbl.Make (struct
  type t = Report.t

  let kind (r : t) : Report.kind =
    match r.kind with Read_write -> Write_read | k -> k

  let first (r : t) =
    match r.kind with
    | Read_write -> r.second_tid
    | Write_write -> if r.first_tid <= r.second_tid then r.first_tid else r.second_tid
    | Write_read -> r.first_tid

  let second (r : t) =
    match r.kind with
    | Read_write -> r.first_tid
    | Write_write -> if r.first_tid <= r.second_tid then r.second_tid else r.first_tid
    | Write_read -> r.second_tid

  let equal a b =
    String.equal a.Report.var b.Report.var
    && kind a == kind b
    && first a = first b
    && second a = second b

  let hash (r : t) =
    let h =
      (label_hash r.var * 65599)
      + (first r * 257)
      + (second r * 17)
      + match kind r with Write_write -> 0 | Write_read -> 1 | Read_write -> 2
    in
    h land max_int
end)

type count = { c_first : int; mutable c_n : int }

let rec sight tbl i = function
  | [] -> ()
  | race :: races ->
      (match Sightings.find tbl race with
      | c -> c.c_n <- c.c_n + 1
      | exception Not_found ->
          Sightings.replace tbl (Report.norm race) { c_first = i; c_n = 1 });
      sight tbl i races

(* Zero runs (a campaign cancelled before its first run) aggregate to
   zeros rather than raising. *)
let mean_or_zero sum runs =
  if runs = 0 then 0.0 else float_of_int sum /. float_of_int runs

(* Aggregation is one pass over the results in run-index order — never
   over arrival order — so every derived number, histogram order and
   float rounding is identical whatever [jobs] was. The makespans go
   through [Stats.summarize_array] in index order; the other means
   divide an int sum, which is what the float sum of the same ints
   was, exactly (every partial sum is far below 2^53). Slot [k] of
   [results] is run [index k]; the caller counts the schedules. A run
   whose outcome and races earlier runs showed is counted without
   allocating; coverage summaries are ORed into one accumulator
   ([Coverage.merge]), which allocates once per campaign. *)
let fold ~label ~n ~first ~jobs ~wall_s ~supervision ~distinct_schedules
    ~index results =
  let runs = Array.length results in
  let makespans_ms = Array.make runs 0.0 in
  let outcomes = Outcome.tally () in
  (* Keyed on the canonical orientation: the same unordered pair
     sighted in opposite observation orders across runs is one race,
     not two histogram rows. *)
  let sightings = Sightings.create 16 in
  let crashes = ref [] and quarantined = ref [] and racy = ref 0 in
  let reports = ref 0 and ticks = ref 0 in
  let metrics = T11r_obs.Metrics.sum () in
  let coverage = T11r_race.Coverage.merge () in
  for k = 0 to runs - 1 do
    let i = index k and (r : Interp.result) = results.(k) in
    makespans_ms.(k) <- float_of_int r.Interp.makespan_us /. 1000.0;
    Outcome.add outcomes r.Interp.outcome;
    sight sightings i r.Interp.races;
    (match r.Interp.outcome with
    | Interp.Crashed (tid, msg) ->
        crashes := (i, msg) :: !crashes;
        if tid = -1 then quarantined := (i, msg) :: !quarantined
    | _ -> ());
    if r.Interp.race_count > 0 then incr racy;
    reports := !reports + r.Interp.race_count;
    ticks := !ticks + r.Interp.ticks;
    T11r_obs.Metrics.accumulate metrics r.Interp.metrics;
    (* Union is not commutative on bytes when an all-zero summary
       meets the empty one (Coverage.union): index order here too. *)
    T11r_race.Coverage.merge_add coverage r.Interp.coverage
  done;
  let outcomes = Outcome.histogram outcomes in
  let supervision =
    {
      supervision with
      sup_done = runs;
      sup_interrupted = runs < n;
      sup_quarantined = List.rev !quarantined;
      sup_timeouts = Outcome.count outcomes "timeout";
    }
  in
  {
    label;
    n;
    first;
    jobs;
    wall_s;
    results;
    time_ms =
      (if runs = 0 then
         { Stats.n = 0; mean = 0.0; sd = 0.0; cv = 0.0; min = 0.0; max = 0.0 }
       else Stats.summarize_array makespans_ms);
    race_rate =
      (if runs = 0 then 0.0
       else 100.0 *. float_of_int !racy /. float_of_int runs);
    mean_reports = mean_or_zero !reports runs;
    mean_ticks = mean_or_zero !ticks runs;
    completed = Outcome.count outcomes "completed";
    racy_runs = !racy;
    distinct_schedules;
    outcomes;
    sightings =
      Sightings.fold
        (fun race c acc -> { s_race = race; s_first = c.c_first; s_count = c.c_n } :: acc)
        sightings []
      |> List.sort compare_sighting;
    crashes = List.rev !crashes;
    metrics = T11r_obs.Metrics.total metrics;
    coverage = T11r_race.Coverage.merge_result coverage;
    supervision;
  }

let aggregate ~label ~n ~first ~jobs ~wall_s ?(supervision = no_supervision)
    pairs =
  let schedules = Schedules.create () in
  Array.iter
    (fun (_, (r : Interp.result)) ->
      ignore
        (Schedules.entry schedules (schedule_hash r.Interp.trace)
           r.Interp.trace))
    pairs;
  fold ~label ~n ~first ~jobs ~wall_s ~supervision
    ~distinct_schedules:(Schedules.length schedules)
    ~index:(fun k -> fst pairs.(k))
    (Array.map snd pairs)

(* -- one supervised run ----------------------------------------------- *)

(* Every engine's single run. A tick budget only ever lowers
   [max_ticks], so a budget above a configuration's own ceiling never
   lengthens its runs. *)
let run_one ~deadline_s ~tick_budget (conf : Conf.t) instance =
  let conf =
    match tick_budget with
    | Some b when b < conf.Conf.max_ticks -> { conf with Conf.max_ticks = b }
    | _ -> conf
  in
  let conf = if deadline_s > 0. then { conf with Conf.deadline_s } else conf in
  Outcome.protect (fun () ->
      let world, program = instance () in
      Interp.run ~world ~arena:(domain_arena ()) conf program)

(* [r] without its demo, copied only when it has one. *)
let sanitize (r : Interp.result) =
  match r.Interp.demo with None -> r | Some _ -> { r with Interp.demo = None }

(* A header pins only what its engine can name; one journalled run
   executed again catches the rest of the spec. A wall-clock timeout
   is not a function of the spec, and a quarantined crash may name the
   host (ENOSPC, EMFILE): both are skipped. *)
let check_reproduces ~who ~tick_budget path w setup runs =
  let verifiable (_, (r : Interp.result)) =
    match r.Interp.outcome with
    | Interp.Timeout | Interp.Crashed (-1, _) -> false
    | _ -> true
  in
  match List.find_opt verifiable runs with
  | None -> ()
  | Some (key, r) ->
      let conf, instance = setup key in
      let bytes r = Marshal.to_string (sanitize r) [ Marshal.No_sharing ] in
      let fresh = run_one ~deadline_s:0. ~tick_budget conf instance in
      if not (String.equal (bytes fresh) (bytes r)) then begin
        Journal.close w;
        invalid_arg
          (Printf.sprintf
             "%s: journal %s holds another spec's runs: its first run does \
              not reproduce"
             who path)
      end

(* -- the campaign journal ------------------------------------------- *)

(* The header pins the campaign identity (and the Marshal schema of
   the run payloads); one "run" entry per completed run carries
   (index, result-without-demo). Resuming replays intact entries and
   executes only the holes; because aggregation is an index-ordered
   fold and Marshal round-trips the pure result data exactly, a
   resumed campaign's digest is bit-identical to an uninterrupted
   one's. Bump [journal_schema] whenever Interp.result (or anything it
   contains) changes layout. *)
let journal_schema = 5

let header_kind = "campaign"
let run_kind = "run"

let by_index tbl =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun i r acc -> (i, r) :: acc) tbl [])

let open_journal (s : spec) ~n ~first ~tick_budget path =
  let identity =
    Printf.sprintf "%S n=%d first=%d tick-budget=%s" s.label n first
      (Option.fold ~none:"none" ~some:string_of_int tick_budget)
  in
  let w, entries, torn =
    Journal.open_pinned ~kind:header_kind ~schema:journal_schema ~identity
      ~payload:run_kind path
  in
  let dropped = ref torn in
  let cached : (int, Interp.result) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((i, r) : int * Interp.result) ->
      if i >= first && i < first + n then Hashtbl.replace cached i r
      else incr dropped)
    entries;
  check_reproduces ~who:"Campaign.run" ~tick_budget path w
    (fun i -> (s.conf i, fun () -> s.instance i))
    (by_index cached);
  (w, cached, !dropped)

(* Read-only journal access for offline consumers (predictive race
   analysis over a finished campaign's runs). The schema pin is still
   enforced — unmarshalling a result written by another layout is
   undefined behaviour, not just wrong data — but the identity pins
   (label/n/first) are not: the reader takes whatever campaign the
   journal holds. *)
let journal_results path =
  match
    Journal.load_pinned ~kind:header_kind ~schema:journal_schema
      ~payload:run_kind path
  with
  | None, _, _ ->
      invalid_arg
        (Printf.sprintf
           "Campaign.journal_results: %s is not a campaign journal" path)
  | Some _, entries, _ ->
      (* Newest entry wins per index (a resumed campaign may have
         appended a duplicate), then index order. *)
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun ((i, r) : int * Interp.result) -> Hashtbl.replace tbl i r)
        entries;
      by_index tbl

let run s ~n ?(jobs = 1) ?(first = 0) ?(deadline_s = 0.) ?tick_budget
    ?journal ?cancel observers =
  if n < 1 then invalid_arg "Campaign.run: n < 1";
  let t0 = Unix.gettimeofday () in
  let jw, cached, journal_dropped =
    match journal with
    | None -> (None, Hashtbl.create 1, 0)
    | Some path ->
        let w, cached, dropped = open_journal s ~n ~first ~tick_budget path in
        (Some w, cached, dropped)
  in
  let resumed = Hashtbl.length cached in
  (* Runs that took the same schedule keep one shared trace, and runs
     with equal demo-less results one shared result: until the report
     is built every result is live, and most runs of a short program
     repeat an earlier one. The hash is taken outside the lock. The
     table counts the report's distinct schedules, and is dropped with
     [run]'s frame. Sharing is invisible to the report, its digest
     ([No_sharing]) and the journal (written first). *)
  let schedules = Schedules.create () in
  let share =
    if jobs = 1 then fun (r : Interp.result) ->
      Schedules.share schedules (schedule_hash r.Interp.trace) r
    else
      let lock = Mutex.create () in
      fun (r : Interp.result) ->
        let h = schedule_hash r.Interp.trace in
        Mutex.protect lock (fun () -> Schedules.share schedules h r)
  in
  let exec k =
    let i = first + k in
    match if resumed = 0 then None else Hashtbl.find_opt cached i with
    | Some r -> share r
    | None ->
        let r =
          run_one ~deadline_s ~tick_budget (s.conf i) (fun () -> s.instance i)
        in
        (match jw with
        | Some w ->
            Journal.append w
              {
                Journal.kind = run_kind;
                payload = Marshal.to_string (i, sanitize r) [];
              }
        | None -> ());
        share r
  in
  (* A slot still holding [hole] is a run the cancellation skipped. *)
  let hole = Interp.result_of_outcome Interp.Completed in
  let results = Array.make n hole in
  Pool.iter ~jobs ?should_stop:cancel n (fun k -> results.(k) <- exec k);
  (match jw with Some w -> Journal.close w | None -> ());
  let wall_s = Unix.gettimeofday () -. t0 in
  let results, index =
    if Array.for_all (fun r -> r != hole) results then
      (results, fun k -> first + k)
    else
      let ks =
        Array.of_list
          (List.filter (fun k -> results.(k) != hole) (List.init n Fun.id))
      in
      (Array.map (fun k -> results.(k)) ks, fun k -> first + ks.(k))
  in
  (* Observers see the completed run stream in index order, on the
     calling domain — they may keep plain mutable state. *)
  List.iter
    (fun obs -> Array.iteri (fun k r -> obs.on_run (index k) r) results)
    observers;
  let supervision =
    {
      no_supervision with
      sup_resumed = resumed;
      sup_journal_dropped = journal_dropped;
    }
  in
  fold ~label:s.label ~n ~first ~jobs ~wall_s ~supervision
    ~distinct_schedules:(Schedules.length schedules)
    ~index results

(* Wall-clock and worker count are the only fields allowed to differ
   between equivalent campaigns; demos hold open handles to their
   directory and are dropped (record-mode campaigns write to disk, the
   in-memory aggregate comparison is about everything else). *)
let totals r =
  ( r.time_ms,
    r.race_rate,
    r.mean_reports,
    r.mean_ticks,
    r.completed,
    r.racy_runs,
    r.distinct_schedules,
    r.outcomes,
    r.sightings,
    r.crashes,
    r.metrics,
    r.coverage )

let fingerprint r =
  ( ( r.label,
      r.n,
      r.first,
      Array.fold_right (fun x acc -> sanitize x :: acc) r.results [] ),
    totals r )

let equal a b = fingerprint a = fingerprint b

(* The unshared Marshal digest of [fingerprint r], with each result in
   the layout [Interp.write_result] emits, streamed one result at a
   time. Marshal is stable for the pure data in a fingerprint (no
   closures, no custom blocks), so the digest is comparable across
   builds. [No_sharing] makes the encoding a function of the
   structural value alone: results rehydrated from a journal lose the
   physical sharing a freshly-computed campaign has, and the digest
   must not see the difference. A result the report holds in many
   slots is written once a pass and fed from its bytes after that. *)
let digest r =
  let memo =
    Mdigest.memo
      ~hash:(fun (x : Interp.result) ->
        schedule_hash x.Interp.trace + x.Interp.makespan_us)
      ()
  in
  Mdigest.digest (fun s ->
      Mdigest.block s ~tag:0 ~size:2;
      Mdigest.block s ~tag:0 ~size:4;
      Mdigest.value s r.label;
      Mdigest.value s r.n;
      Mdigest.value s r.first;
      Mdigest.list s Array.iter
        (fun s x -> Mdigest.shared s memo Interp.write_result x)
        r.results;
      Mdigest.value s (totals r))

let pp_tally fmt metrics outcomes sightings =
  Format.fprintf fmt "  totals: %a@." T11r_obs.Metrics.pp metrics;
  Outcome.pp fmt outcomes;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %a — %d sighting(s), first at run %d@." Report.pp
        s.s_race s.s_count s.s_first)
    sightings

(* Counts are over the runs this report holds, so an interrupted
   report prints what it has, not what it was asked for. *)
let pp fmt r =
  let runs = Array.length r.results in
  Format.fprintf fmt
    "%s: %d runs (jobs %d, %.2fs wall): %d distinct schedules, %d racy (%.1f%%), %d completed@."
    r.label runs r.jobs r.wall_s r.distinct_schedules r.racy_runs
    (100.0 *. float_of_int r.racy_runs /. float_of_int (max 1 runs))
    r.completed;
  pp_tally fmt r.metrics r.outcomes r.sightings;
  (match r.crashes with
  | [] -> ()
  | (i, msg) :: _ -> Format.fprintf fmt "  first crash at run %d: %s@." i msg);
  let sup = r.supervision in
  if sup.sup_interrupted then
    Format.fprintf fmt
      "  INTERRUPTED: %d/%d runs done — resume from the journal to finish@."
      sup.sup_done r.n;
  if sup.sup_resumed > 0 then
    Format.fprintf fmt "  resumed %d run(s) from the journal@." sup.sup_resumed;
  if sup.sup_journal_dropped > 0 then
    Format.fprintf fmt "  dropped %d corrupt/torn journal line(s)@."
      sup.sup_journal_dropped;
  match sup.sup_quarantined with
  | [] -> ()
  | qs ->
      Format.fprintf fmt "  quarantined %d run(s): %s@." (List.length qs)
        (String.concat ", " (List.map (fun (i, _) -> string_of_int i) qs))
