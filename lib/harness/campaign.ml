open T11r_util
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Report = T11r_race.Report

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
let dls_arena : Interp.arena Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Interp.create_arena ())

let domain_arena () = Domain.DLS.get dls_arena

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
   aggregate: retry counts and journal salvage depend on transient
   conditions, and an interrupted campaign is by definition partial —
   none of it may enter the fingerprint/digest. *)
type supervision = {
  sup_resumed : int;
  sup_retried : int;
  sup_quarantined : (int * string) list;
  sup_timeouts : int;
  sup_journal_dropped : int;
  sup_interrupted : bool;
  sup_done : int;
}

let no_supervision =
  {
    sup_resumed = 0;
    sup_retried = 0;
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
  outcomes : (string * int) list;
  sightings : sighting list;
  crashes : (int * string) list;
  metrics : T11r_obs.Metrics.t;
  coverage : T11r_race.Coverage.summary;
  supervision : supervision;
}

(* Distinct schedules are distinct (tid, op) sequences; ticks are
   ignored. The set is keyed on the trace itself: the hash folds every
   element (the polymorphic hash reads only the first 10, which piled
   thousands of same-prefix traces into one bucket) and equality
   compares (tid, op) exactly, so the count stays exact and no per-run
   key is allocated. *)
module Schedules = Hashtbl.Make (struct
  type t = (int * int * string) list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | (_, t1, l1) :: a, (_, t2, l2) :: b ->
        t1 = t2 && String.equal l1 l2 && equal a b
    | _ -> false

  let hash trace =
    Hashtbl.hash
      (List.fold_left
         (fun h (_, tid, label) -> (h * 65599) + (tid * 31) + Hashtbl.hash label)
         0 trace)
end)

(* Most-sighted first; ties broken by the lowest first index, then by
   the race itself, so the order is total and deterministic. *)
let compare_sighting a b =
  match compare b.s_count a.s_count with
  | 0 -> (
      match compare a.s_first b.s_first with
      | 0 -> Report.compare a.s_race b.s_race
      | c -> c)
  | c -> c

(* Zero runs (a campaign cancelled before its first run) aggregate to
   zeros rather than raising. *)
let mean_or_zero = function [] -> 0.0 | xs -> Stats.mean xs

let summarize_or_zero = function
  | [] -> { Stats.n = 0; mean = 0.0; sd = 0.0; cv = 0.0; min = 0.0; max = 0.0 }
  | xs -> Stats.summarize xs

(* Aggregation is a sequential fold over the results in run-index
   order — never over arrival order — so every derived number,
   histogram order and float rounding is identical whatever [jobs]
   was. *)
let aggregate ~label ~n ~first ~jobs ~wall_s ?(supervision = no_supervision)
    pairs =
  let results = Array.map snd pairs in
  let in_order f = Array.to_list (Array.map f results) in
  let outcomes = Hashtbl.create 8 in
  let schedules = Schedules.create 64 in
  let sightings : (Report.t, int * int) Hashtbl.t = Hashtbl.create 16 in
  let crashes = ref [] in
  Array.iter
    (fun ((i : int), (r : Interp.result)) ->
      let key = Outcome.key r.Interp.outcome in
      Hashtbl.replace outcomes key
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key));
      Schedules.replace schedules r.Interp.trace ();
      List.iter
        (fun race ->
          (* Key on the canonical orientation: the same unordered pair
             sighted in opposite observation orders across runs is one
             race, not two histogram rows. *)
          let race = Report.norm race in
          match Hashtbl.find_opt sightings race with
          | Some (f0, c) -> Hashtbl.replace sightings race (f0, c + 1)
          | None -> Hashtbl.replace sightings race (i, 1))
        r.Interp.races;
      match r.Interp.outcome with
      | Interp.Crashed (_, msg) -> crashes := (i, msg) :: !crashes
      | _ -> ())
    pairs;
  let supervision =
    {
      supervision with
      sup_done = Array.length pairs;
      sup_interrupted = Array.length pairs < n;
      sup_timeouts =
        Array.fold_left
          (fun acc (r : Interp.result) ->
            match r.Interp.outcome with Interp.Timeout -> acc + 1 | _ -> acc)
          0 results;
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
      summarize_or_zero
        (in_order (fun r -> float_of_int r.Interp.makespan_us /. 1000.0));
    race_rate = Stats.rate (in_order (fun r -> r.Interp.race_count > 0));
    mean_reports =
      mean_or_zero (in_order (fun r -> float_of_int r.Interp.race_count));
    mean_ticks =
      mean_or_zero (in_order (fun r -> float_of_int r.Interp.ticks));
    completed =
      Array.fold_left
        (fun acc r -> if Interp.completed r then acc + 1 else acc)
        0 results;
    racy_runs =
      Array.fold_left
        (fun acc (r : Interp.result) ->
          if r.Interp.race_count > 0 then acc + 1 else acc)
        0 results;
    distinct_schedules = Schedules.length schedules;
    outcomes =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
    sightings =
      Hashtbl.fold
        (fun race (s_first, s_count) acc ->
          { s_race = race; s_first; s_count } :: acc)
        sightings []
      |> List.sort compare_sighting;
    crashes = List.rev !crashes;
    metrics =
      (* Same discipline as everything above: a fold in run-index
         order, so the sum is bit-identical at every worker count. *)
      Array.fold_left
        (fun acc (r : Interp.result) ->
          T11r_obs.Metrics.add acc r.Interp.metrics)
        T11r_obs.Metrics.zero results;
    coverage =
      (* Index order here too: union is not commutative on bytes when
         an all-zero summary meets the empty one (Coverage.union). *)
      Array.fold_left
        (fun acc (r : Interp.result) ->
          T11r_race.Coverage.union acc r.Interp.coverage)
        T11r_race.Coverage.empty results;
    supervision;
  }

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

let sanitize (r : Interp.result) = { r with Interp.demo = None }

(* A header pins only what its engine can name; one journalled run
   executed again catches the rest of the spec. A wall-clock timeout
   or a quarantined crash is not a function of the spec: skipped. *)
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
      let same =
        match run_one ~deadline_s:0. ~tick_budget conf instance with
        | fresh -> String.equal (bytes fresh) (bytes r)
        | exception _ -> false
      in
      if not same then begin
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
let journal_schema = 4

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
    ?(retries = 0) ?(backoff_s = 0.05) ?journal ?cancel observers =
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
  let retried = Atomic.make 0 in
  let quarantined = Atomic.make [] in
  let push_quarantine iq =
    let rec go () =
      let cur = Atomic.get quarantined in
      if not (Atomic.compare_and_set quarantined cur (iq :: cur)) then go ()
    in
    go ()
  in
  let exec k =
    let i = first + k in
    match Hashtbl.find_opt cached i with
    | Some r -> r
    | None ->
        (* Crash containment: a run whose setup/build/interpretation
           raises something Outcome.protect does not structure is
           retried with exponential backoff (transient environment
           failures: ENOSPC on a demo save, EMFILE, ...) and, if it
           keeps failing, quarantined as a Crashed result — the
           campaign never aborts. Deterministic as long as the
           exception (and its message) is a function of the index. *)
        let rec attempt a =
          match
            run_one ~deadline_s ~tick_budget (s.conf i) (fun () -> s.instance i)
          with
          | r -> r
          | exception e ->
              if a < retries then begin
                Atomic.incr retried;
                if backoff_s > 0. then
                  Unix.sleepf (backoff_s *. float_of_int (1 lsl a));
                attempt (a + 1)
              end
              else begin
                let msg = Printexc.to_string e in
                push_quarantine (i, msg);
                Interp.result_of_outcome (Interp.Crashed (-1, msg))
              end
        in
        let r = attempt 0 in
        (match jw with
        | Some w ->
            Journal.append w
              {
                Journal.kind = run_kind;
                payload = Marshal.to_string (i, sanitize r) [];
              }
        | None -> ());
        r
  in
  let slots = Pool.map_opt ~jobs ?should_stop:cancel n exec in
  (match jw with Some w -> Journal.close w | None -> ());
  let wall_s = Unix.gettimeofday () -. t0 in
  let pairs =
    let acc = ref [] in
    for k = n - 1 downto 0 do
      match slots.(k) with
      | Some r -> acc := (first + k, r) :: !acc
      | None -> ()
    done;
    Array.of_list !acc
  in
  (* Observers see the completed run stream in index order, on the
     calling domain — they may keep plain mutable state. *)
  List.iter
    (fun obs -> Array.iter (fun (i, r) -> obs.on_run i r) pairs)
    observers;
  let supervision =
    {
      no_supervision with
      sup_resumed = resumed;
      sup_retried = Atomic.get retried;
      sup_quarantined = List.sort compare (Atomic.get quarantined);
      sup_journal_dropped = journal_dropped;
    }
  in
  aggregate ~label:s.label ~n ~first ~jobs ~wall_s ~supervision pairs

(* Wall-clock and worker count are the only fields allowed to differ
   between equivalent campaigns; demos hold open handles to their
   directory and are dropped (record-mode campaigns write to disk, the
   in-memory aggregate comparison is about everything else). *)
let fingerprint r =
  ( ( r.label,
      r.n,
      r.first,
      Array.to_list
        (Array.map (fun x -> { x with Interp.demo = None }) r.results) ),
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
      r.coverage ) )

let equal a b = fingerprint a = fingerprint b

(* Marshal is stable for the pure data in a fingerprint (no closures,
   no custom blocks), so the digest is comparable across builds.
   [No_sharing] makes the encoding a function of the structural value
   alone: results rehydrated from a journal lose the physical sharing
   a freshly-computed campaign has, and the digest must not see the
   difference. *)
let digest r =
  Digest.to_hex
    (Digest.string (Marshal.to_string (fingerprint r) [ Marshal.No_sharing ]))

let pp fmt r =
  Format.fprintf fmt
    "%s: %d runs (jobs %d, %.2fs wall): %d distinct schedules, %d racy (%.1f%%), %d completed@."
    r.label r.n r.jobs r.wall_s r.distinct_schedules r.racy_runs
    (100.0 *. float_of_int r.racy_runs /. float_of_int (max 1 r.n))
    r.completed;
  Format.fprintf fmt "  totals: %a@." T11r_obs.Metrics.pp r.metrics;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "  outcome %-12s %d@." k v)
    r.outcomes;
  List.iter
    (fun s ->
      Format.fprintf fmt "  %a — %d sighting(s), first at run %d@." Report.pp
        s.s_race s.s_count s.s_first)
    r.sightings;
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
  if sup.sup_retried > 0 then
    Format.fprintf fmt "  %d transient failure(s) retried@." sup.sup_retried;
  match sup.sup_quarantined with
  | [] -> ()
  | qs ->
      Format.fprintf fmt "  quarantined %d run(s): %s@." (List.length qs)
        (String.concat ", " (List.map (fun (i, _) -> string_of_int i) qs))
