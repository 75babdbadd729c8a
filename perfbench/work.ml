(* The four workloads. Each builds its inputs from the workload seed in
   [setup] and returns a closure running one fixed-work round; the loop
   in bench.ml repeats rounds in a closed loop (the next round starts when
   the previous one ends) until the time budget is spent. Calls into the
   library go through [Span.with_], so the same code serves the untraced
   and the traced pass. *)

open Common
module Campaign = T11r_harness.Campaign
module Systematic = T11r_harness.Systematic
module Guided = T11r_harness.Guided
module Predictor = T11r_harness.Predictor
module Predict = T11r_race.Predict
module Demo = Tsan11rec.Demo

type round = {
  wall : float;  (** host seconds of the round *)
  runs : int;  (** interpreter runs of the round *)
  attempted : int;  (** runs or sessions the round attempted *)
  unexpected : int;  (** of those, ended in an outcome no one expects *)
  fingerprint : string;
      (** digest of every simulated count the round produced; a pure
          function of the seed and the round's position in its cycle *)
  checks : (string * bool) list;  (** invariants checked in the round *)
  samples : (string * float) list;  (** named latency samples, seconds *)
  counts : (string * float * string) list;
      (** exact counts for the report: name, value, unit *)
}

type t = {
  name : string;
  cycle : int;  (** rounds repeat their inputs with this period *)
  setup : seed:int -> jobs:int -> int -> round;
      (** builds the inputs; returns the round for a worker count and a
          round index *)
  parallel : bool;  (** the round honours [jobs] *)
  pinned : string;  (** round 0's fingerprint on the default seed *)
  final_checks : seed:int -> (string * bool) list;
      (** untimed checks made once after the loop *)
}

let default_seed = 1

let empty_round =
  {
    wall = 0.0; runs = 0; attempted = 0;
    unexpected = 0; fingerprint = ""; checks = []; samples = []; counts = [];
  }

(* ------------------------------------------------------------------ *)
(* hunt: random-strategy Campaign.run, the `hunt` CLI path without a
   journal. fig1 and mcs-lock are 11-14 ticks a run, so fixed per-run
   cost dominates; ms-queue runs ~2k ticks, so per-tick cost does. fig1
   is long enough (20k runs) that keeping every result until the end
   shows in its throughput. *)

let hunt_benches = [ ("fig1", 20_000); ("mcs-lock", 8_000); ("ms-queue", 60) ]

(* The CLI's hunt spec: run i gets scheduler seeds (i, i + 7919) and a
   fresh world seeded from i; the workload seed moves the index base. *)
let hunt_spec ~seed name =
  let w = workload name in
  let base =
    Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Random ()) w.Workloads.w_policy
  in
  let off = seed * 1_000_003 in
  {
    Campaign.label = name;
    conf =
      (fun i ->
        Conf.with_seeds base (Int64.of_int (off + i)) (Int64.of_int (off + i + 7919)));
    instance =
      (fun i ->
        let world = World.create ~seed:(Int64.of_int (off + i)) () in
        (world, w.Workloads.w_instance world ()));
  }

let hunt_unexpected (r : Campaign.report) =
  unexpected_in r.Campaign.outcomes
  + List.length r.Campaign.supervision.Campaign.sup_quarantined

let hunt =
  let setup ~seed =
    let specs = List.map (fun (b, n) -> (hunt_spec ~seed b, n)) hunt_benches in
    ignore (Campaign.domain_arena ());
    List.iter
      (fun (s, n) -> ignore (Campaign.run s ~n:(max 1 (n / 20)) ~jobs:1 []))
      specs;
    fun ~jobs _ ->
      let p1 =
        List.map
          (fun ((s : Campaign.spec), n) ->
            let r, t =
              timed (fun () ->
                  Span.with_
                    ~inner:(fun _ -> ("random:" ^ s.Campaign.label, float_of_int n /. float_of_int jobs))
                    "campaign"
                    (Printf.sprintf "Campaign.run %s j%d" s.Campaign.label jobs)
                    (fun () -> Campaign.run s ~n ~jobs []))
            in
            (s.Campaign.label, n, t, Campaign.digest r, hunt_unexpected r))
          specs
      in
      let runs = sumi (List.map (fun (_, n, _, _, _) -> n) p1) in
      {
        empty_round with
        wall = sum (List.map (fun (_, _, t, _, _) -> t) p1);
        runs = runs;
        attempted = runs;
        unexpected = sumi (List.map (fun (_, _, _, _, u) -> u) p1);
        fingerprint = md5 (List.map (fun (b, _, _, d, _) -> (b, d)) p1);
      }
  in
  {
    name = "hunt";
    cycle = 1;
    setup;
    parallel = true;
    pinned = "64330e6b2d9cdb7417292c81d6ba9ed9";
    final_checks = (fun ~seed:_ -> []);
  }

(* ------------------------------------------------------------------ *)
(* check: default (DPOR) Systematic.explore. The exhausting set pins run
   counts; ms-queue under a fixed max_runs is where Systematic's own
   analysis and sibling forking cost the most per schedule. *)

let exhausting =
  [ "fig1"; "dekker-fences"; "mcs-lock"; "linuxrwlocks"; "mpmc-queue";
    "barrier"; "barrier-fixed"; "dekker-fences-fixed"; "mcs-lock-fixed";
    "mpmc-queue-fixed" ]

let ms_queue_cap = 12

(* The exhausting set is explored under four seed pairs per workload
   seed, so a round's run count averages over four DPOR trees. *)
let sub_seeds ~seed = List.init 4 (fun j -> (seed * 4) + j)

let check_seeds ~seed =
  (Int64.of_int seed, Int64.of_int (seed + 7919))

(* What must not change: counts, distinct outcomes, distinct races. *)
let summary (r : Systematic.result) =
  ( r.Systematic.runs,
    r.Systematic.complete,
    List.sort_uniq compare (List.map fst r.Systematic.outcomes),
    List.sort_uniq compare r.Systematic.races )

let explore ~seed ?(dpor = true) ?(max_runs = 10_000) ~jobs name =
  let e = entry name in
  Span.with_
    ~inner:(fun (r : Systematic.result) -> ("guided:" ^ name, float_of_int r.Systematic.runs /. float_of_int jobs))
    "systematic"
    (Printf.sprintf "Systematic.explore %s j%d" name jobs)
    (fun () ->
      Systematic.explore ~max_runs ~jobs ~dpor ~seeds:(check_seeds ~seed)
        ~world_seed:(Int64.of_int seed) ~build:e.Registry.build ())

let check =
  let setup ~seed =
    ignore (explore ~seed ~jobs:1 "fig1");
    ignore (explore ~seed ~max_runs:2 ~jobs:1 "ms-queue");
    fun ~jobs _ ->
      let r1, t1 =
        timed (fun () ->
            List.concat_map
              (fun seed -> List.map (fun b -> (b, explore ~seed ~jobs b)) exhausting)
              (sub_seeds ~seed)
            @ [ ("ms-queue", explore ~seed ~max_runs:ms_queue_cap ~jobs "ms-queue") ])
      in
      let runs = sumi (List.map (fun (_, r) -> r.Systematic.runs) r1) in
      let exhaust_runs =
        sumi
          (List.filter_map
             (fun (b, r) -> if b = "ms-queue" then None else Some r.Systematic.runs)
             r1)
      in
      {
        empty_round with
        wall = t1;
        runs = runs;
        attempted = runs;
        unexpected =
          sumi (List.map (fun (_, r) -> unexpected_in r.Systematic.outcomes) r1);
        fingerprint = md5 (List.map (fun (b, r) -> (b, summary r)) r1);
        checks =
          List.filter_map
              (fun (b, r) ->
                if b = "ms-queue" then None
                else Some ("check: exhausted " ^ b, r.Systematic.complete))
              r1;
        counts = [ ("runs_to_exhaust", float_of_int exhaust_runs, "runs") ];
      }
  in
  (* DPOR must see exactly the naive walk's outcomes and races. *)
  let final_checks ~seed =
    List.map
      (fun b ->
        let keys r =
          let _, c, o, races = summary r in
          (c, o, races)
        in
        ( "check: DPOR outcomes and races equal the naive walk's on " ^ b,
          let seed = List.hd (sub_seeds ~seed) in
          keys (explore ~seed ~jobs:1 b) = keys (explore ~seed ~dpor:false ~jobs:1 b) ))
      [ "fig1"; "dekker-fences" ]
  in
  { name = "check"; cycle = 1; setup; parallel = true; pinned = "4310f4f80349352885b63315bd34d8ad"; final_checks }

(* ------------------------------------------------------------------ *)
(* predict: guided hunting to the first race over a list of salts, then
   one guided recording per benchmark analysed and verified. *)

let predict_benches = [ "fig1"; "chase-lev-deque"; "barrier"; "dekker-fences" ]
let salts = 192

(* Verifying every Must pair of an ms-queue recording takes ~10k runs;
   the round verifies the first [verify_cap] in analysis order. *)
let verify_cap = 600

let cap_musts (a : Predict.t) =
  if a.Predict.n_must <= verify_cap then a
  else
    let k = ref 0 in
    let pairs =
      List.filter
        (fun (p : Predict.pair) ->
          match p.Predict.p_confidence with
          | Predict.May -> true
          | Predict.Must ->
              incr k;
              !k <= verify_cap)
        a.Predict.pairs
    in
    { a with Predict.pairs; n_must = verify_cap }

(* A refuted pair must never be reported as a race: no refuted pair may
   share its report with a confirmed one. *)
let refuted_as_races (rep : Predictor.report) =
  let confirmed =
    List.filter_map
      (fun v ->
        match v.Predictor.v_verdict with
        | Predictor.Confirmed _ -> Some v.Predictor.v_pair.Predict.p_report
        | Predictor.Refuted _ -> None)
      rep.Predictor.r_verified
  in
  List.length
    (List.filter
       (fun v ->
         match v.Predictor.v_verdict with
         | Predictor.Refuted _ ->
             List.exists (T11r_race.Report.equal v.Predictor.v_pair.Predict.p_report) confirmed
         | Predictor.Confirmed _ -> false)
       rep.Predictor.r_verified)

type recording = {
  rec_name : string;
  rec_seed : int;
  rec_world : int64;
  rec_conf : unit -> Conf.t;
  rec_instance : unit -> World.t * T11r_vm.Api.program;
}

let recording ~seed name =
  let w = workload name in
  let rs = (seed * 31) + 3 in
  let world_seed = Int64.of_int (42 + seed) in
  let base = Conf.with_policy (Conf.tsan11rec ()) w.Workloads.w_policy in
  {
    rec_name = name;
    rec_seed = rs;
    rec_world = world_seed;
    rec_conf =
      (fun () ->
        Conf.make ~base ~mode:Conf.Free
          ~strategy:
            (Conf.Guided { prefix = Predictor.recording_prefix rs; observed = ref [] })
          ~seeds:(Int64.of_int rs, Int64.of_int (rs + 7919))
          ());
    rec_instance =
      (fun () ->
        let world = World.create ~seed:world_seed () in
        (world, w.Workloads.w_instance world ()));
  }

let predict_one (r : recording) =
  let world, prog = r.rec_instance () in
  let run =
    Span.with_ "interp" ("Interp.run guided record " ^ r.rec_name) (fun () ->
        Interp.run ~world (r.rec_conf ()) prog)
  in
  let a =
    Span.with_ "predict" ("Predict.analyze " ^ r.rec_name) (fun () ->
        Predict.analyze (Interp.to_predict_input run))
  in
  let musts = a.Predict.n_must in
  let rep =
    Span.with_
      ~inner:(fun (rep : Predictor.report) -> ("guided:" ^ r.rec_name, float_of_int rep.Predictor.r_runs))
      "predictor" ("Predictor.verify " ^ r.rec_name)
      (fun () ->
        Predictor.verify
          ~recorded_seeds:(Int64.of_int r.rec_seed, Int64.of_int (r.rec_seed + 7919))
          ~instance:r.rec_instance (cap_musts a))
  in
  (run, a, musts, rep)

let guided_spec name =
  Workloads.spec_of ~base_conf:(Conf.tsan11rec ()) (workload name)

let salt ~seed k = Int64.of_int ((seed * 7919) + k)

(* Guided runs to the first race of one hunt; the hunt's budget when it
   finds none. *)
let first_race (g : Guided.report) =
  match g.Guided.g_first_race with Some i -> i + 1 | None -> g.Guided.g_runs

let predict =
  let setup ~seed =
    let specs = List.map (fun b -> (b, guided_spec b)) predict_benches in
    let recs =
      List.map (recording ~seed) (predict_benches @ [ "ms-queue" ])
    in
    List.iter
      (fun (_, spec) -> ignore (Guided.hunt spec ~salt:(salt ~seed 0) ~stop_on_race:true ()))
      specs;
    List.iter
      (fun r ->
        if r.rec_name <> "ms-queue" then ignore (predict_one r)
        else
          let world, prog = r.rec_instance () in
          ignore (Predict.analyze (Interp.to_predict_input (Interp.run ~world (r.rec_conf ()) prog))))
      recs;
    fun ~jobs:_ _ ->
      let body () =
        let hunts =
          List.map
            (fun (b, spec) ->
              ( b,
                List.init salts (fun k ->
                    Span.with_
                      ~inner:(fun (g : Guided.report) -> ("coverage:" ^ b, float_of_int g.Guided.g_runs))
                      "guided"
                      (Printf.sprintf "Guided.hunt %s salt %d" b k)
                      (fun () ->
                        Guided.hunt spec ~salt:(salt ~seed (k + 1)) ~stop_on_race:true ())) ))
            specs
        in
        let preds = List.map predict_one recs in
        (hunts, preds)
      in
      let (hunts, preds), t = timed body in
      let hunt_runs =
        sumi (List.map (fun (_, gs) -> sumi (List.map (fun g -> g.Guided.g_runs) gs)) hunts)
      in
      let verify_runs =
        sumi (List.map (fun (_, _, _, rep) -> rep.Predictor.r_runs) preds)
      in
      let runs = hunt_runs + verify_runs + List.length preds in
      let to_first =
        sumi
          (List.map
             (fun (_, gs) ->
               int_of_float (median (List.map (fun g -> float_of_int (first_race g)) gs)))
             hunts)
      in
      let hunt_bad =
        sumi
          (List.map
             (fun (_, gs) ->
               sumi (List.map (fun g -> unexpected_in g.Guided.g_outcomes) gs))
             hunts)
      in
      let rec_bad =
        List.length
          (List.filter (fun (run, _, _, _) -> outcome_unexpected run) preds)
      in
      {
        empty_round with
        wall = t;
        runs = runs;
        attempted = runs;
        unexpected = hunt_bad + rec_bad;
        fingerprint =
          md5
            ( List.map (fun (b, gs) -> (b, List.map Guided.digest gs)) hunts,
              List.map
                (fun (_, a, musts, rep) ->
                  ( Predict.digest a,
                    musts,
                    rep.Predictor.r_runs,
                    rep.Predictor.r_confirmed,
                    rep.Predictor.r_refuted ))
                preds );
        checks =
          List.map2
            (fun (r : recording) (_, _, _, rep) ->
              ( "predict: no refuted pair reported as a race on " ^ r.rec_name,
                refuted_as_races rep = 0 ))
            recs preds;
        counts =
          [
            ("runs_to_first_race", float_of_int to_first, "runs");
            ( "must_pairs",
              float_of_int (sumi (List.map (fun (_, _, m, _) -> m) preds)),
              "count" );
            ("verify_runs", float_of_int verify_runs, "runs");
          ];
      }
  in
  {
    name = "predict";
    cycle = 1;
    setup;
    parallel = false;
    pinned = "5f055f772b98b72352c8a6a955f1db4a";
    final_checks = (fun ~seed:_ -> []);
  }

(* ------------------------------------------------------------------ *)
(* record-replay: the paper's own use. Each session records under the
   queue strategy (demo saved), replays the demo on a different world
   seed, and runs the same inputs natively as the overhead base. *)

let rr_apps = [ "httpd"; "pbzip" ]
let rr_cycle = 16

type session = {
  s_record : float;
  s_replay : float;
  s_native : float;
  s_faithful : bool;
  s_bad : int;
  s_ticks : int;
  s_demo_bytes : int;
  s_output : string;
}

let session ~dir ~seed ~k name =
  let w = workload name in
  let policy = w.Workloads.w_policy in
  let s1 = (seed * 1000) + k in
  let ws = Int64.of_int ((seed * 1000) + k) in
  let instance seed =
    let world = World.create ~seed () in
    (world, w.Workloads.w_instance world ())
  in
  let run label conf (world, prog) =
    timed (fun () ->
        Span.with_ "interp" (Printf.sprintf "Interp.run %s %s" label name)
          (fun () -> Interp.run ~world conf prog))
  in
  let seeded c = Conf.with_seeds (Conf.with_policy c policy) (Int64.of_int s1) (Int64.of_int (s1 + 7919)) in
  let r, t_rec =
    run "record" (seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())) (instance ws)
  in
  let p, t_rep =
    run "replay"
      (Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ()) policy)
      (instance (Int64.add ws 1_000_003L))
  in
  let n, t_nat = run "native" (seeded Conf.native) (instance ws) in
  let faithful =
    p.Interp.outcome = Interp.Completed
    && (not p.Interp.soft_desync)
    && p.Interp.desync_count = 0
    && p.Interp.output = r.Interp.output
  in
  {
    s_record = t_rec;
    s_replay = t_rep;
    s_native = t_nat;
    s_faithful = faithful;
    s_bad =
      List.length (List.filter outcome_unexpected [ r; p; n ]);
    s_ticks = r.Interp.ticks;
    s_demo_bytes =
      (match r.Interp.demo with Some d -> Demo.size_bytes d | None -> 0);
    s_output = hex r.Interp.output;
  }

let record_replay =
  let setup ~seed =
    let dirs =
      List.map (fun a -> (a, Filename.concat (scratch "rr") a)) rr_apps
    in
    List.iter (fun (a, dir) -> ignore (session ~dir ~seed ~k:0 a)) dirs;
    fun ~jobs:_ i ->
      let k = i mod rr_cycle in
      let ss, t =
        timed (fun () ->
            List.map (fun (a, dir) -> (a, session ~dir ~seed ~k a)) dirs)
      in
      {
        wall = t;
        runs = 3 * List.length ss;
        attempted = List.length ss;
        unexpected =
          List.length (List.filter (fun (_, s) -> s.s_bad > 0 || not s.s_faithful) ss);
        fingerprint =
          md5 (List.map (fun (a, s) -> (a, s.s_ticks, s.s_demo_bytes, s.s_output)) ss);
        checks =
          List.map
            (fun (a, s) -> ("record-replay: faithful replay of " ^ a, s.s_faithful))
            ss;
        samples =
          List.concat_map
            (fun (a, s) ->
              [
                ("record." ^ a, s.s_record);
                ("replay." ^ a, s.s_replay);
                ("native." ^ a, s.s_native);
              ])
            ss;
        counts =
          [
            ( "demo_bytes_per_query",
              float_of_int (List.assoc "httpd" ss).s_demo_bytes
              /. float_of_int T11r_apps.Httpd.default_config.queries,
              "B" );
          ];
      }
  in
  {
    name = "record-replay";
    cycle = rr_cycle;
    setup;
    parallel = false;
    pinned = "65789905caec23fbd08de8dad24c3ae4";
    final_checks = (fun ~seed:_ -> []);
  }

let all = [ hunt; check; predict; record_replay ]
