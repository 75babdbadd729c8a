(* The benchmark harness: regenerates every table of the paper's
   evaluation (§5) plus the quantitative prose claims, the ablations
   and the fault-injection sweep. The implementation's own performance
   is measured by perfbench/ (BENCHMARK.json); [costs] only takes one
   hunt run, one DPOR schedule and one guided-hunt run apart on the
   host it runs on.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- one experiment
       (table1 table2 demosize table34 table5 game zandronum limits
        ablations faults costs)

   Absolute numbers are simulated time from our cost model (DESIGN.md
   §4-5); the claims to check against the paper are the *shapes*: who
   wins, by roughly what factor, and where the qualitative crossovers
   fall. EXPERIMENTS.md records paper-vs-measured for every cell. *)

open T11r_util
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module Policy = Tsan11rec.Policy
module World = T11r_env.World
module Campaign = T11r_harness.Campaign
module Pool = T11r_harness.Pool
open T11r_apps

(* Run [i] of a recording campaign saves into [<dir>.<i>]: a
   campaign's runs may run on concurrent domains, and two saves into
   one directory race on its rename. *)
let per_run_demos (spec : Campaign.spec) =
  {
    spec with
    Campaign.conf =
      (fun i ->
        let c = spec.conf i in
        match c.Conf.mode with
        | Conf.Record dir ->
            Conf.with_mode c (Conf.Record (Printf.sprintf "%s.%d" dir i))
        | _ -> c);
  }

(* Worker domains for campaign-aware experiments (--jobs N; 0 = all
   cores). The default stays sequential so historical numbers are
   comparable. *)
let jobs = ref 1

(* Runs per experiment. The paper uses 1000 for Table 1 and 10
   elsewhere; we default lower to keep the full suite around a minute
   and note it in the table titles. Override with T11R_RUNS. *)
let table1_runs =
  match Sys.getenv_opt "T11R_RUNS" with Some s -> int_of_string s | None -> 300

let app_runs = 5

(* ------------------------------------------------------------------ *)
(* Table 1: CDSchecker litmus benchmarks                                *)

let table1 () =
  let configs =
    [
      ("tsan11+rr", Conf.tsan11_rr);
      ("tsan11", Conf.tsan11);
      ("tsan11rec rnd", Conf.tsan11rec ~strategy:Conf.Random ());
      ("tsan11rec queue", Conf.tsan11rec ~strategy:Conf.Queue ());
    ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 1: CDSchecker benchmarks, %d runs each (paper: 1000)"
           table1_runs)
      ~headers:
        ([ "Test" ]
        @ List.concat_map (fun (n, _) -> [ n ^ " Time"; "Rate" ]) configs)
  in
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      let cells =
        List.concat_map
          (fun (label, base) ->
            let spec = Campaign.spec ~label ~base_conf:base e.build in
            let agg = Campaign.run spec ~n:table1_runs ~jobs:!jobs [] in
            [
              Format.asprintf "%a" Stats.pp_mean_sd agg.time_ms;
              Printf.sprintf "%.1f%%" agg.race_rate;
            ])
          configs
      in
      Table.add_row t (e.name :: cells))
    T11r_litmus.Registry.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 2: httpd throughput and race rate                              *)

let httpd_cfg = { Httpd.default_config with queries = 1000 }

(* The setups of Table 2; the recording ones save under [root]. *)
let httpd_setups root =
  let rec_mode name = Conf.Record (Filename.concat root name) in
  [
    ("native", Conf.native, false);
    ("rr", Conf.with_mode Conf.rr_model (rec_mode "rr"), false);
    ("tsan11", Conf.tsan11, true);
    ("tsan11+rr", Conf.with_mode Conf.tsan11_rr (rec_mode "t11rr"), true);
    ("rnd", Conf.tsan11rec ~strategy:Conf.Random (), true);
    ("queue", Conf.tsan11rec ~strategy:Conf.Queue (), true);
    ( "rnd + rec",
      Conf.tsan11rec ~strategy:Conf.Random ~mode:(rec_mode "rnd") (),
      true );
    ( "queue + rec",
      Conf.tsan11rec ~strategy:Conf.Queue ~mode:(rec_mode "queue") (),
      true );
  ]

let run_httpd_setup (label, base, detects) ~reports =
  let base = { base with Conf.emit_reports = reports } in
  let spec =
    per_run_demos
      (Campaign.spec ~label ~base_conf:base
         ~setup_world:(Httpd.setup_world httpd_cfg) (fun () ->
           Httpd.program ~cfg:httpd_cfg ()))
  in
  let agg = Campaign.run spec ~n:app_runs ~jobs:!jobs [] in
  (label, agg, detects)

(* Mean-makespan ratio of a campaign over a baseline campaign: the
   "overhead vs native" of Tables 2 and 4. *)
let mean_ratio (c : Campaign.report) (baseline : Campaign.report) =
  if baseline.time_ms.Stats.mean <= 0.0 then 0.0
  else c.time_ms.Stats.mean /. baseline.time_ms.Stats.mean

let table2 () =
  Fmt.pr "(Table 2: %d queries over %d clients, %d runs; paper: 10000/10)@."
    httpd_cfg.queries httpd_cfg.clients app_runs;
  Tmp.with_dir ~prefix:"t11r_table2" @@ fun root ->
  let with_reports =
    List.map (run_httpd_setup ~reports:true) (httpd_setups root)
  in
  let without =
    List.map (run_httpd_setup ~reports:false) (httpd_setups root)
  in
  let native_no_reports =
    match List.filter (fun (l, _, _) -> l = "native") without with
    | [ (_, agg, _) ] -> agg
    | _ -> assert false
  in
  let t =
    Table.create ~title:"Table 2: httpd throughput (queries/s) and race rate"
      ~headers:
        [
          "Setup"; "Thrpt(rep)"; "Ovhd"; "Rate"; "Thrpt(no rep)"; "Ovhd";
        ]
  in
  List.iter2
    (fun (label, agg_r, detects) (label', agg_n, _) ->
      assert (label = label');
      let ovh agg =
        Printf.sprintf "%.0fx" (mean_ratio agg native_no_reports)
      in
      (* queries per simulated second *)
      let thr (agg : Campaign.report) =
        Printf.sprintf "%.0f"
          (if agg.time_ms.Stats.mean <= 0.0 then 0.0
           else
             float_of_int httpd_cfg.queries /. (agg.time_ms.Stats.mean /. 1000.0))
      in
      let is_racecfg = detects in
      Table.add_row t
        [
          label;
          (if is_racecfg then thr agg_r else "N/A");
          (if is_racecfg then ovh agg_r else "N/A");
          (if is_racecfg then Printf.sprintf "%.0f" agg_r.mean_reports else "N/A");
          thr agg_n;
          ovh agg_n;
        ])
    with_reports without;
  Table.print t

(* ------------------------------------------------------------------ *)
(* §5.2 prose: demo-file sizes                                          *)

(* rr's trace-size model, calibrated from §5.2: about 0.3 KB per
   request plus a constant 3.6 MB (mmapped pages, binaries). *)
let rr_demo_fixed_bytes = 3_600_000
let rr_demo_bytes_per_query = 300

let demosize () =
  Tmp.with_dir ~prefix:"t11r_demosize" @@ fun root ->
  let t =
    Table.create ~title:"Demo sizes vs request count (§5.2 prose)"
      ~headers:
        [ "queries"; "t11rec queue"; "B/query"; "t11rec rnd"; "B/query"; "rr (model)" ]
  in
  List.iter
    (fun queries ->
      let cfg = { Httpd.default_config with queries } in
      let size strategy =
        let dir =
          Filename.concat root
            (Printf.sprintf "%s.%d" (Conf.strategy_name strategy) queries)
        in
        let conf =
          Campaign.scheduler_seeds
            (Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ())
            1
        in
        let world = World.create ~seed:5L () in
        Httpd.setup_world cfg world;
        let r = Interp.run ~world conf (Httpd.program ~cfg ()) in
        match r.Interp.demo with Some d -> Demo.size_bytes d | None -> 0
      in
      let q = size Conf.Queue in
      let rnd = size Conf.Random in
      Table.add_row t
        [
          string_of_int queries;
          Printf.sprintf "%d" q;
          Printf.sprintf "%.0f" (float_of_int q /. float_of_int queries);
          Printf.sprintf "%d" rnd;
          Printf.sprintf "%.0f" (float_of_int rnd /. float_of_int queries);
          Printf.sprintf "%d"
            (rr_demo_fixed_bytes + (queries * rr_demo_bytes_per_query));
        ])
    [ 200; 1000; 2000 ];
  Table.print t;
  print_endline
    "Shape to check: tsan11rec size grows linearly per request (queue adds\n\
     the QUEUE file on top of SYSCALL); the rr model is a large constant\n\
     plus a much smaller per-request increment.\n"

(* ------------------------------------------------------------------ *)
(* Tables 3 & 4: PARSEC and pbzip                                       *)

(* The configurations of Tables 3 and 4; the recording ones save under
   [root]. *)
let app_configs root =
  let rec_mode name = Conf.Record (Filename.concat root name) in
  [
    ("native", Conf.native);
    ("tsan11", Conf.tsan11);
    ("rr", Conf.with_mode Conf.rr_model (rec_mode "rr"));
    ("tsan11+rr", Conf.with_mode Conf.tsan11_rr (rec_mode "t11rr"));
    ("rnd", Conf.tsan11rec ~strategy:Conf.Random ());
    ("queue", Conf.tsan11rec ~strategy:Conf.Queue ());
    ("rnd+rec", Conf.tsan11rec ~strategy:Conf.Random ~mode:(rec_mode "rnd") ());
    ( "queue+rec",
      Conf.tsan11rec ~strategy:Conf.Queue ~mode:(rec_mode "queue") () );
  ]

let table34 () =
  Tmp.with_dir ~prefix:"t11r_table34" @@ fun root ->
  let workloads =
    ("pbzip", fun () -> Pbzip.program ())
    :: List.map
         (fun (k : Parsec.kernel) ->
           (k.k_name, fun () -> k.build ~threads:4 ()))
         Parsec.kernels
  in
  let configs = app_configs root in
  let t3 =
    Table.create
      ~title:
        (Printf.sprintf "Table 3: execution times (s), %d runs (paper: 10)"
           app_runs)
      ~headers:("Program" :: List.map fst configs)
  in
  let t4 =
    Table.create ~title:"Table 4: overhead vs native"
      ~headers:("Program" :: List.map fst configs)
  in
  List.iter
    (fun (name, build) ->
      let aggs =
        List.map
          (fun (label, base) ->
            let spec = Campaign.spec ~label ~base_conf:base build in
            Campaign.run (per_run_demos spec) ~n:app_runs ~jobs:!jobs [])
          configs
      in
      let native = List.hd aggs in
      Table.add_row t3
        (name
        :: List.map
             (fun (a : Campaign.report) ->
               Format.asprintf "%a" Stats.pp_mean_sd
                 {
                   a.time_ms with
                   Stats.mean = a.time_ms.Stats.mean /. 1000.0;
                   sd = a.time_ms.Stats.sd /. 1000.0;
                 })
             aggs);
      Table.add_row t4
        (name
        :: List.map
             (fun a -> Printf.sprintf "%.1fx" (mean_ratio a native))
             aggs))
    workloads;
  Table.print t3;
  Table.print t4

(* ------------------------------------------------------------------ *)
(* Table 5: QuakeSpasm uncapped frame rates                             *)

let table5 () =
  Tmp.with_dir ~prefix:"t11r_table5" @@ fun root ->
  let p = Game.quakespasm ~frames:300 ~fps_cap:None () in
  let plays = 5 in
  let configs =
    [
      ("Native", Conf.native);
      ("tsan11", Conf.tsan11);
      ("rnd", Conf.tsan11rec ~strategy:Conf.Random ());
      ("queue", Conf.tsan11rec ~strategy:Conf.Queue ());
      ( "rnd + rec",
        Conf.tsan11rec ~strategy:Conf.Random
          ~mode:(Conf.Record (Filename.concat root "rnd")) () );
      ( "queue + rec",
        Conf.tsan11rec ~strategy:Conf.Queue
          ~mode:(Conf.Record (Filename.concat root "queue")) () );
    ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 5: QuakeSpasm fps, %d plays x %d frames per configuration"
           plays p.Game.frames)
      ~headers:[ "Setup"; "Min"; "25th"; "Median"; "75th"; "Max"; "Mean"; "Ovhd" ]
  in
  let native_mean = ref 0.0 in
  List.iter
    (fun (label, base) ->
      let base = Conf.with_policy base Policy.games in
      let samples =
        List.concat_map
          (fun i ->
            let world = World.create ~seed:(Int64.of_int ((i * 7919) + 3)) () in
            let conf = Campaign.scheduler_seeds base i in
            let r = Interp.run ~world conf (Game.program ~p ()) in
            Game.fps_samples r.Interp.output)
          (List.init plays (fun i -> i + 1))
      in
      let mean = Stats.mean samples in
      if label = "Native" then native_mean := mean;
      Table.add_row t
        [
          label;
          Printf.sprintf "%.0f" (Stats.percentile samples 0.0);
          Printf.sprintf "%.0f" (Stats.percentile samples 25.0);
          Printf.sprintf "%.0f" (Stats.percentile samples 50.0);
          Printf.sprintf "%.0f" (Stats.percentile samples 75.0);
          Printf.sprintf "%.0f" (Stats.percentile samples 100.0);
          Printf.sprintf "%.1f" mean;
          Printf.sprintf "%.1fx" (!native_mean /. mean);
        ])
    configs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* §5.4 prose: Zandronum playability and demo growth                    *)

let game () =
  Tmp.with_dir ~prefix:"t11r_game" @@ fun root ->
  let p = Game.zandronum ~frames:240 () in
  let t =
    Table.create ~title:"Zandronum playability (§5.4; 60 fps cap)"
      ~headers:[ "Setup"; "fps"; "playable?" ]
  in
  List.iter
    (fun (label, base) ->
      let base = Conf.with_policy base Policy.games in
      let world = World.create ~seed:11L () in
      let conf = Campaign.scheduler_seeds base 1 in
      let r = Interp.run ~world conf (Game.program ~p ()) in
      match r.Interp.outcome with
      | Interp.Completed ->
          Table.add_row t
            [
              label;
              Printf.sprintf "%.1f" (Game.mean_fps r.output);
              (if Game.playable r.output then "yes" else "NO");
            ]
      | o -> Table.add_row t [ label; Format.asprintf "%a" Interp.pp_outcome o; "-" ])
    [
      ("native", Conf.native);
      ("tsan11rec rnd", Conf.tsan11rec ~strategy:Conf.Random ());
      ("tsan11rec queue", Conf.tsan11rec ~strategy:Conf.Queue ());
      ( "queue + rec",
        Conf.tsan11rec ~strategy:Conf.Queue
          ~mode:(Conf.Record (Filename.concat root "zan")) () );
      ("rr", Conf.rr_model);
    ];
  Table.print t;
  (* Demo growth over a longer play (the paper: ~8 MB per 100 s, of
     which 6.5 MB syscalls). *)
  let frames = 1800 (* 30 s of play at 60 fps *) in
  let p = Game.zandronum ~frames () in
  let dir = Filename.concat root "zanlong" in
  let conf =
    Campaign.scheduler_seeds
      (Conf.with_policy
         (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
         Policy.games)
      1
  in
  let r = Interp.run ~world:(World.create ~seed:12L ()) conf (Game.program ~p ()) in
  (match r.Interp.demo with
  | Some d ->
      Fmt.pr
        "30s of play: demo %d bytes, of which SYSCALL %d bytes (%.0f%%)@.@."
        (Demo.size_bytes d) (Demo.syscall_bytes d)
        (100.0
        *. float_of_int (Demo.syscall_bytes d)
        /. float_of_int (Demo.size_bytes d))
  | None -> ())

(* ------------------------------------------------------------------ *)
(* §5.4 prose: the Zandronum map-change bug                             *)

let zandronum () =
  print_endline "Zandronum map-change bug (§5.4): record until it fires, replay it.";
  Tmp.with_dir ~prefix:"t11r_zandronum" @@ fun dir ->
  let record i =
    let world = World.create ~seed:(Int64.of_int (i * 313)) () in
    let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
    let conf =
      Campaign.scheduler_seeds
        (Conf.with_policy
           (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
           Policy.games)
        5
    in
    Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ())
  in
  let rec hunt i =
    if i > 100 then (None, i - 1)
    else
      let r = record i in
      match r.Interp.outcome with
      | Interp.Crashed (_, msg) -> (Some msg, i)
      | _ -> hunt (i + 1)
  in
  (match hunt 1 with
  | Some msg, i ->
      Fmt.pr "  bug fired on session %d: %s@." i msg;
      let world = World.create ~seed:999L () in
      let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
      let conf =
        Conf.with_policy
          (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
          Policy.games
      in
      let r2 = Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ()) in
      (match r2.Interp.outcome with
      | Interp.Crashed (_, msg2) when msg2 = msg ->
          Fmt.pr "  replay reproduced the identical crash.@."
      | o -> Fmt.pr "  REPLAY DIVERGED: %a@." Interp.pp_outcome o)
  | None, n -> Fmt.pr "  bug did not fire in %d sessions@." n);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* §5.5: limitations                                                    *)

let limits () =
  Tmp.with_dir ~prefix:"t11r_limits" @@ fun root ->
  let t =
    Table.create ~title:"SQLite/SpiderMonkey-style limitation study (§5.5)"
      ~headers:[ "tool / workaround"; "record"; "replay" ]
  in
  let outcome (r : Interp.result) =
    match r.outcome with
    | Interp.Completed when r.soft_desync -> "SOFT DESYNC"
    | Interp.Completed -> "ok"
    | o -> Format.asprintf "%a" Interp.pp_outcome o
  in
  let row label rec_conf rec_world rep_conf rep_world =
    let r1 = Interp.run ~world:rec_world rec_conf (Sqlite_like.program ()) in
    let r2 = Interp.run ~world:rep_world rep_conf (Sqlite_like.program ()) in
    Table.add_row t [ label; outcome r1; outcome r2 ]
  in
  let d1 = Filename.concat root "lim1" in
  row "tsan11rec (sparse)"
    (Campaign.scheduler_seeds
       (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record d1) ())
       1)
    (World.create ~seed:123L ())
    (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay d1) ())
    (World.create ~seed:321L ());
  (* rr enforces memory layout: both worlds allocate deterministically,
     so addresses coincide. *)
  let d2 = Filename.concat root "lim2" in
  row "rr model (layout enforced)"
    (Campaign.scheduler_seeds (Conf.with_mode Conf.rr_model (Conf.Record d2)) 1)
    (World.create ~seed:123L ~deterministic_alloc:true ())
    (Conf.with_mode Conf.rr_model (Conf.Replay d2))
    (World.create ~seed:321L ~deterministic_alloc:true ());
  let d3 = Filename.concat root "lim3" in
  row "tsan11rec + deterministic alloc"
    (Campaign.scheduler_seeds
       (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record d3) ())
       1)
    (World.create ~seed:123L ~deterministic_alloc:true ())
    (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay d3) ())
    (World.create ~seed:321L ~deterministic_alloc:true ());
  Table.print t;

  let t2 =
    Table.create ~title:"htop-style /proc monitor vs recording policy (§4.4)"
      ~headers:[ "policy"; "replay" ]
  in
  let htop policy =
    let dir = Filename.concat root ("htop-" ^ policy.Policy.name) in
    let mk seed =
      let w = World.create ~seed () in
      Htop_like.setup_world w;
      w
    in
    let rc =
      Conf.with_policy
        (Campaign.scheduler_seeds
           (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
           1)
        policy
    in
    ignore (Interp.run ~world:(mk 5L) rc (Htop_like.program ()));
    let pc =
      Conf.with_policy
        (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
        policy
    in
    let r = Interp.run ~world:(mk 60L) pc (Htop_like.program ()) in
    Table.add_row t2 [ policy.Policy.name; outcome r ]
  in
  htop Policy.default;
  htop Policy.with_proc;
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Ablations over DESIGN.md's decisions                                 *)

let ablations () =
  (* 1. Liveness rescheduling (§3.3): without it, the random strategy
     on a sleepy-thread application stalls dramatically. *)
  let t =
    Table.create ~title:"Ablation: liveness reschedule interval (zandronum, rnd)"
      ~headers:[ "resched_ms"; "fps" ]
  in
  let p = Game.zandronum ~frames:120 () in
  List.iter
    (fun ms ->
      let base =
        { (Conf.tsan11rec ~strategy:Conf.Random ()) with Conf.resched_ms = ms }
      in
      let base = Conf.with_policy base Policy.games in
      let r =
        Interp.run ~world:(World.create ~seed:3L ())
          (Campaign.scheduler_seeds base 1)
          (Game.program ~p ())
      in
      Table.add_row t
        [
          (if ms = 0 then "off" else string_of_int ms);
          Printf.sprintf "%.2f" (Game.mean_fps r.Interp.output);
        ])
    [ 0; 2; 10; 50 ];
  Table.print t;

  (* 2. The PCT-style strategy (the paper's future work) vs random and
     queue on race discovery. *)
  let t2 =
    Table.create
      ~title:
        "Ablation: scheduling strategy vs race rate (100 runs; the\n\
         paper's future-work menu: PCT, delay bounding, preemption bounding)"
      ~headers:[ "benchmark"; "rnd"; "pct:3"; "db:3"; "pb:3"; "queue" ]
  in
  List.iter
    (fun name ->
      let e = Option.get (T11r_litmus.Registry.find name) in
      let rate strategy =
        let spec =
          Campaign.spec ~label:"x"
            ~base_conf:(Conf.tsan11rec ~strategy ())
            e.build
        in
        (Campaign.run spec ~n:100 ~jobs:!jobs []).race_rate
      in
      Table.add_row t2
        [
          name;
          Printf.sprintf "%.0f%%" (rate Conf.Random);
          Printf.sprintf "%.0f%%" (rate (Conf.Pct 3));
          Printf.sprintf "%.0f%%" (rate (Conf.Delay_bounded 3));
          Printf.sprintf "%.0f%%" (rate (Conf.Preempt_bounded 3));
          Printf.sprintf "%.0f%%" (rate Conf.Queue);
        ])
    [ "barrier"; "mcs-lock"; "chase-lev-deque"; "dekker-fences" ];
  Table.print t2;

  (* 3. Weak-memory window depth vs Fig.1-race discovery: with history
     1 every load reads the newest store (SC per location) and the race
     becomes impossible to observe. *)
  let t3 =
    Table.create
      ~title:
        "Ablation: weak-memory store-history depth vs race rate (500 runs)"
      ~headers:[ "max_history"; "fig1"; "barrier" ]
  in
  (* Depth 1 turns every atomic location into an SC register: the Fig.1
     race (which needs a stale relaxed read) becomes unobservable, and
     the conditional litmus races lose their stale-read component. *)
  List.iter
    (fun depth ->
      let rate (e : T11r_litmus.Registry.entry) =
        let base =
          { (Conf.tsan11rec ~strategy:Conf.Random ()) with Conf.max_history = depth }
        in
        let spec = Campaign.spec ~label:"x" ~base_conf:base e.build in
        (Campaign.run spec ~n:500 ~jobs:!jobs []).race_rate
      in
      Table.add_row t3
        [
          string_of_int depth;
          Printf.sprintf "%.1f%%" (rate T11r_litmus.Registry.fig1);
          Printf.sprintf "%.1f%%"
            (rate (Option.get (T11r_litmus.Registry.find "barrier")));
        ])
    [ 1; 2; 4; 8 ];
  Table.print t3;

  (* 4. Iterative context bounding: how many preemptions each bug needs
     (Musuvathi & Qadeer; the paper's §6 cites both the technique and
     the observation that real bugs need very few). *)
  let t4 =
    Table.create ~title:"Ablation: preemption bound needed per bug (ICB)"
      ~headers:[ "benchmark"; "bound"; "runs to find" ]
  in
  List.iter
    (fun name ->
      let e = Option.get (T11r_litmus.Registry.find name) in
      match
        T11r_harness.Minimize.find_bug ~failure:T11r_harness.Minimize.Race
          ~build:e.build ()
      with
      | T11r_harness.Minimize.Found f ->
          Table.add_row t4
            [ name; string_of_int f.bound; string_of_int f.runs ]
      | T11r_harness.Minimize.Not_found n ->
          Table.add_row t4 [ name; "-"; Printf.sprintf "(%d runs, none)" n ])
    [ "barrier"; "linuxrwlocks"; "mcs-lock"; "mpmc-queue"; "ms-queue" ];
  Table.print t4;

  (* 5. Systematic vs randomized exploration on the buggy dekker. *)
  let e = Option.get (T11r_litmus.Registry.find "dekker-fences") in
  let sys = T11r_harness.Systematic.explore ~max_runs:5000 ~build:e.build () in
  Fmt.pr
    "Systematic exploration of dekker-fences: %d schedules (%s), %d racy@.@."
    sys.T11r_harness.Systematic.runs
    (if sys.T11r_harness.Systematic.complete then "exhausted" else "budget")
    sys.T11r_harness.Systematic.racy_schedules

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep (robustness study)                             *)

let smoke = ref false
let faults () = T11r_harness.Faultsweep.run ~smoke:!smoke ~jobs:!jobs ()

(* ------------------------------------------------------------------ *)
(* The cost tables' one measuring loop                                  *)

(* Host time (scaled by [unit]: 1e9 for ns, 1e6 for µs) and minor
   words per unit of work of each of [passes], a pass returning how
   many units (runs, schedules) it did: the fastest of [reps] (default
   15) calls after one untimed call of each, so a row reads the host's
   floor, not its noise; words are exact. The passes take turns, so a
   drift in the host's speed moves them together. *)
let measure ?(reps = 15) ~unit passes =
  let per = Array.map (fun pass -> float_of_int (pass ())) passes in
  let best = Array.map (fun _ -> infinity) passes in
  let words = Array.map (fun _ -> 0.0) passes in
  for _ = 1 to reps do
    Array.iteri
      (fun i pass ->
        Gc.minor ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        ignore (pass ());
        best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0);
        words.(i) <- Gc.minor_words () -. w0)
      passes
  done;
  Array.mapi (fun i b -> (b *. unit /. per.(i), words.(i) /. per.(i))) best

(* ------------------------------------------------------------------ *)
(* Cost of one hunt run                                                 *)

(* Where a random-strategy hunt run's time goes, in host ns and minor
   words per run or per tick. Runs use the perfbench hunt spec at
   workload seed 1 (scheduler seeds off+i and off+i+7919, a fresh
   [World.create] per run) on one recycled arena; the first row resets
   one world instead, as [test_alloc]'s ctx_reset does. A tick row is
   the marginal cost of one more op: a one-thread program making [k]
   of them, less the same program making none, over [k] (64 loads,
   fences or prints; 16 spawns or spawn+join pairs of named threads
   that return at once, as every thread ever spawned stays in the
   scheduler's scan). The last table is [Campaign.run] (jobs 1)
   against a bare [Interp.run] loop over the same runs that keeps no
   result; their difference is the campaign's own per-run work. *)
let costs () =
  let module Api = T11r_vm.Api in
  let module Workloads = T11r_harness.Workloads in
  let off = 1_000_003 in
  let base (w : Workloads.t) =
    Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Random ()) w.w_policy
  in
  let conf base i =
    Conf.with_seeds base (Int64.of_int (off + i)) (Int64.of_int (off + i + 7919))
  in
  let fresh_world i = World.create ~seed:(Int64.of_int (off + i)) () in
  let arena = Interp.create_arena () in
  let fig1_conf = conf (base (Option.get (Workloads.find "fig1"))) in
  let runs = 2_000 in
  (* A pass of [runs] runs of [body]. *)
  let run_all ~world body () =
    for i = 0 to runs - 1 do
      ignore
        (Interp.run ~world:(world i) ~arena (fig1_conf i)
           (Api.program ~name:"costs" body))
    done;
    runs
  in
  let recycled = World.create ~seed:1L () in
  let reset_world _ =
    World.reset recycled ~seed:1L;
    recycled
  in
  let per_tick k op =
    let program k () =
      let a = Api.Atomic.create ~name:"a" 0 in
      for _ = 1 to k do
        op a
      done
    in
    let m =
      measure ~unit:1e9
        [| run_all ~world:fresh_world (program k); run_all ~world:fresh_world (program 0) |]
    in
    let (ns, w), (ns0, w0) = (m.(0), m.(1)) and k = float_of_int k in
    ((ns -. ns0) /. k, (w -. w0) /. k)
  in
  let t =
    Table.create
      ~title:
        "Cost of one hunt run: the empty program, and one more tick of each \
         kind (host ns, best of 15; minor words)"
      ~headers:[ "row"; "ns"; "words" ]
  in
  let row name (ns, w) =
    Table.add_row t [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.1f" w ]
  in
  let empty =
    measure ~unit:1e9
      [| run_all ~world:reset_world ignore; run_all ~world:fresh_world ignore |]
  in
  row "empty run, recycled world" empty.(0);
  row "empty run, fresh world" empty.(1);
  row "relaxed load tick"
    (per_tick 64 (fun a -> ignore (Api.Atomic.load ~mo:T11r_mem.Memord.Relaxed a)));
  row "seq_cst fence tick"
    (per_tick 64 (fun _ -> Api.Atomic.fence T11r_mem.Memord.Seq_cst));
  row "print syscall tick" (per_tick 64 (fun _ -> Api.Sys_api.print "x"));
  row "spawn tick" (per_tick 16 (fun _ -> ignore (Api.Thread.spawn ~name:"c" ignore)));
  row "spawn+join pair"
    (per_tick 16 (fun _ -> Api.Thread.join (Api.Thread.spawn ~name:"c" ignore)));
  Table.print t;
  let t2 =
    Table.create
      ~title:
        "Cost of one hunt run: Campaign.run (jobs 1) over a bare Interp.run \
         loop (host µs per run, best of 15; minor words per run)"
      ~headers:
        [ "workload"; "runs"; "Campaign.run µs"; "bare µs"; "campaign's own µs";
          "Campaign.run words"; "bare words" ]
  in
  List.iter
    (fun (name, n) ->
      let w = Option.get (Workloads.find name) in
      let conf = conf (base w) in
      let instance i =
        let world = fresh_world i in
        (world, w.w_instance world ())
      in
      let spec = { Campaign.label = name; conf; instance } in
      let m =
        measure ~unit:1e6
          [|
            (fun () ->
              ignore (Campaign.run spec ~n ~jobs:1 []);
              n);
            (fun () ->
              for i = 0 to n - 1 do
                let world, program = instance i in
                ignore
                  (Interp.run ~world ~arena:(Campaign.domain_arena ()) (conf i) program)
              done;
              n);
          |]
      in
      let (camp_us, camp_w), (bare_us, bare_w) = (m.(0), m.(1)) in
      Table.add_row t2
        [
          name;
          string_of_int n;
          Printf.sprintf "%.2f" camp_us;
          Printf.sprintf "%.2f" bare_us;
          Printf.sprintf "%.2f" (camp_us -. bare_us);
          Printf.sprintf "%.0f" camp_w;
          Printf.sprintf "%.0f" bare_w;
        ])
    [ ("fig1", 2_000); ("mcs-lock", 2_000); ("ms-queue", 20) ];
  Table.print t2

(* ------------------------------------------------------------------ *)
(* Cost of one DPOR schedule                                            *)

(* Where a DPOR schedule's time goes, in host µs and minor words per
   schedule, over perfbench check's exhausting set at workload seed 1:
   ten litmus programs, each explored under the four sub-seeds 4-7
   (scheduler seeds s and s+7919, world seed s). Three passes see the
   same schedules: [Systematic.explore] itself; the prefixes it
   executed, read back from its own journal, each through
   [Campaign.run_one] under the Guided configuration the explorer
   builds (decision capture on); and as many Random runs of the same
   programs (no capture; they run shorter schedules, as the ticks
   column shows). Explore less the prefixes is the explorer's own step
   (analysis, frames, prefixes, aggregate). *)
let dpor_costs () =
  let module Systematic = T11r_harness.Systematic in
  let module Registry = T11r_litmus.Registry in
  let exhausting =
    [ "fig1"; "dekker-fences"; "mcs-lock"; "linuxrwlocks"; "mpmc-queue";
      "barrier"; "barrier-fixed"; "dekker-fences-fixed"; "mcs-lock-fixed";
      "mpmc-queue-fixed" ]
  in
  let seeds s = (Int64.of_int s, Int64.of_int (s + 7919)) in
  (* As the explorer builds it: one base per tree, the prefix alone
     changing per run. *)
  let guided_base s =
    let s1, s2 = seeds s in
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] }) ())
      s1 s2
  in
  let guided base prefix =
    { base with Conf.sched = Conf.Controlled (Conf.Guided { prefix; observed = ref [] }) }
  in
  let random i s =
    let s1, s2 = seeds s in
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ())
      (Int64.add s1 (Int64.of_int i)) (Int64.add s2 (Int64.of_int i))
  in
  (* (sub-seed, build, prefixes in the order the explorer ran them) *)
  let trees =
    Tmp.with_dir ~prefix:"t11r_costs" @@ fun dir ->
    List.concat_map
      (fun s ->
        List.map
          (fun name ->
            let build =
              (List.find
                 (fun (e : Registry.entry) -> e.name = name)
                 (Registry.fig1 :: (Registry.all @ Registry.fixed)))
                .Registry.build
            in
            let journal = Filename.concat dir (Printf.sprintf "%s.%d" name s) in
            ignore
              (Systematic.explore ~max_runs:10_000 ~seeds:(seeds s)
                 ~world_seed:(Int64.of_int s) ~journal ~build ());
            let prefixes =
              List.filter_map
                (fun (e : Journal.entry) ->
                  if e.kind <> "sys" then None
                  else
                    let prefix, (_ : Interp.result) = Marshal.from_string e.payload 0 in
                    Some prefix)
                (fst (Journal.read journal))
            in
            (s, build, Array.of_list prefixes))
          exhausting)
      [ 4; 5; 6; 7 ]
  in
  let schedules =
    List.fold_left (fun n (_, _, ps) -> n + Array.length ps) 0 trees
  in
  let ticks = ref 0 in
  let run_one conf s build =
    let instance () =
      (Campaign.recycled_world ~seed:(Int64.of_int s), build ())
    in
    let r = Campaign.run_one ~deadline_s:0. ~tick_budget:None conf instance in
    ticks := !ticks + r.Interp.ticks
  in
  let passes =
    [|
      ( "Systematic.explore",
        fun () ->
          List.iter
            (fun (s, build, _) ->
              ignore
                (Systematic.explore ~max_runs:10_000 ~seeds:(seeds s)
                   ~world_seed:(Int64.of_int s) ~build ()))
            trees );
      ( "the same prefixes, Campaign.run_one",
        fun () ->
          List.iter
            (fun (s, build, ps) ->
              let base = guided_base s in
              Array.iter (fun p -> run_one (guided base p) s build) ps)
            trees );
      ( "as many Random runs",
        fun () ->
          List.iter
            (fun (s, build, ps) ->
              Array.iteri (fun i _ -> run_one (random i s) s build) ps)
            trees );
    |]
  in
  (* The ticks each pass's runs executed (the explore pass runs none
     outside the explorer, so it reports none). *)
  let tk = Array.map (fun _ -> 0) passes in
  let m =
    measure ~unit:1e6
      (Array.mapi
         (fun i (_, pass) () ->
           ticks := 0;
           pass ();
           tk.(i) <- !ticks;
           schedules)
         passes)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Cost of one DPOR schedule: perfbench check's exhausting set at \
            sub-seeds 4-7, %d schedules (host µs per schedule, best of 15; \
            minor words per schedule)"
           schedules)
      ~headers:[ "row"; "µs"; "words"; "ticks" ]
  in
  Array.iteri
    (fun i (name, _) ->
      let us, w = m.(i) in
      let tk = float_of_int tk.(i) /. float_of_int schedules in
      Table.add_row t
        [ name; Printf.sprintf "%.2f" us; Printf.sprintf "%.0f" w;
          (if tk > 0. then Printf.sprintf "%.1f" tk else "-") ])
    passes;
  let (ue, we), (up, wp) = (m.(0), m.(1)) in
  Table.add_row t
    [ "explorer's own step"; Printf.sprintf "%.2f" (ue -. up);
      Printf.sprintf "%.0f" (we -. wp); "" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Cost of one guided-hunt run                                          *)

(* Where a guided hunt's run goes, in host µs and minor words per run,
   on two of perfbench predict's hunt benchmarks (its guided spec, at
   salts 7920 .. 7967, the workload-seed-1 salts it hunts). Three rows
   per workload: 32 coverage-on runs of the spec's configurations,
   each on the domain's arena with its own world, keeping no result; a
   [Campaign.run] (jobs 1) of the same 32, which adds the results and
   the coverage merge; and [Guided.hunt] to the first race, per run it
   made, which adds breeding, corpus admission and the round fold.
   The hunts are timed over 5 passes, not 15. *)
let guided_costs () =
  let module Workloads = T11r_harness.Workloads in
  let module Guided = T11r_harness.Guided in
  let n = 32 and salts = 48 in
  let t =
    Table.create
      ~title:
        "Cost of one guided-hunt run: a bare coverage-on run, Campaign.run of \
         32, Guided.hunt to the first race (host µs per run, best of 15; \
         minor words per run)"
      ~headers:[ "workload"; "row"; "µs"; "words" ]
  in
  List.iter
    (fun name ->
      let spec =
        Workloads.spec_of ~base_conf:(Conf.tsan11rec ())
          (Option.get (Workloads.find name))
      in
      let covered =
        { spec with Campaign.conf = (fun i -> Conf.with_coverage (spec.Campaign.conf i) true) }
      in
      let row what (us, w) =
        Table.add_row t [ name; what; Printf.sprintf "%.2f" us; Printf.sprintf "%.0f" w ]
      in
      let m =
        measure ~unit:1e6
          [|
            (fun () ->
              for i = 0 to n - 1 do
                let world, program = covered.Campaign.instance i in
                ignore
                  (Interp.run ~world ~arena:(Campaign.domain_arena ())
                     (covered.Campaign.conf i) program)
              done;
              n);
            (fun () ->
              ignore (Campaign.run covered ~n ~jobs:1 []);
              n);
          |]
      in
      row "bare coverage-on run" m.(0);
      row "Campaign.run of 32" m.(1);
      let hunt () =
        let runs = ref 0 in
        for k = 1 to salts do
          let g = Guided.hunt spec ~salt:(Int64.of_int (7919 + k)) ~stop_on_race:true () in
          runs := !runs + g.Guided.g_runs
        done;
        !runs
      in
      row "Guided.hunt, per run" (measure ~reps:5 ~unit:1e6 [| hunt |]).(0))
    [ "fig1"; "chase-lev-deque" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* Cost of one record-replay session                                    *)

(* Where one session of perfbench record-replay goes, in host µs and
   minor words, for httpd and pbzip at workload seed 1 (scheduler seeds
   1000 and 8919, world seed 1000; the replay on world seed
   1,001,003). Rows: the queue-strategy record run without its save
   (an [Interp.run] in [Record] mode less the whole durable save, as
   measured below); [Interp.build_demo] on that run's logs, a part of
   the row before; the save's stages:
   [Demo.render] (every file framed into one buffer), [Demo.write]
   (each file on its own descriptor, over the files a previous pass
   wrote, then closed) and the fsync pass (a write and [Demo.sync],
   less the write); the whole durable [Demo.save], which adds the
   sibling directory, its fsync, the renames, removing the previous
   demo and the parent's fsync;
   [Demo.load]; the replay run, which loads the demo itself; and the
   native run on the record's world seed. *)
let rr_costs () =
  let module Workloads = T11r_harness.Workloads in
  let t =
    Table.create
      ~title:
        "Cost of one record-replay session: perfbench record-replay's \
         session at seed 1 (host µs, best of 15; minor words)"
      ~headers:[ "workload"; "row"; "µs"; "words" ]
  in
  Tmp.with_dir ~prefix:"t11r_rr_costs" @@ fun base ->
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let policy = w.Workloads.w_policy in
      let seeded c = Conf.with_seeds (Conf.with_policy c policy) 1000L 8919L in
      let dir = Filename.concat base name in
      let record = seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) in
      let replay =
        Conf.with_policy
          (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
          policy
      in
      let run conf seed () =
        let world = World.create ~seed () in
        ignore (Interp.run ~world conf (w.Workloads.w_instance world ()))
      in
      (* The recording: on disk for the load and replay rows, in memory
         for the save's, which writes the same bytes over it as each
         record run does. *)
      let r =
        let world = World.create ~seed:1000L () in
        Interp.run ~world record (w.Workloads.w_instance world ())
      in
      let d = Option.get r.Interp.demo in
      let build () =
        ignore
          (Interp.build_demo record
             ~seeds:(d.Demo.meta.seed1, d.Demo.meta.seed2)
             ~app:d.Demo.meta.app ~ticks:r.Interp.ticks ~output:r.Interp.output
             r.Interp.trace ~signals:(List.rev d.Demo.signals)
             ~syscalls:(List.rev d.Demo.syscalls) ~asyncs:(List.rev d.Demo.asyncs)
             d.Demo.extra)
      in
      let rendered = Demo.render d in
      let out = Filename.concat base (name ^ ".w") in
      Unix.mkdir out 0o755;
      let times k f () =
        for _ = 1 to k do
          f ()
        done;
        k
      in
      let m =
        measure ~unit:1e6
          [|
            times 10 (run record 1000L);
            times 50 build;
            times 50 (fun () -> ignore (Demo.render d));
            times 10 (fun () -> Demo.close (Demo.write rendered ~dir:out));
            times 10 (fun () ->
                let fds = Demo.write rendered ~dir:out in
                Demo.sync fds;
                Demo.close fds);
            times 10 (fun () -> Demo.save d ~dir);
            times 20 (fun () -> ignore (Demo.load ~dir));
            times 10 (run replay 1_001_003L);
            times 10 (run (seeded Conf.native) 1000L);
          |]
      in
      let row what (us, words) =
        Table.add_row t [ name; what; Printf.sprintf "%.1f" us; Printf.sprintf "%.0f" words ]
      in
      let less (a_us, a_w) (b_us, b_w) = (a_us -. b_us, a_w -. b_w) in
      row "record run without its save" (less m.(0) m.(5));
      row "build_demo (part of the row above)" m.(1);
      row "Demo.render" m.(2);
      row "Demo.write" m.(3);
      row "fsync pass" (less m.(4) m.(3));
      row "Demo.save, durable, whole" m.(5);
      row "Demo.load" m.(6);
      row "replay run (loads the demo)" m.(7);
      row "native run" m.(8))
    [ "httpd"; "pbzip" ];
  Table.print t

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("demosize", demosize);
    ("table34", table34);
    ("table5", table5);
    ("game", game);
    ("zandronum", zandronum);
    ("limits", limits);
    ("ablations", ablations);
    ("faults", faults);
    ("costs", fun () -> costs (); dpor_costs (); guided_costs (); rr_costs ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --jobs N (or --jobs=N): worker domains; 0 = every core. *)
  let rec strip_jobs = function
    | [] -> []
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j ->
            jobs := (if j <= 0 then Pool.default_jobs () else j);
            strip_jobs rest
        | None ->
            Fmt.epr "--jobs expects an integer, got %S@." v;
            exit 2)
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" -> (
        match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
        | Some j ->
            jobs := (if j <= 0 then Pool.default_jobs () else j);
            strip_jobs rest
        | None ->
            Fmt.epr "bad %S@." a;
            exit 2)
    | a :: rest -> a :: strip_jobs rest
  in
  let args = strip_jobs args in
  let names = List.filter (fun a -> a <> "--smoke") args in
  smoke := List.mem "--smoke" args;
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          Fmt.pr "@.######## %s ########@.@." name;
          f ()
      | None ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested;
  Fmt.pr "@.(total bench wall time: %.1f s)@." (Unix.gettimeofday () -. t0)
