(* The benchmark harness: regenerates every table of the paper's
   evaluation (§5) plus the quantitative prose claims, and runs a
   Bechamel micro-benchmark suite over the implementation itself.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- one experiment
       (table1 table2 demosize table34 table5 game zandronum limits
        ablations micro)

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

(* Race-free under concurrent campaigns: the directory is atomically
   created before the path is handed out (lib/util/tmp.ml). *)
let tmpdir prefix = T11r_util.Tmp.fresh_dir ~prefix ()

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

let seeded base i =
  Conf.with_seeds base
    (Int64.of_int ((i * 2654435761) + 17))
    (Int64.of_int ((i * 40503) + 9176))

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

let httpd_setups ~record =
  let rec_mode () =
    if record then Conf.Record (tmpdir "httpd_demo") else Conf.Free
  in
  [
    ("native", Conf.native, false);
    ("rr", { Conf.rr_model with Conf.mode = rec_mode () }, false);
    ("tsan11", Conf.tsan11, true);
    ("tsan11+rr", { Conf.tsan11_rr with Conf.mode = rec_mode () }, true);
    ("rnd", Conf.tsan11rec ~strategy:Conf.Random (), true);
    ("queue", Conf.tsan11rec ~strategy:Conf.Queue (), true);
    ( "rnd + rec",
      Conf.tsan11rec ~strategy:Conf.Random ~mode:(rec_mode ()) (),
      true );
    ( "queue + rec",
      Conf.tsan11rec ~strategy:Conf.Queue ~mode:(rec_mode ()) (),
      true );
  ]

let run_httpd_setup (label, base, detects) ~reports =
  let base = { base with Conf.emit_reports = reports } in
  let spec =
    Campaign.spec ~label ~base_conf:base
      ~setup_world:(Httpd.setup_world httpd_cfg) (fun () ->
        Httpd.program ~cfg:httpd_cfg ())
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
  let with_reports =
    List.map (run_httpd_setup ~reports:true) (httpd_setups ~record:true)
  in
  let without =
    List.map (run_httpd_setup ~reports:false) (httpd_setups ~record:true)
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

let demosize () =
  let t =
    Table.create ~title:"Demo sizes vs request count (§5.2 prose)"
      ~headers:
        [ "queries"; "t11rec queue"; "B/query"; "t11rec rnd"; "B/query"; "rr (model)" ]
  in
  List.iter
    (fun queries ->
      let cfg = { Httpd.default_config with queries } in
      let size strategy =
        let dir = tmpdir "demosize" in
        let conf =
          seeded (Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ()) 1
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
          Printf.sprintf "%d" (T11r_rr.Rr.demo_size_model ~queries);
        ])
    [ 200; 1000; 2000 ];
  Table.print t;
  print_endline
    "Shape to check: tsan11rec size grows linearly per request (queue adds\n\
     the QUEUE file on top of SYSCALL); the rr model is a large constant\n\
     plus a much smaller per-request increment.\n"

(* ------------------------------------------------------------------ *)
(* Tables 3 & 4: PARSEC and pbzip                                       *)

let app_configs ~record =
  let rec_mode prefix =
    if record then Conf.Record (tmpdir prefix) else Conf.Free
  in
  [
    ("native", Conf.native);
    ("tsan11", Conf.tsan11);
    ("rr", { Conf.rr_model with Conf.mode = rec_mode "rr" });
    ("tsan11+rr", { Conf.tsan11_rr with Conf.mode = rec_mode "t11rr" });
    ("rnd", Conf.tsan11rec ~strategy:Conf.Random ());
    ("queue", Conf.tsan11rec ~strategy:Conf.Queue ());
    ("rnd+rec", Conf.tsan11rec ~strategy:Conf.Random ~mode:(rec_mode "rnd") ());
    ( "queue+rec",
      Conf.tsan11rec ~strategy:Conf.Queue ~mode:(rec_mode "queue") () );
  ]

let table34 () =
  let workloads =
    ("pbzip", fun () -> Pbzip.program ())
    :: List.map
         (fun (k : Parsec.kernel) ->
           (k.k_name, fun () -> k.build ~threads:4 ()))
         Parsec.kernels
  in
  let configs = app_configs ~record:true in
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
            Campaign.run spec ~n:app_runs ~jobs:!jobs [])
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
  let p = Game.quakespasm ~frames:300 ~fps_cap:None () in
  let plays = 5 in
  let configs =
    [
      ("Native", Conf.native);
      ("tsan11", Conf.tsan11);
      ("rnd", Conf.tsan11rec ~strategy:Conf.Random ());
      ("queue", Conf.tsan11rec ~strategy:Conf.Queue ());
      ( "rnd + rec",
        Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Record (tmpdir "qs")) () );
      ( "queue + rec",
        Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record (tmpdir "qs")) () );
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
            let r = Interp.run ~world (seeded base i) (Game.program ~p ()) in
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
  let p = Game.zandronum ~frames:240 () in
  let t =
    Table.create ~title:"Zandronum playability (§5.4; 60 fps cap)"
      ~headers:[ "Setup"; "fps"; "playable?" ]
  in
  List.iter
    (fun (label, base) ->
      let base = Conf.with_policy base Policy.games in
      let world = World.create ~seed:11L () in
      let r = Interp.run ~world (seeded base 1) (Game.program ~p ()) in
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
        Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record (tmpdir "zan")) () );
      ("rr", Conf.rr_model);
    ];
  Table.print t;
  (* Demo growth over a longer play (the paper: ~8 MB per 100 s, of
     which 6.5 MB syscalls). *)
  let frames = 1800 (* 30 s of play at 60 fps *) in
  let p = Game.zandronum ~frames () in
  let dir = tmpdir "zanlong" in
  let conf =
    seeded
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
  let dir = tmpdir "zanbug" in
  let record i =
    let world = World.create ~seed:(Int64.of_int (i * 313)) () in
    let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
    let conf =
      seeded
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
  let d1 = tmpdir "lim1" in
  row "tsan11rec (sparse)"
    (seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record d1) ()) 1)
    (World.create ~seed:123L ())
    (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay d1) ())
    (World.create ~seed:321L ());
  let d2 = tmpdir "lim2" in
  row "rr model (layout enforced)"
    (seeded (T11r_rr.Rr.record ~dir:d2 ()) 1)
    (T11r_rr.Rr.record_world ~seed:123L)
    (T11r_rr.Rr.replay ~dir:d2 ())
    (T11r_rr.Rr.replay_world ~seed:321L);
  let d3 = tmpdir "lim3" in
  row "tsan11rec + deterministic alloc"
    (seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record d3) ()) 1)
    (World.create ~seed:123L ~deterministic_alloc:true ())
    (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay d3) ())
    (World.create ~seed:321L ~deterministic_alloc:true ());
  Table.print t;

  let t2 =
    Table.create ~title:"htop-style /proc monitor vs recording policy (§4.4)"
      ~headers:[ "policy"; "replay" ]
  in
  let htop policy =
    let dir = tmpdir "htop" in
    let mk seed =
      let w = World.create ~seed () in
      Htop_like.setup_world w;
      w
    in
    let rc =
      Conf.with_policy
        (seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1)
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
        Interp.run ~world:(World.create ~seed:3L ()) (seeded base 1)
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
(* Bechamel micro-benchmarks: the real cost of the implementation       *)

let micro () =
  let open Bechamel in
  let run_once conf build setup =
    let world = World.create ~seed:7L () in
    setup world;
    ignore (Interp.run ~world (seeded conf 1) (build ()))
  in
  let fig1 = T11r_litmus.Registry.fig1 in
  let msq = Option.get (T11r_litmus.Registry.find "ms-queue") in
  let small_httpd = { Httpd.default_config with queries = 50 } in
  let roundtrip () =
    let dir = tmpdir "micro" in
    let conf =
      seeded (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1
    in
    ignore (Interp.run ~world:(World.create ~seed:7L ()) conf (fig1.build ()));
    let rep = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
    ignore (Interp.run ~world:(World.create ~seed:8L ()) rep (fig1.build ()))
  in
  let tests =
    [
      (* one Test.make per paper table, measuring what regenerating a
         row of that table costs on this implementation *)
      Test.make ~name:"table1:fig1-run"
        (Staged.stage (fun () ->
             run_once (Conf.tsan11rec ~strategy:Conf.Random ()) fig1.build
               (fun _ -> ())));
      Test.make ~name:"table1:ms-queue-run"
        (Staged.stage (fun () ->
             run_once (Conf.tsan11rec ~strategy:Conf.Queue ()) msq.build
               (fun _ -> ())));
      Test.make ~name:"table2:httpd-50q"
        (Staged.stage (fun () ->
             run_once
               (Conf.tsan11rec ~strategy:Conf.Queue ())
               (fun () -> Httpd.program ~cfg:small_httpd ())
               (Httpd.setup_world small_httpd)));
      Test.make ~name:"table34:pbzip-small"
        (Staged.stage (fun () ->
             run_once Conf.native
               (fun () ->
                 Pbzip.program
                   ~cfg:{ Pbzip.default_config with blocks = 8; block_cost_us = 100 }
                   ())
               (fun _ -> ())));
      Test.make ~name:"table5:game-30f"
        (Staged.stage (fun () ->
             run_once
               (Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ()) Policy.games)
               (fun () ->
                 Game.program ~p:(Game.quakespasm ~frames:30 ~fps_cap:None ()) ())
               (fun _ -> ())));
      Test.make ~name:"record+replay:fig1" (Staged.stage roundtrip);
      (* substrate micro-costs *)
      (let c1 = T11r_util.Vclock.of_list [ 3; 1; 4; 1; 5 ] in
       let c2 = T11r_util.Vclock.of_list [ 2; 7; 1 ] in
       Test.make ~name:"substrate:vclock-join"
         (Staged.stage (fun () -> ignore (T11r_util.Vclock.join c1 c2))));
      (let payload = Bytes.make 512 'x' in
       Test.make ~name:"substrate:rle-encode"
         (Staged.stage (fun () -> ignore (T11r_util.Rle.encode_bytes payload))));
      (let p = T11r_util.Prng.create ~seed1:1L ~seed2:2L in
       Test.make ~name:"substrate:prng-draw"
         (Staged.stage (fun () -> ignore (T11r_util.Prng.bits64 p))));
    ]
  in
  let grouped = Test.make_grouped ~name:"tsan11rec" ~fmt:"%s/%s" tests in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Table.create ~title:"Bechamel: wall-clock cost of the implementation"
      ~headers:[ "benchmark"; "per run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] ->
          let pretty =
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else Printf.sprintf "%.1f us" (ns /. 1e3)
          in
          rows := (name, pretty) :: !rows
      | _ -> ())
    results;
  List.iter (fun (n, p) -> Table.add_row t [ n; p ])
    (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Fault-injection sweep (robustness study)                             *)

let smoke = ref false
let faults () = T11r_harness.Faultsweep.run ~smoke:!smoke ~jobs:!jobs ()

(* ------------------------------------------------------------------ *)
(* Campaign throughput: sequential vs sharded, with a machine-readable
   trajectory file so subsequent PRs can track the perf curve.          *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let campaign () =
  let par_jobs = if !jobs > 1 then !jobs else 4 in
  let n = if !smoke then 60 else table1_runs in
  let litmus (e : T11r_litmus.Registry.entry) =
    Campaign.spec ~label:e.name
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.build
  in
  let httpd_cfg = { Httpd.default_config with queries = 40 } in
  let specs =
    [
      (litmus T11r_litmus.Registry.fig1, n);
      (litmus (Option.get (T11r_litmus.Registry.find "mcs-lock")), n);
      ( Campaign.spec ~label:"httpd-40q"
          ~base_conf:(Conf.tsan11rec ~strategy:Conf.Queue ())
          ~setup_world:(Httpd.setup_world httpd_cfg)
          (fun () -> Httpd.program ~cfg:httpd_cfg ()),
        max 2 (n / 10) );
    ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Campaign throughput: -j1 vs -j%d (%d-run fig1 campaign et al.)"
           par_jobs n)
      ~headers:
        [ "campaign"; "runs"; "j1 s"; "runs/s"; Printf.sprintf "j%d s" par_jobs;
          "runs/s"; "speedup"; "identical?" ]
  in
  let cells =
    List.map
      (fun (spec, n) ->
        let seq = Campaign.run spec ~n ~jobs:1 [] in
        let par = Campaign.run spec ~n ~jobs:par_jobs [] in
        let identical = Campaign.equal seq par in
        let speedup =
          if par.Campaign.wall_s > 0.0 then
            seq.Campaign.wall_s /. par.Campaign.wall_s
          else 0.0
        in
        Table.add_row t
          [
            spec.Campaign.label;
            string_of_int n;
            Printf.sprintf "%.2f" seq.Campaign.wall_s;
            Printf.sprintf "%.0f" (Campaign.runs_per_sec seq);
            Printf.sprintf "%.2f" par.Campaign.wall_s;
            Printf.sprintf "%.0f" (Campaign.runs_per_sec par);
            Printf.sprintf "%.2fx" speedup;
            (if identical then "yes" else "NO");
          ];
        (spec.Campaign.label, n, seq, par, speedup, identical))
      specs
  in
  Table.print t;
  Fmt.pr
    "(host reports %d core(s); speedup is bounded by physical parallelism)@.@."
    (Domain.recommended_domain_count ());
  let experiments =
    String.concat ",\n"
      (List.map
         (fun (label, n, seq, par, speedup, identical) ->
           Printf.sprintf
             "    {\"label\": \"%s\", \"runs\": %d, \"seq_wall_s\": %.4f, \
              \"par_wall_s\": %.4f, \"seq_runs_per_s\": %.1f, \
              \"par_runs_per_s\": %.1f, \"speedup\": %.3f, \
              \"aggregates_identical\": %b}"
             (json_escape label) n seq.Campaign.wall_s par.Campaign.wall_s
             (Campaign.runs_per_sec seq) (Campaign.runs_per_sec par) speedup
             identical)
         cells)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"tsan11rec/campaign-bench/v1\",\n\
      \  \"host_cores\": %d,\n\
      \  \"jobs\": %d,\n\
      \  \"smoke\": %b,\n\
      \  \"experiments\": [\n%s\n  ]\n}\n"
      (Domain.recommended_domain_count ())
      par_jobs !smoke experiments
  in
  let oc = open_out "BENCH_campaign.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_campaign.json@."

(* ------------------------------------------------------------------ *)
(* Coverage-guided vs random hunting: runs-to-first-race, with a
   machine-readable comparison file (the tentpole's headline claim).    *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let coverage () =
  let trials = if !smoke then 5 else 25 in
  let budget = if !smoke then 400 else 1600 in
  let batch = 16 in
  (* Low-race-rate litmus benchmarks: workloads where plain random
     needs many runs per race (fig1 ~0.3% racy, chase-lev-deque ~0%),
     so there is room for guidance to help; barrier (~30%) is the
     sanity row where both hunters find the race almost immediately. *)
  let names = [ "fig1"; "chase-lev-deque"; "barrier" ] in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Coverage-guided vs random: median runs to first race (%d \
            trials, budget %d runs)"
           trials budget)
      ~headers:[ "benchmark"; "random"; "guided"; "winner" ]
  in
  let rows =
    List.map
      (fun name ->
        let e =
          if name = "fig1" then T11r_litmus.Registry.fig1
          else Option.get (T11r_litmus.Registry.find name)
        in
        (* Both hunters get the same per-trial world/seed discipline:
           run i of trial t is a pure function of (t, i). *)
        let world_of t i = World.create ~seed:(Int64.of_int ((t * budget) + i + 3)) () in
        let random_trial t =
          let rec go i =
            if i > budget then budget
            else
              let conf =
                Conf.with_seeds
                  (Conf.tsan11rec ~strategy:Conf.Random ())
                  (Int64.of_int ((t * budget) + i))
                  (Int64.of_int ((t * budget) + i + 7919))
              in
              let r = Interp.run ~world:(world_of t i) conf (e.build ()) in
              if r.Interp.race_count > 0 then i else go (i + 1)
          in
          go 1
        in
        let guided_spec t =
          {
            Campaign.label = name;
            conf =
              (fun i ->
                Conf.with_seeds
                  (Conf.tsan11rec ~strategy:Conf.Random ())
                  (Int64.of_int ((t * budget) + i))
                  (Int64.of_int ((t * budget) + i + 7919)));
            instance = (fun i -> (world_of t i, e.build ()));
          }
        in
        let guided_trial t =
          let g =
            T11r_harness.Guided.hunt (guided_spec t) ~rounds:(budget / batch)
              ~batch ~jobs:!jobs
              ~salt:(Int64.of_int ((t * 7919) + 1))
              ~stop_on_race:true ()
          in
          match g.T11r_harness.Guided.g_first_race with
          | Some i -> i + 1
          | None -> budget
        in
        let ts = List.init trials (fun t -> t + 1) in
        let rnd = median (List.map random_trial ts) in
        let gd = median (List.map guided_trial ts) in
        Table.add_row t
          [
            name;
            string_of_int rnd;
            string_of_int gd;
            (if gd < rnd then "guided"
             else if gd > rnd then "RANDOM"
             else "tie");
          ];
        (name, rnd, gd))
      names
  in
  Table.print t;
  let wins = List.length (List.filter (fun (_, r, g) -> g < r) rows) in
  (* The headline: total median runs to expose every benchmark's race —
     a whole-suite budget, so one easy benchmark cannot mask a hunter
     that burns its budget on the hard ones. *)
  let total_random = List.fold_left (fun a (_, r, _) -> a + r) 0 rows in
  let total_guided = List.fold_left (fun a (_, _, g) -> a + g) 0 rows in
  Fmt.pr
    "guided wins %d/%d benchmarks (total median runs-to-race: random %d, \
     guided %d)@.@."
    wins (List.length rows) total_random total_guided;
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"tsan11rec/coverage-bench/v1\",\n\
      \  \"smoke\": %b,\n\
      \  \"trials\": %d,\n\
      \  \"budget_runs\": %d,\n\
      \  \"batch\": %d,\n\
      \  \"benchmarks\": [\n%s\n  ],\n\
      \  \"guided_wins\": %d,\n\
      \  \"total_median_runs_random\": %d,\n\
      \  \"total_median_runs_guided\": %d,\n\
      \  \"guided_beats_random\": %b\n\
       }\n"
      !smoke trials budget batch
      (String.concat ",\n"
         (List.map
            (fun (name, r, g) ->
              Printf.sprintf
                "    {\"benchmark\": \"%s\", \"median_runs_random\": %d, \
                 \"median_runs_guided\": %d, \"guided_wins\": %b}"
                (json_escape name) r g (g < r))
            rows))
      wins total_random total_guided
      (total_guided < total_random)
  in
  let oc = open_out "BENCH_coverage.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_coverage.json@."

(* ------------------------------------------------------------------ *)

let systematic () =
  let budget = if !smoke then 2_000 else 10_000 in
  let entries =
    if !smoke then
      T11r_litmus.Registry.fig1
      :: List.filter_map T11r_litmus.Registry.find [ "barrier" ]
    else
      T11r_litmus.Registry.fig1
      :: (T11r_litmus.Registry.all @ T11r_litmus.Registry.fixed)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Systematic exploration: runs to exhaustion, naive vs DPOR \
            (budget %d runs)"
           budget)
      ~headers:[ "benchmark"; "naive"; "dpor"; "reduction"; "dpor sound" ]
  in
  let show (r : T11r_harness.Systematic.result) =
    Printf.sprintf "%d%s" r.T11r_harness.Systematic.runs
      (if r.T11r_harness.Systematic.complete then "" else "+")
  in
  let rows =
    List.map
      (fun (e : T11r_litmus.Registry.entry) ->
        let explore ~dpor =
          T11r_harness.Systematic.explore ~max_runs:budget ~jobs:!jobs ~dpor
            ~tick_budget:500_000 ~build:e.build ()
        in
        let naive = explore ~dpor:false in
        let dp = explore ~dpor:true in
        (* Soundness oracle: when both walks exhaust the space, DPOR
           must see exactly the naive walk's distinct outcomes and
           distinct races — just deduplicated by Mazurkiewicz trace. *)
        let keys (r : T11r_harness.Systematic.result) =
          List.sort_uniq compare (List.map fst r.outcomes)
        in
        let raceset (r : T11r_harness.Systematic.result) =
          List.sort_uniq compare r.races
        in
        let exhausted =
          naive.T11r_harness.Systematic.complete
          && dp.T11r_harness.Systematic.complete
        in
        let sound =
          if not exhausted then None
          else
            Some
              (keys naive = keys dp
              && raceset naive = raceset dp
              && dp.T11r_harness.Systematic.runs
                 <= naive.T11r_harness.Systematic.runs)
        in
        let reduction =
          if exhausted then
            Some
              (float_of_int naive.T11r_harness.Systematic.runs
              /. float_of_int (max 1 dp.T11r_harness.Systematic.runs))
          else None
        in
        Table.add_row t
          [
            e.name;
            show naive;
            show dp;
            (match reduction with
            | Some f -> Printf.sprintf "%.1fx" f
            | None -> "n/a");
            (match sound with
            | Some true -> "yes"
            | Some false -> "NO"
            | None -> "budget");
          ];
        (e.name, naive, dp, sound, reduction))
      entries
  in
  Table.print t;
  let unsound =
    List.filter (fun (_, _, _, s, _) -> s = Some false) rows
  in
  let big_wins =
    List.filter
      (fun (_, _, _, s, red) ->
        s = Some true && match red with Some f -> f >= 2.0 | None -> false)
      rows
  in
  Fmt.pr
    "dpor sound on %d/%d exhausted benchmarks; >=2x reduction on %d@.@."
    (List.length rows - List.length unsound
    - List.length (List.filter (fun (_, _, _, s, _) -> s = None) rows))
    (List.length (List.filter (fun (_, _, _, s, _) -> s <> None) rows))
    (List.length big_wins);
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"tsan11rec/systematic-bench/v1\",\n\
      \  \"smoke\": %b,\n\
      \  \"budget_runs\": %d,\n\
      \  \"benchmarks\": [\n%s\n  ],\n\
      \  \"dpor_unsound\": %d,\n\
      \  \"benchmarks_2x_or_better\": %d\n\
       }\n"
      !smoke budget
      (String.concat ",\n"
         (List.map
            (fun (name, (naive : T11r_harness.Systematic.result),
                  (dp : T11r_harness.Systematic.result), sound, reduction) ->
              Printf.sprintf
                "    {\"benchmark\": \"%s\", \"runs_naive\": %d, \
                 \"complete_naive\": %b, \"runs_dpor\": %d, \
                 \"complete_dpor\": %b, \"distinct_races_naive\": %d, \
                 \"distinct_races_dpor\": %d, \"dpor_sound\": %s, \
                 \"reduction\": %s}"
                (json_escape name) naive.runs naive.complete dp.runs
                dp.complete
                (List.length naive.races)
                (List.length dp.races)
                (match sound with
                | Some b -> string_of_bool b
                | None -> "null")
                (match reduction with
                | Some f -> Printf.sprintf "%.2f" f
                | None -> "null"))
            rows))
      (List.length unsound)
      (List.length big_wins)
  in
  let oc = open_out "BENCH_systematic.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_systematic.json@."

(* ------------------------------------------------------------------ *)

(* Predictive race analysis: recorded-runs-to-first-race with the
   offline prediction pass (record under Guided, analyze, confirm the
   witnesses) against the guided-only hunt baseline on the racy
   workloads. The acceptance invariants are enforced here (exit 1):
   prediction must need no more recorded runs than the hunt, and no
   refuted pair may ever appear among the reported races. *)
let predict_bench () =
  let module Predict = T11r_race.Predict in
  let module Predictor = T11r_harness.Predictor in
  let module Guided = T11r_harness.Guided in
  let module Workloads = T11r_harness.Workloads in
  let max_recordings = 5 in
  let hunt_runs = if !smoke then 48 else 128 in
  let batch = 16 in
  let bench_wl name =
    let wl = Option.get (Workloads.find name) in
    let base = Conf.with_policy (Conf.tsan11rec ()) wl.Workloads.w_policy in
    let instance () =
      let w = World.create ~seed:42L () in
      (w, wl.Workloads.w_instance w ())
    in
    (* Prediction path: one guided recording per seed until a witness
       confirms a race. *)
    let rec go seed verify_runs refuted =
      if seed > max_recordings then (None, max_recordings, verify_runs, refuted)
      else
        let world = World.create ~seed:42L () in
        let prog = wl.Workloads.w_instance world () in
        let conf =
          Conf.make ~base ~mode:Conf.Free
            ~strategy:
              (Conf.Guided
                 { prefix = Predictor.recording_prefix seed; observed = ref [] })
            ~seeds:(Int64.of_int seed, Int64.of_int (seed + 7919))
            ()
        in
        let r = Interp.run ~world conf prog in
        let a = Predict.analyze (Interp.to_predict_input r) in
        if a.Predict.n_must = 0 then go (seed + 1) verify_runs refuted
        else
          let rep =
            Predictor.verify ~jobs:!jobs ~attempts:48
              ~recorded_seeds:(Int64.of_int seed, Int64.of_int (seed + 7919))
              ~instance a
          in
          let verify_runs = verify_runs + rep.Predictor.r_runs in
          let refuted = refuted + rep.Predictor.r_refuted in
          if rep.Predictor.r_confirmed > 0 then
            (* soundness cross-check: no refuted pair among the races *)
            let refuted_as_races =
              List.length
                (List.filter
                   (fun v ->
                     match v.Predictor.v_verdict with
                     | Predictor.Refuted _ ->
                         List.exists
                           (fun v' ->
                             match v'.Predictor.v_verdict with
                             | Predictor.Confirmed _ ->
                                 T11r_race.Report.equal
                                   v.Predictor.v_pair.Predict.p_report
                                   v'.Predictor.v_pair.Predict.p_report
                             | _ -> false)
                           rep.Predictor.r_verified
                     | _ -> false)
                   rep.Predictor.r_verified)
            in
            (Some (seed, refuted_as_races), seed, verify_runs, refuted)
          else go (seed + 1) verify_runs refuted
    in
    let found, recordings, verify_runs, refuted = go 1 0 0 in
    (* Guided-only baseline: hunt until the first racy run. *)
    let spec = Workloads.spec_of ~base_conf:(Conf.tsan11rec ()) wl in
    let h =
      Guided.hunt spec ~rounds:(hunt_runs / batch) ~batch ~jobs:!jobs
        ~stop_on_race:true ()
    in
    let guided_first =
      match h.Guided.g_first_race with Some i -> Some (i + 1) | None -> None
    in
    (name, found, recordings, verify_runs, refuted, guided_first)
  in
  let rows =
    List.map bench_wl [ "fig1"; "dekker-fences"; "mcs-lock" ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Predictive analysis: recorded runs to first confirmed race vs \
            guided-only hunt (<= %d recordings, hunt budget %d)"
           max_recordings hunt_runs)
      ~headers:
        [ "workload"; "predict recs"; "verify runs"; "refuted"; "guided runs";
          "no worse?" ]
  in
  let judged =
    List.map
      (fun (name, found, recordings, verify_runs, refuted, guided_first) ->
        let pred_recs =
          match found with Some (s, _) -> Some s | None -> None
        in
        let refuted_as_races =
          match found with Some (_, n) -> n | None -> 0
        in
        let no_worse =
          match (pred_recs, guided_first) with
          | Some p, Some g -> p <= g
          | Some _, None -> true (* prediction found it, the hunt never did *)
          | None, None -> true
          | None, Some _ -> false
        in
        let show = function Some n -> string_of_int n | None -> "-" in
        Table.add_row t
          [
            name; show pred_recs; string_of_int verify_runs;
            string_of_int refuted; show guided_first;
            (if no_worse && refuted_as_races = 0 then "yes" else "NO");
          ];
        (name, pred_recs, recordings, verify_runs, refuted, refuted_as_races,
         guided_first, no_worse))
      rows
  in
  Table.print t;
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"tsan11rec/predict-bench/v1\",\n\
      \  \"smoke\": %b,\n\
      \  \"max_recordings\": %d,\n\
      \  \"hunt_budget_runs\": %d,\n\
      \  \"workloads\": [\n%s\n  ]\n}\n"
      !smoke max_recordings hunt_runs
      (String.concat ",\n"
         (List.map
            (fun (name, pred_recs, recordings, verify_runs, refuted,
                  refuted_as_races, guided_first, no_worse) ->
              Printf.sprintf
                "    {\"workload\": \"%s\", \
                 \"pred_recordings_to_first_race\": %s, \
                 \"recordings_analyzed\": %d, \"verify_runs\": %d, \
                 \"refuted_pairs\": %d, \"refuted_reported_as_races\": %d, \
                 \"guided_runs_to_first_race\": %s, \
                 \"prediction_no_worse\": %b}"
                (json_escape name)
                (match pred_recs with
                | Some n -> string_of_int n
                | None -> "null")
                recordings verify_runs refuted refuted_as_races
                (match guided_first with
                | Some n -> string_of_int n
                | None -> "null")
                no_worse)
            judged))
  in
  let oc = open_out "BENCH_predict.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_predict.json@.";
  let bad =
    List.filter
      (fun (_, _, _, _, _, refuted_as_races, _, no_worse) ->
        (not no_worse) || refuted_as_races > 0)
      judged
  in
  if bad <> [] then begin
    List.iter
      (fun (name, _, _, _, _, rar, _, nw) ->
        Fmt.epr
          "predict: %s violates the acceptance bar (no_worse=%b, \
           refuted_as_races=%d)@."
          name nw rar)
      bad;
    exit 1
  end

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
    ("micro", micro);
    ("faults", faults);
    ("campaign", campaign);
    ("coverage", coverage);
    ("systematic", systematic);
    ("predict", predict_bench);
    ("ops", fun () -> Hotpath.run ~smoke:!smoke ~jobs:!jobs);
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
