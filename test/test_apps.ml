(* Tests for the litmus benchmarks (lib/litmus) and application
   workloads (lib/apps): correctness of each program under every tool
   configuration, plus the paper's per-application record/replay
   stories (§5.2-§5.5). *)

module World = T11r_env.World
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Policy = Tsan11rec.Policy
open T11r_apps

let check = Alcotest.check

let tmpdir () =
  let d = Filename.temp_file "t11r_app" "" in
  Sys.remove d;
  d

let outcome_str r = Format.asprintf "%a" Interp.pp_outcome r.Interp.outcome

let check_completed ?(what = "run") r =
  if r.Interp.outcome <> Interp.Completed then
    Alcotest.failf "%s: expected completion, got %s" what (outcome_str r)

let run ?(world_seed = 9L) ?setup_world ?(policy = Policy.default) conf seed prog =
  let world = World.create ~seed:world_seed () in
  (match setup_world with Some f -> f world | None -> ());
  Interp.run ~world
    (Conf.with_policy (Conf.with_seeds conf seed (Int64.add seed 77L)) policy)
    prog

let all_confs =
  [
    Conf.native;
    Conf.tsan11;
    Conf.tsan11rec ~strategy:Conf.Random ();
    Conf.tsan11rec ~strategy:Conf.Queue ();
  ]

(* ------------------------------------------------------------------ *)
(* Litmus programs *)

let test_litmus_all_complete () =
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      List.iter
        (fun conf ->
          for seed = 1 to 5 do
            let r = run conf (Int64.of_int seed) (e.build ()) in
            check_completed ~what:(e.name ^ "/" ^ conf.Conf.name) r
          done)
        all_confs)
    T11r_litmus.Registry.all

let test_litmus_registry () =
  check Alcotest.int "seven benchmarks" 7 (List.length T11r_litmus.Registry.all);
  check Alcotest.bool "find works" true
    (T11r_litmus.Registry.find "ms-queue" <> None);
  check Alcotest.bool "find misses" true
    (T11r_litmus.Registry.find "nope" = None)

let race_rate conf entry n =
  let racy = ref 0 in
  for seed = 1 to n do
    let r =
      run conf (Int64.of_int (seed * 31))
        ((entry : T11r_litmus.Registry.entry).build ())
    in
    if r.Interp.race_count > 0 then incr racy
  done;
  100.0 *. float_of_int !racy /. float_of_int n

let entry name = Option.get (T11r_litmus.Registry.find name)

let test_ms_queue_always_races () =
  (* Table 1: 100% for every tool. *)
  List.iter
    (fun conf ->
      if conf.Conf.race_detection then
        check (Alcotest.float 0.1)
          ("ms-queue under " ^ conf.Conf.name)
          100.0
          (race_rate conf (entry "ms-queue") 10))
    all_confs

let test_random_finds_hidden_races () =
  (* Table 1's headline: the random strategy exposes races that the OS
     scheduler (tsan11) essentially never sees. *)
  List.iter
    (fun name ->
      let rnd = race_rate (Conf.tsan11rec ~strategy:Conf.Random ()) (entry name) 60 in
      let os = race_rate Conf.tsan11 (entry name) 60 in
      check Alcotest.bool
        (Printf.sprintf "%s: rnd (%.0f%%) >> tsan11 (%.0f%%)" name rnd os)
        true
        (rnd > 20.0 && os < 10.0))
    [ "barrier"; "linuxrwlocks"; "mcs-lock"; "mpmc-queue" ]

let test_chase_lev_inversion () =
  (* The one benchmark where uncontrolled tsan11 beats random (§5.1). *)
  let rnd = race_rate (Conf.tsan11rec ~strategy:Conf.Random ()) (entry "chase-lev-deque") 80 in
  let os = race_rate Conf.tsan11 (entry "chase-lev-deque") 80 in
  check Alcotest.bool
    (Printf.sprintf "tsan11 (%.0f%%) > rnd (%.0f%%)" os rnd)
    true (os > rnd)

let test_dekker_everyone_finds () =
  List.iter
    (fun conf ->
      if conf.Conf.race_detection then begin
        let rate = race_rate conf (entry "dekker-fences") 60 in
        check Alcotest.bool
          (Printf.sprintf "dekker under %s: %.0f%%" conf.Conf.name rate)
          true
          (rate > 15.0 && rate < 85.0)
      end)
    all_confs

let test_fig1_requires_weak_memory () =
  (* The Fig. 1 race happens under some random schedules; it requires a
     stale relaxed read, so it never occurs when every load is forced to
     read the newest store. *)
  let found = ref false in
  for seed = 1 to 200 do
    let r =
      run (Conf.tsan11rec ~strategy:Conf.Random ()) (Int64.of_int seed)
        (T11r_litmus.Registry.fig1.build ())
    in
    if r.Interp.race_count > 0 then found := true
  done;
  check Alcotest.bool "fig1 race found under random" true !found

let test_litmus_record_replay () =
  (* Every litmus benchmark replays faithfully under both strategies. *)
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      List.iter
        (fun strategy ->
          let dir = tmpdir () in
          let rec_conf =
            Conf.with_seeds (Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ()) 3L 4L
          in
          let r1 = Interp.run ~world:(World.create ~seed:5L ()) rec_conf (e.build ()) in
          let rep_conf = Conf.tsan11rec ~strategy ~mode:(Conf.Replay dir) () in
          let r2 = Interp.run ~world:(World.create ~seed:6L ()) rep_conf (e.build ()) in
          check Alcotest.bool
            (e.name ^ " trace replays under " ^ Conf.strategy_name strategy)
            true
            (r1.Interp.trace = r2.Interp.trace && r1.output = r2.output);
          check Alcotest.int
            (e.name ^ " same races on replay")
            r1.race_count r2.race_count)
        [ Conf.Random; Conf.Queue ])
    T11r_litmus.Registry.all

let test_fixed_litmus_never_race () =
  (* The repaired benchmarks are the no-false-positive regression set:
     no strategy may report a race on them, under many seeds. *)
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      List.iter
        (fun strategy ->
          for seed = 1 to 40 do
            let r =
              run
                (Conf.tsan11rec ~strategy ())
                (Int64.of_int (seed * 13))
                (e.build ())
            in
            check_completed ~what:(e.name ^ "/" ^ Conf.strategy_name strategy) r;
            if r.Interp.race_count > 0 then
              Alcotest.failf "FALSE POSITIVE on %s under %s (seed %d): %s"
                e.name
                (Conf.strategy_name strategy)
                seed
                (String.concat "; "
                   (List.map
                      (Format.asprintf "%a" T11r_race.Report.pp)
                      r.Interp.races))
          done)
        [ Conf.Random; Conf.Queue; Conf.Pct 3 ])
    T11r_litmus.Registry.fixed

let test_extended_litmus () =
  (* The extension benchmarks follow the Table 1 "rnd-only" profile. *)
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      let rnd = race_rate (Conf.tsan11rec ~strategy:Conf.Random ()) e 60 in
      check Alcotest.bool
        (Printf.sprintf "%s racy under rnd (%.0f%%)" e.name rnd)
        true (rnd > 10.0))
    T11r_litmus.Registry.extended;
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      for seed = 1 to 30 do
        let r =
          run
            (Conf.tsan11rec ~strategy:Conf.Random ())
            (Int64.of_int (seed * 7))
            (e.build ())
        in
        check_completed ~what:e.name r;
        if r.Interp.race_count > 0 then
          Alcotest.failf "FALSE POSITIVE on %s (seed %d)" e.name seed
      done)
    T11r_litmus.Registry.extended_fixed

(* Any program whose shared accesses all happen under one mutex is
   race-free by construction; the detector must agree on every
   schedule. *)
let locked_program_gen =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (list_size (int_range 1 8) (int_range 1 50)))

let no_false_positives_under_lock =
  QCheck.Test.make ~name:"fully-locked programs never race" ~count:80
    (QCheck.make locked_program_gen)
    (fun threads ->
      let program =
        T11r_vm.Api.program ~name:"locked" (fun () ->
            let open T11r_vm in
            let m = Api.Mutex.create () in
            let v = Api.Var.create 0 in
            let ts =
              List.map
                (fun works ->
                    Api.Thread.spawn (fun () ->
                        List.iter
                          (fun w ->
                            Api.work w;
                            Api.Mutex.with_lock m (fun () -> Api.Var.incr v))
                          works))
                threads
            in
            List.iter Api.Thread.join ts)
      in
      let r =
        run (Conf.tsan11rec ~strategy:Conf.Random ()) 77L program
      in
      r.Interp.outcome = Interp.Completed && r.Interp.race_count = 0)

(* ------------------------------------------------------------------ *)
(* Fig. 2 client *)

let test_fig2_client () =
  let cfg = T11r_litmus.Fig2_client.default_config in
  let world = World.create ~seed:21L () in
  let fd = T11r_litmus.Fig2_client.setup_world cfg world in
  let conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L in
  let r = Interp.run ~world conf (T11r_litmus.Fig2_client.program ~server_fd:fd ()) in
  check_completed ~what:"fig2" r;
  (* All requests processed (uppercased) and the shutdown line printed. *)
  check Alcotest.bool "shutdown seen" true
    (String.length r.output >= 8
    && String.sub r.output (String.length r.output - 8) 8 = "shutdown");
  check Alcotest.bool "requests processed" true
    (String.length r.output > String.length "shutdown")

let test_fig2_record_replay () =
  let cfg = T11r_litmus.Fig2_client.default_config in
  let dir = tmpdir () in
  let world = World.create ~seed:21L () in
  let fd = T11r_litmus.Fig2_client.setup_world cfg world in
  let rec_conf =
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L
  in
  let r1 = Interp.run ~world rec_conf (T11r_litmus.Fig2_client.program ~server_fd:fd ()) in
  check_completed ~what:"fig2 record" r1;
  (* Replay against a DIFFERENT server world: the recorded syscalls and
     signal carry the session. *)
  let world2 = World.create ~seed:99L () in
  let fd2 = T11r_litmus.Fig2_client.setup_world cfg world2 in
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:world2 rep_conf (T11r_litmus.Fig2_client.program ~server_fd:fd2 ()) in
  check_completed ~what:"fig2 replay" r2;
  check Alcotest.string "same session" r1.output r2.output;
  check Alcotest.bool "no desync" false r2.soft_desync

(* ------------------------------------------------------------------ *)
(* httpd *)

let httpd_cfg = { Httpd.default_config with queries = 100 }

let test_httpd_serves_all () =
  let r =
    run ~setup_world:(Httpd.setup_world httpd_cfg)
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      1L
      (Httpd.program ~cfg:httpd_cfg ())
  in
  check_completed ~what:"httpd" r;
  check Alcotest.string "all served" "served=100" r.output

let test_httpd_races_detected () =
  let r =
    run ~setup_world:(Httpd.setup_world httpd_cfg)
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      1L
      (Httpd.program ~cfg:httpd_cfg ())
  in
  check Alcotest.bool "scoreboard races" true (r.race_count > 0)

let test_httpd_epoll_needs_workaround () =
  let cfg = { httpd_cfg with use_epoll = true } in
  (* Free mode: works. *)
  let r =
    run ~setup_world:(Httpd.setup_world cfg)
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      1L
      (Httpd.program ~cfg ())
  in
  check_completed ~what:"httpd epoll free" r;
  (* Recording: unsupported without the poll workaround (§5.2)... *)
  let dir = tmpdir () in
  let r2 =
    run ~setup_world:(Httpd.setup_world cfg)
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      1L
      (Httpd.program ~cfg ())
  in
  (match r2.Interp.outcome with
  | Interp.Unsupported_app _ -> ()
  | _ -> Alcotest.failf "expected epoll rejection, got %s" (outcome_str r2));
  (* ... but rr's in-kernel tracing handles epoll fine. rr enforces
     memory layout: its worlds allocate deterministically. *)
  let dir3 = tmpdir () in
  let world = World.create ~seed:9L ~deterministic_alloc:true () in
  Httpd.setup_world cfg world;
  let r3 =
    Interp.run ~world
      (Conf.with_seeds (Conf.with_mode Conf.rr_model (Conf.Record dir3)) 1L 2L)
      (Httpd.program ~cfg ())
  in
  check_completed ~what:"httpd epoll under rr" r3

let test_httpd_suppressions () =
  (* The paper's Table 2 frames the No-reports columns as "a future
     version of httpd in which many races are fixed"; operationally
     teams get there with tsan suppression files. Suppressing the known
     scoreboard races leaves httpd clean. *)
  let conf =
    {
      (Conf.tsan11rec ~strategy:Conf.Queue ()) with
      Conf.suppressions = [ "scoreboard*" ];
    }
  in
  let r =
    run ~setup_world:(Httpd.setup_world httpd_cfg) conf 1L
      (Httpd.program ~cfg:httpd_cfg ())
  in
  check_completed r;
  check Alcotest.int "scoreboard races muted" 0 r.race_count

let test_httpd_access_log () =
  let cfg = { httpd_cfg with access_log = true; queries = 40 } in
  let r =
    run ~setup_world:(Httpd.setup_world cfg)
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      1L
      (Httpd.program ~cfg ())
  in
  check_completed r;
  (* every request logged exactly once through the pipe *)
  let count_log =
    List.length
      (String.split_on_char '\n' r.output
      |> List.filter (fun l ->
             String.length l > 4 && String.sub l 0 4 = "GET "))
  in
  check Alcotest.int "all requests logged" 40 count_log

let test_httpd_access_log_replay () =
  let cfg = { httpd_cfg with access_log = true; queries = 30 } in
  let dir = tmpdir () in
  let world = World.create ~seed:31L () in
  Httpd.setup_world cfg world;
  let rec_conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      1L 2L
  in
  let r1 = Interp.run ~world rec_conf (Httpd.program ~cfg ()) in
  check_completed ~what:"httpd+log record" r1;
  let world2 = World.create ~seed:77L () in
  Httpd.setup_world cfg world2;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:world2 rep_conf (Httpd.program ~cfg ()) in
  check_completed ~what:"httpd+log replay" r2;
  check Alcotest.string "log replays byte-identically" r1.output r2.output

let test_httpd_graceful_shutdown () =
  (* SIGTERM mid-run: workers drain and exit before serving everything. *)
  let cfg =
    { httpd_cfg with graceful_stop = true; queries = 100_000 }
  in
  let world = World.create ~seed:31L () in
  Httpd.setup_world cfg world;
  World.schedule_signal world ~at:8_000 ~signo:15;
  let conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L in
  let r = Interp.run ~world conf (Httpd.program ~cfg ()) in
  check_completed ~what:"graceful" r;
  (* it stopped because of the signal, not because it finished *)
  check Alcotest.bool "stopped early" true
    (not (String.equal r.output "served=100000"))

let test_httpd_record_replay () =
  let dir = tmpdir () in
  let world = World.create ~seed:31L () in
  Httpd.setup_world httpd_cfg world;
  let rec_conf =
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L
  in
  let r1 = Interp.run ~world rec_conf (Httpd.program ~cfg:httpd_cfg ()) in
  check_completed ~what:"httpd record" r1;
  let world2 = World.create ~seed:77L () in
  Httpd.setup_world httpd_cfg world2;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:world2 rep_conf (Httpd.program ~cfg:httpd_cfg ()) in
  check_completed ~what:"httpd replay" r2;
  check Alcotest.bool "same trace" true (r1.trace = r2.trace);
  check Alcotest.string "same output" r1.output r2.output

(* ------------------------------------------------------------------ *)
(* pbzip and PARSEC *)

let small_pbzip = { Pbzip.default_config with blocks = 8; block_cost_us = 1_000 }

let test_pbzip_compresses_all () =
  List.iter
    (fun conf ->
      let r = run conf 1L (Pbzip.program ~cfg:small_pbzip ()) in
      check_completed ~what:("pbzip/" ^ conf.Conf.name) r;
      check Alcotest.string "all blocks" "blocks=8" r.output)
    all_confs

let test_parsec_kernels_complete () =
  List.iter
    (fun (k : Parsec.kernel) ->
      List.iter
        (fun conf ->
          let r = run conf 1L (k.build ~threads:2 ()) in
          check_completed ~what:(k.k_name ^ "/" ^ conf.Conf.name) r)
        all_confs)
    Parsec.kernels

let test_parsec_bodytrack_consumes_all () =
  let k = Option.get (Parsec.find "bodytrack") in
  let r = run (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L (k.build ~threads:2 ()) in
  check_completed r;
  check Alcotest.string "all tasks" "tracked=28" r.output

let test_pbzip_record_replay () =
  let dir = tmpdir () in
  let rec_conf =
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 7L 8L
  in
  let r1 =
    Interp.run ~world:(World.create ~seed:1L ()) rec_conf (Pbzip.program ~cfg:small_pbzip ())
  in
  check_completed r1;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 =
    Interp.run ~world:(World.create ~seed:2L ()) rep_conf (Pbzip.program ~cfg:small_pbzip ())
  in
  check_completed r2;
  check Alcotest.bool "pbzip trace replays" true (r1.trace = r2.trace)

(* ------------------------------------------------------------------ *)
(* Games (§5.4) *)

let games_conf ?mode strategy =
  Conf.with_policy (Conf.tsan11rec ~strategy ?mode ()) Policy.games

let test_quakespasm_playable_everywhere () =
  let p = Game.quakespasm ~frames:60 ~fps_cap:None () in
  List.iter
    (fun conf ->
      let r = run conf 1L (Game.program ~p ()) in
      check_completed ~what:("quakespasm/" ^ conf.Conf.name) r;
      check Alcotest.bool
        (Printf.sprintf "playable under %s (%.0f fps)" conf.Conf.name
           (Game.mean_fps r.output))
        true (Game.playable r.output))
    [ Conf.native; Conf.tsan11; games_conf Conf.Random; games_conf Conf.Queue ]

let test_zandronum_rnd_starves () =
  let p = Game.zandronum ~frames:60 () in
  let r_rnd = run (games_conf Conf.Random) 1L (Game.program ~p ()) in
  let r_q = run (games_conf Conf.Queue) 1L (Game.program ~p ()) in
  check_completed ~what:"zandronum rnd" r_rnd;
  check_completed ~what:"zandronum queue" r_q;
  check Alcotest.bool
    (Printf.sprintf "rnd unplayable (%.1f fps)" (Game.mean_fps r_rnd.output))
    false
    (Game.playable r_rnd.output);
  check Alcotest.bool
    (Printf.sprintf "queue playable (%.1f fps)" (Game.mean_fps r_q.output))
    true
    (Game.playable r_q.output)

let test_rr_cannot_run_games () =
  let p = Game.quakespasm ~frames:10 () in
  let r = run Conf.rr_model 1L (Game.program ~p ()) in
  match r.Interp.outcome with
  | Interp.Unsupported_app _ -> ()
  | _ -> Alcotest.failf "rr should reject the game, got %s" (outcome_str r)

let test_game_record_replay () =
  let p = Game.quakespasm ~frames:30 ~fps_cap:None () in
  let dir = tmpdir () in
  let rec_conf =
    Conf.with_seeds (games_conf ~mode:(Conf.Record dir) Conf.Queue) 1L 2L
  in
  let r1 = Interp.run ~world:(World.create ~seed:3L ()) rec_conf (Game.program ~p ()) in
  check_completed ~what:"game record" r1;
  (* Replay with the display driver running live (ioctl ignored): the
     game logic (fps reports) replays identically. *)
  let rep_conf = games_conf ~mode:(Conf.Replay dir) Conf.Queue in
  let r2 = Interp.run ~world:(World.create ~seed:4L ()) rep_conf (Game.program ~p ()) in
  check_completed ~what:"game replay" r2;
  check Alcotest.string "same fps trace" r1.output r2.output;
  check Alcotest.bool "demo has syscall bulk" true
    (match r1.demo with
    | Some d -> Tsan11rec.Demo.syscall_bytes d > 0
    | None -> false)

(* ------------------------------------------------------------------ *)
(* The Zandronum map-change bug (§5.4) *)

let zan_record seed =
  let dir = tmpdir () in
  let world = World.create ~seed () in
  let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
  let conf =
    Conf.with_policy
      (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L)
      Policy.games
  in
  (dir, Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ()))

let test_zandronum_bug_record_replay () =
  (* Hunt for a session where the bug fires, then replay it. *)
  let rec hunt seed =
    if seed > 60 then Alcotest.fail "bug never manifested in 60 sessions"
    else
      let dir, r = zan_record (Int64.of_int (seed * 101)) in
      match r.Interp.outcome with
      | Interp.Crashed (_, msg) -> (dir, msg)
      | _ -> hunt (seed + 1)
  in
  let dir, msg = hunt 1 in
  check Alcotest.bool "CHECK failure" true
    (String.length msg > 0);
  (* Replay in a fresh world with a well-behaved server: the recorded
     packets still crash the client at the same point. *)
  let world = World.create ~seed:424242L () in
  let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
  let conf =
    Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ()) Policy.games
  in
  let r2 = Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ()) in
  match r2.Interp.outcome with
  | Interp.Crashed (_, msg2) -> check Alcotest.string "same crash" msg msg2
  | _ -> Alcotest.failf "replay did not reproduce the bug: %s" (outcome_str r2)

let test_zandronum_healthy_sessions_complete () =
  (* Sessions without the reordering complete cleanly. *)
  let completed = ref 0 in
  for seed = 1 to 10 do
    let _, r = zan_record (Int64.of_int (seed * 101)) in
    if r.Interp.outcome = Interp.Completed then incr completed
  done;
  check Alcotest.bool "some sessions healthy" true (!completed > 0)

(* ------------------------------------------------------------------ *)
(* §5.5 limitations: sqlite-like and htop-like *)

let test_sqlite_like_desyncs () =
  let dir = tmpdir () in
  let rec_conf =
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L
  in
  let r1 =
    Interp.run ~world:(World.create ~seed:123L ()) rec_conf (Sqlite_like.program ())
  in
  check_completed ~what:"sqlite record" r1;
  (* Replay: different layout, different walk order: desync. *)
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 =
    Interp.run ~world:(World.create ~seed:321L ()) rep_conf (Sqlite_like.program ())
  in
  let desynced =
    match r2.Interp.outcome with
    | Interp.Hard_desync _ -> true
    | Interp.Completed -> r2.soft_desync
    | _ -> false
  in
  check Alcotest.bool "replay desynchronises" true desynced

let test_sqlite_like_rr_handles_it () =
  let dir = tmpdir () in
  (* rr enforces memory layout: record and replay worlds allocate
     deterministically, so addresses coincide. *)
  let rr_world seed = World.create ~seed ~deterministic_alloc:true () in
  let r1 =
    Interp.run ~world:(rr_world 123L)
      (Conf.with_seeds (Conf.with_mode Conf.rr_model (Conf.Record dir)) 1L 2L)
      (Sqlite_like.program ())
  in
  check_completed ~what:"rr record" r1;
  let r2 =
    Interp.run ~world:(rr_world 321L)
      (Conf.with_mode Conf.rr_model (Conf.Replay dir))
      (Sqlite_like.program ())
  in
  check_completed ~what:"rr replay" r2;
  check Alcotest.bool "rr replay faithful" false r2.soft_desync;
  check Alcotest.string "same output" r1.output r2.output

let test_sqlite_like_deterministic_alloc_workaround () =
  let dir = tmpdir () in
  let mk seed = World.create ~seed ~deterministic_alloc:true () in
  let rec_conf =
    Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L
  in
  let r1 = Interp.run ~world:(mk 123L) rec_conf (Sqlite_like.program ()) in
  check_completed r1;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:(mk 321L) rep_conf (Sqlite_like.program ()) in
  check_completed r2;
  check Alcotest.bool "workaround restores fidelity" false r2.soft_desync

let test_htop_like_policy () =
  let mk seed =
    let w = World.create ~seed () in
    Htop_like.setup_world w;
    w
  in
  let run_policy policy =
    let dir = tmpdir () in
    let rec_conf =
      Conf.with_policy
        (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 1L 2L)
        policy
    in
    let r1 = Interp.run ~world:(mk 5L) rec_conf (Htop_like.program ()) in
    check_completed r1;
    let rep_conf =
      Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ()) policy
    in
    let r2 = Interp.run ~world:(mk 6L) rep_conf (Htop_like.program ()) in
    (r1, r2)
  in
  (* Default policy: /proc reads are passthrough, output diverges. *)
  let _, r_default = run_policy Policy.default in
  check Alcotest.bool "default policy soft-desyncs" true r_default.soft_desync;
  (* Extended policy records file reads: faithful replay. *)
  let r1, r_proc = run_policy Policy.with_proc in
  check_completed r_proc;
  check Alcotest.bool "with-proc policy synchronised" false r_proc.soft_desync;
  check Alcotest.string "identical samples" r1.output r_proc.output

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "apps"
    [
      ( "litmus",
        [
          Alcotest.test_case "registry" `Quick test_litmus_registry;
          Alcotest.test_case "all complete" `Quick test_litmus_all_complete;
          Alcotest.test_case "ms-queue 100%" `Quick test_ms_queue_always_races;
          Alcotest.test_case "random finds hidden" `Slow test_random_finds_hidden_races;
          Alcotest.test_case "chase-lev inversion" `Slow test_chase_lev_inversion;
          Alcotest.test_case "dekker coin flip" `Slow test_dekker_everyone_finds;
          Alcotest.test_case "fig1 weak-memory race" `Quick test_fig1_requires_weak_memory;
          Alcotest.test_case "record/replay" `Quick test_litmus_record_replay;
          Alcotest.test_case "fixed versions never race" `Quick
            test_fixed_litmus_never_race;
          Alcotest.test_case "extended benchmarks" `Quick test_extended_litmus;
          QCheck_alcotest.to_alcotest no_false_positives_under_lock;
        ] );
      ( "fig2",
        [
          Alcotest.test_case "client runs" `Quick test_fig2_client;
          Alcotest.test_case "record/replay" `Quick test_fig2_record_replay;
        ] );
      ( "httpd",
        [
          Alcotest.test_case "serves all" `Quick test_httpd_serves_all;
          Alcotest.test_case "races detected" `Quick test_httpd_races_detected;
          Alcotest.test_case "suppressions" `Quick test_httpd_suppressions;
          Alcotest.test_case "epoll workaround" `Quick test_httpd_epoll_needs_workaround;
          Alcotest.test_case "piped access log" `Quick test_httpd_access_log;
          Alcotest.test_case "access log replays" `Quick test_httpd_access_log_replay;
          Alcotest.test_case "graceful shutdown" `Quick test_httpd_graceful_shutdown;
          Alcotest.test_case "record/replay" `Quick test_httpd_record_replay;
        ] );
      ( "parsec",
        [
          Alcotest.test_case "pbzip all configs" `Quick test_pbzip_compresses_all;
          Alcotest.test_case "kernels complete" `Quick test_parsec_kernels_complete;
          Alcotest.test_case "bodytrack tasks" `Quick test_parsec_bodytrack_consumes_all;
          Alcotest.test_case "pbzip record/replay" `Quick test_pbzip_record_replay;
        ] );
      ( "games",
        [
          Alcotest.test_case "quakespasm playable" `Quick test_quakespasm_playable_everywhere;
          Alcotest.test_case "zandronum rnd starves" `Quick test_zandronum_rnd_starves;
          Alcotest.test_case "rr rejects games" `Quick test_rr_cannot_run_games;
          Alcotest.test_case "game record/replay" `Quick test_game_record_replay;
        ] );
      ( "zandronum-bug",
        [
          Alcotest.test_case "record and replay the bug" `Quick test_zandronum_bug_record_replay;
          Alcotest.test_case "healthy sessions" `Quick test_zandronum_healthy_sessions_complete;
        ] );
      ( "limitations",
        [
          Alcotest.test_case "sqlite-like desyncs" `Quick test_sqlite_like_desyncs;
          Alcotest.test_case "rr handles layout" `Quick test_sqlite_like_rr_handles_it;
          Alcotest.test_case "deterministic alloc workaround" `Quick
            test_sqlite_like_deterministic_alloc_workaround;
          Alcotest.test_case "htop policy" `Quick test_htop_like_policy;
        ] );
    ]
