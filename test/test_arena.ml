(* Run-context recycling. The load-bearing property: a run executed on a
   recycled arena and a recycled world is observationally identical to a
   run on fresh state — same outcome, metrics, coverage fingerprint, and
   (in record mode) demo bytes. The qcheck suite drives random workloads,
   seeds and modes through both execution shapes and compares full result
   fingerprints. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Fault = T11r_env.Fault
module Httpd = T11r_apps.Httpd

let qtest = QCheck_alcotest.to_alcotest

(* Everything except the demo handle (compared separately, as saved
   bytes): outcome, races, output, metrics, coverage summary, trace,
   rng draws — if any of it drifts, the fingerprint drifts. *)
let fingerprint (r : Interp.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string { r with Interp.demo = None } [ Marshal.No_sharing ]))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let dir_bytes dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun f ->
            f ^ ":" ^ Digest.to_hex (Digest.string (read_file (Filename.concat dir f))))
          files))

type workload = {
  name : string;
  world_seed : int64;
  fault_p : float;
  setup : World.t -> unit;
  build : unit -> T11r_vm.Api.program;
}

let httpd_cfg = { Httpd.default_config with queries = 8; clients = 2; workers = 2 }

(* The syscall-free litmus programs, plus httpd under fault injection:
   its world setup opens connections and its fault plan injects syscall
   failures, the stress case for world recycling. *)
let workloads =
  Array.append
    (Array.map
       (fun name ->
         let e =
           if name = "fig1" then T11r_litmus.Registry.fig1
           else Option.get (T11r_litmus.Registry.find name)
         in
         { name; world_seed = 3L; fault_p = 0.; setup = ignore; build = e.build })
       [| "fig1"; "mcs-lock"; "dekker-fences"; "barrier"; "ms-queue" |])
    [|
      {
        name = "httpd";
        world_seed = 23L;
        fault_p = 0.05;
        setup = Httpd.setup_world httpd_cfg;
        build = (fun () -> Httpd.program ~cfg:httpd_cfg ());
      };
    |]

(* One arena and one world shared by every qcheck iteration — each case
   also exercises recycling across workloads, seeds and modes. *)
let shared_arena = Interp.create_arena ()
let shared_world = World.create ~seed:1L ()

let world_for w ~recycled =
  let faults =
    if w.fault_p > 0. then Fault.uniform ~seed:5L ~p:w.fault_p ()
    else Fault.none
  in
  let world =
    if recycled then begin
      World.reset shared_world ~seed:w.world_seed ~faults;
      shared_world
    end
    else World.create ~seed:w.world_seed ~faults ()
  in
  w.setup world;
  world

let arena_differential_test =
  QCheck.Test.make
    ~name:"recycled arena run = fresh-state run (mixed workloads)" ~count:150
    QCheck.(quad (int_range 0 (Array.length workloads - 1)) bool int64 int64)
    (fun (wi, record, s1, s2) ->
      let w = workloads.(wi) in
      let base = T11r_util.Tmp.fresh_dir ~prefix:"t11r-arena" () in
      Fun.protect
        ~finally:(fun () -> T11r_util.Tmp.rm_rf base)
        (fun () ->
          let run ?arena ~recycled dir =
            let conf =
              Conf.with_seeds
                (Conf.with_coverage (Conf.tsan11rec ~strategy:Conf.Random ()) true)
                s1 s2
            in
            let conf =
              if record then
                Conf.with_mode conf (Conf.Record (Filename.concat base dir))
              else conf
            in
            Interp.run ~world:(world_for w ~recycled) ?arena conf (w.build ())
          in
          let fresh = run ~arena:(Interp.create_arena ()) ~recycled:false "fresh" in
          let recycled = run ~arena:shared_arena ~recycled:true "recycled" in
          (* no arena: the domain's, recycled across every iteration *)
          let default = run ~recycled:false "default" in
          List.iter
            (fun (shape, r) ->
              if fingerprint fresh <> fingerprint r then
                QCheck.Test.fail_reportf "%s (record %b): %s run diverged"
                  w.name record shape;
              if
                record
                && dir_bytes (Filename.concat base "fresh")
                   <> dir_bytes (Filename.concat base shape)
              then
                QCheck.Test.fail_reportf "%s: %s run wrote different demo bytes"
                  w.name shape)
            [ ("recycled", recycled); ("default", default) ];
          true))

(* A run cut short by the tick limit leaves the arena mid-execution:
   threads still parked, clocks and shadow memory half-written. The next
   run on that arena must not see any of it. *)
let test_abort_then_full_run () =
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  Array.iter
    (fun w ->
      let conf =
        Conf.with_seeds
          (Conf.with_coverage (Conf.tsan11rec ~strategy:Conf.Random ()) true)
          7L 11L
      in
      let world_for () =
        World.reset world ~seed:w.world_seed ~faults:Fault.none;
        w.setup world;
        world
      in
      let cut =
        Interp.run ~world:(world_for ()) ~arena (Conf.with_max_ticks conf 5)
          (w.build ())
      in
      Alcotest.(check bool)
        (w.name ^ ": cut run hit the tick limit")
        true
        (cut.Interp.outcome = Interp.Tick_limit);
      let after = Interp.run ~world:(world_for ()) ~arena conf (w.build ()) in
      let fresh_world = World.create ~seed:w.world_seed () in
      w.setup fresh_world;
      let fresh =
        Interp.run ~world:fresh_world ~arena:(Interp.create_arena ()) conf
          (w.build ())
      in
      Alcotest.(check string)
        (w.name ^ ": run after the cut = fresh run")
        (fingerprint fresh) (fingerprint after))
    workloads

(* The trace log lives in arena arrays the next run reuses: a short
   run after ms-queue finds its ~2k entries still there, and must log
   (and return) only its own. A log past the arena's bound (a 5,000-op
   run) is dropped instead, and the next run must not notice either. *)
let test_long_then_short_run () =
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  let conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ()) 7L 11L in
  let run ?arena w =
    let world, arena =
      match arena with
      | Some a ->
          World.reset world ~seed:w.world_seed ~faults:Fault.none;
          (world, a)
      | None -> (World.create ~seed:w.world_seed (), Interp.create_arena ())
    in
    Interp.run ~world ~arena conf (w.build ())
  in
  let by_name n = List.find (fun w -> w.name = n) (Array.to_list workloads) in
  let busy =
    {
      (by_name "fig1") with
      name = "busy";
      build =
        (fun () ->
          T11r_vm.Api.program ~name:"busy" (fun () ->
              let a = T11r_vm.Api.Atomic.create 0 in
              for _ = 1 to 5_000 do
                ignore (T11r_vm.Api.Atomic.fetch_add a 1)
              done));
    }
  in
  let fig1 = by_name "fig1" in
  let fresh = fingerprint (run fig1) in
  List.iter
    (fun long ->
      let l = run ~arena long in
      let short = run ~arena fig1 in
      Alcotest.(check bool) (long.name ^ " is longer") true
        (Array.length l.Interp.trace.Interp.codes
         > 4 * Array.length short.Interp.trace.Interp.codes);
      Alcotest.(check string)
        ("fig1 after " ^ long.name ^ " = fresh run")
        fresh (fingerprint short))
    [ by_name "ms-queue"; busy; by_name "ms-queue" ]

(* A run given no arena recycles the domain's, unless a run is live on
   it: a program that runs another program inside one of its ticks must
   see the inner run get a fresh arena, and both runs must end as they
   do when the outer one runs on an arena of its own. *)
let test_run_inside_run () =
  let conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ()) 7L 11L in
  let fig1 () =
    Interp.run ~world:(World.create ~seed:3L ()) conf
      (T11r_litmus.Registry.fig1.build ())
  in
  let alone = fingerprint (fig1 ()) in
  let outer ?arena () =
    let inner = ref "" in
    let prog =
      T11r_vm.Api.program ~name:"outer" (fun () ->
          let a = T11r_vm.Api.Atomic.create ~name:"a" 0 in
          let t =
            T11r_vm.Api.Thread.spawn ~name:"t" (fun () ->
                ignore (T11r_vm.Api.Atomic.fetch_add a 1))
          in
          inner := fingerprint (fig1 ());
          ignore (T11r_vm.Api.Atomic.fetch_add a 1);
          T11r_vm.Api.Thread.join t)
    in
    let r = Interp.run ~world:(World.create ~seed:1L ()) ?arena conf prog in
    (fingerprint r, !inner)
  in
  let own_arena, inner_own = outer ~arena:(Interp.create_arena ()) () in
  let default, inner_default = outer () in
  Alcotest.(check string) "inner run on the idle domain arena" alone inner_own;
  Alcotest.(check string) "inner run while the domain arena is live" alone
    inner_default;
  Alcotest.(check string) "outer run on the domain arena" own_arena default;
  Alcotest.(check string) "fig1 on the domain arena after both" alone
    (fingerprint (fig1 ()))

(* A run that raises out of the interpreter (here from the capture
   tap) never reaches [finish]: it leaves its decision logs and threads
   mid-run on the arena, as a domain's arena is left when a run it
   serves raises. After a run of [p1] and a run of [p2] cut once it has
   left [p1], a full run of [p2] must equal [p2] on a fresh arena. *)
exception Cut

let test_capture_after_escape () =
  let w = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  let conf prefix =
    Conf.make ~base:(Conf.tsan11rec ())
      ~strategy:(Conf.Guided { prefix; observed = ref [] })
      ~seeds:(7L, 11L) ()
  in
  let run ?tap arena prefix =
    Interp.set_tap arena tap;
    Fun.protect
      ~finally:(fun () -> Interp.set_tap arena None)
      (fun () ->
        Interp.run ~world:(World.create ~seed:3L ()) ~arena (conf prefix)
          (w.build ()))
  in
  let arena = Interp.create_arena () in
  let r1 = run arena [||] in
  let d1 = r1.Interp.decisions in
  let fork =
    let rec go i =
      if Array.length d1.(i).T11r_race.Decision.d_enabled >= 2 then i
      else go (i + 1)
    in
    go 0
  in
  let p2 = Array.init (fork + 1) (fun i -> if i = fork then 1 else 0) in
  let fresh = run (Interp.create_arena ()) p2 in
  Alcotest.(check bool) "p2 leaves p1" true
    (fresh.Interp.decisions.(fork).d_tid <> d1.(fork).d_tid);
  let seen = ref 0 in
  let cut =
    {
      Interp.on_decision =
        (fun ~tid:_ ~enabled:_ ~op:_ ~next_tid:_ ~draws:_ ~rand:_ ~lock:_ ->
          incr seen;
          if !seen > fork + 2 then raise Cut);
      on_access =
        (fun ~tick:_ ~tid:_ ~pos:_ ~var:_ ~write:_ ~name:_ -> ());
    }
  in
  (match run ~tap:cut arena p2 with
  | _ -> Alcotest.fail "the tap did not cut the run"
  | exception Cut -> ());
  Alcotest.(check string) "p2 after a cut run of p2 = fresh p2"
    (fingerprint fresh) (fingerprint (run arena p2))

(* A Diagnose replay's trail is the last 8 entries of the trace log
   before the divergence. Delaying the thread that starts last by one
   tick in httpd's QUEUE makes op 32 find no thread scheduled; the
   trail is pinned as the list-logging interpreter gave it. *)
let test_diagnose_trail () =
  let w = Option.get (T11r_harness.Workloads.find "httpd") in
  let base = T11r_util.Tmp.fresh_dir ~prefix:"t11r-trail" () in
  Fun.protect
    ~finally:(fun () -> T11r_util.Tmp.rm_rf base)
    (fun () ->
      let dir = Filename.concat base "demo" in
      let policy c = Conf.with_policy c w.T11r_harness.Workloads.w_policy in
      let world = World.create ~seed:5L () in
      ignore
        (Interp.run ~world
           (policy
              (Conf.with_seeds
                 (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
                 11L 13L))
           (w.T11r_harness.Workloads.w_instance world ()));
      let qf = Filename.concat dir "QUEUE" in
      let lines = Ref_model.Text.read_lines qf in
      let last_first =
        List.fold_left
          (fun acc l -> if String.starts_with ~prefix:"first " l then l else acc)
          "" lines
      in
      Ref_model.Text.write_lines qf
        (List.map
           (fun l ->
             if l <> last_first then l
             else
               match String.split_on_char ' ' l with
               | [ f; tid; tick ] ->
                   Printf.sprintf "%s %s %d" f tid (int_of_string tick + 1)
               | _ -> l)
           lines);
      Tsan11rec.Demo.reseal ~dir;
      let world = World.create ~seed:6L () in
      let r =
        Interp.run ~world
          (policy
             (Conf.with_on_desync
                (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
                Conf.Diagnose))
          (w.T11r_harness.Workloads.w_instance world ())
      in
      match r.Interp.divergences with
      | [ d ] ->
          Alcotest.(check int) "diverges at op 32" 32 d.Interp.div_tick;
          Alcotest.(check (list (triple int int string)))
            "the 8-entry trail"
            [
              (24, 2, "syscall:recv");
              (25, 8, "mutex_lock_fail");
              (26, 0, "spawn");
              (27, 1, "syscall:poll");
              (28, 9, "mutex_lock_fail");
              (29, 2, "syscall:clock_gettime");
              (30, 0, "join_wait");
              (31, 1, "syscall:accept");
            ]
            d.Interp.div_trail
      | ds -> Alcotest.failf "expected 1 divergence, got %d" (List.length ds))

let () =
  Alcotest.run "arena"
    [
      ("arena", [ qtest arena_differential_test ]);
      ( "aborted",
        [
          Alcotest.test_case "tick-limited run, then full run = fresh run"
            `Quick test_abort_then_full_run;
          Alcotest.test_case "run inside a run gets a fresh arena" `Quick
            test_run_inside_run;
          Alcotest.test_case "capture after a run that raised" `Quick
            test_capture_after_escape;
        ] );
      ( "trace",
        [
          Alcotest.test_case "long run, then fig1 = fresh fig1" `Quick
            test_long_then_short_run;
          Alcotest.test_case "Diagnose trail of a tampered httpd demo" `Quick
            test_diagnose_trail;
        ] );
    ]
