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
          let fresh = run ~recycled:false "fresh" in
          let recycled = run ~arena:shared_arena ~recycled:true "recycled" in
          if fingerprint fresh <> fingerprint recycled then
            QCheck.Test.fail_reportf "%s (record %b): arena run diverged"
              w.name record;
          if
            record
            && dir_bytes (Filename.concat base "fresh")
               <> dir_bytes (Filename.concat base "recycled")
          then
            QCheck.Test.fail_reportf "%s: arena run wrote different demo bytes"
              w.name;
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
      let fresh = Interp.run ~world:fresh_world conf (w.build ()) in
      Alcotest.(check string)
        (w.name ^ ": run after the cut = fresh run")
        (fingerprint fresh) (fingerprint after))
    workloads

let () =
  Alcotest.run "arena"
    [
      ("arena", [ qtest arena_differential_test ]);
      ( "aborted",
        [
          Alcotest.test_case "tick-limited run, then full run = fresh run"
            `Quick test_abort_then_full_run;
        ] );
    ]
