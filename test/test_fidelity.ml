(* The replay-fidelity oracle: a demo's constraints reproduce the run
   they were recorded from. Every workload that records within the
   golden tick budget is recorded under every replayable strategy and
   three scheduler seeds, then replayed on the recording's own world
   seed: the replay must run the same trace, print the same output and
   take the same number of ticks, and judge itself faithful (no trace
   divergence, no soft desync). Among them, `tsan11rec record
   fig2-client -s random --seed 1 --env-seed 5' wakes thread 0 by
   signal at tick 107 (ASYNC `107 sigwake 0'). test_record's Fig. 7
   program, with a third thread spinning beside the signal's victim,
   adds more recordings whose ASYNC stream carries signal wakeups.

   Replays on another world seed may legitimately diverge. They are
   counted, not asserted: the count printed is of replays that complete
   with another trace and yet report no desync. *)

open T11r_vm
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module World = T11r_env.World
module Workloads = T11r_harness.Workloads

let world_seed = 5L
let other_world_seed = 6L

(* Each strategy a demo's META can name and a replay can follow. *)
let strategies =
  let tsan s = Conf.tsan11rec ~strategy:s () in
  [
    ("random", tsan Conf.Random);
    ("queue", tsan Conf.Queue);
    ("pct:3", tsan (Conf.Pct 3));
    ("db:2", tsan (Conf.Delay_bounded 2));
    ("pb:2", tsan (Conf.Preempt_bounded 2));
    ("os", { (tsan Conf.Random) with Conf.sched = Conf.Os_model });
  ]

(* The scheduler seeds `tsan11rec record --seed s' uses. *)
let seeded conf s =
  Conf.with_seeds conf (Int64.of_int s) (Int64.of_int (s + 7919))

(* Why replay [p] does not reproduce recording [r], if it does not. *)
let mismatch (r : Interp.result) (p : Interp.result) =
  if r.trace <> p.trace then Some "trace differs"
  else if r.output <> p.output then Some "output differs"
  else if r.ticks <> p.ticks then
    Some (Printf.sprintf "%d ticks, replayed %d" r.ticks p.ticks)
  else
    match p.trace_divergence with
    | Some d -> Some ("trace divergence: " ^ d)
    | None -> if p.soft_desync then Some "soft desync" else None

(* A replay that completes with another trace and reports nothing. *)
let silent (r : Interp.result) (p : Interp.result) =
  p.outcome = Interp.Completed
  && p.trace <> r.trace
  && p.trace_divergence = None
  && (not p.soft_desync)
  && p.desync_count = 0

type tally = {
  mutable recorded : int;
  mutable wakeups : int;  (** recordings with a Signal_wakeup *)
  mutable over_budget : int;
  mutable silent_other : int;
}

let tally () = { recorded = 0; wakeups = 0; over_budget = 0; silent_other = 0 }

let has_wakeup (r : Interp.result) =
  match r.demo with
  | Some d ->
      List.exists
        (fun (a : Demo.async_entry) ->
          match a.a_kind with Demo.Signal_wakeup _ -> true | _ -> false)
        d.Demo.asyncs
  | None -> false

(* Record with [run world_seed conf], replay on the same world seed and
   fail on any mismatch, then replay on [other_world_seed] and count a
   silent divergence. A recording that runs out of tick budget is only
   counted. *)
let check_replay t ~what ~run conf =
  T11r_util.Tmp.with_dir ~prefix:"t11r_fid" @@ fun dir ->
  let conf = Conf.with_max_ticks conf Golden.tick_budget in
  let r = run world_seed (Conf.with_mode conf (Conf.Record dir)) in
  if r.Interp.outcome = Interp.Tick_limit then t.over_budget <- t.over_budget + 1
  else begin
    t.recorded <- t.recorded + 1;
    if has_wakeup r then t.wakeups <- t.wakeups + 1;
    let replay seed = run seed (Conf.with_mode conf (Conf.Replay dir)) in
    (match mismatch r (replay world_seed) with
    | Some m -> Alcotest.failf "%s: same-world replay: %s" what m
    | None -> ());
    if silent r (replay other_world_seed) then
      t.silent_other <- t.silent_other + 1
  end

let print_tally name t =
  Printf.printf
    "%s: %d recordings (%d with a signal wakeup, %d over the tick budget); \
     %d of %d replays on world seed %Ld complete with another trace and \
     no desync\n%!"
    name t.recorded t.wakeups t.over_budget t.silent_other t.recorded
    other_world_seed

let test_workloads () =
  let t = tally () in
  List.iter
    (fun (w : Workloads.t) ->
      let run seed conf =
        let world = World.create ~seed () in
        let build = w.w_instance world in
        Interp.run ~world (Conf.with_policy conf w.w_policy) (build ())
      in
      List.iter
        (fun (sname, base) ->
          List.iter
            (fun s ->
              check_replay t ~run (seeded base s)
                ~what:(Printf.sprintf "%s -s %s --seed %d" w.w_name sname s))
            [ 1; 2; 3 ])
        strategies)
    Workloads.all;
  print_tally "workloads" t;
  Alcotest.(check bool) "some recording wakes a thread by signal" true (t.wakeups > 0)

(* test_record's Fig. 7 program (a signal wakes a thread blocked on a
   mutex) with a third thread spinning until the signal lands, so the
   victim's wakeup changes a ready set of more than one thread. *)
let fig7_spinner () =
  Api.program ~name:"fig7+spinner" (fun () ->
      let m = Api.Mutex.create () in
      let woke = Api.Atomic.create 0 in
      Api.set_signal_handler 10 (fun () -> Api.Atomic.store woke 1);
      Api.Mutex.lock m;
      let t =
        Api.Thread.spawn (fun () ->
            Api.Mutex.lock m;
            Api.Mutex.unlock m)
      in
      let spinner =
        Api.Thread.spawn (fun () ->
            while Api.Atomic.load woke = 0 do
              Api.work 100
            done)
      in
      while Api.Atomic.load woke = 0 do
        Api.work 300
      done;
      Api.Mutex.unlock m;
      Api.Thread.join t;
      Api.Thread.join spinner;
      Api.Sys_api.print "done")

let test_fig7_spinner () =
  let run seed conf =
    let world = World.create ~seed () in
    World.schedule_signal world ~at:1_500 ~signo:10;
    Interp.run ~world conf (fig7_spinner ())
  in
  let t = tally () in
  List.iter
    (fun (sname, strategy) ->
      for s = 1 to 40 do
        check_replay t ~run
          ~what:(Printf.sprintf "fig7+spinner -s %s --seed %d" sname s)
          (seeded (Conf.tsan11rec ~strategy ()) s)
      done)
    [ ("random", Conf.Random); ("pct:3", Conf.Pct 3) ];
  print_tally "fig7+spinner" t;
  Alcotest.(check bool) "some recording wakes a thread by signal" true (t.wakeups > 0)

let () =
  Alcotest.run "fidelity"
    [
      ( "replay",
        [
          Alcotest.test_case "fig7 with a spinning thread" `Quick
            test_fig7_spinner;
          Alcotest.test_case "every workload and strategy" `Quick
            test_workloads;
        ] );
    ]
