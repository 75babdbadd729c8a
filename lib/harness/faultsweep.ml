(* The fault-sweep experiment: how well does sparse record/replay hold
   up when the environment misbehaves?

   For each fault probability p we record the httpd workload with a
   seeded fault plan injecting transient EAGAIN/EINTR, connection
   resets and short reads/writes at every syscall site.  The recording
   must complete anyway — the server retries transients with backoff
   and gives up cleanly on dead connections.  Each demo is then
   replayed with NO live fault plan: the injected failures live in the
   demo's SYSCALL file, so a faithful replay reproduces the identical
   syscall-result sequence, failures included, with zero hard desyncs.

   Each run (a record/replay pair) is index-seeded and writes into its
   own atomically-created demo directory, so a cell's runs shard
   across the domain pool; their tallies are summed in index order, so
   the row is identical for every jobs count. *)

open T11r_util
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Fault = T11r_env.Fault
module Httpd = T11r_apps.Httpd

type row = {
  p : float;  (** per-site fault probability *)
  runs : int;
  record_completed : int;  (** recordings that ran to completion *)
  mean_injected : float;  (** faults injected per recording *)
  replay_faithful : int;  (** replays matching the recorded outcome *)
  hard_desyncs : int;
  soft_desyncs : int;
}

(* One run's counts. *)
type tally = {
  t_rec : int;
  t_injected : int;
  t_faithful : int;
  t_hard : int;
  t_soft : int;
}

let one_run ~cfg ~p i =
  Tmp.with_dir ~prefix:"faultsweep" @@ fun dir ->
  let faults =
    if p > 0.0 then Fault.uniform ~seed:(Int64.of_int (100 + i)) ~p ()
    else Fault.none
  in
  let world = World.create ~seed:(Int64.of_int ((i * 7919) + 3)) ~faults () in
  let run conf world =
    Campaign.run_one ~deadline_s:0. ~tick_budget:None conf (fun () ->
        Httpd.setup_world cfg world;
        (world, Httpd.program ~cfg ()))
  in
  let r1 =
    run
      (Campaign.scheduler_seeds
         (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
         i)
      world
  in
  (* Replay against a different world seed and no fault plan: every
     injected failure must come back out of the demo. *)
  let r2 =
    run
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
      (World.create ~seed:(Int64.of_int ((i * 104729) + 11)) ())
  in
  {
    t_rec = (if r1.Interp.outcome = Interp.Completed then 1 else 0);
    t_injected = World.faults_injected world;
    t_hard =
      (match r2.Interp.outcome with Interp.Hard_desync _ -> 1 | _ -> 0);
    t_soft = (if r2.Interp.soft_desync then 1 else 0);
    t_faithful =
      (if
         Outcome.key r2.Interp.outcome = Outcome.key r1.Interp.outcome
         && not r2.Interp.soft_desync
       then 1
       else 0);
  }

let one_cell ?jobs ~cfg ~p ~runs () =
  let tallies = Pool.map ?jobs runs (fun k -> one_run ~cfg ~p (k + 1)) in
  let sum f = Array.fold_left (fun n t -> n + f t) 0 tallies in
  {
    p;
    runs;
    record_completed = sum (fun t -> t.t_rec);
    mean_injected =
      float_of_int (sum (fun t -> t.t_injected)) /. float_of_int (max 1 runs);
    replay_faithful = sum (fun t -> t.t_faithful);
    hard_desyncs = sum (fun t -> t.t_hard);
    soft_desyncs = sum (fun t -> t.t_soft);
  }

let sweep ?(smoke = false) ?jobs () =
  let cfg =
    if smoke then
      { Httpd.default_config with queries = 24; clients = 3; workers = 3 }
    else { Httpd.default_config with queries = 60; clients = 4; workers = 4 }
  in
  let ps = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.05; 0.1; 0.2 ] in
  let runs = if smoke then 2 else 5 in
  List.map (fun p -> one_cell ?jobs ~cfg ~p ~runs ()) ps

let print rows =
  let t =
    Table.create
      ~title:
        "Fault sweep: record httpd under injected faults, replay fault-free"
      ~headers:
        [ "p"; "runs"; "rec ok"; "faults/run"; "faithful"; "hard"; "soft" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Printf.sprintf "%.2f" r.p;
          string_of_int r.runs;
          Printf.sprintf "%d/%d" r.record_completed r.runs;
          Printf.sprintf "%.1f" r.mean_injected;
          Printf.sprintf "%d/%d" r.replay_faithful r.runs;
          string_of_int r.hard_desyncs;
          string_of_int r.soft_desyncs;
        ])
    rows;
  Table.print t;
  print_endline
    "Shape to check: recording completes at every p (retries absorb\n\
     transients); replay is faithful with zero hard desyncs because the\n\
     injected failures are part of the recorded syscall sequence.\n"

let run ?smoke ?jobs () = print (sweep ?smoke ?jobs ())
