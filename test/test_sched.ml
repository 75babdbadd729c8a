(* Scheduler-protocol tests (lib/core §3): tick accounting, the Fig. 4
   trylock loop, wake-one policies, reader-writer locks, pipes, timed
   waits eating signals, liveness rescheduling, and the PCT/bounding
   strategies' determinism. *)

open T11r_vm
module World = T11r_env.World
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp

let check = Alcotest.check

let run ?(seed = 1L) ?(world_seed = 9L) ?(conf = Conf.tsan11rec ~strategy:Conf.Queue ())
    prog =
  Interp.run
    ~world:(World.create ~seed:world_seed ())
    (Conf.with_seeds conf seed (Int64.add seed 101L))
    prog

let outcome_str r = Format.asprintf "%a" Interp.pp_outcome r.Interp.outcome

let check_completed r =
  if r.Interp.outcome <> Interp.Completed then
    Alcotest.failf "expected completion, got %s" (outcome_str r)

let labels r = List.map (fun (_, _, l) -> l) r.Interp.trace

(* ------------------------------------------------------------------ *)
(* Tick accounting *)

let test_each_visible_op_is_one_tick () =
  let prog =
    Api.program ~name:"ticks" (fun () ->
        let a = Api.Atomic.create 0 in
        Api.Atomic.store a 1;
        ignore (Api.Atomic.load a);
        ignore (Api.Atomic.fetch_add a 1);
        Api.Atomic.fence Seq_cst)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "4 visible ops = 4 ticks" 4 r.ticks;
  check
    Alcotest.(list string)
    "labels in program order"
    [ "a_store"; "a_load"; "a_rmw"; "fence" ]
    (labels r)

let test_failed_lock_consumes_tick () =
  (* Fig. 4: the failed trylock attempt is itself a critical section. *)
  let prog =
    Api.program ~name:"lockfail" (fun () ->
        let m = Api.Mutex.create () in
        Api.Mutex.lock m;
        let t = Api.Thread.spawn (fun () -> Api.Mutex.lock m) in
        Api.work 500;
        (* give the child time to attempt and fail *)
        Api.Atomic.fence Seq_cst;
        Api.Mutex.unlock m;
        Api.Thread.join t)
  in
  let r = run prog in
  check Alcotest.bool "mutex_lock_fail in trace" true
    (List.mem "mutex_lock_fail" (labels r))

let test_spawn_join_are_visible () =
  let prog =
    Api.program ~name:"sj" (fun () ->
        let t = Api.Thread.spawn (fun () -> ()) in
        Api.Thread.join t)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.bool "spawn visible" true (List.mem "spawn" (labels r));
  check Alcotest.bool "join visible" true (List.mem "join" (labels r))

(* ------------------------------------------------------------------ *)
(* Reader-writer locks *)

let test_rwlock_readers_share () =
  let prog =
    Api.program ~name:"rwshare" (fun () ->
        let l = Api.Rwlock.create () in
        let both_in = Api.Atomic.create 0 in
        let peak = Api.Atomic.create 0 in
        let reader () =
          Api.Rwlock.rdlock l;
          let n = Api.Atomic.fetch_add both_in 1 + 1 in
          if n = 2 then Api.Atomic.store peak 1;
          Api.work 200;
          ignore (Api.Atomic.fetch_add both_in (-1));
          Api.Rwlock.unlock l
        in
        let t1 = Api.Thread.spawn reader in
        let t2 = Api.Thread.spawn reader in
        Api.Thread.join t1;
        Api.Thread.join t2;
        if Api.Atomic.load peak = 1 then Api.Sys_api.print "shared")
  in
  (* Under some schedule both readers are inside simultaneously. *)
  let seen = ref false in
  for seed = 1 to 20 do
    let r =
      run ~seed:(Int64.of_int seed)
        ~conf:(Conf.tsan11rec ~strategy:Conf.Random ())
        prog
    in
    check_completed r;
    if r.output = "shared" then seen := true
  done;
  check Alcotest.bool "readers overlapped" true !seen

let test_rwlock_writer_excludes () =
  let prog =
    Api.program ~name:"rwexcl" (fun () ->
        let l = Api.Rwlock.create () in
        let v = Api.Var.create 0 in
        let ts =
          List.init 4 (fun _ ->
              Api.Thread.spawn (fun () ->
                  for _ = 1 to 5 do
                    Api.Rwlock.with_write l (fun () -> Api.Var.incr v)
                  done))
        in
        List.iter Api.Thread.join ts;
        assert (Api.Var.get v = 20);
        Api.Sys_api.print "exact")
  in
  for seed = 1 to 10 do
    let r =
      run ~seed:(Int64.of_int seed)
        ~conf:(Conf.tsan11rec ~strategy:Conf.Random ())
        prog
    in
    check_completed r;
    check Alcotest.int "no races under write lock" 0 r.race_count;
    check Alcotest.string "exact count" "exact" r.output
  done

let test_rwlock_reader_blocks_writer () =
  let prog =
    Api.program ~name:"rwblock" (fun () ->
        let l = Api.Rwlock.create () in
        let wrote = Api.Atomic.create 0 in
        Api.Rwlock.rdlock l;
        let w =
          Api.Thread.spawn (fun () ->
              Api.Rwlock.wrlock l;
              Api.Atomic.store wrote 1;
              Api.Rwlock.unlock l)
        in
        Api.work 800;
        (* the writer must still be blocked *)
        assert (Api.Atomic.load wrote = 0);
        Api.Rwlock.unlock l;
        Api.Thread.join w;
        assert (Api.Atomic.load wrote = 1);
        Api.Sys_api.print "ordered")
  in
  let r = run prog in
  check_completed r;
  check Alcotest.string "writer waited" "ordered" r.output

let test_rwlock_trylock () =
  let prog =
    Api.program ~name:"rwtry" (fun () ->
        let l = Api.Rwlock.create () in
        assert (Api.Rwlock.try_rdlock l);
        (* another reader is fine, a writer is not *)
        assert (Api.Rwlock.try_rdlock l);
        assert (not (Api.Rwlock.try_wrlock l));
        Api.Rwlock.unlock l;
        Api.Rwlock.unlock l;
        assert (Api.Rwlock.try_wrlock l);
        assert (not (Api.Rwlock.try_rdlock l));
        Api.Rwlock.unlock l)
  in
  check_completed (run prog)

let test_rwlock_synchronises () =
  (* Writer publishes under the lock; reader sees it: no race. *)
  let prog =
    Api.program ~name:"rwsync" (fun () ->
        let l = Api.Rwlock.create () in
        let v = Api.Var.create 0 in
        let w =
          Api.Thread.spawn (fun () ->
              Api.Rwlock.with_write l (fun () -> Api.Var.set v 1))
        in
        Api.Thread.join w;
        Api.Rwlock.with_read l (fun () -> assert (Api.Var.get v = 1)))
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "rwlock creates hb" 0 r.race_count

let test_rwlock_record_replay () =
  let prog () =
    Api.program ~name:"rwrr" (fun () ->
        let l = Api.Rwlock.create () in
        let v = Api.Var.create 0 in
        let ts =
          List.init 3 (fun i ->
              Api.Thread.spawn (fun () ->
                  Api.work (i * 70);
                  if i = 0 then Api.Rwlock.with_write l (fun () -> Api.Var.incr v)
                  else Api.Rwlock.with_read l (fun () -> ignore (Api.Var.get v))))
        in
        List.iter Api.Thread.join ts;
        Api.Sys_api.print (string_of_int (Api.Var.get v)))
  in
  let dir = Filename.temp_file "rwrr" "" in
  Sys.remove dir;
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      3L 4L
  in
  let r1 = Interp.run ~world:(World.create ~seed:5L ()) rc (prog ()) in
  check_completed r1;
  let pc = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:(World.create ~seed:6L ()) pc (prog ()) in
  check_completed r2;
  check Alcotest.bool "rwlock trace replays" true (r1.trace = r2.trace)

(* ------------------------------------------------------------------ *)
(* Pipes *)

let test_pipe_roundtrip () =
  let prog =
    Api.program ~name:"pipe" (fun () ->
        let rfd, wfd = Api.Sys_api.pipe () in
        let t =
          Api.Thread.spawn (fun () ->
              ignore (Api.Sys_api.write ~fd:wfd (Bytes.of_string "ping"));
              ignore (Api.Sys_api.close ~fd:wfd))
        in
        Api.Thread.join t;
        let r = Api.Sys_api.read ~fd:rfd ~len:16 in
        Api.Sys_api.print (Bytes.to_string r.Syscall.data);
        (* write end closed and drained: EOF *)
        let r2 = Api.Sys_api.read ~fd:rfd ~len:16 in
        assert (r2.Syscall.ret = 0))
  in
  let r = run prog in
  check_completed r;
  check Alcotest.string "pipe data" "ping" r.output

let test_pipe_empty_eagain () =
  let prog =
    Api.program ~name:"pipeempty" (fun () ->
        let rfd, _wfd = Api.Sys_api.pipe () in
        let r = Api.Sys_api.read ~fd:rfd ~len:16 in
        assert (r.Syscall.errno = Syscall.eagain))
  in
  check_completed (run prog)

let test_pipe_recorded_and_replayed () =
  (* Pipe reads are recorded (the paper: pipes used for IPC must be,
     unlike regular files). Replay a pipe-using program and check the
     demo carries the data. *)
  let prog () =
    Api.program ~name:"piperr" (fun () ->
        let rfd, wfd = Api.Sys_api.pipe () in
        let t =
          Api.Thread.spawn (fun () ->
              ignore (Api.Sys_api.write ~fd:wfd (Bytes.of_string "42")))
        in
        Api.Thread.join t;
        let r = Api.Sys_api.read ~fd:rfd ~len:8 in
        Api.Sys_api.print (Bytes.to_string r.Syscall.data))
  in
  let dir = Filename.temp_file "piperr" "" in
  Sys.remove dir;
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      3L 4L
  in
  let r1 = Interp.run ~world:(World.create ~seed:5L ()) rc (prog ()) in
  check_completed r1;
  let d = Option.get r1.demo in
  check Alcotest.bool "pipe ops recorded" true
    (List.exists
       (fun (e : Tsan11rec.Demo.syscall_entry) ->
         e.sc_label = "read" && Bytes.to_string e.sc_data = "42")
       d.Tsan11rec.Demo.syscalls);
  let pc = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:(World.create ~seed:6L ()) pc (prog ()) in
  check_completed r2;
  check Alcotest.string "pipe replays" r1.output r2.output

(* ------------------------------------------------------------------ *)
(* Timed waits and signal eating *)

let test_timed_wait_can_eat_signal () =
  (* A timed waiter is not disabled but still consumes a cond signal
     (§3.2): the signal must reach it rather than vanish. *)
  let prog =
    Api.program ~name:"eat" (fun () ->
        let m = Api.Mutex.create () in
        let c = Api.Cond.create () in
        let got = Api.Atomic.create 0 in
        let waiter =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock m;
              let res = Api.Cond.timed_wait c m ~ms:50 in
              Api.Mutex.unlock m;
              if res = Api.Signalled then Api.Atomic.store got 1)
        in
        Api.work 300;
        Api.Mutex.lock m;
        Api.Cond.signal c;
        Api.Mutex.unlock m;
        Api.Thread.join waiter;
        if Api.Atomic.load got = 1 then Api.Sys_api.print "signalled"
        else Api.Sys_api.print "timed-out")
  in
  (* Under the queue strategy the signal lands well before the 50 ms
     expiry, so the waiter reports Signalled. *)
  let r = run prog in
  check_completed r;
  check Alcotest.string "signal eaten by timed waiter" "signalled" r.output

let test_cond_wait_preserves_deadlock () =
  (* §3.2: a thread that re-waits after being the only one signalled
     leaves everyone blocked — the deadlock must be preserved. *)
  let prog =
    Api.program ~name:"cvdead" (fun () ->
        let m = Api.Mutex.create () in
        let c = Api.Cond.create () in
        Api.Mutex.lock m;
        (* nobody will ever signal *)
        Api.Cond.wait c m;
        Api.Mutex.unlock m)
  in
  let r = run prog in
  match r.Interp.outcome with
  | Interp.Deadlock [ _ ] -> ()
  | _ -> Alcotest.failf "expected deadlock, got %s" (outcome_str r)

(* ------------------------------------------------------------------ *)
(* Liveness rescheduling (§3.3) *)

let test_reschedule_events_recorded () =
  (* A sleepy helper forces reschedules under the random strategy; the
     events land in the ASYNC file and replay consumes them. *)
  let prog () =
    Api.program ~name:"sleepy" (fun () ->
        let quit = Api.Atomic.create 0 in
        let helper =
          Api.Thread.spawn (fun () ->
              while Api.Atomic.load quit = 0 do
                Api.sleep_ms 50
              done)
        in
        for _ = 1 to 20 do
          Api.work 100;
          Api.Atomic.fence Relaxed
        done;
        Api.Atomic.store quit 1;
        Api.Thread.join helper)
  in
  let dir = Filename.temp_file "resched" "" in
  Sys.remove dir;
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Record dir) ())
      7L 8L
  in
  let r1 = Interp.run ~world:(World.create ~seed:5L ()) rc (prog ()) in
  check_completed r1;
  let d = Option.get r1.demo in
  let rescheds =
    List.length
      (List.filter
         (fun (a : Tsan11rec.Demo.async_entry) -> a.a_kind = Tsan11rec.Demo.Reschedule)
         d.Tsan11rec.Demo.asyncs)
  in
  check Alcotest.bool "reschedules recorded" true (rescheds > 0);
  let pc = Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:(World.create ~seed:6L ()) pc (prog ()) in
  check_completed r2;
  check Alcotest.bool "replay follows recording" true (r1.trace = r2.trace)

(* ------------------------------------------------------------------ *)
(* Strategy determinism *)

let strategies =
  [
    Conf.Random;
    Conf.Queue;
    Conf.Pct 3;
    Conf.Delay_bounded 3;
    Conf.Preempt_bounded 3;
  ]

let test_all_strategies_deterministic () =
  let prog () =
    Api.program ~name:"det" (fun () ->
        let a = Api.Atomic.create 0 in
        let m = Api.Mutex.create () in
        let ts =
          List.init 3 (fun i ->
              Api.Thread.spawn (fun () ->
                  Api.work (i * 30);
                  Api.Mutex.with_lock m (fun () ->
                      ignore (Api.Atomic.fetch_add a 1))))
        in
        List.iter Api.Thread.join ts)
  in
  List.iter
    (fun strategy ->
      let go () =
        run ~seed:5L ~world_seed:7L
          ~conf:(Conf.tsan11rec ~strategy ())
          (prog ())
      in
      let r1 = go () in
      let r2 = go () in
      check_completed r1;
      check Alcotest.bool
        (Conf.strategy_name strategy ^ " deterministic given seeds")
        true
        (r1.Interp.trace = r2.Interp.trace))
    strategies

let test_strategy_names_roundtrip () =
  List.iter
    (fun s ->
      check Alcotest.bool
        (Conf.strategy_name s ^ " roundtrips")
        true
        (Conf.strategy_of_name (Conf.strategy_name s) = Some s))
    strategies

(* ------------------------------------------------------------------ *)
(* Signal-handler edge cases *)

let test_handler_visible_ops_traced () =
  let prog =
    Api.program ~name:"sigops" (fun () ->
        let hits = Api.Atomic.create 0 in
        Api.set_signal_handler 15 (fun () ->
            ignore (Api.Atomic.fetch_add hits 1);
            ignore (Api.Atomic.fetch_add hits 1));
        while Api.Atomic.load hits = 0 do
          Api.work 300
        done;
        Api.Sys_api.print (string_of_int (Api.Atomic.load hits)))
  in
  let world = World.create ~seed:3L () in
  World.schedule_signal world ~at:1_000 ~signo:15;
  let r =
    Interp.run ~world
      (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L)
      prog
  in
  check_completed r;
  check Alcotest.string "handler's two rmws ran" "2" r.output;
  (* handler entry and its visible ops appear as critical sections *)
  check Alcotest.bool "sig_entry traced" true
    (List.mem "sig_entry:15" (labels r));
  let rmws = List.filter (fun l -> l = "a_rmw") (labels r) in
  check Alcotest.int "handler rmws traced" 2 (List.length rmws)

let test_two_signals_two_handlers () =
  let prog =
    Api.program ~name:"twosigs" (fun () ->
        let a = Api.Atomic.create 0 in
        let b = Api.Atomic.create 0 in
        Api.set_signal_handler 10 (fun () -> Api.Atomic.store a 1);
        Api.set_signal_handler 12 (fun () -> Api.Atomic.store b 1);
        while Api.Atomic.load a = 0 || Api.Atomic.load b = 0 do
          Api.work 200
        done;
        Api.Sys_api.print "both")
  in
  let world = World.create ~seed:3L () in
  World.schedule_signal world ~at:800 ~signo:10;
  World.schedule_signal world ~at:1_600 ~signo:12;
  let r =
    Interp.run ~world
      (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L)
      prog
  in
  check_completed r;
  check Alcotest.string "both handlers ran" "both" r.output

let test_unhandled_signal_ignored () =
  let prog =
    Api.program ~name:"nohandler" (fun () ->
        for _ = 1 to 5 do
          Api.work 300;
          Api.Atomic.fence Relaxed
        done;
        Api.Sys_api.print "survived")
  in
  let world = World.create ~seed:3L () in
  World.schedule_signal world ~at:700 ~signo:31;
  let r =
    Interp.run ~world
      (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L)
      prog
  in
  check_completed r;
  check Alcotest.string "SIG_IGN model" "survived" r.output

let test_burst_of_signals_all_delivered () =
  let prog =
    Api.program ~name:"burst" (fun () ->
        let hits = Api.Atomic.create 0 in
        Api.set_signal_handler 15 (fun () ->
            ignore (Api.Atomic.fetch_add hits 1));
        while Api.Atomic.load hits < 3 do
          Api.work 200
        done;
        Api.Sys_api.print (string_of_int (Api.Atomic.load hits)))
  in
  let world = World.create ~seed:3L () in
  World.schedule_signal world ~at:500 ~signo:15;
  World.schedule_signal world ~at:600 ~signo:15;
  World.schedule_signal world ~at:700 ~signo:15;
  let r =
    Interp.run ~world
      (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L)
      prog
  in
  check_completed r;
  check Alcotest.string "three deliveries" "3" r.output

let test_sync_signal_runs_inline () =
  let prog =
    Api.program ~name:"syncsig" (fun () ->
        let log = Api.Atomic.create 0 in
        Api.set_signal_handler 11 (fun () ->
            ignore (Api.Atomic.fetch_add log 10));
        ignore (Api.Atomic.fetch_add log 1);
        Api.raise_sync 11;
        (* handler completed before this point *)
        ignore (Api.Atomic.fetch_add log 100);
        Api.Sys_api.print (string_of_int (Api.Atomic.load log)))
  in
  let r = run prog in
  check_completed r;
  check Alcotest.string "handler ran inline" "111" r.output;
  check Alcotest.bool "raise traced" true (List.mem "raise_sync:11" (labels r))

let test_sync_signal_unhandled_crashes () =
  let prog = Api.program ~name:"segv" (fun () -> Api.raise_sync 11) in
  let r = run prog in
  match r.Interp.outcome with
  | Interp.Crashed (_, msg) ->
      check Alcotest.bool "names the signal" true
        (String.length msg > 0)
  | o -> Alcotest.failf "expected crash, got %a" Interp.pp_outcome o

let test_sync_signal_not_recorded () =
  (* §4.3: synchronous signals are ignored by the recorder — they
     reoccur at the same point on replay without help. *)
  let prog () =
    Api.program ~name:"syncrr" (fun () ->
        let log = Api.Atomic.create 0 in
        Api.set_signal_handler 11 (fun () ->
            ignore (Api.Atomic.fetch_add log 1));
        Api.raise_sync 11;
        Api.Sys_api.print (string_of_int (Api.Atomic.load log)))
  in
  let dir = Filename.temp_file "syncrr" "" in
  Sys.remove dir;
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      1L 2L
  in
  let r1 = Interp.run ~world:(World.create ~seed:5L ()) rc (prog ()) in
  check_completed r1;
  let d = Option.get r1.demo in
  check Alcotest.int "no SIGNAL entries" 0
    (List.length d.Tsan11rec.Demo.signals);
  let pc = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:(World.create ~seed:6L ()) pc (prog ()) in
  check_completed r2;
  check Alcotest.bool "reoccurs identically" true (r1.trace = r2.trace);
  check Alcotest.string "same output" r1.output r2.output

let test_thread_names_reported () =
  let prog =
    Api.program ~name:"names" (fun () ->
        let t = Api.Thread.spawn ~name:"worker-a" (fun () -> ()) in
        Api.Thread.join t)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.bool "main named" true
    (List.mem_assoc 0 r.Interp.thread_names
    && List.assoc 0 r.Interp.thread_names = "main");
  check Alcotest.bool "worker named" true
    (List.exists (fun (_, n) -> n = "worker-a") r.Interp.thread_names)

(* ------------------------------------------------------------------ *)
(* Lock-order inversions end to end *)

let test_abba_reported_without_deadlocking () =
  (* The classic AB-BA bug, scheduled so that it does NOT deadlock:
     the inversion must still be reported as a potential deadlock. *)
  let prog =
    Api.program ~name:"abba" (fun () ->
        let a = Api.Mutex.create ~name:"A" () in
        let b = Api.Mutex.create ~name:"B" () in
        let t1 =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock a;
              Api.Mutex.lock b;
              Api.Mutex.unlock b;
              Api.Mutex.unlock a)
        in
        Api.Thread.join t1;
        (* t2 runs strictly after t1: no deadlock can manifest *)
        let t2 =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock b;
              Api.Mutex.lock a;
              Api.Mutex.unlock a;
              Api.Mutex.unlock b)
        in
        Api.Thread.join t2)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "inversion reported" 1 (List.length r.Interp.lock_cycles)

let test_consistent_order_no_report () =
  let prog =
    Api.program ~name:"ordered" (fun () ->
        let a = Api.Mutex.create ~name:"A" () in
        let b = Api.Mutex.create ~name:"B" () in
        let ts =
          List.init 3 (fun _ ->
              Api.Thread.spawn (fun () ->
                  Api.Mutex.lock a;
                  Api.Mutex.lock b;
                  Api.Mutex.unlock b;
                  Api.Mutex.unlock a))
        in
        List.iter Api.Thread.join ts)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "no inversion" 0 (List.length r.Interp.lock_cycles)

let test_rwlock_in_order_graph () =
  (* Inversion across a mutex and an rwlock. *)
  let prog =
    Api.program ~name:"mixed-locks" (fun () ->
        let m = Api.Mutex.create ~name:"M" () in
        let l = Api.Rwlock.create ~name:"L" () in
        let t1 =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock m;
              Api.Rwlock.wrlock l;
              Api.Rwlock.unlock l;
              Api.Mutex.unlock m)
        in
        Api.Thread.join t1;
        let t2 =
          Api.Thread.spawn (fun () ->
              Api.Rwlock.rdlock l;
              Api.Mutex.lock m;
              Api.Mutex.unlock m;
              Api.Rwlock.unlock l)
        in
        Api.Thread.join t2)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "mutex/rwlock inversion" 1 (List.length r.Interp.lock_cycles)

let test_cond_relock_keeps_mutex_name () =
  (* A condvar wait relocks its mutex. The lock-order graph must keep
     calling that mutex by its own name, so the A/B inversion made
     after the wait is reported over A and B only. *)
  let prog =
    Api.program ~name:"cond-abba" (fun () ->
        let a = Api.Mutex.create ~name:"A" () in
        let b = Api.Mutex.create ~name:"B" () in
        let c = Api.Cond.create () in
        let ready = Api.Var.create 0 in
        Api.Mutex.lock a;
        let signaller =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock a;
              Api.Var.set ready 1;
              Api.Cond.signal c;
              Api.Mutex.unlock a)
        in
        (* [a] is held until the wait releases it, so the signaller
           cannot signal first: the wait always ends in a relock. *)
        while Api.Var.get ready = 0 do
          Api.Cond.wait c a
        done;
        Api.Mutex.lock b;
        Api.Mutex.unlock b;
        Api.Mutex.unlock a;
        Api.Thread.join signaller;
        let t2 =
          Api.Thread.spawn (fun () ->
              Api.Mutex.lock b;
              Api.Mutex.lock a;
              Api.Mutex.unlock a;
              Api.Mutex.unlock b)
        in
        Api.Thread.join t2)
  in
  for seed = 1 to 5 do
    let r =
      run ~seed:(Int64.of_int seed)
        ~conf:(Conf.tsan11rec ~strategy:Conf.Random ())
        prog
    in
    check_completed r;
    match r.Interp.lock_cycles with
    | [ cycle ] ->
        let names =
          List.sort_uniq compare
            (List.concat_map
               (fun (e : T11r_race.Lockorder.edge) -> [ e.from_lock; e.to_lock ])
               cycle)
        in
        check Alcotest.(list string) "cycle names its locks" [ "A"; "B" ] names
    | cycles -> Alcotest.failf "expected one cycle, got %d" (List.length cycles)
  done

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "sched"
    [
      ( "ticks",
        [
          Alcotest.test_case "one tick per visible op" `Quick
            test_each_visible_op_is_one_tick;
          Alcotest.test_case "failed lock ticks" `Quick test_failed_lock_consumes_tick;
          Alcotest.test_case "spawn/join visible" `Quick test_spawn_join_are_visible;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "readers share" `Quick test_rwlock_readers_share;
          Alcotest.test_case "writer excludes" `Quick test_rwlock_writer_excludes;
          Alcotest.test_case "reader blocks writer" `Quick
            test_rwlock_reader_blocks_writer;
          Alcotest.test_case "trylock" `Quick test_rwlock_trylock;
          Alcotest.test_case "synchronises" `Quick test_rwlock_synchronises;
          Alcotest.test_case "record/replay" `Quick test_rwlock_record_replay;
        ] );
      ( "pipes",
        [
          Alcotest.test_case "roundtrip" `Quick test_pipe_roundtrip;
          Alcotest.test_case "empty EAGAIN" `Quick test_pipe_empty_eagain;
          Alcotest.test_case "recorded+replayed" `Quick test_pipe_recorded_and_replayed;
        ] );
      ( "cond",
        [
          Alcotest.test_case "timed wait eats signal" `Quick
            test_timed_wait_can_eat_signal;
          Alcotest.test_case "deadlock preserved" `Quick
            test_cond_wait_preserves_deadlock;
        ] );
      ( "liveness",
        [ Alcotest.test_case "reschedule events" `Quick test_reschedule_events_recorded ] );
      ( "signals",
        [
          Alcotest.test_case "handler ops traced" `Quick
            test_handler_visible_ops_traced;
          Alcotest.test_case "two handlers" `Quick test_two_signals_two_handlers;
          Alcotest.test_case "unhandled ignored" `Quick test_unhandled_signal_ignored;
          Alcotest.test_case "signal burst" `Quick test_burst_of_signals_all_delivered;
          Alcotest.test_case "thread names" `Quick test_thread_names_reported;
          Alcotest.test_case "sync signal inline" `Quick test_sync_signal_runs_inline;
          Alcotest.test_case "sync unhandled crashes" `Quick
            test_sync_signal_unhandled_crashes;
          Alcotest.test_case "sync not recorded" `Quick test_sync_signal_not_recorded;
        ] );
      ( "lockorder",
        [
          Alcotest.test_case "AB-BA reported" `Quick
            test_abba_reported_without_deadlocking;
          Alcotest.test_case "consistent order" `Quick test_consistent_order_no_report;
          Alcotest.test_case "rwlock in graph" `Quick test_rwlock_in_order_graph;
          Alcotest.test_case "condvar relock keeps mutex name" `Quick
            test_cond_relock_keeps_mutex_name;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "deterministic" `Quick test_all_strategies_deterministic;
          Alcotest.test_case "name roundtrip" `Quick test_strategy_names_roundtrip;
        ] );
    ]
