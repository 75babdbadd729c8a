(* Tests for the tsan11rec runtime (lib/core): controlled scheduling,
   critical sections, mutexes/condvars, signals, record and replay. *)

open T11r_vm
module World = T11r_env.World
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module Policy = Tsan11rec.Policy

let check = Alcotest.check

let seeded_conf ?(conf = Conf.tsan11rec ()) s1 s2 = Conf.with_seeds conf s1 s2

let run ?world ?(conf = seeded_conf 1L 2L) prog =
  let world =
    match world with Some w -> w | None -> World.create ~seed:99L ()
  in
  Interp.run ~world conf prog

let outcome_str r = Format.asprintf "%a" Interp.pp_outcome r.Interp.outcome

let check_completed r =
  if r.Interp.outcome <> Interp.Completed then
    Alcotest.failf "expected completion, got %s" (outcome_str r)

(* Run [f] on a fresh directory, removed when [f] returns or raises. *)
let with_tmpdir f = T11r_util.Tmp.with_dir ~prefix:"t11r_demo" f

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Basics *)

let test_trivial_program () =
  let prog = Api.program ~name:"trivial" (fun () -> Api.Sys_api.print "hi") in
  let r = run prog in
  check_completed r;
  check Alcotest.string "output" "hi" r.output;
  check Alcotest.int "one visible op" 1 r.ticks

let test_invisible_only () =
  let prog =
    Api.program ~name:"invis" (fun () ->
        Api.work 100;
        let v = Api.Var.create 0 in
        Api.Var.set v 42;
        assert (Api.Var.get v = 42))
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "no ticks" 0 r.ticks

let test_work_advances_time () =
  let prog = Api.program ~name:"work" (fun () -> Api.work 1000) in
  let r = run ~conf:(seeded_conf ~conf:Conf.native 1L 2L) prog in
  check_completed r;
  check Alcotest.bool "makespan >= work" true (r.makespan_us >= 1000)

let test_spawn_join () =
  let prog =
    Api.program ~name:"spawn" (fun () ->
        let v = Api.Var.create 0 in
        let t = Api.Thread.spawn (fun () -> Api.Var.set v 7) in
        Api.Thread.join t;
        assert (Api.Var.get v = 7);
        Api.Sys_api.print "done")
  in
  let r = run prog in
  check_completed r;
  check Alcotest.string "output" "done" r.output;
  (* join synchronises: no race on v *)
  check Alcotest.int "no races" 0 r.race_count

let test_many_threads () =
  let prog =
    Api.program ~name:"many" (fun () ->
        let total = Api.Atomic.create 0 in
        let ts =
          List.init 8 (fun _ ->
              Api.Thread.spawn (fun () -> ignore (Api.Atomic.fetch_add total 1)))
        in
        List.iter Api.Thread.join ts;
        assert (Api.Atomic.load total = 8))
  in
  check_completed (run prog)

let test_crash_propagates () =
  let prog =
    Api.program ~name:"crash" (fun () ->
        let t = Api.Thread.spawn (fun () -> failwith "boom") in
        Api.Thread.join t)
  in
  let r = run prog in
  match r.outcome with
  | Interp.Crashed (_, msg) ->
      check Alcotest.bool "message mentions boom" true (contains msg "boom")
  | _ -> Alcotest.failf "expected crash, got %s" (outcome_str r)

(* Unnamed objects and threads are named by kind and a per-run counter
   shared by every kind, byte for byte: race reports, thread names and
   result digests embed these names. *)
let test_generated_names () =
  let names = ref [] in
  let child = ref (-1) in
  let prog =
    Api.program ~name:"names" (fun () ->
        let a = Api.Atomic.create 0 in
        let v = Api.Var.create 0 in
        let m = Api.Mutex.create () in
        let l = Api.Rwlock.create () in
        let c = Api.Cond.create () in
        let t = Api.Thread.spawn ignore in
        Api.Thread.join t;
        child := t;
        names :=
          [
            T11r_mem.Atomics.loc_name a.Api.a_loc;
            T11r_race.Detector.var_name v.Api.v_var;
            m.Api.mu_name;
            l.Api.rw_name;
            c.Api.cv_name;
          ])
  in
  let r = run prog in
  check_completed r;
  check Alcotest.(list string) "object names"
    [ "atomic1"; "var2"; "mutex3"; "rwlock4"; "cond5" ]
    !names;
  check Alcotest.string "thread name" "thread6"
    (List.assoc !child r.Interp.thread_names)

(* ------------------------------------------------------------------ *)
(* Mutexes *)

let test_mutex_mutual_exclusion () =
  (* With locking, the non-atomic counter is race-free and exact. *)
  let prog =
    Api.program ~name:"mutex" (fun () ->
        let m = Api.Mutex.create () in
        let v = Api.Var.create 0 in
        let ts =
          List.init 4 (fun _ ->
              Api.Thread.spawn (fun () ->
                  for _ = 1 to 10 do
                    Api.Mutex.with_lock m (fun () -> Api.Var.incr v)
                  done))
        in
        List.iter Api.Thread.join ts;
        assert (Api.Var.get v = 40);
        Api.Sys_api.print "exact")
  in
  let r = run prog in
  check_completed r;
  check Alcotest.int "no races under lock" 0 r.race_count;
  check Alcotest.string "output" "exact" r.output

let test_trylock () =
  let prog =
    Api.program ~name:"trylock" (fun () ->
        let m = Api.Mutex.create () in
        assert (Api.Mutex.try_lock m);
        assert (not (Api.Mutex.try_lock m));
        Api.Mutex.unlock m;
        assert (Api.Mutex.try_lock m);
        Api.Mutex.unlock m)
  in
  check_completed (run prog)

let test_deadlock_detected () =
  (* Child blocks on a mutex the main thread never releases, and main
     joins the child: a guaranteed deadlock, which must be preserved
     and reported (§3.2). *)
  let prog =
    Api.program ~name:"deadlock" (fun () ->
        let m = Api.Mutex.create () in
        Api.Mutex.lock m;
        let t = Api.Thread.spawn (fun () -> Api.Mutex.lock m) in
        Api.Thread.join t)
  in
  let r = run prog in
  match r.outcome with
  | Interp.Deadlock tids -> check Alcotest.int "both blocked" 2 (List.length tids)
  | _ -> Alcotest.failf "expected deadlock, got %s" (outcome_str r)

let test_unsync_counter_races () =
  let prog =
    Api.program ~name:"racy" (fun () ->
        let v = Api.Var.create 0 in
        let flag = Api.Atomic.create 0 in
        let t =
          Api.Thread.spawn (fun () ->
              Api.Var.incr v;
              ignore (Api.Atomic.fetch_add flag 1))
        in
        Api.Var.incr v;
        ignore (Api.Atomic.fetch_add flag 1);
        Api.Thread.join t)
  in
  let r = run prog in
  check_completed r;
  check Alcotest.bool "race detected" true (r.race_count > 0)

let test_native_detects_nothing () =
  let prog =
    Api.program ~name:"racy2" (fun () ->
        let v = Api.Var.create 0 in
        let t = Api.Thread.spawn (fun () -> Api.Var.incr v) in
        Api.Var.incr v;
        Api.Thread.join t)
  in
  let r = run ~conf:(seeded_conf ~conf:Conf.native 1L 2L) prog in
  check_completed r;
  check Alcotest.int "native: no detection" 0 r.race_count

(* ------------------------------------------------------------------ *)
(* Condition variables *)

let producer_consumer () =
  let m = Api.Mutex.create () in
  let c = Api.Cond.create () in
  let q = Api.Var.create 0 in
  let consumed = Api.Var.create 0 in
  let consumer =
    Api.Thread.spawn ~name:"consumer" (fun () ->
        Api.Mutex.lock m;
        while Api.Var.get q = 0 do
          Api.Cond.wait c m
        done;
        Api.Var.set q (Api.Var.get q - 1);
        Api.Var.set consumed 1;
        Api.Mutex.unlock m)
  in
  Api.work 50;
  Api.Mutex.lock m;
  Api.Var.set q 1;
  Api.Cond.signal c;
  Api.Mutex.unlock m;
  Api.Thread.join consumer;
  assert (Api.Var.get consumed = 1);
  Api.Sys_api.print "consumed"

let test_cond_producer_consumer () =
  let prog = Api.program ~name:"prodcons" producer_consumer in
  let r = run prog in
  check_completed r;
  check Alcotest.string "output" "consumed" r.output;
  check Alcotest.int "no races" 0 r.race_count

let test_cond_producer_consumer_many_seeds () =
  (* The signal/wait protocol must work under many schedules. *)
  for i = 1 to 20 do
    let conf = seeded_conf (Int64.of_int i) 77L in
    let prog = Api.program ~name:"prodcons" producer_consumer in
    let r = run ~conf prog in
    check_completed r
  done

let test_cond_broadcast () =
  let prog =
    Api.program ~name:"broadcast" (fun () ->
        let m = Api.Mutex.create () in
        let c = Api.Cond.create () in
        let go = Api.Var.create 0 in
        let ts =
          List.init 3 (fun _ ->
              Api.Thread.spawn (fun () ->
                  Api.Mutex.lock m;
                  while Api.Var.get go = 0 do
                    Api.Cond.wait c m
                  done;
                  Api.Mutex.unlock m))
        in
        Api.work 100;
        Api.Mutex.lock m;
        Api.Var.set go 1;
        Api.Cond.broadcast c;
        Api.Mutex.unlock m;
        List.iter Api.Thread.join ts)
  in
  check_completed (run prog)

let test_timed_wait_times_out () =
  let prog =
    Api.program ~name:"timedwait" (fun () ->
        let m = Api.Mutex.create () in
        let c = Api.Cond.create () in
        Api.Mutex.lock m;
        let res = Api.Cond.timed_wait c m ~ms:5 in
        Api.Mutex.unlock m;
        match res with
        | Api.Timed_out -> Api.Sys_api.print "timeout"
        | Api.Signalled -> Api.Sys_api.print "signalled")
  in
  let r = run prog in
  check_completed r;
  check Alcotest.string "timed out" "timeout" r.output

(* ------------------------------------------------------------------ *)
(* Signals (§4.3) *)

let sig_program () =
  let quit = Api.Atomic.create 0 in
  Api.set_signal_handler 15 (fun () -> Api.Atomic.store quit 1);
  while Api.Atomic.load quit = 0 do
    Api.work 100
  done;
  Api.Sys_api.print "clean exit"

let test_signal_handler_runs () =
  let world = World.create ~seed:5L () in
  World.schedule_signal world ~at:2_000 ~signo:15;
  let r = run ~world (Api.program ~name:"sig" sig_program) in
  check_completed r;
  check Alcotest.string "handler observed" "clean exit" r.output

let test_signal_wakes_blocked_thread () =
  (* Main holds the lock forever; the child blocks on it; the signal
     handler makes the child skip the lock path entirely. *)
  let world = World.create ~seed:5L () in
  World.schedule_signal world ~at:3_000 ~signo:10;
  let prog =
    Api.program ~name:"sigwake" (fun () ->
        let m = Api.Mutex.create () in
        let hit = Api.Atomic.create 0 in
        Api.set_signal_handler 10 (fun () -> Api.Atomic.store hit 1);
        Api.Mutex.lock m;
        let t =
          Api.Thread.spawn (fun () ->
              (* will block; the signal wakeup re-enables it *)
              Api.Mutex.lock m;
              Api.Mutex.unlock m)
        in
        while Api.Atomic.load hit = 0 do
          Api.work 200
        done;
        Api.Mutex.unlock m;
        Api.Thread.join t;
        Api.Sys_api.print "woken")
  in
  let r = run ~world prog in
  check_completed r;
  check Alcotest.string "completed after wake" "woken" r.output

(* ------------------------------------------------------------------ *)
(* Syscalls through the interpreter *)

let client_program () =
  (* The Fig. 2 pattern, simplified: poll, recv, process, send. *)
  let fd =
    (Api.Sys_api.open_ "/etc/data").Syscall.ret
  in
  ignore fd;
  let sock = Api.Sys_api.clock_gettime () in
  ignore sock

let test_syscalls_run () =
  let world = World.create ~seed:3L () in
  World.add_file world ~path:"/etc/data" "payload";
  let r = run ~world (Api.program ~name:"client" client_program) in
  check_completed r

let test_epoll_unsupported_when_recording () =
  let prog =
    Api.program ~name:"epolluser" (fun () ->
        ignore (Api.Sys_api.epoll_wait ~fds:[ 1 ] ~timeout_ms:0))
  in
  (* Free mode: fine. *)
  check_completed (run prog);
  (* Recording: the sparse interposition cannot handle epoll (§5.2). *)
  with_tmpdir @@ fun dir ->
  let conf = seeded_conf ~conf:(Conf.tsan11rec ~mode:(Conf.Record dir) ()) 1L 2L in
  let r = run ~conf prog in
  match r.Interp.outcome with
  | Interp.Unsupported_app _ -> ()
  | _ -> Alcotest.failf "expected unsupported, got %s" (outcome_str r)

(* A syscall or raise tick's label is a constant string: the bytes the
   label always had, and the same string at every tick. *)
let test_static_labels () =
  List.iter
    (fun k ->
      let label () = Api.req_label (Api.Syscall (Syscall.request k)) in
      Alcotest.(check string) "syscall label" ("syscall:" ^ Syscall.kind_to_string k)
        (label ());
      Alcotest.(check bool) "one string per kind" true (label () == label ()))
    Syscall.
      [ Read; Write; Recv; Send; Recvmsg; Sendmsg; Poll; Select; Epoll_wait;
        Accept; Accept4; Bind; Clock_gettime; Ioctl; Open_; Close; Pipe ];
  List.iter
    (fun signo ->
      Alcotest.(check string) "raise label" (Printf.sprintf "raise_sync:%d" signo)
        (Api.req_label (Api.Raise_sync signo)))
    [ -1; 0; 1; 11; 64; 65; 1000 ];
  Alcotest.(check bool) "one string per signal" true
    (Api.req_label (Api.Raise_sync 11) == Api.req_label (Api.Raise_sync 11))

let test_rr_rejects_gpu () =
  let prog =
    Api.program ~name:"gpuuser" (fun () ->
        let fd = (Api.Sys_api.open_ World.gpu_path).Syscall.ret in
        ignore (Api.Sys_api.ioctl ~fd ~code:1 Bytes.empty))
  in
  let r = run ~conf:(seeded_conf ~conf:Conf.rr_model 1L 2L) prog in
  (match r.Interp.outcome with
  | Interp.Unsupported_app _ -> ()
  | _ -> Alcotest.failf "expected rr to reject, got %s" (outcome_str r));
  (* tsan11rec with the games policy sails through. *)
  let conf =
    seeded_conf
      ~conf:(Conf.with_policy (Conf.tsan11rec ()) Policy.games)
      1L 2L
  in
  check_completed (run ~conf prog)

(* ------------------------------------------------------------------ *)
(* Determinism of controlled runs *)

let mixed_program () =
  let a = Api.Atomic.create 0 in
  let m = Api.Mutex.create () in
  let v = Api.Var.create 0 in
  let ts =
    List.init 3 (fun i ->
        Api.Thread.spawn (fun () ->
            Api.work ((i + 1) * 37);
            ignore (Api.Atomic.fetch_add a 1);
            Api.Mutex.with_lock m (fun () -> Api.Var.incr v);
            Api.Atomic.store ~mo:Api.Memord.Release a i))
  in
  List.iter Api.Thread.join ts;
  Api.Sys_api.print (string_of_int (Api.Var.get v))

let test_controlled_runs_deterministic () =
  let go () =
    run
      ~world:(World.create ~seed:11L ())
      ~conf:(seeded_conf 5L 6L)
      (Api.program ~name:"mixed" mixed_program)
  in
  let r1 = go () in
  let r2 = go () in
  check_completed r1;
  check Alcotest.bool "same trace" true (r1.trace = r2.trace);
  check Alcotest.string "same output" r1.output r2.output;
  check Alcotest.int "same draws" r1.rng_draws r2.rng_draws

let test_different_seeds_different_schedules () =
  let go s =
    run
      ~world:(World.create ~seed:11L ())
      ~conf:(seeded_conf s 6L)
      (Api.program ~name:"mixed" mixed_program)
  in
  let traces = List.init 10 (fun i -> (go (Int64.of_int (i + 1))).trace) in
  let distinct = List.sort_uniq compare traces in
  check Alcotest.bool "schedule diversity" true (List.length distinct > 1)

(* ------------------------------------------------------------------ *)
(* Record and replay *)

(* Record [program], replay it on another world, and hand the demo
   directory to [inspect] before it is removed. *)
let record_replay ?(program = Api.program ~name:"mixed" mixed_program)
    ?(strategy = Conf.Queue) ?(env_seed = 11L) ?(replay_env_seed = 999L)
    ?(inspect = ignore) () =
  with_tmpdir @@ fun dir ->
  let rec_conf =
    seeded_conf ~conf:(Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ()) 5L 6L
  in
  let r_rec = run ~world:(World.create ~seed:env_seed ()) ~conf:rec_conf program in
  let rep_conf = Conf.tsan11rec ~strategy ~mode:(Conf.Replay dir) () in
  let r_rep =
    run ~world:(World.create ~seed:replay_env_seed ()) ~conf:rep_conf program
  in
  inspect dir;
  (r_rec, r_rep)

let test_record_replay_queue () =
  let r_rec, r_rep = record_replay ~strategy:Conf.Queue () in
  check_completed r_rec;
  check_completed r_rep;
  check Alcotest.bool "demo present" true (r_rec.demo <> None);
  check Alcotest.bool "identical traces" true (r_rec.trace = r_rep.trace);
  check Alcotest.string "identical output" r_rec.output r_rep.output;
  check Alcotest.bool "synchronised" false r_rep.soft_desync

let test_record_replay_random () =
  let r_rec, r_rep = record_replay ~strategy:Conf.Random () in
  check_completed r_rec;
  check_completed r_rep;
  check Alcotest.bool "identical traces" true (r_rec.trace = r_rep.trace);
  check Alcotest.string "identical output" r_rec.output r_rep.output;
  check Alcotest.bool "synchronised" false r_rep.soft_desync

let test_record_replay_pct () =
  let r_rec, r_rep = record_replay ~strategy:(Conf.Pct 3) () in
  check_completed r_rec;
  check_completed r_rep;
  check Alcotest.bool "identical traces" true (r_rec.trace = r_rep.trace)

let test_demo_files_on_disk () =
  let recorded_ticks = ref (-1) in
  let inspect dir =
    List.iter
      (fun f ->
        check Alcotest.bool f true (Sys.file_exists (Filename.concat dir f)))
      [ "META"; "QUEUE"; "SIGNAL"; "SYSCALL"; "ASYNC" ];
    recorded_ticks := (Demo.load ~dir).Demo.meta.ticks
  in
  let r_rec, _ = record_replay ~strategy:Conf.Queue ~inspect () in
  check Alcotest.int "tick counts agree" r_rec.ticks !recorded_ticks

let syscall_program () =
  (* Reads nondeterministic environment data and prints it: replay is
     only faithful because recv results are recorded. *)
  let fd = (Api.Sys_api.open_ "/proc/seq").Syscall.ret in
  let r = Api.Sys_api.read ~fd ~len:64 in
  Api.Sys_api.print (Bytes.to_string r.Syscall.data)

let test_record_replay_syscalls () =
  let mk_world seed =
    let w = World.create ~seed () in
    World.add_proc_file w ~path:"/proc/seq" (fun rng ->
        Printf.sprintf "%d" (T11r_util.Prng.int rng 1_000_000));
    w
  in
  with_tmpdir @@ fun dir ->
  let program = Api.program ~name:"sysrec" syscall_program in
  let policy = Policy.with_proc in
  let rec_conf =
    Conf.with_policy
      (seeded_conf ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 5L 6L)
      policy
  in
  let r_rec = Interp.run ~world:(mk_world 1L) rec_conf program in
  check_completed r_rec;
  let rep_conf =
    Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ()) policy
  in
  let r_rep = Interp.run ~world:(mk_world 2L) rep_conf program in
  check_completed r_rep;
  check Alcotest.string "recorded data replayed" r_rec.output r_rep.output;
  check Alcotest.bool "synchronised" false r_rep.soft_desync

let test_sparse_policy_soft_desync () =
  (* Same program, but with a policy that does not record file reads:
     replay re-issues the read against a different world and the output
     diverges — a soft desynchronisation (§4). *)
  let mk_world seed =
    let w = World.create ~seed () in
    World.add_proc_file w ~path:"/proc/seq" (fun rng ->
        Printf.sprintf "%d" (T11r_util.Prng.int rng 1_000_000));
    w
  in
  with_tmpdir @@ fun dir ->
  let program = Api.program ~name:"sysrec" syscall_program in
  let rec_conf =
    seeded_conf ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 5L 6L
  in
  let r_rec = Interp.run ~world:(mk_world 1L) rec_conf program in
  check_completed r_rec;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r_rep = Interp.run ~world:(mk_world 2L) rep_conf program in
  check_completed r_rep;
  check Alcotest.bool "soft desync flagged" true r_rep.soft_desync

let test_replay_wrong_program_hard_desyncs () =
  with_tmpdir @@ fun dir ->
  let rec_conf =
    seeded_conf ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 5L 6L
  in
  let r_rec =
    run ~world:(World.create ~seed:11L ()) ~conf:rec_conf
      (Api.program ~name:"mixed" mixed_program)
  in
  check_completed r_rec;
  (* Replay a structurally different program against the same demo. *)
  let other =
    Api.program ~name:"other" (fun () ->
        let a = Api.Atomic.create 0 in
        Api.Atomic.store a 1;
        Api.Atomic.store a 2)
  in
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r_rep = run ~world:(World.create ~seed:12L ()) ~conf:rep_conf other in
  match r_rep.Interp.outcome with
  | Interp.Hard_desync _ | Interp.Deadlock _ -> ()
  | Interp.Completed when r_rep.soft_desync -> ()
  | _ -> Alcotest.failf "expected desync, got %s" (outcome_str r_rep)

let test_record_replay_with_signals () =
  let program = Api.program ~name:"sig" sig_program in
  with_tmpdir @@ fun dir ->
  let world = World.create ~seed:42L () in
  World.schedule_signal world ~at:2_000 ~signo:15;
  let rec_conf =
    seeded_conf ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) 5L 6L
  in
  let r_rec = Interp.run ~world rec_conf program in
  check_completed r_rec;
  let d = Option.get r_rec.demo in
  check Alcotest.int "one SIGNAL entry" 1 (List.length d.Demo.signals);
  (* Replay into a world with NO scheduled signal: the recorded signal
     must still fire (asynchronous became synchronous, §4.3). *)
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r_rep = Interp.run ~world:(World.create ~seed:77L ()) rep_conf program in
  check_completed r_rep;
  check Alcotest.string "same output" r_rec.output r_rep.output;
  check Alcotest.bool "identical traces" true (r_rec.trace = r_rep.trace)

let test_record_replay_signals_random () =
  let program = Api.program ~name:"sig" sig_program in
  with_tmpdir @@ fun dir ->
  let world = World.create ~seed:42L () in
  World.schedule_signal world ~at:2_000 ~signo:15;
  let rec_conf =
    seeded_conf ~conf:(Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Record dir) ()) 5L 6L
  in
  let r_rec = Interp.run ~world rec_conf program in
  check_completed r_rec;
  let rep_conf = Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Replay dir) () in
  let r_rep = Interp.run ~world:(World.create ~seed:77L ()) rep_conf program in
  check_completed r_rep;
  check Alcotest.bool "identical traces" true (r_rec.trace = r_rep.trace)

(* ------------------------------------------------------------------ *)
(* Property: replay fidelity on random programs *)

(* Generate small random concurrent programs over a fixed vocabulary of
   visible operations and check that replaying a queue recording
   reproduces the trace and output exactly. *)

type step = S_atomic_inc | S_atomic_load | S_lock_work | S_print of int | S_work of int

let step_gen =
  QCheck.Gen.(
    oneof
      [
        return S_atomic_inc;
        return S_atomic_load;
        return S_lock_work;
        map (fun i -> S_print i) (int_range 0 99);
        map (fun i -> S_work i) (int_range 1 200);
      ])

let program_gen =
  QCheck.Gen.(list_size (int_range 1 4) (list_size (int_range 1 12) step_gen))

let build_program threads =
  Api.program ~name:"generated" (fun () ->
      let a = Api.Atomic.create 0 in
      let m = Api.Mutex.create () in
      let v = Api.Var.create 0 in
      let run_steps steps =
        List.iter
          (fun s ->
            match s with
            | S_atomic_inc -> ignore (Api.Atomic.fetch_add a 1)
            | S_atomic_load -> ignore (Api.Atomic.load ~mo:Api.Memord.Relaxed a)
            | S_lock_work ->
                Api.Mutex.with_lock m (fun () ->
                    Api.Var.incr v;
                    Api.work 5)
            | S_print i -> Api.Sys_api.print (Printf.sprintf "[%d]" i)
            | S_work n -> Api.work n)
          steps
      in
      let ts =
        List.map (fun steps -> Api.Thread.spawn (fun () -> run_steps steps)) threads
      in
      List.iter Api.Thread.join ts)

let replay_fidelity strategy =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "replay fidelity (%s strategy, random programs)"
         (Conf.strategy_name strategy))
    ~count:60
    (QCheck.make program_gen)
    (fun threads ->
      let program = build_program threads in
      with_tmpdir @@ fun dir ->
      let rec_conf =
        seeded_conf ~conf:(Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ()) 5L 6L
      in
      let r_rec = Interp.run ~world:(World.create ~seed:123L ()) rec_conf program in
      let rep_conf = Conf.tsan11rec ~strategy ~mode:(Conf.Replay dir) () in
      let r_rep = Interp.run ~world:(World.create ~seed:321L ()) rep_conf program in
      r_rec.Interp.outcome = Interp.Completed
      && r_rep.Interp.outcome = Interp.Completed
      && r_rec.trace = r_rep.trace
      && r_rec.output = r_rep.output
      && not r_rep.soft_desync)

(* Schedule-bounding strategies (the paper's future-work extensions). *)

let two_spinners () =
  Api.program ~name:"spinners" (fun () ->
      let a = Api.Atomic.create 0 in
      let worker () = for _ = 1 to 10 do ignore (Api.Atomic.fetch_add a 1) done in
      let t1 = Api.Thread.spawn worker in
      let t2 = Api.Thread.spawn worker in
      Api.Thread.join t1;
      Api.Thread.join t2)

let context_switches trace =
  let rec go prev acc = function
    | [] -> acc
    | (_, tid, _) :: rest ->
        go tid (if tid <> prev && prev >= 0 then acc + 1 else acc) rest
  in
  go (-1) 0 trace

let test_preempt_bounded_zero_is_nonpreemptive () =
  (* With budget 0, a thread keeps running until it blocks or finishes:
     two compute-only workers interleave at block points only. *)
  let r =
    run
      ~conf:(seeded_conf ~conf:(Conf.tsan11rec ~strategy:(Conf.Preempt_bounded 0) ()) 3L 4L)
      (two_spinners ())
  in
  check_completed r;
  check Alcotest.bool
    (Printf.sprintf "few switches (%d)" (context_switches (Interp.trace_list r)))
    true
    (context_switches (Interp.trace_list r) <= 6)

let test_preempt_budget_increases_interleaving () =
  let switches budget seed =
    let r =
      run
        ~conf:
          (seeded_conf
             ~conf:(Conf.tsan11rec ~strategy:(Conf.Preempt_bounded budget) ())
             seed 4L)
        (two_spinners ())
    in
    check_completed r;
    context_switches (Interp.trace_list r)
  in
  let lo = List.init 10 (fun i -> switches 0 (Int64.of_int (i + 1))) in
  let hi = List.init 10 (fun i -> switches 8 (Int64.of_int (i + 1))) in
  let sum = List.fold_left ( + ) 0 in
  check Alcotest.bool "budget adds interleaving" true (sum hi > sum lo)

let test_delay_bounded_zero_is_queue () =
  (* Budget 0 never diverts from FCFS: the schedule matches queue's. *)
  let sched conf =
    let r = run ~conf:(seeded_conf ~conf 3L 4L) (two_spinners ()) in
    check_completed r;
    List.map (fun (tick, tid, _) -> (tick, tid)) (Interp.trace_list r)
  in
  check Alcotest.bool "db:0 == queue schedule" true
    (sched (Conf.tsan11rec ~strategy:(Conf.Delay_bounded 0) ())
    = sched (Conf.tsan11rec ~strategy:Conf.Queue ()))

(* DRF determinism: a data-race-free program computes the same result
   under every strategy and seed — the semantic guarantee that makes
   race-freedom worth having. *)
let drf_programs_deterministic =
  QCheck.Test.make ~name:"race-free programs are schedule-deterministic"
    ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 4)
           (list_of_size Gen.(int_range 1 6) (int_range 1 9)))
        (int_range 1 1000))
    (fun (threads, seed) ->
      let program () =
        Api.program ~name:"drf" (fun () ->
            let m = Api.Mutex.create () in
            let v = Api.Var.create 0 in
            let ts =
              List.map
                (fun deltas ->
                  Api.Thread.spawn (fun () ->
                      List.iter
                        (fun d ->
                          Api.Mutex.with_lock m (fun () ->
                              Api.Var.set v (Api.Var.get v + d)))
                        deltas))
                threads
            in
            List.iter Api.Thread.join ts;
            Api.Sys_api.print (string_of_int (Api.Var.get v)))
      in
      let outputs =
        List.concat_map
          (fun strategy ->
            List.map
              (fun s ->
                let conf =
                  Conf.with_seeds
                    (Conf.tsan11rec ~strategy ())
                    (Int64.of_int (seed * s)) 7L
                in
                let r =
                  Interp.run ~world:(World.create ~seed:3L ()) conf (program ())
                in
                (r.Interp.outcome = Interp.Completed, r.Interp.race_count, r.output))
              [ 1; 13 ])
          [ Conf.Random; Conf.Queue; Conf.Pct 2; Conf.Preempt_bounded 2 ]
      in
      List.length (List.sort_uniq compare outputs) = 1
      && (match outputs with (ok, races, _) :: _ -> ok && races = 0 | [] -> false))

let rr_serializes =
  QCheck.Test.make ~name:"rr makespan >= native makespan" ~count:30
    (QCheck.make program_gen) (fun threads ->
      let go conf =
        Interp.run
          ~world:(World.create ~seed:5L ())
          (seeded_conf ~conf 1L 2L)
          (build_program threads)
      in
      let n = go Conf.native in
      let r = go Conf.rr_model in
      r.Interp.makespan_us >= n.Interp.makespan_us)

(* ------------------------------------------------------------------ *)
(* Invisible operations run inline, charged to the running thread *)

(* What one fiber segment saw of itself before its first visible op:
   [Api.self ()], and the clock advance of a [work 1000] as [Api.now ()]
   reads it. *)
type segment = { mutable seen_self : int; mutable work_us : int }

let segment () = { seen_self = -1; work_us = -1 }

let probe seg =
  seg.seen_self <- Api.self ();
  let t0 = Api.now () in
  Api.work 1000;
  seg.work_us <- Api.now () - t0

let work_1000 = int_of_float (1000. *. (Conf.tsan11rec ()).Conf.invis_mult)

(* The race on [var] was detected by [second], against [first]. *)
let check_race r ~var ~first ~second =
  let found =
    List.exists
      (fun (x : T11r_race.Report.t) ->
        x.var = var && x.first_tid = first && x.second_tid = second)
      r.Interp.races
  in
  if not found then
    Alcotest.failf "no race on %s between thread %d and thread %d" var first
      second

let check_segment seg ~tid =
  check Alcotest.int "self" tid seg.seen_self;
  check Alcotest.int "work advances its clock" work_1000 seg.work_us

(* A spawned child's first segment runs inside its parent's spawn, before
   the parent resumes: the parent's write after the spawn races with it,
   and the child's work must not move the parent's clock. *)
let test_child_first_segment () =
  let seg = segment () and parent_us = ref (-1) in
  let prog =
    Api.program ~name:"child" (fun () ->
        let v = Api.Var.create ~name:"v" 0 in
        let t0 = Api.now () in
        let t =
          Api.Thread.spawn (fun () ->
              probe seg;
              Api.Var.set v 1;
              Api.Atomic.fence Api.Memord.Seq_cst)
        in
        parent_us := Api.now () - t0;
        Api.Var.set v 2;
        Api.Thread.join t)
  in
  let r = run prog in
  check_completed r;
  check_segment seg ~tid:1;
  check Alcotest.bool "child's work not on the parent's clock" true
    (!parent_us < 1000);
  check_race r ~var:"v" ~first:1 ~second:0;
  check Alcotest.int "makespan" 3025 r.makespan_us

(* A signal handler entered as its own critical section runs on the
   victim; the other thread wrote the variable the handler writes. *)
let test_signal_entry_segment () =
  let seg = segment () in
  let world = World.create ~seed:5L () in
  World.schedule_signal world ~at:2_000 ~signo:10;
  let prog =
    Api.program ~name:"sigseg" (fun () ->
        let a = Api.Var.create ~name:"a" 0 and b = Api.Var.create ~name:"b" 0 in
        let flag = Api.Atomic.create 0 in
        Api.set_signal_handler 10 (fun () ->
            probe seg;
            Api.Var.set a 3;
            Api.Var.set b 3;
            Api.Atomic.store flag 1);
        let spin () =
          while Api.Atomic.load flag = 0 do
            Api.work 100
          done
        in
        let t =
          Api.Thread.spawn (fun () ->
              Api.Var.set b 1;
              spin ())
        in
        Api.Var.set a 1;
        spin ();
        Api.Thread.join t)
  in
  let r = run ~world prog in
  check_completed r;
  let victim =
    match List.find_opt (fun (_, _, l) -> l = "sig_entry:10") (Interp.trace_list r) with
    | Some (_, tid, _) -> tid
    | None -> Alcotest.fail "no signal entry in the trace"
  in
  check_segment seg ~tid:victim;
  (* main wrote [a], the child [b]: the handler races on the other's *)
  let var, other = if victim = 0 then ("b", 1) else ("a", 0) in
  check_race r ~var ~first:other ~second:victim;
  check Alcotest.int "makespan" 7137 r.makespan_us

(* A synchronous signal's handler runs on the raising thread. *)
let test_raise_sync_segment () =
  let seg = segment () in
  let prog =
    Api.program ~name:"segv" (fun () ->
        let v = Api.Var.create ~name:"v" 0 in
        Api.set_signal_handler 11 (fun () ->
            probe seg;
            Api.Var.set v 2);
        let t = Api.Thread.spawn (fun () -> Api.raise_sync 11) in
        Api.Var.set v 1;
        Api.Thread.join t)
  in
  let r = run prog in
  check_completed r;
  check_segment seg ~tid:1;
  check_race r ~var:"v" ~first:0 ~second:1;
  check Alcotest.int "makespan" 4300 r.makespan_us

(* Outside any run an invisible call has no handler: it performs its
   effect, which nothing handles. *)
let check_unhandled what =
  match Api.now () with
  | _ -> Alcotest.failf "Api.now () answered %s" what
  | exception Effect.Unhandled _ -> ()

let test_unhandled_after_runs () =
  check_unhandled "outside a run";
  check_completed (run (Api.program ~name:"invis" (fun () -> Api.work 5)));
  check_unhandled "after a completed run";
  (* Replaying a one-thread program on a two-thread recording finds no
     thread 1 where QUEUE schedules it. *)
  let stores n () =
    let a = Api.Atomic.create 0 in
    for i = 1 to n do
      Api.Atomic.store a i
    done
  in
  let r =
    with_tmpdir @@ fun dir ->
    check_completed
      (run
         ~conf:
           (seeded_conf
              ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
              5L 6L)
         (Api.program ~name:"two" (fun () ->
              let t = Api.Thread.spawn (stores 3) in
              stores 3 ();
              Api.Thread.join t)));
    run
      ~conf:(Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
      (Api.program ~name:"one" (stores 8))
  in
  (match r.Interp.outcome with
  | Interp.Hard_desync _ -> ()
  | _ -> Alcotest.failf "expected a hard desync, got %s" (outcome_str r));
  check_unhandled "after a hard desync";
  (* A demo directory under a regular file cannot be created: saving
     the demo raises out of [Interp.run]. *)
  let file = Filename.temp_file "t11r_file" "" in
  let conf =
    seeded_conf
      ~conf:
        (Conf.tsan11rec ~mode:(Conf.Record (Filename.concat file "demo")) ())
      1L 2L
  in
  (match run ~conf (Api.program ~name:"invis" (fun () -> Api.work 5)) with
  | _ -> Alcotest.fail "recording under a regular file succeeded"
  | exception _ -> ());
  Sys.remove file;
  check_unhandled "after a run that raised"

let test_unhandled_on_fresh_domain () =
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           match Api.now () with
           | _ -> false
           | exception Effect.Unhandled _ -> true))
  in
  check Alcotest.bool "fresh domain" true raised

(* ------------------------------------------------------------------ *)
(* Decision capture *)

module Decision = T11r_race.Decision

(* Each workload's guided run (`record W --guided --seed 1' on world
   seed 43, minus the recording), marshalled without sharing and minus
   its demo handle, as the list-built capture produced it before
   captured enabled sets were shared. *)
let guided_run_digests =
  [
    ("barrier", "65bac392b5863b7094deab95046a9bd6");
    ("chase-lev-deque", "8e24ee0f8e5d414541ec55c6596db955");
    ("dekker-fences", "aabf155e820b4567453916bdcbc3d07c");
    ("linuxrwlocks", "fd7e36d0fcbf18497b6939f866ef072f");
    ("mcs-lock", "d0329518a65184cb356e4ae32671c8c4");
    ("mpmc-queue", "8222213f86d62b841cf498650d70e999");
    ("ms-queue", "bfbe391e4850546789ea20fa2bf25b80");
    ("fig1", "f963da3c968986ad87d3451ea55b94f2");
    ("fig2-client", "c00370ac4820617951254d96bf22c21a");
    ("httpd", "95048d95fb92808655586b0e1785a4b6");
    ("pbzip", "df65479772662deceb052a465c5c9ecf");
    ("blackscholes", "755e278e47cc0c23eae732c48eb97b30");
    ("fluidanimate", "d31d5e53f0ea600c9c87a19a3cffb583");
    ("streamcluster", "9a30e0650fa1cabb423579d88092ca96");
    ("bodytrack", "13221045acf9e7d0388cfe906bfbb10a");
    ("ferret", "12d151ac9b3407acfeaddc446ff19a1a");
    ("quakespasm", "19c34c603d2aece07650e71889d89f1e");
    ("zandronum", "1318a051004ada3412f542f294eb7c7d");
    ("zandronum-bug", "298cd428be1b83358ca23e1d1afa0886");
    ("sqlite-like", "c9936f21018b53f59145510b82f48c7b");
    ("htop-like", "56643f6ab926774d0bf32069b735c7ac");
  ]

(* On every workload's guided run: consecutive decisions with equal
   enabled sets share one array; decisions come in tick order (the
   k-th picks the guided prefix's k-th index from its own enabled set)
   and accesses in nondecreasing tick order; and the result is the
   same bytes as the list-built capture's. *)
let test_decision_capture () =
  let module W = T11r_harness.Workloads in
  check
    Alcotest.(list string)
    "every workload pinned" (W.names ())
    (List.map fst guided_run_digests);
  List.iter
    (fun (w : W.t) ->
      let name = w.W.w_name in
      let prefix = T11r_harness.Predictor.recording_prefix 1 in
      let conf =
        Conf.with_seeds
          (Conf.tsan11rec ~strategy:(Conf.Guided { prefix; observed = ref [] }) ())
          1L 7920L
      in
      let r = Golden.run_workload w ~world_seed:43L conf in
      let ds = r.Interp.decisions in
      check Alcotest.int (name ^ ": a decision per tick") r.Interp.ticks
        (Array.length ds);
      Array.iteri
        (fun k (d : Decision.t) ->
          let want =
            if k < Array.length prefix then
              min prefix.(k) (Array.length d.Decision.d_enabled - 1)
            else 0
          in
          if Decision.index_of d.Decision.d_tid d.Decision.d_enabled <> want
          then Alcotest.failf "%s: decision %d is not the guided pick" name k;
          if k > 0 then begin
            let prev = ds.(k - 1).Decision.d_enabled in
            if d.Decision.d_enabled = prev && d.Decision.d_enabled != prev then
              Alcotest.failf "%s: decision %d copies an equal enabled set" name
                k
          end)
        ds;
      ignore
        (Array.fold_left
           (fun last (a : Decision.acc) ->
             if a.Decision.a_tick < last || a.Decision.a_tick >= Array.length ds
             then Alcotest.failf "%s: access at tick %d out of order" name
                 a.Decision.a_tick;
             a.Decision.a_tick)
           0 r.Interp.accesses);
      check Alcotest.string (name ^ ": result bytes")
        (List.assoc name guided_run_digests)
        (Golden.result_digest r))
    W.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "interp"
    [
      ( "decisions",
        [
          Alcotest.test_case "capture shares equal enabled sets, list-built bytes"
            `Quick test_decision_capture;
        ] );
      ( "basics",
        [
          Alcotest.test_case "trivial" `Quick test_trivial_program;
          Alcotest.test_case "invisible only" `Quick test_invisible_only;
          Alcotest.test_case "work time" `Quick test_work_advances_time;
          Alcotest.test_case "spawn/join" `Quick test_spawn_join;
          Alcotest.test_case "many threads" `Quick test_many_threads;
          Alcotest.test_case "crash" `Quick test_crash_propagates;
          Alcotest.test_case "generated names" `Quick test_generated_names;
        ] );
      ( "mutex",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "trylock" `Quick test_trylock;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "unsync races" `Quick test_unsync_counter_races;
          Alcotest.test_case "native no detection" `Quick test_native_detects_nothing;
        ] );
      ( "cond",
        [
          Alcotest.test_case "producer/consumer" `Quick test_cond_producer_consumer;
          Alcotest.test_case "many seeds" `Quick test_cond_producer_consumer_many_seeds;
          Alcotest.test_case "broadcast" `Quick test_cond_broadcast;
          Alcotest.test_case "timed wait" `Quick test_timed_wait_times_out;
        ] );
      ( "signals",
        [
          Alcotest.test_case "handler runs" `Quick test_signal_handler_runs;
          Alcotest.test_case "wakes blocked" `Quick test_signal_wakes_blocked_thread;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "basic" `Quick test_syscalls_run;
          Alcotest.test_case "epoll unsupported" `Quick test_epoll_unsupported_when_recording;
          Alcotest.test_case "rr rejects gpu" `Quick test_rr_rejects_gpu;
          Alcotest.test_case "static labels" `Quick test_static_labels;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seeds same run" `Quick test_controlled_runs_deterministic;
          Alcotest.test_case "seed diversity" `Quick test_different_seeds_different_schedules;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "queue roundtrip" `Quick test_record_replay_queue;
          Alcotest.test_case "random roundtrip" `Quick test_record_replay_random;
          Alcotest.test_case "pct roundtrip" `Quick test_record_replay_pct;
          Alcotest.test_case "demo files" `Quick test_demo_files_on_disk;
          Alcotest.test_case "syscalls replayed" `Quick test_record_replay_syscalls;
          Alcotest.test_case "sparse soft desync" `Quick test_sparse_policy_soft_desync;
          Alcotest.test_case "wrong program hard desync" `Quick
            test_replay_wrong_program_hard_desyncs;
          Alcotest.test_case "signals queue" `Quick test_record_replay_with_signals;
          Alcotest.test_case "signals random" `Quick test_record_replay_signals_random;
        ] );
      ( "bounding",
        [
          Alcotest.test_case "pb:0 non-preemptive" `Quick
            test_preempt_bounded_zero_is_nonpreemptive;
          Alcotest.test_case "pb budget interleaves" `Quick
            test_preempt_budget_increases_interleaving;
          Alcotest.test_case "db:0 is queue" `Quick test_delay_bounded_zero_is_queue;
        ] );
      ( "charging",
        [
          Alcotest.test_case "child first segment" `Quick test_child_first_segment;
          Alcotest.test_case "signal entry" `Quick test_signal_entry_segment;
          Alcotest.test_case "raise_sync handler" `Quick test_raise_sync_segment;
        ] );
      ( "inline",
        [
          Alcotest.test_case "unhandled after runs" `Quick test_unhandled_after_runs;
          Alcotest.test_case "unhandled on fresh domain" `Quick
            test_unhandled_on_fresh_domain;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest (replay_fidelity Conf.Queue);
          QCheck_alcotest.to_alcotest (replay_fidelity Conf.Random);
          QCheck_alcotest.to_alcotest (replay_fidelity (Conf.Pct 3));
          QCheck_alcotest.to_alcotest (replay_fidelity (Conf.Delay_bounded 3));
          QCheck_alcotest.to_alcotest (replay_fidelity (Conf.Preempt_bounded 3));
          QCheck_alcotest.to_alcotest drf_programs_deterministic;
          QCheck_alcotest.to_alcotest rr_serializes;
        ] );
    ]
