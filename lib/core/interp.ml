open T11r_util
open Effect.Deep
module Api = T11r_vm.Api
module Syscall = T11r_vm.Syscall
module Atomics = T11r_mem.Atomics
module Tstate = T11r_mem.Tstate
module Detector = T11r_race.Detector
module Lockorder = T11r_race.Lockorder
module Coverage = T11r_race.Coverage
module Decision = T11r_race.Decision
module World = T11r_env.World
module Trace = T11r_obs.Trace
module Metrics = T11r_obs.Metrics

type outcome =
  | Completed
  | Deadlock of int list
  | Crashed of int * string
  | Hard_desync of string
  | Unsupported_app of string
  | App_error of string
  | Tick_limit
  | Timeout
  | Corrupt_demo of string

type divergence = {
  div_tick : int;
  div_tid : int;
  div_site : string;
  div_expected : string;
  div_actual : string;
  div_trail : (int * int * string) list;
}

type result = {
  outcome : outcome;
  makespan_us : int;
  ticks : int;
  races : T11r_race.Report.t list;
  race_count : int;
  lock_cycles : Lockorder.cycle list;
  trace_divergence : string option;
  output : string;
  soft_desync : bool;
  demo : Demo.t option;
  trace : (int * int * string) list;
  thread_names : (int * string) list;
  rng_draws : int;
  desync_count : int;
  divergences : divergence list;
  metrics : Metrics.t;
  events : Trace.event list;
  events_dropped : int;
  coverage : T11r_race.Coverage.summary;
  decisions : Decision.t array;
  accesses : Decision.acc array;
}

exception Hard of string
exception Unsupported_run of string
exception Diagnosed of divergence

(* A constant constructor for "no parked request", so parking one
   allocates only the [P] block. *)
type pending =
  | No_request : pending
  | P : 'a Api.req * ('a, unit) continuation -> pending

type cw_stage = Cw_waiting | Cw_relock

type cwait = {
  cw_cond : int;
  cw_mutex : Api.mutex;
  cw_expiry : int option;
  mutable cw_stage : cw_stage;
  mutable cw_result : Api.timeout_result;
}

type block_reason =
  | On_mutex of int
  | On_join of int
  | On_cond of int
  | On_rwlock of int

type status = Ready | Disabled of block_reason | Done | Dead of string

type thread = {
  tid : int;
  mutable tname : string;
  tst : Tstate.t;
  mutable status : status;
  mutable pending : pending;
  mutable shelved : pending list;
  mutable arrival : int;
  mutable ltime : int;
  mutable invis_acc : int;  (* invisible µs since last visible op (rr) *)
  mutable cwait : cwait option;
  mutable sigq : int list;
  mutable last_tick : int;
  mutable disabled_at : int;
  mutable priority : int;  (* PCT strategy *)
  mutable self : thread option;
      (* [Some] of this record, allocated once: [tvec]'s cell and what
         [ctx.cur] points at while the thread runs *)
}

type mstate = { mutable owner : int option; mutable m_clock : Vclock.t }
type cstate = { mutable c_clock : Vclock.t }

type rwstate = {
  mutable rw_readers : int list;  (* tids currently holding read locks *)
  mutable rw_writer : int option;
  mutable rw_clock : Vclock.t;
}

type ctx = {
  conf : Conf.t;
  world : World.t;
  mem : Atomics.t;
  det : Detector.t;
  lockorder : Lockorder.t;
  rng : Prng.t;
  choose : int -> int;  (* scheduler PRNG draw, shared with the memory model *)
  mutable tvec : thread option array;  (* index = tid; dense, threads never leave *)
  mutable ready_scratch : int array;  (* tids of the runnable threads *)
  mutable ready_n : int;
  mutable next_tid : int;
  mutable next_obj : int;
  mutexes : (int, mstate) Hashtbl.t;
  conds : (int, cstate) Hashtbl.t;
  rwlocks : (int, rwstate) Hashtbl.t;
  handlers : (int, unit -> unit) Hashtbl.t;
  fd_classes : (int, Policy.fd_class) Hashtbl.t;
  mutable gclock : int;
  mutable makespan : int;
  mutable tick : int;
  deadline_at : float;  (* Unix.gettimeofday () cutoff; infinity = none *)
  mutable cur : thread option;
  (* The trace log: tick [i]'s critical section ran thread
     [tr_tids.(i)] as [tr_labels.(i)], for [i < tr_n] (every tick logs
     exactly one, see [log_trace]). Arena storage, so a run logs
     without allocating; [finish] builds the result's list. *)
  mutable tr_tids : int array;
  mutable tr_labels : string array;
  mutable tr_n : int;
  (* recording *)
  mutable rec_signals : Demo.signal_entry list;  (* reversed *)
  mutable rec_syscalls : Demo.syscall_entry list;  (* reversed *)
  mutable rec_asyncs : Demo.async_entry list;  (* reversed *)
  (* replay *)
  replay : Demo.t option;
  rep_queue_next : (int, int) Hashtbl.t;
  mutable rep_queue_list : int list;
  mutable rep_signals : Demo.signal_entry list;
  mutable rep_syscalls : Demo.syscall_entry list;
  mutable rep_asyncs : Demo.async_entry list;
  mutable finished : outcome option;
  (* schedule-bounding strategies *)
  mutable strat_budget : int;  (* remaining delays / preemptions *)
  mutable last_sched : int;  (* tid of the previously scheduled thread *)
  (* desync recovery *)
  mutable desync_count : int;
  mutable desyncs : divergence list;  (* first 64, reversed *)
  (* observability *)
  obs : Trace.t;  (* Trace.disabled unless conf.trace_events *)
  cov : Coverage.t;  (* Coverage.disabled unless conf.coverage *)
  mutable last_cs_start : int;  (* start of the current critical section *)
  mutable waits : int;
  mutable preemptions : int;
  mutable faults_seen : int;  (* World.faults_injected already traced *)
  (* decision capture for systematic exploration (Guided strategy only) *)
  dec_on : bool;
  mutable decisions : Decision.t list;  (* reversed *)
  mutable dec_rand : bool;  (* current op drew among >= 2 live waiters *)
  mutable dec_lock : Decision.lock_event;  (* current op's lock transition *)
  mutable dec_counts : int array;  (* per-tid executed visible ops *)
  mutable dec_accs : Decision.acc list;  (* reversed *)
}

let thread_opt ctx tid =
  if tid >= 0 && tid < ctx.next_tid then ctx.tvec.(tid) else None

(* Creation order = ascending tid (tids are assigned sequentially). *)
let threads_in_order ctx =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        (match ctx.tvec.(i) with Some t -> t :: acc | None -> acc)
  in
  go (ctx.next_tid - 1) []

let alive ctx =
  List.filter
    (fun t -> match t.status with Done | Dead _ -> false | _ -> true)
    (threads_in_order ctx)

(* Refresh the scratch array of runnable tids (ascending — the same
   order the old ready-list was built in). An int array, so a tick
   stores no pointer here and allocates nothing. The scratch is a
   snapshot: replayed async wakeups during the pick intentionally do
   not refresh it (matching the recorder, which drew from the
   pre-wakeup enabled set). *)
let fill_ready ctx =
  if Array.length ctx.ready_scratch < ctx.next_tid then
    ctx.ready_scratch <- Array.make (max 8 (2 * ctx.next_tid)) 0;
  let n = ref 0 in
  for tid = 0 to ctx.next_tid - 1 do
    match ctx.tvec.(tid) with
    | Some t when t.status = Ready ->
        ctx.ready_scratch.(!n) <- tid;
        incr n
    | _ -> ()
  done;
  ctx.ready_n <- !n

let rget ctx i =
  match ctx.tvec.(ctx.ready_scratch.(i)) with Some t -> t | None -> assert false
let is_replay ctx = ctx.replay <> None
let is_record ctx = match ctx.conf.mode with Conf.Record _ -> true | _ -> false
let draw ctx n = if n <= 0 then 0 else Prng.int ctx.rng n

(* A draw whose value picks among [n] live alternatives (waiter wakes).
   With [n >= 2] the choice is behaviour-relevant, so decision capture
   marks the current visible op as randomized — the DPOR dependence
   relation then keeps it ordered against every other draw-consuming
   op, which pins its position in the PRNG stream. *)
let draw_pick ctx n =
  if ctx.dec_on && n >= 2 then ctx.dec_rand <- true;
  draw ctx n
let hard ctx msg = raise (Hard (Printf.sprintf "tick %d: %s" ctx.tick msg))

(* Append the current tick's critical section to the trace log,
   doubling its arrays when full. Every tick runs exactly one critical
   section, and each logs once ([note_cs]), so entry [n] is tick [n];
   the assertion keeps the log from storing the tick. *)
let log_trace ctx tid label =
  let n = ctx.tr_n in
  assert (n = ctx.tick);
  if n = Array.length ctx.tr_tids then begin
    let cap = max 64 (2 * n) in
    let tids = Array.make cap 0 and labels = Array.make cap "" in
    Array.blit ctx.tr_tids 0 tids 0 n;
    Array.blit ctx.tr_labels 0 labels 0 n;
    ctx.tr_tids <- tids;
    ctx.tr_labels <- labels
  end;
  ctx.tr_tids.(n) <- tid;
  ctx.tr_labels.(n) <- label;
  ctx.tr_n <- n + 1

(* Log entries [from, tr_n) as [f tick tid label], in order; built back
   to front, so each element is one cons. *)
let map_trace ?(from = 0) ctx f =
  let acc = ref [] in
  for i = ctx.tr_n - 1 downto from do
    acc := f i ctx.tr_tids.(i) ctx.tr_labels.(i) :: !acc
  done;
  !acc

let trace_entry tick tid label = (tick, tid, label)
let trace_line tick tid label = Printf.sprintf "%d %d %s" tick tid label

(* Note a replay divergence at [site] (QUEUE/SYSCALL/SIGNAL/ASYNC).
   What happens next depends on the configured desync mode: [Abort]
   raises {!Hard} exactly as the paper prescribes; [Diagnose] raises
   {!Diagnosed} carrying a structured report; [Resync] records the
   divergence and *returns*, so the call site applies its best-effort
   recovery (skip the recorded event, or pad with a live one). *)
let diverge ctx ~tid ~site ~expected ~actual =
  Trace.emit ctx.obs Trace.Desync ~tick:ctx.tick ~tid ~label:site
    ~ts:ctx.gclock ~dur:0;
  match ctx.conf.Conf.on_desync with
  | Conf.Abort ->
      hard ctx (Printf.sprintf "%s expects %s, got %s" site expected actual)
  | Conf.Diagnose ->
      let trail = map_trace ~from:(max 0 (ctx.tr_n - 8)) ctx trace_entry in
      raise
        (Diagnosed
           {
             div_tick = ctx.tick;
             div_tid = tid;
             div_site = site;
             div_expected = expected;
             div_actual = actual;
             div_trail = trail;
           })
  | Conf.Resync ->
      ctx.desync_count <- ctx.desync_count + 1;
      if ctx.desync_count <= 64 then
        ctx.desyncs <-
          {
            div_tick = ctx.tick;
            div_tid = tid;
            div_site = site;
            div_expected = expected;
            div_actual = actual;
            div_trail = [];
          }
          :: ctx.desyncs

(* ------------------------------------------------------------------ *)
(* Fibers                                                               *)

let crash ctx t msg =
  t.status <- Dead msg;
  t.pending <- No_request;
  if ctx.finished = None then ctx.finished <- Some (Crashed (t.tid, msg))

(* Re-enable every thread blocked for [reason] (a finished thread's
   joiners, an unlocked rwlock's waiters). *)
let wake_all ctx reason ~at =
  for i = 0 to ctx.next_tid - 1 do
    match ctx.tvec.(i) with
    | Some ({ status = Disabled r; _ } as w) when r = reason ->
        w.status <- Ready;
        w.arrival <- max w.arrival at
    | _ -> ()
  done

let fiber_handler ctx t ~on_return =
  {
    retc = (fun () -> on_return ());
    exnc =
      (fun e ->
        match e with
        | Hard _ | Unsupported_run _ | Diagnosed _ -> raise e
        | e -> crash ctx t (Printexc.to_string e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Api.Op r ->
            Some (fun (k : (a, _) continuation) -> t.pending <- P (r, k))
        | _ -> None);
  }

let arrival_jitter ctx =
  if ctx.conf.queue_jitter_us > 0 && not (is_replay ctx) then
    World.jitter ctx.world ctx.conf.queue_jitter_us
  else 0

let fresh_obj ctx =
  let id = ctx.next_obj in
  ctx.next_obj <- id + 1;
  id

(* Run the thread's invisible requests inline until it parks on a
   visible request, finishes, or crashes. *)
let rec pump ctx t =
  match (t.status, t.pending) with
  | (Done | Dead _), _ | _, No_request -> ()
  | _, P (r, k) ->
      if Api.visible r then t.arrival <- t.ltime + arrival_jitter ctx
      else begin
        t.pending <- No_request;
        let prev = ctx.cur in
        ctx.cur <- t.self;
        handle_invisible ctx t r k;
        ctx.cur <- prev;
        pump ctx t
      end

and handle_invisible : type a.
    ctx -> thread -> a Api.req -> (a, unit) continuation -> unit =
 fun ctx t r k ->
  let conf = ctx.conf in
  let spend us =
    t.ltime <- t.ltime + us;
    t.invis_acc <- t.invis_acc + us
  in
  match r with
  | Api.New_atomic (name, init) ->
      continue k { Api.a_loc = Atomics.fresh_loc ctx.mem ~name ~init }
  | Api.New_var (name, init) ->
      continue k { Api.v_var = Detector.fresh_var ctx.det ~name; v_val = init }
  | Api.New_mutex name ->
      let id = fresh_obj ctx in
      Hashtbl.replace ctx.mutexes id { owner = None; m_clock = Vclock.empty };
      continue k { Api.mu_id = id; mu_name = name }
  | Api.New_cond name ->
      let id = fresh_obj ctx in
      Hashtbl.replace ctx.conds id { c_clock = Vclock.empty };
      continue k { Api.cv_id = id; cv_name = name }
  | Api.New_rwlock name ->
      let id = fresh_obj ctx in
      Hashtbl.replace ctx.rwlocks id
        { rw_readers = []; rw_writer = None; rw_clock = Vclock.empty };
      continue k { Api.rw_id = id; rw_name = name }
  | Api.Var_load v ->
      if conf.race_detection then begin
        Detector.read ctx.det v.Api.v_var ~st:t.tst;
        spend conf.var_cost
      end;
      continue k v.Api.v_val
  | Api.Var_store (v, x) ->
      if conf.race_detection then begin
        Detector.write ctx.det v.Api.v_var ~st:t.tst;
        spend conf.var_cost
      end;
      v.Api.v_val <- x;
      continue k ()
  | Api.Work us ->
      spend (int_of_float (float_of_int us *. conf.invis_mult));
      continue k ()
  | Api.Work_mem (us, accesses) ->
      spend
        (int_of_float (float_of_int us *. conf.invis_mult)
        + (accesses * conf.var_cost));
      continue k ()
  | Api.Sleep ms ->
      (* Sleeping is not slowed by instrumentation. *)
      spend (ms * 1000);
      continue k ()
  | Api.Self -> continue k t.tid
  | Api.Now -> continue k t.ltime
  | Api.Alloc n -> continue k (World.alloc ctx.world n)
  | _ -> assert false (* visible requests never reach handle_invisible *)

let start_fiber ctx t f ~on_return = match_with f () (fiber_handler ctx t ~on_return)

let new_thread ctx ~name ~parent_st ~at body =
  let tid = ctx.next_tid in
  ctx.next_tid <- tid + 1;
  if tid >= Array.length ctx.tvec then begin
    let a = Array.make (max 8 (2 * Array.length ctx.tvec)) None in
    Array.blit ctx.tvec 0 a 0 (Array.length ctx.tvec);
    ctx.tvec <- a
  end;
  let t =
    match ctx.tvec.(tid) with
    | Some t ->
        (* Recycled record from a previous run on this arena (slot
           [tid] always holds the thread with that tid, so the
           immutable [tid] field is already right). Every other field
           is re-initialised to the fresh-record values; the previous
           run's parked continuation (if any) is dropped, exactly as a
           fresh run drops it by never referencing it. *)
        (match parent_st with
        | Some p -> Tstate.reinit_fork t.tst ~parent:p ~tid
        | None -> Tstate.reinit t.tst ~tid);
        t.tname <- name;
        t.status <- Ready;
        t.pending <- No_request;
        t.shelved <- [];
        t.arrival <- at;
        t.ltime <- at;
        t.invis_acc <- 0;
        t.cwait <- None;
        t.sigq <- [];
        t.last_tick <- -1;
        t.disabled_at <- -1;
        t.priority <- 0;
        t
    | None ->
        let tst =
          match parent_st with
          | Some p -> Tstate.fork ~parent:p ~tid
          | None -> Tstate.create ~tid
        in
        let t =
          {
            tid;
            tname = name;
            tst;
            status = Ready;
            pending = No_request;
            shelved = [];
            arrival = at;
            ltime = at;
            invis_acc = 0;
            cwait = None;
            sigq = [];
            last_tick = -1;
            disabled_at = -1;
            priority = 0;
            self = None;
          }
        in
        t.self <- Some t;
        ctx.tvec.(tid) <- t.self;
        t
  in
  t.priority <- draw ctx 1_000_000;
  let on_return () =
    t.status <- Done;
    t.pending <- No_request;
    wake_all ctx (On_join t.tid) ~at:t.ltime
  in
  start_fiber ctx t body ~on_return;
  pump ctx t;
  t

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)

let record_async ctx kind =
  if is_record ctx then
    ctx.rec_asyncs <- { Demo.a_tick = ctx.tick; a_kind = kind } :: ctx.rec_asyncs

let deliver_signal ctx t signo =
  t.sigq <- t.sigq @ [ signo ];
  (* Waking a disabled victim is an asynchronous event of its own
     (§4.5): recorded in ASYNC when it happens, and — crucially — on
     replay it happens only when the recorded event says so, not at
     delivery, so the enabled set evolves exactly as recorded. *)
  if not (is_replay ctx) then
    match t.status with
    | Disabled _ ->
        t.status <- Ready;
        t.arrival <- max t.arrival ctx.gclock;
        record_async ctx (Demo.Signal_wakeup t.tid)
    | _ -> ()

(* Record/free mode: deliver environment signals whose arrival time has
   passed, each to a PRNG-chosen victim thread (§4.3). *)
let poll_env_signals ctx =
  if not (is_replay ctx) then begin
    let continue_ = ref true in
    while !continue_ do
      match World.next_signal ctx.world ~upto:ctx.gclock with
      | None -> continue_ := false
      | Some (_at, signo) -> (
          match alive ctx with
          | [] -> continue_ := false
          | candidates ->
              (* Which thread the kernel interrupts is environmental
                 nondeterminism: drawn from the world's PRNG, never the
                 scheduler's, so the recorded stream of scheduler draws
                 is position-identical on replay. *)
              let victim =
                List.nth candidates
                  (World.jitter ctx.world (List.length candidates))
              in
              if is_record ctx then
                ctx.rec_signals <-
                  {
                    Demo.s_tid = victim.tid;
                    s_tick = victim.last_tick;
                    s_signo = signo;
                  }
                  :: ctx.rec_signals;
              deliver_signal ctx victim signo)
    done
  end

(* Replay mode: take the recorded signals [due] selects off the stream
   and deliver each to its victim. *)
let deliver_recorded_signals ctx due =
  let mine, rest = List.partition due ctx.rep_signals in
  ctx.rep_signals <- rest;
  List.iter
    (fun (s : Demo.signal_entry) ->
      match thread_opt ctx s.s_tid with
      | Some t -> deliver_signal ctx t s.s_signo
      | None ->
          (* Resync: drop the undeliverable signal. *)
          diverge ctx ~tid:s.s_tid ~site:"SIGNAL"
            ~expected:(Printf.sprintf "thread %d to deliver signal %d to"
                         s.s_tid s.s_signo)
            ~actual:"no such thread")
    mine

(* Replay mode: deliver recorded signals pinned to the critical section
   [tid] just completed at [tickno] ("the signal floats to the end of
   Tick()", Fig. 6). *)
let replay_signals_after_cs ctx ~tickno ~tid =
  if is_replay ctx then
    deliver_recorded_signals ctx (fun (s : Demo.signal_entry) ->
        s.s_tick = tickno && s.s_tid = tid)

(* Replay mode: signals recorded before their victim's first critical
   section carry tick -1 and are delivered up front. *)
let replay_initial_signals ctx =
  if is_replay ctx then
    deliver_recorded_signals ctx (fun (s : Demo.signal_entry) -> s.s_tick = -1)

(* ------------------------------------------------------------------ *)
(* Strategies                                                           *)

(* Replay: apply async events recorded for the upcoming tick; returns
   the number of Reschedule events (each cost the recorder one redraw). *)
let replay_asyncs_for_tick ctx =
  match ctx.replay with
  | None -> 0
  | Some _ ->
      let mine, rest =
        List.partition
          (fun (a : Demo.async_entry) -> a.a_tick = ctx.tick)
          ctx.rep_asyncs
      in
      ctx.rep_asyncs <- rest;
      let rescheds = ref 0 in
      List.iter
        (fun (a : Demo.async_entry) ->
          match a.a_kind with
          | Demo.Reschedule -> incr rescheds
          | Demo.Signal_wakeup tid -> (
              match thread_opt ctx tid with
              | Some t -> (
                  match t.status with
                  | Disabled _ ->
                      t.status <- Ready;
                      t.arrival <- ctx.gclock
                  | _ -> ())
              | None ->
                  (* Resync: drop the wakeup. *)
                  diverge ctx ~tid ~site:"ASYNC"
                    ~expected:(Printf.sprintf "thread %d to wake" tid)
                    ~actual:"no such thread"))
        mine;
      !rescheds

(* Draw a runnable thread; redraw (at most [budget] more times) while
   the drawn one is still [resched_us] past the clock, each redraw
   advancing the clock and recorded as a Reschedule. *)
let rec draw_arrived ctx ~resched_us budget =
  let t = rget ctx (draw ctx ctx.ready_n) in
  if budget > 0 && resched_us > 0 && t.arrival > ctx.gclock + resched_us then begin
    record_async ctx Demo.Reschedule;
    ctx.gclock <- ctx.gclock + resched_us;
    draw_arrived ctx ~resched_us (budget - 1)
  end
  else t

let pick_random ctx =
  let n = ctx.ready_n in
  let resched_us = ctx.conf.resched_ms * 1000 in
  if is_replay ctx then begin
    let rescheds = replay_asyncs_for_tick ctx in
    for _ = 1 to rescheds do
      ignore (draw ctx n);
      ctx.gclock <- ctx.gclock + resched_us
    done;
    rget ctx (draw ctx n)
  end
  else draw_arrived ctx ~resched_us 64

let pick_pct ctx =
  (* PCT-flavoured strategy (the paper's future work): highest priority
     runs; with small probability the chosen thread's priority drops.
     Two draws per tick keep the PRNG stream schedule-independent. *)
  ignore (replay_asyncs_for_tick ctx);
  let best = ref (rget ctx 0) in
  for i = 1 to ctx.ready_n - 1 do
    let t = rget ctx i in
    if t.priority > !best.priority then best := t
  done;
  let t = !best in
  let u = draw ctx 1000 in
  let v = draw ctx 1_000_000 in
  if u < 25 then t.priority <- -v;
  t

(* Index in the scratch of the (arrival, tid)-minimal runnable thread,
   optionally restricted to already-arrived threads; -1 if none. The
   scratch is tid-ascending, so keeping the first of equal arrivals
   reproduces the old list-fold's tie-break. *)
let fifo_best ctx ~arrived_only =
  let best = ref (-1) in
  for i = 0 to ctx.ready_n - 1 do
    let t = rget ctx i in
    if (not arrived_only) || t.arrival <= ctx.gclock then
      if !best < 0 || t.arrival < (rget ctx !best).arrival then best := i
  done;
  !best

(* The free-mode FIFO pick, also the Resync fallback when the QUEUE
   stream no longer matches the run. *)
let pick_fifo ctx =
  match fifo_best ctx ~arrived_only:true with
  | i when i >= 0 -> rget ctx i
  | _ ->
      (* Idle until the first thread finishes its invisible region.
         Advance by the un-jittered clock so recorded timings are
         reproducible on replay. *)
      let t = rget ctx (fifo_best ctx ~arrived_only:false) in
      ctx.gclock <- max ctx.gclock t.ltime;
      t

let pick_queue ctx =
  match ctx.replay with
  | Some _ -> (
      ignore (replay_asyncs_for_tick ctx);
      let expected =
        Hashtbl.fold
          (fun tid next acc -> if next = ctx.tick then Some tid else acc)
          ctx.rep_queue_next None
      in
      match expected with
      | None ->
          diverge ctx ~tid:(-1) ~site:"QUEUE"
            ~expected:"a thread scheduled for this tick" ~actual:"none";
          pick_fifo ctx
      | Some tid -> (
          match thread_opt ctx tid with
          | None ->
              diverge ctx ~tid ~site:"QUEUE"
                ~expected:(Printf.sprintf "thread %d to schedule" tid)
                ~actual:"no such thread";
              pick_fifo ctx
          | Some t ->
              if t.status <> Ready then begin
                diverge ctx ~tid ~site:"QUEUE"
                  ~expected:(Printf.sprintf "thread %d enabled" tid)
                  ~actual:"thread is blocked or gone";
                pick_fifo ctx
              end
              else t))
  | None -> pick_fifo ctx

(* Delay bounding (Emmi et al.): follow the deterministic FCFS order,
   but up to [d] times take the second-in-line instead of the head.
   The resulting schedule depends on physical arrival order, so — like
   the queue strategy — it is recorded in the QUEUE file and enforced
   on replay. *)
let pick_delay_bounded ctx =
  match ctx.replay with
  | Some _ ->
      let t = pick_queue ctx in
      (* Mirror the recorder's delay draw so the PRNG stream (which the
         memory model also reads) stays aligned. *)
      if ctx.ready_n >= 2 then ignore (draw ctx 1000);
      t
  | None -> (
      let enabled = List.init ctx.ready_n (rget ctx) in
      let sorted =
        List.sort
          (fun a b -> compare (a.arrival, a.tid) (b.arrival, b.tid))
          enabled
      in
      match sorted with
      | [] -> assert false
      | [ t ] ->
          ctx.gclock <- max ctx.gclock t.ltime;
          t
      | head :: second :: _ ->
          let u = draw ctx 1000 in
          let t =
            if ctx.strat_budget > 0 && u < 150 then begin
              ctx.strat_budget <- ctx.strat_budget - 1;
              second
            end
            else head
          in
          ctx.gclock <- max ctx.gclock t.ltime;
          t)

(* Preemption bounding (Musuvathi & Qadeer): run the current thread
   without preemption; switching at a blocking point is free, but at
   most [b] switches may happen while the current thread could still
   run. Purely PRNG-driven, so the seeds alone replay it. *)
let pick_preempt_bounded ctx =
  ignore (replay_asyncs_for_tick ctx);
  let cur = ref None in
  (let i = ref 0 in
   while !cur = None && !i < ctx.ready_n do
     let t = rget ctx !i in
     if t.tid = ctx.last_sched then cur := Some t;
     incr i
   done);
  let t =
    match !cur with
    | Some cur ->
        let u = draw ctx 1000 in
        if ctx.strat_budget > 0 && u < 200 then begin
          match
            List.filter
              (fun x -> x.tid <> cur.tid)
              (List.init ctx.ready_n (rget ctx))
          with
          | [] -> cur
          | others ->
              ctx.strat_budget <- ctx.strat_budget - 1;
              List.nth others (draw ctx (List.length others))
        end
        else cur
    | None -> rget ctx (draw ctx ctx.ready_n)
  in
  ctx.gclock <- max ctx.gclock t.ltime;
  t

(* Guided picks for systematic exploration: deterministic choice by
   index in tid order, logging the fan-out at every scheduling point. *)
let pick_guided ctx ~prefix ~observed =
  (* the scratch is already sorted by tid *)
  let n = ctx.ready_n in
  observed := n :: !observed;
  let idx =
    if ctx.tick < Array.length prefix then min prefix.(ctx.tick) (n - 1) else 0
  in
  let t = rget ctx idx in
  ctx.gclock <- max ctx.gclock t.ltime;
  t

(* Pick among the threads in the ready scratch (the caller has just
   called [fill_ready] and found it non-empty). *)
let pick_thread ctx =
  match ctx.conf.sched with
  | Conf.Os_model -> rget ctx (fifo_best ctx ~arrived_only:false)
  | Conf.Controlled Conf.Random -> pick_random ctx
  | Conf.Controlled (Conf.Pct _) -> pick_pct ctx
  | Conf.Controlled Conf.Queue -> pick_queue ctx
  | Conf.Controlled (Conf.Delay_bounded _) -> pick_delay_bounded ctx
  | Conf.Controlled (Conf.Preempt_bounded _) -> pick_preempt_bounded ctx
  | Conf.Controlled (Conf.Guided { prefix; observed }) ->
      pick_guided ctx ~prefix ~observed

(* ------------------------------------------------------------------ *)
(* Syscalls                                                             *)

let fd_class ctx fd : Policy.fd_class =
  if fd = World.stdout_fd then `Stdout
  else match Hashtbl.find_opt ctx.fd_classes fd with Some c -> c | None -> `Sock

let note_new_fd ctx (r : Syscall.request) (res : Syscall.result) =
  if res.ret >= 0 then
    match r.kind with
    | Syscall.Open_ ->
        Hashtbl.replace ctx.fd_classes res.ret
          (if r.path = World.gpu_path then `Gpu else `File)
    | Syscall.Bind -> Hashtbl.replace ctx.fd_classes res.ret `Listen
    | Syscall.Pipe ->
        Hashtbl.replace ctx.fd_classes res.ret `Pipe;
        (match int_of_string_opt (Bytes.to_string res.data) with
        | Some wfd -> Hashtbl.replace ctx.fd_classes wfd `Pipe
        | None -> ())
    | Syscall.Accept | Syscall.Accept4 -> Hashtbl.replace ctx.fd_classes res.ret `Sock
    | _ -> ()

let exec_syscall ctx t ~now (r : Syscall.request) : Syscall.result =
  let conf = ctx.conf in
  let interposing = match conf.mode with Conf.Free -> false | _ -> true in
  if interposing && not (Policy.supports conf.policy r.kind) then
    raise
      (Unsupported_run
         (Printf.sprintf "syscall %s cannot be interposed (use the poll workaround)"
            (Syscall.kind_to_string r.kind)));
  let cls = fd_class ctx r.fd in
  let recordable = Policy.should_record conf.policy ~fd_class:cls r in
  let live () =
    let res =
      try World.syscall ctx.world ~now r
      with World.Unsupported msg -> raise (Unsupported_run msg)
    in
    note_new_fd ctx r res;
    res
  in
  match conf.mode with
  | Conf.Replay _ when recordable -> (
      let label = Syscall.kind_to_string r.kind in
      let of_entry (e : Demo.syscall_entry) =
        {
          Syscall.ret = e.Demo.sc_ret;
          errno = e.Demo.sc_errno;
          data = e.Demo.sc_data;
          elapsed = e.Demo.sc_elapsed;
        }
      in
      match ctx.rep_syscalls with
      | e :: rest when e.Demo.sc_tid = t.tid && e.Demo.sc_label = label ->
          ctx.rep_syscalls <- rest;
          of_entry e
      | [] ->
          diverge ctx ~tid:t.tid ~site:"SYSCALL" ~expected:"no more recorded calls"
            ~actual:(Printf.sprintf "thread %d issuing %s" t.tid label);
          (* Resync: pad the exhausted stream with a live call. *)
          live ()
      | e :: _ ->
          diverge ctx ~tid:t.tid ~site:"SYSCALL"
            ~expected:
              (Printf.sprintf "thread %d issuing %s" e.Demo.sc_tid e.Demo.sc_label)
            ~actual:(Printf.sprintf "thread %d issuing %s" t.tid label);
          (* Resync: schedule skew can move results across threads —
             look a bounded distance ahead for this thread's entry,
             leaving skipped entries for their owners; otherwise serve
             the call live without consuming the stream. *)
          let rec split i acc = function
            | (e : Demo.syscall_entry) :: rest when i < 16 ->
                if e.Demo.sc_tid = t.tid && e.Demo.sc_label = label then
                  Some (e, List.rev_append acc rest)
                else split (i + 1) (e :: acc) rest
            | _ -> None
          in
          (match split 0 [] ctx.rep_syscalls with
          | Some (e, rest) ->
              ctx.rep_syscalls <- rest;
              of_entry e
          | None -> live ()))
  | _ ->
      let res = live () in
      if is_record ctx && recordable then
        ctx.rec_syscalls <-
          {
            Demo.sc_tick = ctx.tick;
            sc_tid = t.tid;
            sc_label = Syscall.kind_to_string r.kind;
            sc_ret = res.ret;
            sc_errno = res.errno;
            sc_elapsed = res.elapsed;
            sc_data = res.data;
          }
          :: ctx.rec_syscalls;
      res

(* ------------------------------------------------------------------ *)
(* Mutex / condvar helpers                                              *)

let mstate ctx (m : Api.mutex) = Hashtbl.find ctx.mutexes m.Api.mu_id
let cstate ctx (c : Api.cond) = Hashtbl.find ctx.conds c.Api.cv_id
let rwstate ctx (l : Api.rwlock) = Hashtbl.find ctx.rwlocks l.Api.rw_id

(* Waiter predicates, each over an object id: the threads disabled on
   mutex [mid], and the threads waiting on condvar [cid] (disabled
   untimed waiters plus enabled timed waiters still in their waiting
   stage). *)
let mutex_waiter mid t =
  match t.status with Disabled (On_mutex m) -> m = mid | _ -> false

let cond_waiter cid t =
  match t.cwait with
  | Some cw -> cw.cw_cond = cid && cw.cw_stage = Cw_waiting
  | None -> false

let count_waiters ctx is_waiter id =
  let c = ref 0 in
  for i = 0 to ctx.next_tid - 1 do
    match ctx.tvec.(i) with Some t when is_waiter id t -> incr c | _ -> ()
  done;
  !c

(* The [k]th waiter (from 0) in tid order, from tid [i] on. *)
let rec nth_waiter ctx is_waiter id k i =
  if i >= ctx.next_tid then None
  else
    match ctx.tvec.(i) with
    | Some t as cell when is_waiter id t ->
        if k = 0 then cell else nth_waiter ctx is_waiter id (k - 1) (i + 1)
    | _ -> nth_waiter ctx is_waiter id k (i + 1)

(* The one waiter a wakeup picks among the threads [is_waiter id]
   holds for, scanned in tid (creation) order: the longest-disabled one
   under the FIFO-flavoured models, the lowest tid among equals; a PRNG
   draw otherwise. *)
let pick_waiter ctx is_waiter id =
  match ctx.conf.sched with
  | Conf.Controlled (Conf.Queue | Conf.Delay_bounded _) | Conf.Os_model ->
      let best = ref None in
      for i = 0 to ctx.next_tid - 1 do
        match ctx.tvec.(i) with
        | Some t as cell when is_waiter id t -> (
            match !best with
            | Some b when b.disabled_at <= t.disabled_at -> ()
            | _ -> best := cell)
        | _ -> ()
      done;
      !best
  | _ -> (
      match count_waiters ctx is_waiter id with
      | 0 -> None
      | n -> nth_waiter ctx is_waiter id (draw_pick ctx n) 0)

(* The acquire step shared by every lock-like op: decision capture, the
   coverage edge ([~edge:false] for the condvar relock, which marks
   none), the clock join and the lock-order graph. *)
let note_acquire ctx t ~id ~name clock ~edge =
  if ctx.dec_on then ctx.dec_lock <- Decision.L_acquire id;
  if edge && Coverage.enabled ctx.cov then
    Coverage.mark ctx.cov (Coverage.site_edge ~tid:t.tid ~obj:id);
  if ctx.conf.race_detection then begin
    Tstate.acquire t.tst clock;
    Lockorder.acquired ctx.lockorder ~tid:t.tid ~lock:id ~name
  end

(* The release step shared by mutex unlock, rwlock unlock and condvar
   signal/broadcast: the object's clock absorbs the releasing thread's,
   which then ticks. Returns the object's new clock. *)
let release_clock ctx t clock =
  if ctx.conf.race_detection then begin
    let clock = Vclock.join clock (Tstate.clock t.tst) in
    Tstate.tick t.tst;
    clock
  end
  else clock

(* [release_clock] plus decision capture and the lock-order graph, for
   the two lock families. *)
let note_release ctx t ~id clock =
  if ctx.dec_on then ctx.dec_lock <- Decision.L_release id;
  let clock = release_clock ctx t clock in
  if ctx.conf.race_detection then
    Lockorder.released ctx.lockorder ~tid:t.tid ~lock:id;
  clock

(* One attempt at each lock family — the shape both the try op and the
   blocking op (Fig. 4's trylock loop) run: take the lock and return
   [true] when it is free. *)
let try_mutex ctx t (m : Api.mutex) ~edge =
  let ms = mstate ctx m in
  ms.owner = None
  && begin
       ms.owner <- Some t.tid;
       note_acquire ctx t ~id:m.Api.mu_id ~name:m.Api.mu_name ms.m_clock ~edge;
       true
     end

let try_rwlock ctx t (l : Api.rwlock) ~write =
  let rw = rwstate ctx l in
  (rw.rw_writer = None && ((not write) || rw.rw_readers = []))
  && begin
       if write then rw.rw_writer <- Some t.tid
       else rw.rw_readers <- t.tid :: rw.rw_readers;
       note_acquire ctx t ~id:l.Api.rw_id ~name:l.Api.rw_name rw.rw_clock
         ~edge:true;
       true
     end

(* MutexUnlock of §3.2: release, then wake one waiter. *)
let release_mutex ctx t (m : Api.mutex) ~at =
  let ms = mstate ctx m in
  ms.owner <- None;
  ms.m_clock <- note_release ctx t ~id:m.Api.mu_id ms.m_clock;
  match pick_waiter ctx mutex_waiter m.Api.mu_id with
  | Some w ->
      w.status <- Ready;
      w.arrival <- max w.arrival at
  | None -> ()

(* Reader-writer unlock re-enables every waiter: they race for the lock
   again, as in Fig. 4's loop. *)
let rw_unlock ctx t (l : Api.rwlock) ~at =
  let rw = rwstate ctx l in
  (match rw.rw_writer with
  | Some tid when tid = t.tid -> rw.rw_writer <- None
  | _ -> rw.rw_readers <- List.filter (fun tid -> tid <> t.tid) rw.rw_readers);
  rw.rw_clock <- note_release ctx t ~id:l.Api.rw_id rw.rw_clock;
  wake_all ctx (On_rwlock l.Api.rw_id) ~at

let wake_cond_waiter ctx t ~at ~(signaller_clock : Vclock.t) =
  (match t.cwait with
  | Some cw ->
      cw.cw_stage <- Cw_relock;
      cw.cw_result <- Api.Signalled;
      if Coverage.enabled ctx.cov then
        Coverage.mark ctx.cov (Coverage.site_edge ~tid:t.tid ~obj:cw.cw_cond)
  | None -> ());
  if ctx.conf.race_detection then Tstate.acquire t.tst signaller_clock;
  match t.status with
  | Disabled (On_cond _) ->
      t.status <- Ready;
      t.arrival <- max t.arrival at
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Critical sections                                                    *)

let note_cs ctx t label fin =
  log_trace ctx t.tid label;
  Trace.emit ctx.obs Trace.Op ~tick:ctx.tick ~tid:t.tid ~label
    ~ts:ctx.last_cs_start
    ~dur:(max 0 (fin - ctx.last_cs_start));
  t.last_tick <- ctx.tick;
  ctx.makespan <- max ctx.makespan fin

(* Park a thread on a contended resource — every blocking transition
   funnels through here so the wait counter sees them all. *)
let block ctx t reason =
  ctx.waits <- ctx.waits + 1;
  (* Lock-blocked transitions feed the predictive analysis (they
     classify the id as a lock, and a blocked op need not recur in a
     reordering). Condvar/join parks are not lock transitions. *)
  (if ctx.dec_on then
     match reason with
     | On_mutex id | On_rwlock id ->
         ctx.dec_lock <- Decision.L_blocked id
     | On_join _ | On_cond _ -> ());
  t.status <- Disabled reason;
  t.disabled_at <- ctx.tick

(* A critical section whose op could not proceed (a lock attempt that
   found the lock taken, a join on a live thread): log it as [label]
   and park the thread. *)
let fail_cs ctx t label fin reason =
  note_cs ctx t label fin;
  block ctx t reason

(* Advance clocks for one critical section; returns its finish time
   (its start is left in [ctx.last_cs_start]). *)
let cs_timing ?(syscall = false) ctx t ~recorded =
  let conf = ctx.conf in
  let base = if syscall then conf.vis_cost_syscall else conf.vis_cost in
  let cost = base + if recorded then conf.record_cost else 0 in
  (* Timing uses the thread's un-jittered local clock; [arrival] (which
     includes physical-ordering jitter) only orders Wait() queues. *)
  let start =
    if conf.serialize_all then ctx.gclock + t.invis_acc
    else if conf.serialize_visible then max ctx.gclock t.ltime
    else t.ltime
  in
  let fin = start + cost in
  ctx.last_cs_start <- start;
  if conf.serialize_visible || conf.serialize_all then ctx.gclock <- fin
  else ctx.gclock <- max ctx.gclock fin;
  t.ltime <- fin;
  t.invis_acc <- 0;
  fin

(* After a thread leaves a critical section in queue replay, it learns
   the tick of its next scheduling from the recorded list (§4.2). *)
let consume_queue_entry ctx t =
  if is_replay ctx then
    match ctx.conf.sched with
    | Conf.Controlled (Conf.Queue | Conf.Delay_bounded _) -> (
        match ctx.rep_queue_list with
        | [] -> Hashtbl.remove ctx.rep_queue_next t.tid
        | next :: rest ->
            ctx.rep_queue_list <- rest;
            if next < 0 then Hashtbl.remove ctx.rep_queue_next t.tid
            else Hashtbl.replace ctx.rep_queue_next t.tid next)
    | _ -> ()

(* Execute a signal-handler entry as its own critical section: shelve
   the pending request and run the handler fiber. *)
let exec_signal_entry ctx t =
  let signo = List.hd t.sigq in
  t.sigq <- List.tl t.sigq;
  let fin = cs_timing ctx t ~recorded:false in
  note_cs ctx t (Printf.sprintf "sig_entry:%d" signo) fin;
  (match t.pending with
  | P _ as p ->
      t.shelved <- p :: t.shelved;
      t.pending <- No_request
  | No_request -> ());
  (match Hashtbl.find_opt ctx.handlers signo with
  | Some f ->
      let on_return () =
        match t.shelved with
        | p :: rest ->
            t.pending <- p;
            t.shelved <- rest;
            t.arrival <- max t.arrival t.ltime
        | [] ->
            t.status <- Done;
            wake_all ctx (On_join t.tid) ~at:t.ltime
      in
      start_fiber ctx t f ~on_return
  | None -> (
      (* No handler installed: ignore the signal (SIG_IGN model). *)
      match t.shelved with
      | p :: rest ->
          t.pending <- p;
          t.shelved <- rest
      | [] -> ()));
  pump ctx t

(* Complete a critical section: log it, resume the thread with the
   response, and run its next invisible region. *)
let finish_cs : type a.
    ctx -> thread -> (a, unit) continuation -> string -> int -> a -> unit =
 fun ctx t k label fin v ->
  note_cs ctx t label fin;
  t.pending <- No_request;
  continue k v;
  pump ctx t

(* Relock stage of a conditional wait (Fig. 5): one trylock per
   critical section. *)
let lock_attempt ctx t (k : (Api.timeout_result, unit) continuation) cw fin =
  if try_mutex ctx t cw.cw_mutex ~edge:false then begin
    let result = cw.cw_result in
    t.cwait <- None;
    finish_cs ctx t k "cond_relock" (max fin t.ltime) result
  end
  else fail_cs ctx t "cond_relock_fail" fin (On_mutex cw.cw_mutex.Api.mu_id)

(* A load or CAS just read a value older than the newest store:
   surface it as a trace event and a coverage site. [since] is the
   memory's stale-read count before the op. *)
let note_stale_read ctx t (a : Api.atomic) ~since =
  if
    (Trace.enabled ctx.obs || Coverage.enabled ctx.cov)
    && Atomics.stale_reads ctx.mem > since
  then begin
    if Trace.enabled ctx.obs then
      Trace.emit ctx.obs Trace.Stale_read ~tick:ctx.tick ~tid:t.tid
        ~label:(Atomics.loc_name a.Api.a_loc) ~ts:ctx.last_cs_start ~dur:0;
    if Coverage.enabled ctx.cov then
      Coverage.mark ctx.cov
        (Coverage.site_stale ~tid:t.tid ~var:(Atomics.loc_name a.Api.a_loc))
  end

(* Dependency footprint of the visible operation thread [t] is about
   to execute, read off the parked request before [exec_cs] runs it.
   Conservative wherever the op couples to the environment: syscalls,
   signal deliveries, signal plumbing and timed waits conflict with
   everything (the world's PRNG and signal clock are shared state the
   explorer cannot factor). CAS counts as an update even when it
   fails — the failure path is a load, but whether it fails depends on
   the newest store, which is exactly the same-location dependence. *)
let footprint_of_next ctx t : Decision.footprint =
  if t.sigq <> [] then F_global
  else
    match t.pending with
    | No_request -> F_local
    | P (r, _) -> (
        match r with
        | Api.A_load (a, _) -> F_atomic (Atomics.loc_id a.Api.a_loc, Acc_read)
        | Api.A_store (a, _, _) ->
            F_atomic (Atomics.loc_id a.Api.a_loc, Acc_write)
        | Api.A_rmw (a, _, _) ->
            F_atomic (Atomics.loc_id a.Api.a_loc, Acc_update)
        | Api.A_cas (a, _, _, _, _) ->
            F_atomic (Atomics.loc_id a.Api.a_loc, Acc_update)
        | Api.Fence _ -> F_fence
        | Api.Mutex_lock m | Api.Mutex_trylock m | Api.Mutex_unlock m ->
            F_sync (m.Api.mu_id, -1)
        | Api.Rw_rdlock l | Api.Rw_wrlock l | Api.Rw_tryrdlock l
        | Api.Rw_trywrlock l | Api.Rw_unlock l ->
            F_sync (l.Api.rw_id, -1)
        | Api.Cond_wait (c, m, timeout) -> (
            match timeout with
            | Some _ -> F_global (* timer-vs-signal couples to world time *)
            | None -> F_sync (c.Api.cv_id, m.Api.mu_id))
        | Api.Cond_signal c | Api.Cond_broadcast c ->
            F_sync (c.Api.cv_id, -1)
        | Api.Spawn _ -> F_spawn ctx.next_tid
        | Api.Join target -> F_join target
        | Api.Syscall req -> F_syscall (Syscall.footprint_id req)
        | Api.Set_signal_handler _ | Api.Raise_sync _ -> F_global
        | _ -> F_local)

(* Run the visible operation [r] of thread [t], whose critical section
   [exec_cs] has already timed to finish at [fin]. *)
let exec_op : type a.
    ctx -> thread -> a Api.req -> (a, unit) continuation -> int -> unit =
 fun ctx t r k fin ->
  let label = Api.req_label r in
  match r with
  | Api.A_load (a, mo) ->
      let since = Atomics.stale_reads ctx.mem in
      let v = Atomics.load ctx.mem a.Api.a_loc t.tst mo ~choose:ctx.choose in
      note_stale_read ctx t a ~since;
      finish_cs ctx t k label fin v
  | Api.A_store (a, mo, v) ->
      Atomics.store ctx.mem a.Api.a_loc t.tst mo v;
      finish_cs ctx t k label fin ()
  | Api.A_rmw (a, mo, f) ->
      let old = Atomics.rmw ctx.mem a.Api.a_loc t.tst mo f in
      finish_cs ctx t k label fin old
  | Api.A_cas (a, success, failure, expected, desired) ->
      let since = Atomics.stale_reads ctx.mem in
      let res =
        Atomics.cas ctx.mem a.Api.a_loc t.tst ~success ~failure ~expected
          ~desired ~choose:ctx.choose
      in
      note_stale_read ctx t a ~since;
      finish_cs ctx t k label fin res
  | Api.Fence mo ->
      Atomics.fence ctx.mem t.tst mo;
      finish_cs ctx t k label fin ()
  (* Fig. 4: a blocking lock is a trylock loop; each failed attempt is
     its own critical section and disables the thread. *)
  | Api.Mutex_trylock m ->
      finish_cs ctx t k label fin (try_mutex ctx t m ~edge:true)
  | Api.Mutex_lock m ->
      if try_mutex ctx t m ~edge:true then finish_cs ctx t k label fin ()
      else fail_cs ctx t "mutex_lock_fail" fin (On_mutex m.Api.mu_id)
  | Api.Mutex_unlock m ->
      release_mutex ctx t m ~at:fin;
      finish_cs ctx t k label fin ()
  | Api.Rw_tryrdlock l ->
      finish_cs ctx t k label fin (try_rwlock ctx t l ~write:false)
  | Api.Rw_rdlock l ->
      if try_rwlock ctx t l ~write:false then finish_cs ctx t k label fin ()
      else fail_cs ctx t "rw_rdlock_fail" fin (On_rwlock l.Api.rw_id)
  | Api.Rw_trywrlock l ->
      finish_cs ctx t k label fin (try_rwlock ctx t l ~write:true)
  | Api.Rw_wrlock l ->
      if try_rwlock ctx t l ~write:true then finish_cs ctx t k label fin ()
      else fail_cs ctx t "rw_wrlock_fail" fin (On_rwlock l.Api.rw_id)
  | Api.Rw_unlock l ->
      rw_unlock ctx t l ~at:fin;
      finish_cs ctx t k label fin ()
  | Api.Cond_wait (c, m, timeout_ms) -> (
      match t.cwait with
      | None ->
          (* Fig. 5, first critical section: mark waiting, unlock
             the mutex, then (in later CSs) reacquire. *)
          note_cs ctx t label fin;
          let cw =
            {
              cw_cond = c.Api.cv_id;
              cw_mutex = m;
              cw_expiry =
                Option.map (fun ms_ -> t.ltime + (ms_ * 1000)) timeout_ms;
              cw_stage = Cw_waiting;
              cw_result = Api.Timed_out;
            }
          in
          t.cwait <- Some cw;
          release_mutex ctx t m ~at:fin;
          (match timeout_ms with
          | None -> block ctx t (On_cond c.Api.cv_id)
          | Some _ ->
              (* Timed waits stay enabled (§3.2): the timer is
                 nondeterministic from the logical scheduler's
                 point of view. *)
              t.arrival <-
                (match cw.cw_expiry with Some e -> e | None -> t.ltime))
      | Some cw ->
          (if cw.cw_stage = Cw_waiting then begin
             (* Scheduled while still waiting: the timer fired. *)
             cw.cw_stage <- Cw_relock;
             cw.cw_result <- Api.Timed_out;
             match cw.cw_expiry with
             | Some e -> t.ltime <- max t.ltime e
             | None -> ()
           end);
          lock_attempt ctx t k cw fin)
  | Api.Cond_signal c ->
      let cs = cstate ctx c in
      cs.c_clock <- release_clock ctx t cs.c_clock;
      (match pick_waiter ctx cond_waiter c.Api.cv_id with
      | Some w -> wake_cond_waiter ctx w ~at:fin ~signaller_clock:cs.c_clock
      | None -> ());
      finish_cs ctx t k label fin ()
  | Api.Cond_broadcast c ->
      let cs = cstate ctx c in
      cs.c_clock <- release_clock ctx t cs.c_clock;
      (* Waking a waiter leaves every other thread's [cond_waiter]
         answer as it was, so one pass in tid order wakes the set the
         signal found. *)
      for i = 0 to ctx.next_tid - 1 do
        match ctx.tvec.(i) with
        | Some w when cond_waiter c.Api.cv_id w ->
            wake_cond_waiter ctx w ~at:fin ~signaller_clock:cs.c_clock
        | _ -> ()
      done;
      finish_cs ctx t k label fin ()
  | Api.Spawn (name, body) ->
      note_cs ctx t label fin;
      let child = new_thread ctx ~name ~parent_st:(Some t.tst) ~at:fin body in
      t.pending <- No_request;
      continue k child.tid;
      pump ctx t
  | Api.Join target -> (
      match thread_opt ctx target with
      | None -> finish_cs ctx t k label fin ()
      | Some child -> (
          match child.status with
          | Done | Dead _ ->
              (* join edges live in the edge family, negated so
                 child tids don't collide with lock ids *)
              if Coverage.enabled ctx.cov then
                Coverage.mark ctx.cov
                  (Coverage.site_edge ~tid:t.tid ~obj:(lnot target));
              if ctx.conf.race_detection then
                Tstate.acquire t.tst (Tstate.clock child.tst);
              t.ltime <- max t.ltime child.ltime;
              finish_cs ctx t k label (max fin child.ltime) ()
          | _ -> fail_cs ctx t "join_wait" fin (On_join target)))
  | Api.Syscall req ->
      let start = ctx.last_cs_start in
      let res = exec_syscall ctx t ~now:start req in
      if Trace.enabled ctx.obs then begin
        let f = World.faults_injected ctx.world in
        if f > ctx.faults_seen then begin
          ctx.faults_seen <- f;
          Trace.emit ctx.obs Trace.Fault ~tick:ctx.tick ~tid:t.tid
            ~label:(Syscall.kind_to_string req.Syscall.kind) ~ts:start ~dur:0
        end
      end;
      (* Blocking time accrues outside the critical section (§4.4:
         only the SYSCALL-file interaction is inside it). *)
      t.ltime <- fin + res.Syscall.elapsed;
      finish_cs ctx t k label fin res
  | Api.Set_signal_handler (signo, f) ->
      Hashtbl.replace ctx.handlers signo f;
      finish_cs ctx t k label fin ()
  | Api.Raise_sync signo -> (
      (* Synchronous signal: the handler runs right here, at this
         program point, in both record and replay — nothing is
         captured (§4.3: it "should reoccur at the same point
         without the help of our tool"). The raise is the visible
         op; the handler's own visible ops become further critical
         sections, and when its fiber returns the raising thread
         resumes just after the raise. *)
      note_cs ctx t label fin;
      t.pending <- No_request;
      match Hashtbl.find_opt ctx.handlers signo with
      | None ->
          crash ctx t (Printf.sprintf "unhandled synchronous signal %d" signo)
      | Some f ->
          let on_return () =
            t.arrival <- max t.arrival t.ltime;
            continue k ()
          in
          start_fiber ctx t f ~on_return;
          pump ctx t)
  | Api.New_atomic _ | Api.New_var _ | Api.New_mutex _ | Api.New_cond _
  | Api.New_rwlock _ | Api.Var_load _ | Api.Var_store _ | Api.Work _
  | Api.Work_mem _ | Api.Sleep _ | Api.Self | Api.Now | Api.Alloc _ ->
      assert false

(* Execute one critical section for thread [t]: time it, then run its
   op. A syscall's critical section costs [vis_cost_syscall], plus
   [record_cost] when its result goes into the demo. *)
let exec_cs ctx t =
  if t.sigq <> [] then exec_signal_entry ctx t
  else begin
    let prev_cur = ctx.cur in
    ctx.cur <- t.self;
    (* No Fun.protect here: the abort exceptions (Hard, Diagnosed,
       Unsupported_run) end the run outright, so a stale [cur] can't be
       observed; the happy path restores it below. *)
    (match t.pending with
    | No_request ->
        hard ctx (Printf.sprintf "thread %d scheduled with no request" t.tid)
    | P (r, k) ->
        let fin =
          match r with
          | Api.Syscall req ->
              cs_timing ~syscall:true ctx t
                ~recorded:
                  (Policy.should_record ctx.conf.policy
                     ~fd_class:(fd_class ctx req.Syscall.fd)
                     req
                  && ctx.conf.mode <> Conf.Free)
          | _ -> cs_timing ctx t ~recorded:false
        in
        exec_op ctx t r k fin);
    ctx.cur <- prev_cur
  end

(* ------------------------------------------------------------------ *)
(* Demo assembly                                                        *)

(* One backward pass over the trace log: for each CS exit, the exiting
   thread's next tick (-1 after its last); what is left in [next] at
   the end is each thread's first tick. *)
let build_queue_data ctx =
  let next : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_ticks = ref [] in
  for i = ctx.tr_n - 1 downto 0 do
    let tid = ctx.tr_tids.(i) in
    next_ticks :=
      Option.value ~default:(-1) (Hashtbl.find_opt next tid) :: !next_ticks;
    Hashtbl.replace next tid i
  done;
  let first_ticks =
    Hashtbl.fold (fun tid tick acc -> (tid, tick) :: acc) next []
    |> List.sort compare
  in
  { Demo.first_ticks; next_ticks = !next_ticks }

let build_demo ctx app_name =
  let s1, s2 = Prng.seeds ctx.rng in
  let strategy =
    match ctx.conf.sched with
    | Conf.Controlled s -> Conf.strategy_name s
    | Conf.Os_model -> "os"
  in
  {
    Demo.meta =
      {
        app = app_name;
        strategy;
        seed1 = s1;
        seed2 = s2;
        ticks = ctx.tick;
        output_digest = Digest.to_hex (Digest.string (World.output ctx.world));
      };
    queue =
      (match ctx.conf.sched with
      | Conf.Controlled (Conf.Queue | Conf.Delay_bounded _) ->
          Some (build_queue_data ctx)
      | _ -> None);
    signals = List.rev ctx.rec_signals;
    syscalls = List.rev ctx.rec_syscalls;
    asyncs = List.rev ctx.rec_asyncs;
  }

(* ------------------------------------------------------------------ *)
(* Run arenas                                                           *)

(* A domain-local bundle of every allocation-heavy structure [make_ctx]
   needs, recycled across runs: the weak memory, the two race
   detectors, the PRNG, the observability buffers, the object tables,
   the trace log and the thread vector (whose thread records —
   including their vector clocks and fiber bookkeeping — are
   re-initialised in place by [new_thread]). OWNERSHIP: an arena
   belongs to exactly one domain and at most one live run at a time;
   results escape a run by value (strings, lists, fresh records), never
   by reference into the arena, which is what makes recycling
   observationally invisible. *)
type arena = {
  mutable a_mem : Atomics.t; (* rebuilt if conf.max_history changes *)
  a_det : Detector.t;
  a_lockorder : Lockorder.t;
  a_rng : Prng.t;
  mutable a_obs : Trace.t; (* rebuilt if capacity / enablement changes *)
  mutable a_cov : Coverage.t;
  a_mutexes : (int, mstate) Hashtbl.t;
  a_conds : (int, cstate) Hashtbl.t;
  a_rwlocks : (int, rwstate) Hashtbl.t;
  a_handlers : (int, unit -> unit) Hashtbl.t;
  a_fd_classes : (int, Policy.fd_class) Hashtbl.t;
  a_rep_queue_next : (int, int) Hashtbl.t;
  mutable a_tvec : thread option array;
  mutable a_ready : int array;
  mutable a_tr_tids : int array;
  mutable a_tr_labels : string array;
}

let create_arena () =
  {
    a_mem = Atomics.create ();
    a_det = Detector.create ();
    a_lockorder = Lockorder.create ();
    a_rng = Prng.create ~seed1:1L ~seed2:2L;
    a_obs = Trace.disabled;
    a_cov = Coverage.disabled;
    a_mutexes = Hashtbl.create 8;
    a_conds = Hashtbl.create 8;
    a_rwlocks = Hashtbl.create 4;
    a_handlers = Hashtbl.create 4;
    a_fd_classes = Hashtbl.create 8;
    a_rep_queue_next = Hashtbl.create 8;
    a_tvec = Array.make 8 None;
    a_ready = Array.make 8 0;
    a_tr_tids = [||];
    a_tr_labels = [||];
  }

(* Entries of trace log an arena keeps between runs: the hunt
   benchmark's longest runs (ms-queue, about 2k ticks) fit, so they
   log without allocating, while a run cut at a tick budget of tens of
   thousands does not leave its log pinned to the domain. *)
let kept_log = 4096

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)

let make_ctx arena conf world replay =
  let s1, s2 =
    match replay with
    | Some d -> (d.Demo.meta.seed1, d.Demo.meta.seed2)
    | None -> (
        match conf.Conf.seeds with
        | Some seeds -> seeds
        | None -> Prng.seeds (Prng.of_time ()))
  in
  let rng = arena.a_rng in
  Prng.reseed rng ~seed1:s1 ~seed2:s2;
  if Atomics.max_history arena.a_mem <> conf.Conf.max_history then
    arena.a_mem <- Atomics.create ~max_history:conf.Conf.max_history ()
  else Atomics.reset arena.a_mem;
  Detector.reset arena.a_det;
  Detector.set_suppressions arena.a_det conf.Conf.suppressions;
  Lockorder.reset arena.a_lockorder;
  let obs =
    if not conf.Conf.trace_events then Trace.disabled
    else begin
      if
        Trace.enabled arena.a_obs
        && Trace.capacity arena.a_obs = conf.Conf.trace_capacity
      then Trace.reset arena.a_obs
      else arena.a_obs <- Trace.create ~capacity:conf.Conf.trace_capacity ();
      arena.a_obs
    end
  in
  let cov =
    if not conf.Conf.coverage then Coverage.disabled
    else begin
      if Coverage.enabled arena.a_cov then Coverage.reset arena.a_cov
      else arena.a_cov <- Coverage.create ();
      arena.a_cov
    end
  in
  (* [Hashtbl.clear] keeps the grown bucket array, so recycled tables
     are automatically sized by their high-water mark. *)
  Hashtbl.clear arena.a_mutexes;
  Hashtbl.clear arena.a_conds;
  Hashtbl.clear arena.a_rwlocks;
  Hashtbl.clear arena.a_handlers;
  Hashtbl.clear arena.a_fd_classes;
  Hashtbl.clear arena.a_rep_queue_next;
  let ctx =
    {
      conf;
      world;
      mem = arena.a_mem;
      det = arena.a_det;
      lockorder = arena.a_lockorder;
      rng;
      choose = (fun n -> if n <= 0 then 0 else Prng.int rng n);
      tvec = arena.a_tvec;
      ready_scratch = arena.a_ready;
      ready_n = 0;
      next_tid = 0;
      next_obj = 0;
      mutexes = arena.a_mutexes;
      conds = arena.a_conds;
      rwlocks = arena.a_rwlocks;
      handlers = arena.a_handlers;
      fd_classes = arena.a_fd_classes;
      gclock = 0;
      makespan = 0;
      tick = 0;
      deadline_at =
        (if conf.Conf.deadline_s > 0. then
           Unix.gettimeofday () +. conf.Conf.deadline_s
         else infinity);
      cur = None;
      tr_tids = arena.a_tr_tids;
      tr_labels = arena.a_tr_labels;
      tr_n = 0;
      rec_signals = [];
      rec_syscalls = [];
      rec_asyncs = [];
      replay;
      rep_queue_next = arena.a_rep_queue_next;
      rep_queue_list = [];
      rep_signals = [];
      rep_syscalls = [];
      rep_asyncs = [];
      finished = None;
      strat_budget =
        (match conf.Conf.sched with
        | Conf.Controlled (Conf.Delay_bounded d) -> d
        | Conf.Controlled (Conf.Preempt_bounded b) -> b
        | _ -> 0);
      last_sched = -1;
      desync_count = 0;
      desyncs = [];
      obs;
      cov;
      last_cs_start = 0;
      waits = 0;
      preemptions = 0;
      faults_seen = 0;
      dec_on =
        (match conf.Conf.sched with
        | Conf.Controlled (Conf.Guided _) -> true
        | _ -> false);
      decisions = [];
      dec_rand = false;
      dec_lock = Decision.L_none;
      dec_counts = [||];
      dec_accs = [];
    }
  in
  (* Stream shadow-checked accesses to the predictive analysis. Only
     under decision capture: every other configuration leaves the hook
     at [None] (restored by [Detector.reset]) and pays one branch. *)
  if ctx.dec_on then
    Detector.set_access_hook ctx.det
      (Some
         (fun v ~tid ~write ->
           let pos =
             if tid < Array.length ctx.dec_counts then ctx.dec_counts.(tid)
             else 0
           in
           ctx.dec_accs <-
             {
               Decision.a_tick = ctx.tick;
               a_tid = tid;
               a_pos = pos;
               a_var = Detector.var_id v;
               a_write = write;
               a_name = Detector.var_name v;
             }
             :: ctx.dec_accs));
  (* Emitting a race report costs the reporting thread real time
     (§5.2's "Race reports" vs "No reports" columns). *)
  if conf.Conf.emit_reports && conf.Conf.report_cost > 0 then
    Detector.on_report ctx.det (fun _ ->
        match ctx.cur with
        | Some t ->
            t.ltime <- t.ltime + conf.Conf.report_cost;
            t.invis_acc <- t.invis_acc + conf.Conf.report_cost
        | None -> ());
  if Trace.enabled ctx.obs then
    Detector.on_report ctx.det (fun r ->
        let tid =
          match ctx.cur with Some t -> t.tid | None -> r.T11r_race.Report.second_tid
        in
        Trace.emit ctx.obs Trace.Race ~tick:ctx.tick ~tid
          ~label:r.T11r_race.Report.var ~ts:ctx.gclock ~dur:0);
  if Coverage.enabled ctx.cov then
    Detector.on_report ctx.det (fun r ->
        let open T11r_race.Report in
        let kind =
          match r.kind with Write_write -> 0 | Write_read -> 1 | Read_write -> 2
        in
        Coverage.mark ctx.cov
          (Coverage.site_race ~var:r.var ~kind ~first_tid:r.first_tid
             ~second_tid:r.second_tid));
  (match replay with
  | Some d ->
      (match d.Demo.queue with
      | Some q ->
          List.iter
            (fun (tid, tick) -> Hashtbl.replace ctx.rep_queue_next tid tick)
            q.Demo.first_ticks;
          ctx.rep_queue_list <- q.Demo.next_ticks
      | None -> ());
      ctx.rep_signals <- d.Demo.signals;
      ctx.rep_syscalls <- d.Demo.syscalls;
      ctx.rep_asyncs <- d.Demo.asyncs
  | None -> ());
  ctx

let pp_outcome fmt = function
  | Completed -> Format.fprintf fmt "completed"
  | Deadlock tids ->
      Format.fprintf fmt "deadlock (threads %s)"
        (String.concat "," (List.map string_of_int tids))
  | Crashed (tid, msg) -> Format.fprintf fmt "crashed in thread %d: %s" tid msg
  | Hard_desync msg -> Format.fprintf fmt "hard desync: %s" msg
  | Unsupported_app msg -> Format.fprintf fmt "unsupported: %s" msg
  | App_error msg -> Format.fprintf fmt "app error: %s" msg
  | Tick_limit -> Format.fprintf fmt "tick limit reached"
  | Timeout -> Format.fprintf fmt "wall-clock deadline exceeded"
  | Corrupt_demo msg -> Format.fprintf fmt "corrupt demo: %s" msg

let pp_divergence fmt d =
  Format.fprintf fmt "@[<v>divergence at op %d (thread %d, %s): expected %s, got %s"
    d.div_tick d.div_tid d.div_site d.div_expected d.div_actual;
  (match d.div_trail with
  | [] -> ()
  | trail ->
      Format.fprintf fmt "@,  last %d trace events:" (List.length trail);
      List.iter
        (fun (tick, tid, label) ->
          Format.fprintf fmt "@,    tick %d thread %d %s" tick tid label)
        trail);
  Format.fprintf fmt "@]"

(* An empty result carrying just an outcome — for failures that happen
   before (or instead of) a run: malformed demos, harness-caught
   exceptions. *)
let result_of_outcome outcome =
  {
    outcome;
    makespan_us = 0;
    ticks = 0;
    races = [];
    race_count = 0;
    lock_cycles = [];
    output = "";
    soft_desync = false;
    demo = None;
    trace = [];
    thread_names = [];
    trace_divergence = None;
    rng_draws = 0;
    desync_count = 0;
    divergences = [];
    metrics = Metrics.zero;
    events = [];
    events_dropped = 0;
    coverage = Coverage.empty;
    decisions = [||];
    accesses = [||];
  }

let to_predict_input (r : result) =
  { T11r_race.Predict.steps = r.decisions; accs = r.accesses; observed = r.races }

(* A corrupt or missing demo is a usability (or durability) error, not
   a crash: surface it as its own outcome with an empty result so the
   CLI can map it to a dedicated exit code. *)
let corrupt_demo_result c =
  result_of_outcome (Corrupt_demo (Demo.corruption_to_string c))

(* The outcome of a run with no thread left to schedule. *)
let stuck ctx =
  let blocked = ref [] in
  for i = ctx.next_tid - 1 downto 0 do
    match ctx.tvec.(i) with
    | Some { status = Disabled _; tid; _ } -> blocked := tid :: !blocked
    | _ -> ()
  done;
  match !blocked with [] -> Completed | blocked -> Deadlock blocked

let run ?world ?arena conf (program : Api.program) =
  (* Generated names must be a function of the program alone, not of
     prior runs on this domain — see Api.reset_auto_names. *)
  Api.reset_auto_names ();
  let world = match world with Some w -> w | None -> World.create () in
  World.set_forbid_opaque_ioctl world
    (conf.Conf.forbid_opaque_ioctl
    || (match conf.Conf.mode with
       | Conf.Free -> false
       | _ -> not conf.Conf.policy.Policy.ignore_ioctl)
       && List.mem Syscall.Ioctl conf.Conf.policy.Policy.record_kinds);
  match
    match conf.Conf.mode with
    | Conf.Replay dir -> Some (Demo.load ~dir)
    | _ -> None
  with
  | exception Demo.Corrupt c -> corrupt_demo_result c
  | replay_demo ->
  let arena = match arena with Some a -> a | None -> create_arena () in
  let ctx = make_ctx arena conf world replay_demo in
  let finish outcome =
    (* Keep grown scheduler arrays (and their recyclable thread
       records) for the next run on this arena. *)
    arena.a_tvec <- ctx.tvec;
    arena.a_ready <- ctx.ready_scratch;
    (* A log grown past [kept_log] by a long run is dropped, so an idle
       arena pins at most that many entries. *)
    if Array.length ctx.tr_tids <= kept_log then begin
      arena.a_tr_tids <- ctx.tr_tids;
      arena.a_tr_labels <- ctx.tr_labels
    end
    else begin
      arena.a_tr_tids <- [||];
      arena.a_tr_labels <- [||]
    end;
    let decisions =
      if ctx.dec_on then Array.of_list (List.rev ctx.decisions) else [||]
    in
    let accesses =
      if ctx.dec_on then Array.of_list (List.rev ctx.dec_accs) else [||]
    in
    let races = Detector.reports ctx.det in
    let demo =
      match (conf.Conf.mode, outcome) with
      | Conf.Record dir, _ ->
          let d = build_demo ctx program.Api.pname in
          let extra =
            if conf.Conf.debug_trace then
              [ ("TRACE", map_trace ctx trace_line) ]
            else []
          in
          (* A recording made under decision capture carries the full
             input of the offline predictive race analysis, so
             [predict] can run on the demo alone. *)
          let extra =
            if ctx.dec_on then
              ( "DECISIONS",
                T11r_race.Predict.encode_input
                  { steps = decisions; accs = accesses; observed = races } )
              :: extra
            else extra
          in
          Demo.save ~extra d ~dir;
          Some d
      | _ -> None
    in
    (* Divergence detection runs on every replay, not only under
       debug_trace (it used to be gated, so default replays diverged
       silently). With a TRACE file the diff is op-precise; without
       one, fall back to the op count recorded in META. *)
    let trace_divergence =
      match conf.Conf.mode with
      | Conf.Replay dir -> (
          match
            (* The demo verified at load time; a TRACE torn afterwards
               only costs us the op-level diff, not the replay. *)
            (try Demo.read_aux ~dir "TRACE" with Demo.Corrupt _ -> [])
          with
          | [] -> (
              match ctx.replay with
              | Some d when d.Demo.meta.Demo.ticks <> ctx.tick ->
                  Some
                    (Printf.sprintf
                       "recording has %d ops, replay executed %d (record with \
                        debug_trace for an op-level diff)"
                       d.Demo.meta.Demo.ticks ctx.tick)
              | _ -> None)
          | recorded ->
              let mine = map_trace ctx trace_line in
              let rec first_diff i a b =
                match (a, b) with
                | [], [] -> None
                | x :: _, [] ->
                    Some (Printf.sprintf "tick %d: recorded %S, replay ended" i x)
                | [], y :: _ ->
                    Some (Printf.sprintf "tick %d: recording ended, replay %S" i y)
                | x :: xs, y :: ys ->
                    if x = y then first_diff (i + 1) xs ys
                    else
                      Some
                        (Printf.sprintf "tick %d: recorded %S, replayed %S" i x y)
              in
              first_diff 0 recorded mine)
      | _ -> None
    in
    let soft_desync =
      match ctx.replay with
      | Some d ->
          Digest.to_hex (Digest.string (World.output world))
          <> d.Demo.meta.output_digest
      | None -> false
    in
    let thread_time =
      let m = ref 0 in
      for i = 0 to ctx.next_tid - 1 do
        match ctx.tvec.(i) with
        | Some t -> if t.ltime > !m then m := t.ltime
        | None -> ()
      done;
      !m
    in
    {
      outcome;
      makespan_us =
        conf.Conf.startup_us + max thread_time (max ctx.makespan ctx.gclock);
      ticks = ctx.tick;
      races;
      race_count = Detector.report_count ctx.det;
      lock_cycles = Lockorder.cycles ctx.lockorder;
      output = World.output world;
      soft_desync;
      demo;
      trace = map_trace ctx trace_entry;
      thread_names =
        (let names = ref [] in
         for i = ctx.next_tid - 1 downto 0 do
           match ctx.tvec.(i) with
           | Some t -> names := (t.tid, t.tname) :: !names
           | None -> ()
         done;
         !names);
      trace_divergence;
      rng_draws = Prng.draws ctx.rng;
      desync_count = ctx.desync_count;
      divergences = List.rev ctx.desyncs;
      metrics =
        {
          Metrics.m_ticks = ctx.tick;
          m_waits = ctx.waits;
          m_preemptions = ctx.preemptions;
          m_evictions = Atomics.evictions ctx.mem;
          m_stale_reads = Atomics.stale_reads ctx.mem;
          m_det_checks = Detector.checks ctx.det;
          m_desyncs = ctx.desync_count;
          m_timeouts = (match outcome with Timeout -> 1 | _ -> 0);
          m_retries = 0;
          m_salvages = 0;
          m_cov_bits = Coverage.count ctx.cov;
          m_corpus_adds = 0;
          m_energy = 0;
          m_predicted = 0;
          m_pred_verified = 0;
          m_pred_refuted = 0;
        };
      events = Trace.to_list ctx.obs;
      events_dropped = Trace.dropped ctx.obs;
      coverage = Coverage.summarize ctx.cov;
      decisions;
      accesses;
    }
  in
  try
    let _main =
      new_thread ctx ~name:"main" ~parent_st:None ~at:0 program.Api.main
    in
    replay_initial_signals ctx;
    let rec loop () =
      match ctx.finished with
      | Some o -> o
      | None ->
          if ctx.tick >= conf.Conf.max_ticks then Tick_limit
          else if
            (* Supervision backstop for wedged runs; checked every 64
               ticks so the hot path pays one land+branch. *)
            ctx.deadline_at < infinity
            && ctx.tick land 63 = 0
            && Unix.gettimeofday () > ctx.deadline_at
          then Timeout
          else begin
            fill_ready ctx;
            if ctx.ready_n = 0 then begin
              if is_replay ctx then begin
                (* Replay: only the async events recorded for this tick
                   can re-enable a thread now. *)
                ignore (replay_asyncs_for_tick ctx);
                fill_ready ctx;
                if ctx.ready_n > 0 then loop () else stuck ctx
              end
              else
                match World.peek_signal ctx.world with
                | Some (at, _) when alive ctx <> [] ->
                    ctx.gclock <- max ctx.gclock at;
                    poll_env_signals ctx;
                    loop ()
                | _ -> stuck ctx
            end
            else begin
              let t = pick_thread ctx in
              if t.tid <> ctx.last_sched then begin
                (* A switch away from a thread that could still run is a
                   preemption; switches at blocking points are free. *)
                (match thread_opt ctx ctx.last_sched with
                | Some prev when prev.status = Ready ->
                    ctx.preemptions <- ctx.preemptions + 1;
                    if Coverage.enabled ctx.cov then
                      Coverage.mark ctx.cov
                        (Coverage.site_preempt ~prev:prev.tid ~next:t.tid)
                | _ -> ());
                Trace.emit ctx.obs Trace.Sched ~tick:ctx.tick ~tid:t.tid
                  ~label:t.tname ~ts:ctx.gclock ~dur:0
              end;
              ctx.last_sched <- t.tid;
              let tickno = ctx.tick in
              if ctx.dec_on then begin
                (* Decision capture for DPOR: enabled set and footprint
                   before the op runs, draw counts as deltas around it.
                   Off this branch (every non-Guided strategy) the tick
                   pays one load+branch and allocates nothing. *)
                let enabled = Array.sub ctx.ready_scratch 0 ctx.ready_n in
                let foot = footprint_of_next ctx t in
                let draws0 = Prng.draws ctx.rng in
                let rand0 = Atomics.rand_choices ctx.mem in
                ctx.dec_rand <- false;
                ctx.dec_lock <- Decision.L_none;
                (* Count the op before it runs: accesses streamed from
                   this op's invisible pump attribute to position
                   [dec_counts.(tid)] — after the op, matching the
                   event-position model of the predictive analysis
                   (a spawned child's initial segment stays at 0). *)
                if Array.length ctx.dec_counts <= t.tid then begin
                  let bigger = Array.make (max 8 (2 * (t.tid + 1))) 0 in
                  Array.blit ctx.dec_counts 0 bigger 0
                    (Array.length ctx.dec_counts);
                  ctx.dec_counts <- bigger
                end;
                ctx.dec_counts.(t.tid) <- ctx.dec_counts.(t.tid) + 1;
                exec_cs ctx t;
                ctx.decisions <-
                  {
                    Decision.d_tid = t.tid;
                    d_enabled = enabled;
                    d_foot = foot;
                    d_draws = Prng.draws ctx.rng - draws0;
                    d_rand =
                      ctx.dec_rand || Atomics.rand_choices ctx.mem > rand0;
                    d_lock = ctx.dec_lock;
                  }
                  :: ctx.decisions
              end
              else exec_cs ctx t;
              consume_queue_entry ctx t;
              ctx.tick <- tickno + 1;
              replay_signals_after_cs ctx ~tickno ~tid:t.tid;
              poll_env_signals ctx;
              loop ()
            end
          end
    in
    finish (loop ())
  with
  | Hard msg -> finish (Hard_desync msg)
  | Diagnosed d ->
      ctx.desync_count <- ctx.desync_count + 1;
      ctx.desyncs <- d :: ctx.desyncs;
      finish
        (Hard_desync
           (Printf.sprintf "op %d thread %d: %s expects %s, got %s" d.div_tick
              d.div_tid d.div_site d.div_expected d.div_actual))
  | Unsupported_run msg -> finish (Unsupported_app msg)
  | World.Unsupported msg -> finish (Unsupported_app msg)

let completed r = r.outcome = Completed
