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

(* Int-typed, so clock arithmetic on the tick compiles to a compare and
   a branch instead of a call to the polymorphic [caml_greaterequal]. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

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

type schedule = { codes : int array; labels : string array }

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
  trace : schedule;
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

type tap_op = Tap_none | Tap_signal | Tap_req : 'a Api.req -> tap_op

type tap = {
  on_decision :
    tid:int ->
    enabled:int array ->
    op:tap_op ->
    next_tid:int ->
    draws:int ->
    rand:bool ->
    lock:int ->
    unit;
  on_access :
    tick:int -> tid:int -> pos:int -> var:int -> write:bool -> name:string -> unit;
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
  body_handler : (unit, unit) handler;
      (* runs the thread's body: built with the record, which the
         arena recycles, so starting a thread builds no handler *)
}

type mstate = { mutable owner : int option; mutable m_clock : Vclock.t }
type cstate = { mutable c_clock : Vclock.t }

type rwstate = {
  mutable rw_readers : int list;  (* tids currently holding read locks *)
  mutable rw_writer : int option;
  mutable rw_clock : Vclock.t;
}

(* The run's label table, in first-use order, and an open-addressing
   index over it: slot [i] holds [epoch lsl 17 lor (k + 1)] for label
   [k] of the build numbered [epoch]; a slot stamped with an older
   epoch is free, so a build starts without clearing the index. Arena
   scratch, so interning allocates only when the table grows. *)
type interner = {
  mutable slots : int array;  (* a power of two, at most half full *)
  mutable table : string array;  (* [0, n) this build's, the rest stale *)
  mutable n : int;
  mutable epoch : int;  (* from 1; the slots start at 0, free *)
  mutable last : string array;  (* the table the last schedule got *)
}

(* A run's context, recycled across runs as the arena: every field a
   run changes is set again by [prepare] before the next run starts
   (OWNERSHIP: one domain, at most one live run at a time). *)
type ctx = {
  mutable conf : Conf.t;
  mutable world : World.t;
  mutable program : Api.program;
  mutable mem : Atomics.t;  (* rebuilt if conf.max_history changes *)
  det : Detector.t;
  lockorder : Lockorder.t;
  rng : Prng.t;
  choose : int -> int;  (* scheduler PRNG draw, shared with the memory model *)
  mutable tvec : thread option array;  (* index = tid; dense, threads never leave *)
  mutable ready_scratch : int array;  (* tids of the runnable threads *)
  mutable ready_n : int;
  mutable next_tid : int;
  mutable next_obj : int;
  mutexes : mstate Inttbl.t;
  conds : cstate Inttbl.t;
  rwlocks : rwstate Inttbl.t;
  handlers : (unit -> unit) Inttbl.t;
  fd_classes : Policy.fd_class Inttbl.t;
  mutable gclock : int;
  mutable makespan : int;
  mutable tick : int;
  mutable deadline_at : float;  (* Unix.gettimeofday () cutoff; infinity = none *)
  mutable cur : int;
      (* tid of the thread whose code runs: set wherever fiber code
         starts, so an invisible request is charged to its thread *)
  (* The trace log: tick [i]'s critical section has the schedule code
     [tr_codes.(i)] over the run's label table [labels], for [i < tr_n]
     (every tick logs exactly one, see [log_trace]). Arena storage, so
     a run logs without allocating; [finish] copies the result's
     schedule out of it. *)
  mutable tr_codes : int array;
  mutable tr_n : int;
  labels : interner;
  mutable names : (int * string) list;  (* the last result's thread names *)
  (* recording *)
  mutable recording : bool;  (* conf.mode is Record *)
  mutable rec_signals : Demo.signal_entry list;  (* reversed *)
  mutable rec_syscalls : Demo.syscall_entry list;  (* reversed *)
  mutable rec_asyncs : Demo.async_entry list;  (* reversed *)
  (* replay: the demo, consumed in tick order, and what [finish]
     checks the run against; the run keeps no more of the demo *)
  mutable cursor : Demo.cursor option;
  mutable recorded : (Demo.meta * string list) option;
  mutable replaying : bool;  (* [cursor <> None] *)
  mutable finished : outcome option;
  (* schedule-bounding strategies *)
  mutable strat_budget : int;  (* remaining delays / preemptions *)
  mutable last_sched : int;  (* tid of the previously scheduled thread *)
  (* desync recovery *)
  mutable desync_count : int;
  mutable desyncs : divergence list;  (* first 64, reversed *)
  (* observability: the run's sinks, [Trace.disabled] and
     [Coverage.disabled] unless the configuration asks for them, and
     the arena's buffers they reuse *)
  mutable obs : Trace.t;
  mutable cov : Coverage.t;
  mutable obs_buf : Trace.t;  (* rebuilt if capacity changes *)
  mutable cov_buf : Coverage.t;
  mutable last_cs_start : int;  (* start of the current critical section *)
  mutable waits : int;
  mutable preemptions : int;
  mutable faults_seen : int;  (* World.faults_injected already traced *)
  (* decision capture for systematic exploration (Guided strategy only) *)
  mutable dec_on : bool;
  (* The decision log, arena storage as the trace log is, and ints
     only, so logging a decision stores no pointer: the run's decision
     [i] is thread [dl_tid.(i)] at the enabled set of code
     [dl_en.(i)], with the footprint of code [dl_foot.(i)] (and
     [dl_aux.(i)], see [foot_code]), [dl_draws.(i) asr 1] draws, rand
     bit [dl_draws.(i) land 1] and lock code [dl_lock.(i)], for
     [i < dl_n]. [finish] builds the result's records from it, each
     footprint, enabled set and lock event shared through [share]. *)
  mutable dl_n : int;
  mutable dl_tid : int array;
  mutable dl_draws : int array;
  mutable dl_lock : int array;
  mutable dl_en : int array;
  mutable dl_foot : int array;
  mutable dl_aux : int array;
  mutable dl_sets : int array array;
      (* the run's enabled sets that [Decision.Share] does not keep:
         set code [-1 - k] is [dl_sets.(k)] *)
  mutable dl_nsets : int;
  (* The access log: access [i] is tick, tid, position, variable id and
     write flag at [al_int.(5i .. 5i + 4)], named [al_name.(i)], for
     [i < al_n]. *)
  mutable al_n : int;
  mutable al_int : int array;
  mutable al_name : string array;
  share : Decision.Share.t;  (* footprints, enabled sets, lock events *)
  mutable memo : Decision.t array;
      (* see [memo_decision]; empty until the arena's first captured run *)
  mutable memo_keys : int array;
  mutable dec_rand : bool;  (* current op drew among >= 2 live waiters *)
  mutable dec_lock : int;  (* current op's lock transition, a lock code *)
  mutable dec_counts : int array;  (* per-tid executed visible ops *)
  access_hook : (Detector.var -> tid:int -> write:bool -> unit) option;
      (* logs a shadow-checked access, under capture *)
  mutable tap : tap option;  (* see [set_tap] *)
  mutable busy : bool;  (* a run is live on the arena *)
  invisible : Api.handler;  (* answers the running thread's invisible requests *)
  charge_report : T11r_race.Report.t -> unit;
      (* the detector's hook for [Conf.report_cost] *)
  cover_report : T11r_race.Report.t -> unit;
      (* the detector's hook marking a race's coverage site *)
}

(* A schedule code is [tid lsl 16 lor k], [k] the label's index in the
   run's own table; a run whose codes would not fit is refused. *)
let label_bits = 16
let max_tid = max_int lsr label_bits

let interner () =
  { slots = Array.make 64 0; table = Array.make 32 ""; n = 0; epoch = 0; last = [||] }

let epoch_shift = label_bits + 1
let k_mask = (1 lsl epoch_shift) - 1

(* From the length and three bytes, OCaml arithmetic; labels that
   collide are told apart by [String.equal]. *)
let[@inline] label_slot l mask =
  let n = String.length l in
  let h =
    if n = 0 then 0
    else
      (n * 961)
      + (Char.code (String.unsafe_get l 0) * 31)
      + (Char.code (String.unsafe_get l (n / 2)) * 7)
      + Char.code (String.unsafe_get l (n - 1))
  in
  (h * 0x2545F491) lsr 8 land mask

(* The slot holding [l] in this build, or the free slot where it goes. *)
let rec find_slot it l mask i =
  let v = Array.unsafe_get it.slots i in
  if v lsr epoch_shift <> it.epoch then i
  else
    let t = Array.unsafe_get it.table ((v land k_mask) - 1) in
    if t == l || String.equal t l then i else find_slot it l mask ((i + 1) land mask)

let rec add it l =
  let mask = Array.length it.slots - 1 in
  let i = find_slot it l mask (label_slot l mask) in
  let v = Array.unsafe_get it.slots i in
  if v lsr epoch_shift = it.epoch then (v land k_mask) - 1
  else begin
    let k = it.n in
    if k >= 1 lsl label_bits then
      invalid_arg
        (Printf.sprintf "Interp: a schedule of more than %d distinct labels"
           (1 lsl label_bits));
    if 2 * (k + 1) > Array.length it.slots then begin
      let slots = Array.make (2 * Array.length it.slots) 0 in
      let mask = Array.length slots - 1 in
      for j = 0 to k - 1 do
        let rec free i = if slots.(i) = 0 then i else free ((i + 1) land mask) in
        slots.(free (label_slot it.table.(j) mask)) <-
          (it.epoch lsl epoch_shift) lor (j + 1)
      done;
      it.slots <- slots;
      add it l
    end
    else begin
      if k = Array.length it.table then begin
        let table = Array.make (2 * k) "" in
        Array.blit it.table 0 table 0 k;
        it.table <- table
      end;
      (* A build of the same program interns the same labels in the
         same order: the slot mostly holds [l] already, and a store to
         the long-lived table costs a write barrier. *)
      if Array.unsafe_get it.table k != l then it.table.(k) <- l;
      it.n <- k + 1;
      it.slots.(i) <- (it.epoch lsl epoch_shift) lor (k + 1);
      k
    end
  end

(* [l]'s index; the hit at its home slot, the common case, makes no
   call. *)
let[@inline] intern it l =
  let slots = it.slots in
  let v = Array.unsafe_get slots (label_slot l (Array.length slots - 1)) in
  if v lsr epoch_shift = it.epoch
     && Array.unsafe_get it.table ((v land k_mask) - 1) == l
  then (v land k_mask) - 1
  else add it l

(* A new build: the index is empty, whatever earlier builds left. *)
let start_build it =
  it.epoch <- it.epoch + 1;
  it.n <- 0

(* The schedule code of [tid] running as [label], [label] interned in
   the current build. *)
let code it tid label =
  if tid < 0 || tid > max_tid then
    invalid_arg (Printf.sprintf "Interp: tid %d does not fit a schedule code" tid);
  (tid lsl label_bits) lor intern it label

let label_of it c = it.table.(c land ((1 lsl label_bits) - 1))

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
   stores no pointer here and allocates nothing. *)
let fill_ready ctx =
  if Array.length ctx.ready_scratch < ctx.next_tid then
    ctx.ready_scratch <- Array.make (max 8 (2 * ctx.next_tid)) 0;
  let n = ref 0 in
  for tid = 0 to ctx.next_tid - 1 do
    match ctx.tvec.(tid) with
    | Some { status = Ready; _ } ->
        ctx.ready_scratch.(!n) <- tid;
        incr n
    | _ -> ()
  done;
  ctx.ready_n <- !n

(* The code of the runnable tids as a decision's enabled set: the
   set's bitmask when every tid is below [Decision.Share.mask_bits]
   (the arena shares one array per set), else [-1 - k] for the run's
   set [k]: the latest decision's set when unchanged, else a fresh copy
   of the scratch. Nothing writes into a captured set. *)
let rec same_upto (a : int array) b i n =
  i >= n || (a.(i) = b.(i) && same_upto a b (i + 1) n)

let capture_enabled ctx =
  let n = ctx.ready_n and s = ctx.ready_scratch in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let tid = Array.unsafe_get s i in
    m := if tid < Decision.Share.mask_bits then !m lor (1 lsl tid) else min_int
  done;
  if !m > 0 then !m
  else
    let k = ctx.dl_nsets in
    if
      k > 0
      && ctx.dl_n > 0
      && ctx.dl_en.(ctx.dl_n - 1) = -k
      && Array.length ctx.dl_sets.(k - 1) = n
      && same_upto ctx.dl_sets.(k - 1) ctx.ready_scratch 0 n
    then -k
    else begin
      if k = Array.length ctx.dl_sets then begin
        let a = Array.make (max 8 (2 * k)) [||] in
        Array.blit ctx.dl_sets 0 a 0 k;
        ctx.dl_sets <- a
      end;
      ctx.dl_sets.(k) <- Array.sub ctx.ready_scratch 0 n;
      ctx.dl_nsets <- k + 1;
      -1 - k
    end

let enabled_of_code ctx code =
  if code > 0 then Decision.Share.enabled ctx.share code
  else ctx.dl_sets.(-1 - code)

(* Lock codes: [id lsl 2] plus the transition, 0 for none. *)
let lock_acquire = 1
let lock_release = 2
let lock_blocked = 3

let lock_event ctx code =
  let id = code asr 2 in
  match code land 3 with
  | 0 -> Decision.L_none
  | 1 -> Decision.Share.acquire ctx.share id
  | 2 -> Decision.Share.release ctx.share id
  | _ -> Decision.Share.blocked ctx.share id

(* Double the decision log's arrays. *)
let grow_decision_log ctx =
  let n = ctx.dl_n in
  let cap = max 64 (2 * n) in
  let widen a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 n;
    b
  in
  ctx.dl_tid <- widen ctx.dl_tid;
  ctx.dl_draws <- widen ctx.dl_draws;
  ctx.dl_lock <- widen ctx.dl_lock;
  ctx.dl_en <- widen ctx.dl_en;
  ctx.dl_foot <- widen ctx.dl_foot;
  ctx.dl_aux <- widen ctx.dl_aux

(* Log a shadow-checked access of [tid] to [v] (the detector's access
   hook under capture), attributed to the thread's position after its
   latest visible op. *)
let log_access ctx v ~tid ~write =
  let n = ctx.al_n in
  if n = Array.length ctx.al_name then begin
    let cap = max 64 (2 * n) in
    let ints = Array.make (5 * cap) 0 in
    Array.blit ctx.al_int 0 ints 0 (5 * n);
    let names = Array.make cap "" in
    Array.blit ctx.al_name 0 names 0 n;
    ctx.al_int <- ints;
    ctx.al_name <- names
  end;
  let o = 5 * n in
  let a = ctx.al_int in
  a.(o) <- ctx.tick;
  a.(o + 1) <- tid;
  a.(o + 2) <- (if tid < Array.length ctx.dec_counts then ctx.dec_counts.(tid) else 0);
  a.(o + 3) <- Detector.var_id v;
  a.(o + 4) <- Bool.to_int write;
  ctx.al_name.(n) <- Detector.var_name v;
  ctx.al_n <- n + 1;
  match ctx.tap with
  | None -> ()
  | Some tap ->
      tap.on_access ~tick:a.(o) ~tid ~pos:a.(o + 2) ~var:a.(o + 3) ~write
        ~name:ctx.al_name.(n)

let rget ctx i =
  match ctx.tvec.(ctx.ready_scratch.(i)) with Some t -> t | None -> assert false
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
  if n = Array.length ctx.tr_codes then begin
    let codes = Array.make (max 64 (2 * n)) 0 in
    Array.blit ctx.tr_codes 0 codes 0 n;
    ctx.tr_codes <- codes
  end;
  ctx.tr_codes.(n) <- code ctx.labels tid label;
  ctx.tr_n <- n + 1

(* Log entries [from, tr_n) as [f tick tid label], in order; built back
   to front, so each element is one cons. *)
let map_trace ?(from = 0) ctx f =
  let acc = ref [] in
  for i = ctx.tr_n - 1 downto from do
    let c = ctx.tr_codes.(i) in
    acc := f i (c lsr label_bits) (label_of ctx.labels c) :: !acc
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
  match ctx.finished with
  | None -> ctx.finished <- Some (Crashed (t.tid, msg))
  | Some _ -> ()

(* [a = b], without the polymorphic compare. *)
let same_reason a b =
  match (a, b) with
  | On_mutex x, On_mutex y | On_join x, On_join y
  | On_cond x, On_cond y | On_rwlock x, On_rwlock y -> x = y
  | _ -> false

(* Re-enable every thread blocked for [reason] (a finished thread's
   joiners, an unlocked rwlock's waiters). *)
let wake_all ctx reason ~at =
  for i = 0 to ctx.next_tid - 1 do
    match ctx.tvec.(i) with
    | Some ({ status = Disabled r; _ } as w) when same_reason r reason ->
        w.status <- Ready;
        w.arrival <- max w.arrival at
    | _ -> ()
  done

(* A fiber's exception: the run's own control exceptions unwind the
   run, any other is the program's crash. *)
let fiber_exn ctx t e =
  match e with
  | Hard _ | Unsupported_run _ | Diagnosed _ -> raise e
  | e -> crash ctx t (Printexc.to_string e)

(* A visible request parks the fiber. *)
let fiber_effc t (type a) (eff : a Effect.t) =
  match eff with
  | Api.Op r -> Some (fun (k : (a, _) continuation) -> t.pending <- P (r, k))
  | _ -> None

(* The handler of a signal handler's or a synchronous raise's fiber,
   whose return [on_return] resumes the interrupted code. *)
let fiber_handler ctx t ~on_return =
  {
    retc = on_return;
    exnc = fiber_exn ctx t;
    effc = (fun (type c) (eff : c Effect.t) -> fiber_effc t eff);
  }

(* A thread's body returned: it is done, and its joiners wake. *)
let body_return ctx t =
  t.status <- Done;
  t.pending <- No_request;
  wake_all ctx (On_join t.tid) ~at:t.ltime

(* Physical-timing noise on a visible request's arrival, which orders
   the FIFO picks. A replay draws none: the demo orders its picks. The
   os model is the exception, as nothing but arrival orders its picks:
   its recordings draw the noise from the scheduler PRNG, whose seeds
   META keeps, so their replays draw the same values. *)
let arrival_jitter ctx =
  let us = ctx.conf.queue_jitter_us in
  if us <= 0 then 0
  else
    match (ctx.conf.sched, ctx.conf.mode) with
    | Conf.Os_model, (Conf.Record _ | Conf.Replay _) -> draw ctx us
    | _, Conf.Replay _ -> 0
    | _ -> World.jitter ctx.world us

let fresh_obj ctx =
  let id = ctx.next_obj in
  ctx.next_obj <- id + 1;
  id

(* Stamp the arrival of the visible request a thread's fiber code
   just parked on (invisible requests never park: they run inline). *)
let stamp_arrival ctx t =
  match (t.status, t.pending) with
  | (Done | Dead _), _ | _, No_request -> ()
  | _, P _ -> t.arrival <- t.ltime + arrival_jitter ctx

let spend t us =
  t.ltime <- t.ltime + us;
  t.invis_acc <- t.invis_acc + us

(* Answer an invisible request of the running thread [t], on its own
   fiber. *)
let handle_invisible : type a. ctx -> thread -> a Api.req -> a =
 fun ctx t r ->
  let conf = ctx.conf in
  match r with
  | Api.New_atomic (name, init) ->
      { Api.a_loc = Atomics.fresh_loc ctx.mem ~name ~init }
  | Api.New_var (name, init) ->
      { Api.v_var = Detector.fresh_var ctx.det ~name; v_val = init }
  | Api.New_mutex name ->
      let id = fresh_obj ctx in
      Inttbl.replace ctx.mutexes id { owner = None; m_clock = Vclock.empty };
      { Api.mu_id = id; mu_name = name }
  | Api.New_cond name ->
      let id = fresh_obj ctx in
      Inttbl.replace ctx.conds id { c_clock = Vclock.empty };
      { Api.cv_id = id; cv_name = name }
  | Api.New_rwlock name ->
      let id = fresh_obj ctx in
      Inttbl.replace ctx.rwlocks id
        { rw_readers = []; rw_writer = None; rw_clock = Vclock.empty };
      { Api.rw_id = id; rw_name = name }
  | Api.Var_load v ->
      if conf.race_detection then begin
        Detector.read ctx.det v.Api.v_var ~st:t.tst;
        spend t conf.var_cost
      end;
      v.Api.v_val
  | Api.Var_store (v, x) ->
      if conf.race_detection then begin
        Detector.write ctx.det v.Api.v_var ~st:t.tst;
        spend t conf.var_cost
      end;
      v.Api.v_val <- x
  | Api.Work us -> spend t (int_of_float (float_of_int us *. conf.invis_mult))
  | Api.Work_mem (us, accesses) ->
      spend t
        (int_of_float (float_of_int us *. conf.invis_mult)
        + (accesses * conf.var_cost))
  | Api.Sleep ms ->
      (* Sleeping is not slowed by instrumentation. *)
      spend t (ms * 1000)
  | Api.Self -> t.tid
  | Api.Now -> t.ltime
  | Api.Alloc n -> World.alloc ctx.world n
  | _ -> assert false (* visible requests never reach handle_invisible *)

(* Run fiber code of thread [t] until it parks on a visible request,
   returns or crashes, naming [t] the running thread meanwhile. *)
let start_fiber ctx t f handler =
  let prev = ctx.cur in
  ctx.cur <- t.tid;
  match_with f () handler;
  ctx.cur <- prev

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
           fresh run drops it by never referencing it. A pointer field
           that already holds its value is not written again, as a
           write to the long-lived record costs a write barrier. *)
        (match parent_st with
        | Some p -> Tstate.reinit_fork t.tst ~parent:p ~tid
        | None -> Tstate.reinit t.tst ~tid);
        if t.tname != name then t.tname <- name;
        t.status <- Ready;
        (match t.pending with No_request -> () | P _ -> t.pending <- No_request);
        (match t.shelved with [] -> () | _ :: _ -> t.shelved <- []);
        t.arrival <- at;
        t.ltime <- at;
        t.invis_acc <- 0;
        (match t.cwait with None -> () | Some _ -> t.cwait <- None);
        (match t.sigq with [] -> () | _ :: _ -> t.sigq <- []);
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
        let rec t =
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
            body_handler =
              {
                retc = (fun () -> body_return ctx t);
                exnc = (fun e -> fiber_exn ctx t e);
                effc = (fun (type c) (eff : c Effect.t) -> fiber_effc t eff);
              };
          }
        in
        ctx.tvec.(tid) <- Some t;
        t
  in
  t.priority <- draw ctx 1_000_000;
  start_fiber ctx t body t.body_handler;
  stamp_arrival ctx t;
  t

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)

let record_async ctx kind =
  if ctx.recording then
    ctx.rec_asyncs <- { Demo.a_tick = ctx.tick; a_kind = kind } :: ctx.rec_asyncs

(* Waking a disabled signal victim is an asynchronous event of its own
   (§4.5), recorded in ASYNC when it happens. *)
let wake_victim ctx t =
  match t.status with
  | Disabled _ ->
      t.status <- Ready;
      t.arrival <- max t.arrival ctx.gclock;
      record_async ctx (Demo.Signal_wakeup t.tid)
  | _ -> ()

(* On replay a delivery wakes nobody: the wakeup happens only when the
   recorded ASYNC event says so ([replay_asyncs]), so the enabled set
   evolves exactly as recorded. *)
let deliver_signal ctx t signo =
  t.sigq <- t.sigq @ [ signo ];
  if not ctx.replaying then wake_victim ctx t

(* Record/free mode: deliver environment signals whose arrival time has
   passed, each to a PRNG-chosen victim thread (§4.3). *)
let poll_env_signals ctx =
  if not ctx.replaying then begin
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
              if ctx.recording then
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

(* Replay mode: deliver the recorded signals pinned to the critical
   section [tid] just completed at [tickno] ("the signal floats to the
   end of Tick()", Fig. 6). Tick -1 holds the signals recorded before
   their victim's first critical section, delivered up front. *)
let replay_signals ctx ~tickno ~tid =
  match ctx.cursor with
  | Some c ->
      Demo.take_signals c tickno (fun s ->
          if tickno < 0 || s.s_tid = tid then
            match thread_opt ctx s.s_tid with
            | Some t -> deliver_signal ctx t s.s_signo
            | None ->
                (* Resync: drop the undeliverable signal. *)
                diverge ctx ~tid:s.s_tid ~site:"SIGNAL"
                  ~expected:
                    (Printf.sprintf "thread %d to deliver signal %d to"
                       s.s_tid s.s_signo)
                  ~actual:"no such thread")
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Strategies                                                           *)

(* Replay: apply the ASYNC events recorded for this tick, the one place
   they are applied: before the tick's [fill_ready], where the recorder
   woke its victims. Returns the number of Reschedule events, each one
   redraw of the recorder's pick. *)
let replay_asyncs ctx =
  match ctx.cursor with
  | None -> 0
  | Some c ->
      let rescheds = ref 0 in
      Demo.take_asyncs c ctx.tick (fun a ->
          match a.Demo.a_kind with
          | Demo.Reschedule -> incr rescheds
          | Demo.Signal_wakeup tid -> (
              match thread_opt ctx tid with
              | Some t -> wake_victim ctx t
              | None ->
                  (* Resync: drop the wakeup. *)
                  diverge ctx ~tid ~site:"ASYNC"
                    ~expected:(Printf.sprintf "thread %d to wake" tid)
                    ~actual:"no such thread"));
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

let pick_random ctx ~rescheds =
  let n = ctx.ready_n in
  let resched_us = ctx.conf.resched_ms * 1000 in
  if ctx.replaying then begin
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

(* Index in the scratch of the (arrival, tid)-minimal runnable thread
   other than index [skip], the FIFO head by default; -1 if none. The
   scratch is tid-ascending, so keeping the first of equal arrivals
   reproduces the old list-fold's tie-break. One scan: the best
   arrival so far is kept in a local. *)
let fifo_best ?(skip = -1) ctx =
  let best = ref (-1) and best_at = ref 0 in
  let s = ctx.ready_scratch and tvec = ctx.tvec in
  for i = 0 to ctx.ready_n - 1 do
    if i <> skip then
      match tvec.(s.(i)) with
      | Some t ->
          let a = t.arrival in
          if !best < 0 || a < !best_at then begin
            best := i;
            best_at := a
          end
      | None -> assert false
  done;
  !best

(* The free-mode FIFO pick, also the Resync fallback when the QUEUE
   stream no longer matches the run: the first arrived thread of least
   arrival. That is the FIFO head if it has arrived; if it has not, no
   thread has. *)
let pick_fifo ctx =
  let t = rget ctx (fifo_best ctx) in
  if t.arrival > ctx.gclock then
    (* Idle until the first thread finishes its invisible region.
       Advance by the un-jittered clock so recorded timings are
       reproducible on replay. *)
    ctx.gclock <- max ctx.gclock t.ltime;
  t

(* A QUEUE desync: note it, then fall back to the FIFO pick. *)
let queue_desync ctx ~tid expected actual =
  diverge ctx ~tid ~site:"QUEUE" ~expected ~actual;
  pick_fifo ctx

let pick_queue ctx =
  match ctx.cursor with
  | None -> pick_fifo ctx
  | Some c -> (
      let tid = Demo.scheduled c ctx.tick in
      match thread_opt ctx tid with
      | Some ({ status = Ready; _ } as t) -> t
      | Some _ ->
          queue_desync ctx ~tid
            (Printf.sprintf "thread %d enabled" tid)
            "thread is blocked or gone"
      | None when tid < 0 ->
          queue_desync ctx ~tid "a thread scheduled for this tick" "none"
      | None ->
          queue_desync ctx ~tid
            (Printf.sprintf "thread %d to schedule" tid)
            "no such thread")

(* Delay bounding (Emmi et al.): follow the deterministic FCFS order,
   but up to [d] times take the second-in-line instead of the head.
   The resulting schedule depends on physical arrival order, so — like
   the queue strategy — it is recorded in the QUEUE file and enforced
   on replay. *)
let pick_delay_bounded ctx =
  match ctx.cursor with
  | Some _ ->
      let t = pick_queue ctx in
      (* Mirror the recorder's delay draw so the PRNG stream (which the
         memory model also reads) stays aligned. *)
      if ctx.ready_n >= 2 then ignore (draw ctx 1000);
      t
  | None ->
      let head = fifo_best ctx in
      let t =
        if ctx.ready_n < 2 then rget ctx head
        else
          let u = draw ctx 1000 in
          if ctx.strat_budget > 0 && u < 150 then begin
            ctx.strat_budget <- ctx.strat_budget - 1;
            rget ctx (fifo_best ~skip:head ctx)
          end
          else rget ctx head
      in
      ctx.gclock <- max ctx.gclock t.ltime;
      t

(* Preemption bounding (Musuvathi & Qadeer): run the current thread
   without preemption; switching at a blocking point is free, but at
   most [b] switches may happen while the current thread could still
   run. Purely PRNG-driven, so the seeds alone replay it. *)
let pick_preempt_bounded ctx =
  let n = ctx.ready_n in
  let cur = ref (-1) in
  for i = 0 to n - 1 do
    if ctx.ready_scratch.(i) = ctx.last_sched then cur := i
  done;
  let i =
    if !cur < 0 then draw ctx n
    else
      let u = draw ctx 1000 in
      if ctx.strat_budget > 0 && u < 200 && n > 1 then begin
        (* the [k]th of the other runnable threads *)
        ctx.strat_budget <- ctx.strat_budget - 1;
        let k = draw ctx (n - 1) in
        if k < !cur then k else k + 1
      end
      else !cur
  in
  let t = rget ctx i in
  ctx.gclock <- max ctx.gclock t.ltime;
  t

(* Guided picks for systematic exploration: deterministic choice by
   index in tid order. The tick's decision records the fan-out. *)
let pick_guided ctx ~prefix =
  (* the scratch is already sorted by tid *)
  let n = ctx.ready_n in
  let idx =
    if ctx.tick < Array.length prefix then min prefix.(ctx.tick) (n - 1) else 0
  in
  let t = rget ctx idx in
  ctx.gclock <- max ctx.gclock t.ltime;
  t

(* Pick among the threads in the just-filled, non-empty ready scratch,
   after the [rescheds] Reschedule events a replay applied this tick. *)
let pick_thread ctx ~rescheds =
  match ctx.conf.sched with
  | Conf.Os_model -> rget ctx (fifo_best ctx)
  | Conf.Controlled Conf.Random -> pick_random ctx ~rescheds
  | Conf.Controlled (Conf.Pct _) -> pick_pct ctx
  | Conf.Controlled Conf.Queue -> pick_queue ctx
  | Conf.Controlled (Conf.Delay_bounded _) -> pick_delay_bounded ctx
  | Conf.Controlled (Conf.Preempt_bounded _) -> pick_preempt_bounded ctx
  | Conf.Controlled (Conf.Guided { prefix; observed = _ }) ->
      pick_guided ctx ~prefix

(* ------------------------------------------------------------------ *)
(* Syscalls                                                             *)

let fd_class ctx fd : Policy.fd_class =
  if fd = World.stdout_fd then `Stdout
  else match Inttbl.find_opt ctx.fd_classes fd with Some c -> c | None -> `Sock

let note_new_fd ctx (r : Syscall.request) (res : Syscall.result) =
  if res.ret >= 0 then
    match r.kind with
    | Syscall.Open_ ->
        Inttbl.replace ctx.fd_classes res.ret
          (if r.path = World.gpu_path then `Gpu else `File)
    | Syscall.Bind -> Inttbl.replace ctx.fd_classes res.ret `Listen
    | Syscall.Pipe ->
        Inttbl.replace ctx.fd_classes res.ret `Pipe;
        (match int_of_string_opt (Bytes.to_string res.data) with
        | Some wfd -> Inttbl.replace ctx.fd_classes wfd `Pipe
        | None -> ())
    | Syscall.Accept | Syscall.Accept4 -> Inttbl.replace ctx.fd_classes res.ret `Sock
    | _ -> ()

(* [r] served by the world. *)
let live_syscall ctx ~now (r : Syscall.request) =
  let res =
    try World.syscall ctx.world ~now r
    with World.Unsupported msg -> raise (Unsupported_run msg)
  in
  note_new_fd ctx r res;
  res

(* [r]'s result: from the demo on a replay when [recordable] (the
   policy puts it in the demo), else live, and then also into the
   demo when recording. *)
let exec_syscall ctx t ~now ~recordable (r : Syscall.request) : Syscall.result =
  let conf = ctx.conf in
  let interposing = match conf.mode with Conf.Free -> false | _ -> true in
  if interposing && not (Policy.supports conf.policy r.kind) then
    raise
      (Unsupported_run
         (Printf.sprintf "syscall %s cannot be interposed (use the poll workaround)"
            (Syscall.kind_to_string r.kind)));
  match ctx.cursor with
  | Some c when recordable -> (
      let label = Syscall.kind_to_string r.kind in
      let of_entry (e : Demo.syscall_entry) =
        {
          Syscall.ret = e.Demo.sc_ret;
          errno = e.Demo.sc_errno;
          data = e.Demo.sc_data;
          elapsed = e.Demo.sc_elapsed;
        }
      in
      match Demo.take_syscall c ~tid:t.tid ~label ~within:1 with
      | Some e -> of_entry e
      | None -> (
          diverge ctx ~tid:t.tid ~site:"SYSCALL"
            ~expected:
              (match Demo.next_syscall c with
              | None -> "no more recorded calls"
              | Some e ->
                  Printf.sprintf "thread %d issuing %s" e.Demo.sc_tid
                    e.Demo.sc_label)
            ~actual:(Printf.sprintf "thread %d issuing %s" t.tid label);
          (* Resync: schedule skew can move results across threads —
             look a bounded distance ahead for this thread's entry,
             leaving skipped entries for their owners; otherwise serve
             the call live without consuming the stream. *)
          match Demo.take_syscall c ~tid:t.tid ~label ~within:16 with
          | Some e -> of_entry e
          | None -> live_syscall ctx ~now r))
  | _ ->
      let res = live_syscall ctx ~now r in
      if ctx.recording && recordable then
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

let mstate ctx (m : Api.mutex) = Inttbl.find ctx.mutexes m.Api.mu_id
let cstate ctx (c : Api.cond) = Inttbl.find ctx.conds c.Api.cv_id
let rwstate ctx (l : Api.rwlock) = Inttbl.find ctx.rwlocks l.Api.rw_id

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
  if ctx.dec_on then ctx.dec_lock <- (id lsl 2) lor lock_acquire;
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
  if ctx.dec_on then ctx.dec_lock <- (id lsl 2) lor lock_release;
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
  if Trace.enabled ctx.obs then
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
         ctx.dec_lock <- (id lsl 2) lor lock_blocked
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

let sig_entry_labels = Array.init 65 (Printf.sprintf "sig_entry:%d")

(* Execute a signal-handler entry as its own critical section: shelve
   the pending request and run the handler fiber. *)
let exec_signal_entry ctx t =
  let signo = List.hd t.sigq in
  t.sigq <- List.tl t.sigq;
  let fin = cs_timing ctx t ~recorded:false in
  note_cs ctx t
    (if signo >= 0 && signo < Array.length sig_entry_labels then
       sig_entry_labels.(signo)
     else Printf.sprintf "sig_entry:%d" signo)
    fin;
  (match t.pending with
  | P _ as p ->
      t.shelved <- p :: t.shelved;
      t.pending <- No_request
  | No_request -> ());
  (match Inttbl.find_opt ctx.handlers signo with
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
      start_fiber ctx t f (fiber_handler ctx t ~on_return)
  | None -> (
      (* No handler installed: ignore the signal (SIG_IGN model). *)
      match t.shelved with
      | p :: rest ->
          t.pending <- p;
          t.shelved <- rest
      | [] -> ()));
  stamp_arrival ctx t

(* Complete a critical section: log it, resume the thread with the
   response, and run its next invisible region. *)
let finish_cs : type a.
    ctx -> thread -> (a, unit) continuation -> string -> int -> a -> unit =
 fun ctx t k label fin v ->
  note_cs ctx t label fin;
  t.pending <- No_request;
  continue k v;
  stamp_arrival ctx t

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

(* Footprint codes: a kind in the low 4 bits, its payload above. *)
let foot_local = 0
let foot_fence = 1
let foot_global = 2
let foot_atomic = 3 (* 3 * location + access kind *)
let foot_sync = 4 (* F_sync (id, -1) *)
let foot_sync2 = 5 (* F_sync (id, aux) *)
let foot_spawn = 6
let foot_join = 7
let foot_syscall = 8

let[@inline] fcode kind payload = (payload lsl 4) lor kind

let atomic_code a k = fcode foot_atomic ((3 * Atomics.loc_id a.Api.a_loc) + k)

(* The footprint code of the visible operation thread [t] is about to
   execute, read off the parked request before [exec_cs] runs it; a
   condvar wait's second id goes to [ctx.dl_aux] at the decision's
   index. Conservative
   wherever the op couples to the environment: syscalls, signal
   deliveries, signal plumbing and timed waits conflict with
   everything (the world's PRNG and signal clock are shared state the
   explorer cannot factor). CAS counts as an update even when it
   fails — the failure path is a load, but whether it fails depends on
   the newest store, which is exactly the same-location dependence. *)
let foot_code ctx t =
  match t.sigq with
  | _ :: _ -> foot_global
  | [] ->
    match t.pending with
    | No_request -> foot_local
    | P (r, _) -> (
        match r with
        | Api.A_load (a, _) -> atomic_code a 0
        | Api.A_store (a, _, _) -> atomic_code a 1
        | Api.A_rmw (a, _, _) | Api.A_cas (a, _, _, _, _) -> atomic_code a 2
        | Api.Fence _ -> foot_fence
        | Api.Mutex_lock m | Api.Mutex_trylock m | Api.Mutex_unlock m ->
            fcode foot_sync m.Api.mu_id
        | Api.Rw_rdlock l | Api.Rw_wrlock l | Api.Rw_tryrdlock l
        | Api.Rw_trywrlock l | Api.Rw_unlock l ->
            fcode foot_sync l.Api.rw_id
        | Api.Cond_wait (c, m, timeout) -> (
            match timeout with
            | Some _ -> foot_global (* timer-vs-signal couples to world time *)
            | None ->
                ctx.dl_aux.(ctx.dl_n) <- m.Api.mu_id;
                fcode foot_sync2 c.Api.cv_id)
        | Api.Cond_signal c | Api.Cond_broadcast c -> fcode foot_sync c.Api.cv_id
        | Api.Spawn _ -> fcode foot_spawn ctx.next_tid
        | Api.Join target -> fcode foot_join target
        | Api.Syscall req -> fcode foot_syscall (Syscall.footprint_id req)
        | Api.Set_signal_handler _ | Api.Raise_sync _ -> foot_global
        | _ -> foot_local)

(* The footprint of code [code], logged as decision [i]. *)
let foot_of_code ctx i code : Decision.footprint =
  let sh = ctx.share and p = code asr 4 in
  match code land 15 with
  | 0 -> F_local
  | 1 -> F_fence
  | 2 -> F_global
  | 3 ->
      Decision.Share.atomic sh (p / 3)
        (match p mod 3 with 0 -> Acc_read | 1 -> Acc_write | _ -> Acc_update)
  | 4 -> Decision.Share.sync sh p (-1)
  | 5 -> Decision.Share.sync sh p ctx.dl_aux.(i)
  | 6 -> Decision.Share.spawn sh p
  | 7 -> Decision.Share.join sh p
  | _ -> Decision.Share.syscall sh p

(* Run syscall [req] of thread [t], whose critical section finishes at
   [fin]; [recordable] is the policy's decision for it. *)
let exec_syscall_op ctx t req (k : (Syscall.result, unit) continuation) fin
    ~recordable =
  let start = ctx.last_cs_start in
  let res = exec_syscall ctx t ~now:start ~recordable req in
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
  finish_cs ctx t k (Api.syscall_label req.Syscall.kind) fin res

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
      stamp_arrival ctx t
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
                Tstate.acquire_thread t.tst child.tst;
              t.ltime <- max t.ltime child.ltime;
              finish_cs ctx t k label (max fin child.ltime) ()
          | _ -> fail_cs ctx t "join_wait" fin (On_join target)))
  | Api.Set_signal_handler (signo, f) ->
      Inttbl.replace ctx.handlers signo f;
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
      match Inttbl.find_opt ctx.handlers signo with
      | None ->
          crash ctx t (Printf.sprintf "unhandled synchronous signal %d" signo)
      | Some f ->
          let on_return () =
            t.arrival <- max t.arrival t.ltime;
            continue k ()
          in
          start_fiber ctx t f (fiber_handler ctx t ~on_return);
          stamp_arrival ctx t)
  | Api.Syscall _ (* [exec_request] runs it *)
  | Api.New_atomic _ | Api.New_var _ | Api.New_mutex _ | Api.New_cond _
  | Api.New_rwlock _ | Api.Var_load _ | Api.Var_store _ | Api.Work _
  | Api.Work_mem _ | Api.Sleep _ | Api.Self | Api.Now | Api.Alloc _ ->
      assert false

(* Time the critical section of [t]'s parked request [r], then run it.
   A syscall's critical section costs [vis_cost_syscall], plus
   [record_cost] when its result goes into the demo: the policy decides
   that once, for the timing and for the demo. *)
let exec_request : type a.
    ctx -> thread -> a Api.req -> (a, unit) continuation -> unit =
 fun ctx t r k ->
  match r with
  | Api.Syscall req ->
      let recordable =
        Policy.should_record ctx.conf.policy
          ~fd_class:(fd_class ctx req.Syscall.fd)
          req
      in
      let interposed = match ctx.conf.mode with Conf.Free -> false | _ -> true in
      let fin = cs_timing ~syscall:true ctx t ~recorded:(recordable && interposed) in
      exec_syscall_op ctx t req k fin ~recordable
  | _ -> exec_op ctx t r k (cs_timing ctx t ~recorded:false)

(* Execute one critical section for thread [t]. *)
let exec_cs ctx t =
  match (t.sigq, t.pending) with
  | _ :: _, _ -> exec_signal_entry ctx t
  | [], No_request ->
      hard ctx (Printf.sprintf "thread %d scheduled with no request" t.tid)
  | [], P (r, k) ->
      (* [t]'s code runs from the [continue] in [exec_op] on. *)
      ctx.cur <- t.tid;
      exec_request ctx t r k

(* ------------------------------------------------------------------ *)
(* Demo assembly                                                        *)

(* A recording's demo, from its logs (newest first). *)
let build_demo conf ~seeds:(s1, s2) ~app ~ticks ~output (sch : schedule) ~signals
    ~syscalls ~asyncs extra =
  {
    Demo.meta =
      {
        app;
        strategy = Conf.sched_name conf.Conf.sched;
        seed1 = s1;
        seed2 = s2;
        ticks;
        output_digest = Digest.to_hex (Digest.string output);
      };
    queue =
      (match conf.Conf.sched with
      | Conf.Controlled (Conf.Queue | Conf.Delay_bounded _) ->
          let tids = Array.map (fun c -> c lsr label_bits) sch.codes in
          Some (Demo.queue_of_trace tids (Array.length tids))
      | _ -> None);
    signals = List.rev signals;
    syscalls = List.rev syscalls;
    asyncs = List.rev asyncs;
    extra;
  }

(* ------------------------------------------------------------------ *)
(* The result's schedule                                                *)

(* The schedule of codes [0, n) over [it]'s current build. Its label
   table is the one the last schedule got when that holds the same
   labels, as it does for most runs of one program: results share it,
   and neither side writes to it. *)
let schedule_of_codes it codes n =
  let k = it.n and last = it.last in
  let rec same i =
    i >= k
    || (let l = it.table.(i) and m = last.(i) in
        (l == m || String.equal l m) && same (i + 1))
  in
  let labels =
    if Array.length last = k && same 0 then last
    else begin
      let labels = Array.sub it.table 0 k in
      it.last <- labels;
      labels
    end
  in
  { codes = Array.sub codes 0 n; labels }

(* The run's (tid, name) per thread, in creation order: the list the
   previous run on this arena got when it names the same threads, so
   results of one program share it. *)
let thread_names ctx =
  let rec same i = function
    | [] -> i = ctx.next_tid
    | (tid, name) :: rest -> (
        i < ctx.next_tid
        &&
        match ctx.tvec.(i) with
        | Some t ->
            t.tid = tid && (t.tname == name || String.equal t.tname name) && same (i + 1) rest
        | None -> false)
  in
  if same 0 ctx.names then ctx.names
  else begin
    let names = ref [] in
    for i = ctx.next_tid - 1 downto 0 do
      match ctx.tvec.(i) with
      | Some t -> names := (t.tid, t.tname) :: !names
      | None -> ()
    done;
    ctx.names <- !names;
    !names
  end

let schedule_of_list l =
  let it = interner () in
  start_build it;
  let codes = Array.of_list (List.map (fun (tid, label) -> code it tid label) l) in
  schedule_of_codes it codes (Array.length codes)

let trace_list r =
  let { codes; labels } = r.trace in
  let acc = ref [] in
  for i = Array.length codes - 1 downto 0 do
    let c = codes.(i) in
    acc := (i, c lsr label_bits, labels.(c land ((1 lsl label_bits) - 1))) :: !acc
  done;
  !acc

(* [r] without its demo, as the unshared Marshal bytes of the result
   record whose field 10 was the schedule as a [(tick, tid, label)
   list]: the pinned digests keep their bytes. Fields 0-9 and 11-20
   go as two tuples' fields; each label is marshalled once per call. *)
let write_result s r =
  Mdigest.block s ~tag:0 ~size:21;
  Mdigest.fields s
    ( r.outcome,
      r.makespan_us,
      r.ticks,
      r.races,
      r.race_count,
      r.lock_cycles,
      r.trace_divergence,
      r.output,
      r.soft_desync,
      (None : Demo.t option) );
  let bodies = Array.map Mdigest.body r.trace.labels in
  let mask = (1 lsl label_bits) - 1 in
  let codes = r.trace.codes in
  for i = 0 to Array.length codes - 1 do
    let c = codes.(i) in
    Mdigest.block s ~tag:0 ~size:2;
    Mdigest.block s ~tag:0 ~size:3;
    Mdigest.int s i;
    Mdigest.int s (c lsr label_bits);
    Mdigest.raw s bodies.(c land mask)
  done;
  Mdigest.int s 0;
  Mdigest.fields s
    ( r.thread_names,
      r.rng_draws,
      r.desync_count,
      r.divergences,
      r.metrics,
      r.events,
      r.events_dropped,
      r.coverage,
      r.decisions,
      r.accesses )

let result_digest r = Mdigest.digest (fun s -> write_result s r)

(* ------------------------------------------------------------------ *)
(* Run arenas                                                           *)

(* A run's context is the arena: a domain-local bundle of every
   allocation-heavy structure a run needs, recycled across runs — the
   weak memory, the two race detectors, the PRNG, the observability
   buffers, the object tables, the trace log, the thread vector (whose
   thread records, with their vector clocks and fiber handlers, are
   re-initialised in place by [new_thread]) and the closures a run
   hands out. OWNERSHIP: an arena belongs to exactly one domain and at
   most one live run at a time; results escape a run by value
   (strings, lists, fresh records), never by reference into the
   arena's mutable state, which is what makes recycling
   observationally invisible. The one thing a result and the arena
   share is the previous result's thread names and label table, which
   neither writes to. *)
type arena = ctx

(* What an arena holds between runs in place of a run's world and
   program; [prepare] replaces both before a run reads them. *)
let idle_world = World.create ~seed:0L ()
let idle_program = Api.program ~name:"" ignore

let create_arena () =
  let rng = Prng.create ~seed1:1L ~seed2:2L in
  let rec ctx =
    {
      conf = Conf.default;
      world = idle_world;
      program = idle_program;
      mem = Atomics.create ();
      det = Detector.create ();
      lockorder = Lockorder.create ();
      rng;
      choose = (fun n -> if n <= 0 then 0 else Prng.int rng n);
      tvec = Array.make 8 None;
      ready_scratch = Array.make 8 0;
      ready_n = 0;
      next_tid = 0;
      next_obj = 0;
      mutexes = Inttbl.create 8;
      conds = Inttbl.create 8;
      rwlocks = Inttbl.create 4;
      handlers = Inttbl.create 4;
      fd_classes = Inttbl.create 8;
      gclock = 0;
      makespan = 0;
      tick = 0;
      deadline_at = infinity;
      cur = -1;
      tr_codes = [||];
      tr_n = 0;
      labels = interner ();
      names = [];
      recording = false;
      rec_signals = [];
      rec_syscalls = [];
      rec_asyncs = [];
      cursor = None;
      recorded = None;
      replaying = false;
      finished = None;
      strat_budget = 0;
      last_sched = -1;
      desync_count = 0;
      desyncs = [];
      obs = Trace.disabled;
      cov = Coverage.disabled;
      obs_buf = Trace.disabled;
      cov_buf = Coverage.disabled;
      last_cs_start = 0;
      waits = 0;
      preemptions = 0;
      faults_seen = 0;
      dec_on = false;
      dl_n = 0;
      dl_tid = [||];
      dl_draws = [||];
      dl_lock = [||];
      dl_en = [||];
      dl_foot = [||];
      dl_aux = [||];
      dl_sets = [||];
      dl_nsets = 0;
      al_n = 0;
      al_int = [||];
      al_name = [||];
      share = Decision.Share.create ();
      memo = [||];
      memo_keys = [||];
      tap = None;
      busy = false;
      dec_rand = false;
      dec_lock = 0;
      dec_counts = Array.make 8 0;
      access_hook = Some (fun v ~tid ~write -> log_access ctx v ~tid ~write);
      invisible =
        {
          Api.run =
            (fun r ->
              match thread_opt ctx ctx.cur with
              | Some t -> handle_invisible ctx t r
              | None -> assert false);
        };
      (* Emitting a race report costs the reporting thread real time
         (§5.2's "Race reports" vs "No reports" columns). *)
      charge_report =
        (fun _ ->
          match thread_opt ctx ctx.cur with
          | Some t -> spend t ctx.conf.Conf.report_cost
          | None -> ());
      cover_report =
        (fun r ->
          let open T11r_race.Report in
          let kind =
            match r.kind with Write_write -> 0 | Write_read -> 1 | Read_write -> 2
          in
          Coverage.mark ctx.cov
            (Coverage.site_race ~var:r.var ~kind ~first_tid:r.first_tid
               ~second_tid:r.second_tid));
    }
  in
  ctx

(* Entries of trace log an arena keeps between runs: the hunt
   benchmark's longest runs (ms-queue, about 2k ticks) fit, so they
   log without allocating, while a run cut at a tick budget of tens of
   thousands does not leave its log pinned to the domain. *)
let kept_log = 4096

(* Entries of the decision and access logs an arena keeps between
   runs: as many as the trace log keeps, so a long guided run (ms-queue's
   recording logs about 1.3k decisions) reuses its predecessor's logs
   on the domain's arena instead of regrowing them. *)
let kept_decisions = kept_log

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)

(* Set every field of [ctx] a run changes to what a run of [program]
   under [conf] in [world] starts from; [replayed] is the demo a
   replay follows. *)
let prepare ctx conf world program replayed =
  let s1, s2 =
    match conf.Conf.seeds with
    | Some seeds -> seeds
    | None -> Prng.seeds (Prng.of_time ())
  in
  Prng.reseed ctx.rng ~seed1:s1 ~seed2:s2;
  if Atomics.max_history ctx.mem <> conf.Conf.max_history then
    ctx.mem <- Atomics.create ~max_history:conf.Conf.max_history ()
  else Atomics.reset ctx.mem;
  Detector.reset ctx.det;
  Detector.set_suppressions ctx.det conf.Conf.suppressions;
  Lockorder.reset ctx.lockorder;
  (* The arena is long-lived, so every pointer store below costs a
     write barrier: a field that already holds its value, as it mostly
     does between runs of one campaign, is not written again. *)
  let obs =
    if not conf.Conf.trace_events then Trace.disabled
    else begin
      if
        Trace.enabled ctx.obs_buf
        && Trace.capacity ctx.obs_buf = conf.Conf.trace_capacity
      then Trace.reset ctx.obs_buf
      else ctx.obs_buf <- Trace.create ~capacity:conf.Conf.trace_capacity ();
      ctx.obs_buf
    end
  in
  if ctx.obs != obs then ctx.obs <- obs;
  let cov =
    if not conf.Conf.coverage then Coverage.disabled
    else begin
      if Coverage.enabled ctx.cov_buf then Coverage.reset ctx.cov_buf
      else ctx.cov_buf <- Coverage.create ();
      ctx.cov_buf
    end
  in
  if ctx.cov != cov then ctx.cov <- cov;
  (* [Inttbl.clear] keeps the grown bucket array, so recycled tables
     are automatically sized by their high-water mark. *)
  Inttbl.clear ctx.mutexes;
  Inttbl.clear ctx.conds;
  Inttbl.clear ctx.rwlocks;
  Inttbl.clear ctx.handlers;
  Inttbl.clear ctx.fd_classes;
  if ctx.conf != conf then ctx.conf <- conf;
  if ctx.world != world then ctx.world <- world;
  if ctx.program != program then ctx.program <- program;
  ctx.ready_n <- 0;
  ctx.next_tid <- 0;
  ctx.next_obj <- 0;
  ctx.gclock <- 0;
  ctx.makespan <- 0;
  ctx.tick <- 0;
  if conf.Conf.deadline_s > 0. then
    ctx.deadline_at <- Unix.gettimeofday () +. conf.Conf.deadline_s
  else if ctx.deadline_at <> infinity then ctx.deadline_at <- infinity;
  ctx.cur <- -1;
  ctx.tr_n <- 0;
  start_build ctx.labels;
  ctx.recording <- (match conf.Conf.mode with Conf.Record _ -> true | _ -> false);
  (match ctx.rec_signals with [] -> () | _ :: _ -> ctx.rec_signals <- []);
  (match ctx.rec_syscalls with [] -> () | _ :: _ -> ctx.rec_syscalls <- []);
  (match ctx.rec_asyncs with [] -> () | _ :: _ -> ctx.rec_asyncs <- []);
  (match replayed with
  | None ->
      (match ctx.cursor with None -> () | Some _ -> ctx.cursor <- None);
      (match ctx.recorded with None -> () | Some _ -> ctx.recorded <- None);
      ctx.replaying <- false
  | Some (d : Demo.t) ->
      ctx.cursor <- Some (Demo.cursor d);
      ctx.recorded <-
        Some (d.meta, Option.value (List.assoc_opt "TRACE" d.extra) ~default:[]);
      ctx.replaying <- true);
  (match ctx.finished with None -> () | Some _ -> ctx.finished <- None);
  ctx.strat_budget <-
    (match conf.Conf.sched with
    | Conf.Controlled (Conf.Delay_bounded d) -> d
    | Conf.Controlled (Conf.Preempt_bounded b) -> b
    | _ -> 0);
  ctx.last_sched <- -1;
  ctx.desync_count <- 0;
  (match ctx.desyncs with [] -> () | _ :: _ -> ctx.desyncs <- []);
  ctx.last_cs_start <- 0;
  ctx.waits <- 0;
  ctx.preemptions <- 0;
  ctx.faults_seen <- 0;
  ctx.dec_on <-
    (match conf.Conf.sched with Conf.Controlled (Conf.Guided _) -> true | _ -> false);
  ctx.dl_n <- 0;
  ctx.dl_nsets <- 0;
  ctx.al_n <- 0;
  ctx.dec_rand <- false;
  ctx.dec_lock <- 0;
  (* Stream shadow-checked accesses to the predictive analysis. Only
     under decision capture: every other configuration leaves the hook
     at [None] (restored by [Detector.reset]) and pays one branch. *)
  if ctx.dec_on then begin
    Array.fill ctx.dec_counts 0 (Array.length ctx.dec_counts) 0;
    Detector.set_access_hook ctx.det ctx.access_hook
  end;
  if conf.Conf.emit_reports && conf.Conf.report_cost > 0 then
    Detector.on_report ctx.det ctx.charge_report;
  if Trace.enabled ctx.obs then
    Detector.on_report ctx.det (fun r ->
        let tid =
          match thread_opt ctx ctx.cur with
          | Some t -> t.tid
          | None -> r.T11r_race.Report.second_tid
        in
        Trace.emit ctx.obs Trace.Race ~tick:ctx.tick ~tid
          ~label:r.T11r_race.Report.var ~ts:ctx.gclock ~dur:0);
  if Coverage.enabled ctx.cov then Detector.on_report ctx.det ctx.cover_report

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
    trace = { codes = [||]; labels = [||] };
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

(* A replay from [dir] follows its demo alone: it runs the schedule and
   seeds META names, whatever the configuration's, and refuses a demo
   that does not load or names a schedule no replay can follow. Returns
   the configuration to run and the demo to replay. *)
let replay_of conf dir =
  match Demo.load ~dir with
  | exception Demo.Corrupt c -> Error (corrupt_demo_result c)
  | { Demo.meta = m; _ } as d -> (
      match Conf.sched_of_name m.strategy with
      | Some sched ->
          let seeds = Some (m.seed1, m.seed2) in
          Ok ({ conf with Conf.sched; seeds }, d)
      | None ->
          Error
            (result_of_outcome
               (Unsupported_app
                  (Printf.sprintf "META strategy %S cannot be replayed" m.strategy))))

(* The run's decisions and accesses, built from the logs. *)
let decode ctx i =
  let dr = ctx.dl_draws.(i) in
  {
    Decision.d_tid = ctx.dl_tid.(i);
    d_enabled = enabled_of_code ctx ctx.dl_en.(i);
    d_foot = foot_of_code ctx i ctx.dl_foot.(i);
    d_draws = dr asr 1;
    d_rand = dr land 1 = 1;
    d_lock = lock_event ctx ctx.dl_lock.(i);
  }

(* Decisions recur across runs — every schedule a DPOR exploration
   executes replays the prefix of one before it — so the arena keeps
   the latest decision built for each slot of a direct-mapped table,
   keyed by the six ints that log it, and a logged decision whose key
   is there is that record (nothing writes into a decision). A
   decision on a run's own enabled set is built anew. *)
let memo_bits = 9
let memo_key = 6

let no_decision =
  {
    Decision.d_tid = -1;
    d_enabled = [||];
    d_foot = F_local;
    d_draws = 0;
    d_rand = false;
    d_lock = L_none;
  }

let memo_decision ctx i =
  let tid = ctx.dl_tid.(i) and en = ctx.dl_en.(i) and foot = ctx.dl_foot.(i)
  and dr = ctx.dl_draws.(i) and lock = ctx.dl_lock.(i) in
  if en < 0 then decode ctx i
  else begin
    if Array.length ctx.memo = 0 then begin
      ctx.memo <- Array.make (1 lsl memo_bits) no_decision;
      ctx.memo_keys <- Array.make (memo_key lsl memo_bits) (-1)
    end;
    let aux = if foot land 15 = foot_sync2 then ctx.dl_aux.(i) else 0 in
    let h = (((((((tid * 31) + en) * 31) + foot) * 31 + dr) * 31 + lock) * 31) + aux in
    let slot = ((h * 0x9E3779B1) lsr 16) land ((1 lsl memo_bits) - 1) in
    let k = ctx.memo_keys and o = memo_key * slot in
    if
      Array.unsafe_get k o = tid
      && Array.unsafe_get k (o + 1) = en
      && Array.unsafe_get k (o + 2) = foot
      && Array.unsafe_get k (o + 3) = dr
      && Array.unsafe_get k (o + 4) = lock
      && Array.unsafe_get k (o + 5) = aux
    then Array.unsafe_get ctx.memo slot
    else begin
      let d = decode ctx i in
      k.(o) <- tid;
      k.(o + 1) <- en;
      k.(o + 2) <- foot;
      k.(o + 3) <- dr;
      k.(o + 4) <- lock;
      k.(o + 5) <- aux;
      ctx.memo.(slot) <- d;
      d
    end
  end

let logged_decisions ctx =
  let n = ctx.dl_n in
  if n = 0 then [||]
  else begin
    let a = Array.make n (memo_decision ctx 0) in
    for i = 1 to n - 1 do
      Array.unsafe_set a i (memo_decision ctx i)
    done;
    a
  end

let logged_accesses ctx =
  Array.init ctx.al_n (fun i ->
      let a = ctx.al_int and o = 5 * i in
      {
        Decision.a_tick = a.(o);
        a_tid = a.(o + 1);
        a_pos = a.(o + 2);
        a_var = a.(o + 3);
        a_write = a.(o + 4) = 1;
        a_name = ctx.al_name.(i);
      })

(* The run's result, after it ended with [outcome]. *)
let finish ctx outcome =
  let conf = ctx.conf and world = ctx.world in
  let decisions = logged_decisions ctx in
  let accesses = logged_accesses ctx in
  let races = Detector.reports ctx.det in
  let trace = schedule_of_codes ctx.labels ctx.tr_codes ctx.tr_n in
  let demo =
    match (conf.Conf.mode, outcome) with
    | Conf.Record _, _ ->
        let extra =
          if conf.Conf.debug_trace then [ ("TRACE", map_trace ctx trace_line) ]
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
        Some
          (build_demo conf ~seeds:(Prng.seeds ctx.rng) ~app:ctx.program.Api.pname
             ~ticks:ctx.tick ~output:(World.output world) trace
             ~signals:ctx.rec_signals ~syscalls:ctx.rec_syscalls
             ~asyncs:ctx.rec_asyncs extra)
    | _ -> None
  in
  (* Divergence detection runs on every replay, not only under
     debug_trace (it used to be gated, so default replays diverged
     silently). With a TRACE file the diff is op-precise; without
     one, fall back to the op count recorded in META. *)
  let trace_divergence =
    match ctx.recorded with
    | Some (meta, []) ->
        if meta.Demo.ticks = ctx.tick then None
        else
          Some
            (Printf.sprintf
               "recording has %d ops, replay executed %d (the demo has no \
                TRACE file for an op-level diff)"
               meta.Demo.ticks ctx.tick)
    | Some (_, trace) ->
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
              else Some (Printf.sprintf "tick %d: recorded %S, replayed %S" i x y)
        in
        first_diff 0 trace mine
    | None -> None
  in
  let soft_desync =
    match ctx.recorded with
    | Some (meta, _) ->
        Digest.to_hex (Digest.string (World.output world)) <> meta.Demo.output_digest
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
  let r =
    {
      outcome;
      makespan_us = conf.Conf.startup_us + max thread_time (max ctx.makespan ctx.gclock);
      ticks = ctx.tick;
      races;
      race_count = Detector.report_count ctx.det;
      lock_cycles = Lockorder.cycles ctx.lockorder;
      output = World.output world;
      soft_desync;
      demo;
      trace;
      thread_names = thread_names ctx;
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
  (* A log grown past [kept_log] by a long run is dropped, so an idle
     arena pins at most that many entries; so is what else the run
     built, which would otherwise live on into the next run. *)
  if Array.length ctx.tr_codes > kept_log then ctx.tr_codes <- [||];
  ctx.world <- idle_world;
  ctx.program <- idle_program;
  if ctx.replaying then begin
    ctx.cursor <- None;
    ctx.recorded <- None
  end;
  if ctx.recording then begin
    ctx.rec_signals <- [];
    ctx.rec_syscalls <- [];
    ctx.rec_asyncs <- []
  end;
  if Array.length ctx.dl_tid > kept_decisions then begin
    ctx.dl_tid <- [||];
    ctx.dl_draws <- [||];
    ctx.dl_lock <- [||];
    ctx.dl_en <- [||];
    ctx.dl_foot <- [||];
    ctx.dl_aux <- [||]
  end;
  if ctx.dl_nsets > 0 then begin
    Array.fill ctx.dl_sets 0 ctx.dl_nsets [||];
    ctx.dl_nsets <- 0
  end;
  if Array.length ctx.al_name > kept_decisions then begin
    ctx.al_int <- [||];
    ctx.al_name <- [||]
  end;
  if ctx.desync_count > 0 then ctx.desyncs <- [];
  r

(* A switch to [t] from the previously scheduled thread. *)
let note_switch ctx t =
  (* A switch away from a thread that could still run is a
     preemption; switches at blocking points are free. *)
  (match thread_opt ctx ctx.last_sched with
  | Some ({ status = Ready; _ } as prev) ->
      ctx.preemptions <- ctx.preemptions + 1;
      if Coverage.enabled ctx.cov then
        Coverage.mark ctx.cov (Coverage.site_preempt ~prev:prev.tid ~next:t.tid)
  | _ -> ());
  if Trace.enabled ctx.obs then
    Trace.emit ctx.obs Trace.Sched ~tick:ctx.tick ~tid:t.tid ~label:t.tname
      ~ts:ctx.gclock ~dur:0

(* [exec_cs] under decision capture for DPOR: enabled set and footprint
   before the op runs, draw counts as deltas around it. *)
let exec_captured ctx t =
  if ctx.dl_n = Array.length ctx.dl_tid then grow_decision_log ctx;
  let enabled = capture_enabled ctx in
  let foot = foot_code ctx t in
  let draws0 = Prng.draws ctx.rng in
  let rand0 = Atomics.rand_choices ctx.mem in
  ctx.dec_rand <- false;
  ctx.dec_lock <- 0;
  (* Count the op before it runs: accesses streamed from the invisible
     region after this op attribute to position [dec_counts.(tid)] —
     after the op, matching the event-position model of the predictive
     analysis (a spawned child's initial segment stays at 0). *)
  if Array.length ctx.dec_counts <= t.tid then begin
    let bigger = Array.make (max 8 (2 * (t.tid + 1))) 0 in
    Array.blit ctx.dec_counts 0 bigger 0 (Array.length ctx.dec_counts);
    ctx.dec_counts <- bigger
  end;
  ctx.dec_counts.(t.tid) <- ctx.dec_counts.(t.tid) + 1;
  exec_cs ctx t;
  let n = ctx.dl_n in
  ctx.dl_tid.(n) <- t.tid;
  ctx.dl_en.(n) <- enabled;
  ctx.dl_foot.(n) <- foot;
  ctx.dl_draws.(n) <-
    ((Prng.draws ctx.rng - draws0) lsl 1)
    lor Bool.to_int (ctx.dec_rand || Atomics.rand_choices ctx.mem > rand0);
  ctx.dl_lock.(n) <- ctx.dec_lock;
  ctx.dl_n <- n + 1

(* [exec_captured], reporting the decision to the arena's tap: what the
   tick saw before the op ran (the runnable tids, the parked request)
   and the draws and lock code it logged. *)
let exec_tapped ctx t tap =
  let enabled = Array.sub ctx.ready_scratch 0 ctx.ready_n in
  let op =
    match (t.sigq, t.pending) with
    | _ :: _, _ -> Tap_signal
    | [], No_request -> Tap_none
    | [], P (r, _) -> Tap_req r
  in
  let next_tid = ctx.next_tid in
  exec_captured ctx t;
  let n = ctx.dl_n - 1 in
  let dr = ctx.dl_draws.(n) in
  tap.on_decision ~tid:t.tid ~enabled ~op ~next_tid ~draws:(dr asr 1)
    ~rand:(dr land 1 = 1) ~lock:ctx.dl_lock.(n)

let set_tap ctx tap = ctx.tap <- tap

(* Ticks until the run ends; returns its outcome. Off a replay the tick
   calls no replay hook, and it polls the world's signals only while
   one is pending. *)
let rec loop ctx =
  match ctx.finished with
  | Some o -> o
  | None ->
      if ctx.tick >= ctx.conf.Conf.max_ticks then Tick_limit
      else if
        (* Supervision backstop for wedged runs; checked every 64
           ticks so the hot path pays one land+branch. *)
        ctx.deadline_at < infinity
        && ctx.tick land 63 = 0
        && Unix.gettimeofday () > ctx.deadline_at
      then Timeout
      else begin
        let rescheds = if ctx.replaying then replay_asyncs ctx else 0 in
        fill_ready ctx;
        if ctx.ready_n = 0 then begin
          if ctx.replaying then stuck ctx
          else
            match World.peek_signal ctx.world with
            | Some (at, _) when alive ctx <> [] ->
                ctx.gclock <- max ctx.gclock at;
                poll_env_signals ctx;
                loop ctx
            | _ -> stuck ctx
        end
        else begin
          let t = pick_thread ctx ~rescheds in
          if t.tid <> ctx.last_sched then note_switch ctx t;
          ctx.last_sched <- t.tid;
          let tickno = ctx.tick in
          (* Off decision capture (every non-Guided strategy) the tick
             pays one load+branch and allocates nothing for it. *)
          if ctx.dec_on then
            (match ctx.tap with
            | None -> exec_captured ctx t
            | Some tap -> exec_tapped ctx t tap)
          else exec_cs ctx t;
          ctx.tick <- tickno + 1;
          if ctx.replaying then begin
            (match ctx.cursor with Some c -> Demo.leave c t.tid | None -> ());
            replay_signals ctx ~tickno ~tid:t.tid
          end
          else if World.signal_pending ctx.world then poll_env_signals ctx;
          loop ctx
        end
      end

(* The prepared run, on its own stack. *)
let run_prepared ctx =
  try
    ignore (new_thread ctx ~name:"main" ~parent_st:None ~at:0 ctx.program.Api.main);
    if ctx.replaying then replay_signals ctx ~tickno:(-1) ~tid:(-1);
    finish ctx (loop ctx)
  with
  | Hard msg -> finish ctx (Hard_desync msg)
  | Diagnosed d ->
      ctx.desync_count <- ctx.desync_count + 1;
      ctx.desyncs <- d :: ctx.desyncs;
      finish ctx
        (Hard_desync
           (Printf.sprintf "op %d thread %d: %s expects %s, got %s" d.div_tick
              d.div_tid d.div_site d.div_expected d.div_actual))
  | Unsupported_run msg -> finish ctx (Unsupported_app msg)
  | World.Unsupported msg -> finish ctx (Unsupported_app msg)

(* The calling domain's arena, which a run given none recycles: a long
   guided run then reuses the logs and shared values its predecessor
   grew instead of regrowing them from empty. A run started while
   another is live on it (a run inside a run) gets a fresh arena. *)
let dls_arena : arena Domain.DLS.key = Domain.DLS.new_key create_arena

let domain_arena () = Domain.DLS.get dls_arena

let start ?arena conf world program replayed =
  let ctx =
    match arena with
    | Some a -> a
    | None ->
        let a = domain_arena () in
        if a.busy then create_arena () else a
  in
  ctx.busy <- true;
  match
    prepare ctx conf world program replayed;
    Api.with_invisible ctx.invisible run_prepared ctx
  with
  | r ->
      ctx.busy <- false;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ctx.busy <- false;
      Printexc.raise_with_backtrace e bt

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
       && Policy.records_kind conf.Conf.policy Syscall.Ioctl);
  match conf.Conf.mode with
  | Conf.Free -> start ?arena conf world program None
  | Conf.Record dir ->
      let r = start ?arena conf world program None in
      Option.iter (fun d -> Demo.save d ~dir) r.demo;
      r
  | Conf.Replay dir -> (
      match replay_of conf dir with
      | Error refused -> refused
      | Ok (conf, demo) -> start ?arena conf world program (Some demo))

let completed r = r.outcome = Completed
