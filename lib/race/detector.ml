module Tstate = T11r_mem.Tstate

(* Shadow state is packed for the hot path: the last write is a single
   immediate int [epoch lsl tid_bits lor tid] (-1 when there has been
   no write yet), and the reads-since-last-write clock is a plain int
   array indexed by tid, cleared with Array.fill on the next write.
   Neither a read nor a write of an already-sized var allocates. *)

let tid_bits = 20
let tid_mask = (1 lsl tid_bits) - 1

(* Largest epoch the packed word can hold without colliding with the
   tid field or the [-1] "no write" sentinel. *)
let max_epoch = max_int asr tid_bits

type var = {
  mutable id : int;
  mutable name : string;
  mutable w_packed : int; (* epoch lsl tid_bits lor tid; -1 = no write *)
  mutable reads : int array; (* tid -> epoch of read since last write *)
  mutable nreads : int; (* live prefix of [reads] (rest is zero) *)
}

(* The reports already emitted, keyed by the report itself: its hash
   is the generic one, and two reports are the same key when
   [Report.equal], so a sighting of a known race neither allocates a
   key nor calls the polymorphic compare. *)
module Seen = Hashtbl.Make (struct
  type t = Report.t

  let equal = Report.equal
  let hash (r : t) = Hashtbl.hash r
end)

type t = {
  mutable next_var : int;
  mutable reports_rev : Report.t list;
  mutable n_reports : int;
  seen : unit Seen.t;
  mutable callbacks : (Report.t -> unit) list;
  (* Access streaming for the offline predictive analysis: one branch
     per shadow check when unset, so every configuration that does not
     capture decisions pays nothing. *)
  mutable acc_cb : (var -> tid:int -> write:bool -> unit) option;
  mutable suppressions : string list;
  mutable checks : int; (* shadow-state checks (one per read/write) *)
  (* Registry of every var ever created, indexed by id, for in-place
     recycling after [reset] (ids restart at 0). *)
  mutable reg : var array;
  mutable reg_n : int;
}

let create () =
  {
    next_var = 0;
    reports_rev = [];
    n_reports = 0;
    seen = Seen.create 16;
    callbacks = [];
    acc_cb = None;
    suppressions = [];
    checks = 0;
    reg = [||];
    reg_n = 0;
  }

(* A detector lives as long as its arena, so a pointer field that
   already holds its reset value is not written again: the store would
   cost a write barrier. *)
let reset t =
  t.next_var <- 0;
  (match t.reports_rev with [] -> () | _ :: _ -> t.reports_rev <- []);
  t.n_reports <- 0;
  Seen.clear t.seen;
  (match t.callbacks with [] -> () | _ :: _ -> t.callbacks <- []);
  (match t.acc_cb with None -> () | Some _ -> t.acc_cb <- None);
  (match t.suppressions with [] -> () | _ :: _ -> t.suppressions <- []);
  t.checks <- 0

let checks t = t.checks

(* The packed representation silently truncates out-of-range ids and
   epochs (a tid >= 2^20 bleeds into the epoch field; an epoch beyond
   [max_epoch] wraps), corrupting shadow state for every later access.
   Better to refuse loudly — the bound is far beyond any simulated
   workload, so hitting it is a harness bug. *)
let check_packable (st : Tstate.t) =
  if st.Tstate.tid land lnot tid_mask <> 0 then
    failwith
      (Printf.sprintf
         "Detector: thread id %d exceeds the packed shadow-state limit of \
          %d threads (2^%d)"
         st.Tstate.tid (tid_mask + 1) tid_bits);
  let epoch = Tstate.epoch st in
  if epoch < 0 || epoch > max_epoch then
    failwith
      (Printf.sprintf
         "Detector: epoch %d of thread %d exceeds the packed shadow-state \
          limit of %d"
         epoch st.Tstate.tid max_epoch)

let set_suppressions t pats =
  if t.suppressions != pats then t.suppressions <- pats

(* tsan-suppression-style matching: exact name, or a '*'-terminated
   prefix pattern ("scoreboard*"). *)
let suppressed t var =
  List.exists
    (fun pat ->
      let n = String.length pat in
      if n > 0 && pat.[n - 1] = '*' then
        let prefix = String.sub pat 0 (n - 1) in
        String.length var >= n - 1 && String.sub var 0 (n - 1) = prefix
      else pat = var)
    t.suppressions

let register t v =
  if t.reg_n >= Array.length t.reg then begin
    let a = Array.make (max 8 (2 * Array.length t.reg)) v in
    Array.blit t.reg 0 a 0 t.reg_n;
    t.reg <- a
  end;
  t.reg.(t.reg_n) <- v;
  t.reg_n <- t.reg_n + 1

let fresh_var t ~name =
  let id = t.next_var in
  t.next_var <- id + 1;
  if id < t.reg_n then begin
    let v = t.reg.(id) in
    v.id <- id;
    if v.name != name then v.name <- name;
    v.w_packed <- -1;
    (* Clear the FULL array, not just [nreads]: stale epochs below a
       regrown [nreads] would otherwise surface as phantom reads. *)
    Array.fill v.reads 0 (Array.length v.reads) 0;
    v.nreads <- 0;
    v
  end
  else begin
    let v = { id; name; w_packed = -1; reads = [||]; nreads = 0 } in
    register t v;
    v
  end

let var_name v = v.name
let var_id v = v.id

let emit t (r : Report.t) =
  if not (suppressed t r.var) then
    if not (Seen.mem t.seen r) then begin
      Seen.replace t.seen r ();
      t.reports_rev <- r :: t.reports_rev;
      t.n_reports <- t.n_reports + 1;
      List.iter (fun f -> f r) t.callbacks
    end

(* -1 if the last write is ordered before [st] (or there is none),
   otherwise the racing writer's tid. *)
let write_unordered (st : Tstate.t) packed =
  if packed < 0 then -1
  else
    let wtid = packed land tid_mask in
    if wtid <> st.Tstate.tid && packed asr tid_bits > Tstate.clock_get st wtid
    then wtid
    else -1

let ensure_reads v tid =
  let n = Array.length v.reads in
  if tid >= n then begin
    let a = Array.make (max 4 (tid + 1)) 0 in
    Array.blit v.reads 0 a 0 n;
    v.reads <- a
  end;
  if tid >= v.nreads then v.nreads <- tid + 1

let read t v ~(st : Tstate.t) =
  t.checks <- t.checks + 1;
  check_packable st;
  (match t.acc_cb with
  | None -> ()
  | Some f -> f v ~tid:st.Tstate.tid ~write:false);
  let wtid = write_unordered st v.w_packed in
  if wtid >= 0 then
    emit t
      {
        var = v.name;
        kind = Write_read;
        first_tid = wtid;
        second_tid = st.Tstate.tid;
      };
  ensure_reads v st.Tstate.tid;
  v.reads.(st.Tstate.tid) <- Tstate.epoch st

let write t v ~(st : Tstate.t) =
  t.checks <- t.checks + 1;
  check_packable st;
  (match t.acc_cb with
  | None -> ()
  | Some f -> f v ~tid:st.Tstate.tid ~write:true);
  let wtid = write_unordered st v.w_packed in
  if wtid >= 0 then
    emit t
      {
        var = v.name;
        kind = Write_write;
        first_tid = wtid;
        second_tid = st.Tstate.tid;
      };
  (* Any read since the last write that is not ordered before this write
     races with it. Ascending tid = the report order of the old
     Vclock-based representation. *)
  for rtid = 0 to v.nreads - 1 do
    let repoch = v.reads.(rtid) in
    if repoch > 0 && rtid <> st.Tstate.tid && repoch > Tstate.clock_get st rtid
    then
      emit t
        {
          var = v.name;
          kind = Read_write;
          first_tid = rtid;
          second_tid = st.Tstate.tid;
        }
  done;
  v.w_packed <- (Tstate.epoch st lsl tid_bits) lor st.Tstate.tid;
  if v.nreads > 0 then begin
    Array.fill v.reads 0 v.nreads 0;
    v.nreads <- 0
  end

let reports t = List.rev t.reports_rev
let report_count t = t.n_reports
let racy t = t.n_reports > 0
let on_report t f = t.callbacks <- f :: t.callbacks
let set_access_hook t f = t.acc_cb <- f
