open T11r_util

(* Store slots are mutable and live in a fixed-capacity ring per
   location: appending a store past the history bound recycles the
   oldest slot in place instead of rebuilding the array (the old
   representation paid an Array.append per store). Slot fields are only
   meaningful while the slot is live; [rel_clock] always holds an
   immutable snapshot, never a view of a clock that can still mutate. *)
type store = {
  mutable value : int;
  mutable s_tid : int; (* -1 for the initial store *)
  mutable epoch : int; (* writer's clock component at the time of the store *)
  mutable rel_clock : Vclock.t; (* empty if the store publishes nothing *)
  mutable index : int; (* absolute modification-order index *)
}

type loc = {
  mutable id : int;
  mutable name : string;
  ring : store array; (* capacity = max_history; [dummy] until used *)
  mutable len : int; (* live stores *)
  mutable start : int; (* ring slot of the oldest live store *)
  mutable base : int; (* absolute index of the oldest live store *)
  mutable floors : int array; (* tid -> min admissible abs index *)
  mutable last_sc : int; (* abs index of last seq-cst store, -1 if none *)
}

type t = {
  max_history : int;
  mutable next_loc : int;
  mutable sc_clock : Vclock.t; (* global clock threaded through SC fences *)
  mutable evictions : int; (* stores pushed out of a full history ring *)
  mutable stale_reads : int; (* loads that chose an older admissible store *)
  mutable rand_choices : int; (* choose calls offered >= 2 admissible stores *)
  (* Registry of every location ever created, indexed by id. After
     [reset], [fresh_loc] re-initialises registered locations in place
     instead of allocating — location ids restart from 0, so id [k] of
     the new run recycles the record that was id [k] before. *)
  mutable reg : loc array;
  mutable reg_n : int;
}

let max_history t = t.max_history

let create ?(max_history = 8) () =
  if max_history < 1 then invalid_arg "Atomics.create: max_history < 1";
  { max_history; next_loc = 0; sc_clock = Vclock.empty; evictions = 0;
    stale_reads = 0; rand_choices = 0; reg = [||]; reg_n = 0 }

let reset t =
  t.next_loc <- 0;
  if t.sc_clock != Vclock.empty then t.sc_clock <- Vclock.empty;
  t.evictions <- 0;
  t.stale_reads <- 0;
  t.rand_choices <- 0

let evictions t = t.evictions
let stale_reads t = t.stale_reads
let rand_choices t = t.rand_choices

(* Shared placeholder for not-yet-used ring slots; never mutated (a
   slot is replaced by a fresh record before its first write). *)
let dummy =
  { value = 0; s_tid = -1; epoch = 0; rel_clock = Vclock.empty; index = -1 }

let register t l =
  if t.reg_n >= Array.length t.reg then begin
    let a = Array.make (max 8 (2 * Array.length t.reg)) l in
    Array.blit t.reg 0 a 0 t.reg_n;
    t.reg <- a
  end;
  t.reg.(t.reg_n) <- l;
  t.reg_n <- t.reg_n + 1

let fresh_loc t ~name ~init =
  let id = t.next_loc in
  t.next_loc <- id + 1;
  if id < t.reg_n then begin
    (* Recycled location: every observable field is re-initialised; the
       stale ring slots beyond [len] are dead (append overwrites every
       field of a non-dummy slot before it becomes live again). A
       pointer field that already holds its value is not written: the
       records are long-lived, and the store would cost a write
       barrier. *)
    let l = t.reg.(id) in
    l.id <- id;
    if l.name != name then l.name <- name;
    let s0 = l.ring.(0) in
    s0.value <- init;
    s0.s_tid <- -1;
    s0.epoch <- 0;
    if s0.rel_clock != Vclock.empty then s0.rel_clock <- Vclock.empty;
    s0.index <- 0;
    l.len <- 1;
    l.start <- 0;
    l.base <- 0;
    Array.fill l.floors 0 (Array.length l.floors) 0;
    l.last_sc <- -1;
    l
  end
  else begin
    let ring = Array.make t.max_history dummy in
    ring.(0) <-
      { value = init; s_tid = -1; epoch = 0; rel_clock = Vclock.empty; index = 0 };
    let l =
      { id; name; ring; len = 1; start = 0; base = 0; floors = [||]; last_sc = -1 }
    in
    register t l;
    l
  end

let loc_name l = l.name
let loc_id l = l.id

let newest l =
  let cap = Array.length l.ring in
  let i = l.start + l.len - 1 in
  l.ring.(if i >= cap then i - cap else i)

let newest_index l = l.base + l.len - 1

(* Slot holding absolute modification-order index [abs]. *)
let slot_abs l abs =
  let cap = Array.length l.ring in
  let i = l.start + (abs - l.base) in
  l.ring.(if i >= cap then i - cap else i)

let floor_of l tid = if tid < Array.length l.floors then l.floors.(tid) else 0

let raise_floor l tid idx =
  let n = Array.length l.floors in
  if tid >= n then begin
    let a = Array.make (max 4 (tid + 1)) 0 in
    Array.blit l.floors 0 a 0 n;
    l.floors <- a
  end;
  if idx > l.floors.(tid) then l.floors.(tid) <- idx

(* Recycle (or claim) a ring slot for a new newest store and return it.
   Callers that still need the about-to-be-evicted oldest store must
   read it before calling this (RMW does). *)
let append t l ~value ~s_tid ~epoch ~rel_clock =
  let cap = Array.length l.ring in
  let s =
    if l.len < cap then begin
      let i = l.start + l.len in
      let i = if i >= cap then i - cap else i in
      let s =
        if l.ring.(i) == dummy then begin
          let s =
            {
              value = 0;
              s_tid = -1;
              epoch = 0;
              rel_clock = Vclock.empty;
              index = -1;
            }
          in
          l.ring.(i) <- s;
          s
        end
        else l.ring.(i)
      in
      l.len <- l.len + 1;
      s
    end
    else begin
      (* evict the oldest: its slot becomes the newest *)
      let s = l.ring.(l.start) in
      l.start <- (if l.start + 1 >= cap then 0 else l.start + 1);
      l.base <- l.base + 1;
      t.evictions <- t.evictions + 1;
      s
    end
  in
  s.value <- value;
  s.s_tid <- s_tid;
  s.epoch <- epoch;
  (* A recycled slot mostly held no release clock and gets none (a
     relaxed store), so the write barrier is skipped. *)
  if s.rel_clock != rel_clock then s.rel_clock <- rel_clock;
  s.index <- l.base + l.len - 1;
  s

let admissible_floor l (st : Tstate.t) mo =
  let coherence = floor_of l st.Tstate.tid in
  let n = newest l in
  let hb =
    (* the overwhelmingly common case: the newest store is already
       visible (it is the thread's own, or happens-before has caught
       up), so no scan of older stores is needed *)
    if n.s_tid < 0 || n.epoch <= Tstate.clock_get st n.s_tid then
      l.base + l.len - 1
    else begin
      let res = ref l.base in
      let i = ref (l.len - 2) in
      let found = ref false in
      while (not !found) && !i >= 0 do
        let s = slot_abs l (l.base + !i) in
        if s.s_tid < 0 then found := true (* initial store: floor is base *)
        else if s.epoch <= Tstate.clock_get st s.s_tid then begin
          res := l.base + !i;
          found := true
        end
        else decr i
      done;
      !res
    end
  in
  let sc = if Memord.is_seq_cst mo then l.last_sc else -1 in
  let f = if coherence > hb then coherence else hb in
  let f = if sc > f then sc else f in
  if f > l.base then f else l.base

let candidates _t l st mo =
  let lo = admissible_floor l st mo in
  let hi = newest_index l in
  List.init (hi - lo + 1) (fun i -> (slot_abs l (lo + i)).value)

let read_sync (st : Tstate.t) mo s =
  if not (Vclock.is_empty s.rel_clock) then begin
    if Memord.is_acquire mo then Tstate.acquire st s.rel_clock
    else st.Tstate.acq_pending <- Vclock.join st.Tstate.acq_pending s.rel_clock
  end

let load t l (st : Tstate.t) mo ~choose =
  let lo = admissible_floor l st mo in
  let n = newest_index l - lo + 1 in
  if n >= 2 then t.rand_choices <- t.rand_choices + 1;
  let k = choose n in
  if k < 0 || k >= n then invalid_arg "Atomics.load: choose out of range";
  if k < n - 1 then t.stale_reads <- t.stale_reads + 1;
  let s = slot_abs l (lo + k) in
  let v = s.value in
  raise_floor l st.Tstate.tid s.index;
  read_sync st mo s;
  Tstate.tick st;
  v

let release_clock_for (st : Tstate.t) mo =
  if Memord.is_release mo then Tstate.clock st
  else if not (Vclock.is_empty st.Tstate.rel_fence) then st.Tstate.rel_fence
  else Vclock.empty

let store t l (st : Tstate.t) mo v =
  let s =
    append t l ~value:v ~s_tid:st.Tstate.tid ~epoch:(Tstate.epoch st)
      ~rel_clock:(release_clock_for st mo)
  in
  raise_floor l st.Tstate.tid s.index;
  if Memord.is_seq_cst mo then l.last_sc <- s.index;
  Tstate.tick st

let rmw t l (st : Tstate.t) mo f =
  (* read everything out of the newest slot BEFORE appending: with
     max_history = 1 the append recycles that very slot *)
  let old_s = newest l in
  let old = old_s.value in
  read_sync st mo old_s;
  let own = release_clock_for st mo in
  let rel = Vclock.join own old_s.rel_clock in
  let nv = f old in
  let s =
    append t l ~value:nv ~s_tid:st.Tstate.tid ~epoch:(Tstate.epoch st)
      ~rel_clock:rel
  in
  raise_floor l st.Tstate.tid s.index;
  if Memord.is_seq_cst mo then l.last_sc <- s.index;
  Tstate.tick st;
  old

let cas t l st ~success ~failure ~expected ~desired ~choose =
  let tail = newest l in
  if tail.value = expected then begin
    let old = rmw t l st success (fun _ -> desired) in
    (true, old)
  end
  else begin
    let v = load t l st failure ~choose in
    (false, v)
  end

let fence t (st : Tstate.t) (mo : Memord.t) =
  (match mo with
  | Relaxed -> ()
  | Consume | Acquire ->
      Tstate.acquire st st.Tstate.acq_pending;
      st.Tstate.acq_pending <- Vclock.empty
  | Release -> st.Tstate.rel_fence <- Tstate.clock st
  | Acq_rel ->
      Tstate.acquire st st.Tstate.acq_pending;
      st.Tstate.acq_pending <- Vclock.empty;
      st.Tstate.rel_fence <- Tstate.clock st
  | Seq_cst ->
      Tstate.acquire st st.Tstate.acq_pending;
      st.Tstate.acq_pending <- Vclock.empty;
      Tstate.acquire st t.sc_clock;
      let c = Tstate.clock st in
      st.Tstate.rel_fence <- c;
      t.sc_clock <- Vclock.join t.sc_clock c);
  Tstate.tick st

let newest_value _t l = (newest l).value
let history_length _t l = l.len
