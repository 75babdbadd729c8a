open Decision

(* ------------------------------------------------------------------ *)
(* The dependence relation over captured decisions.

   Two decisions conflict iff swapping two adjacent occurrences could
   change behaviour: same thread (program order); same atomic location
   with at least one write; fences against atomics and each other (SC
   fences thread a global clock); lock/condvar/rwlock footprints
   sharing an object; spawns against spawns (tid allocation order) and
   against every op of the created thread; joins likewise; anything
   world-coupled (syscalls, signal plumbing, timed waits) against
   everything. The last two clauses pin the scheduler-PRNG stream: an
   op whose draw chose among >= 2 live alternatives ([d_rand]) must
   stay ordered against every other draw-consuming op, otherwise a
   reordering would hand it different random values. Forced
   single-option draws commute — they advance the stream by the same
   amount wherever they run. Over-approximation is sound: in the worst
   case DPOR degenerates to the exhaustive search.

   [push] below answers "latest dependent event per thread" from
   per-key tables instead of calling [dep]; each clause here has its
   table there, and the differential tests hold the two together. *)
let dep (a : Decision.t) (b : Decision.t) =
  let foot =
    match (a.d_foot, b.d_foot) with
    | (F_global | F_syscall _), _ | _, (F_global | F_syscall _) -> true
    | F_local, _ | _, F_local -> false
    | F_atomic (l1, k1), F_atomic (l2, k2) ->
        l1 = l2 && not (k1 = Acc_read && k2 = Acc_read)
    | F_atomic _, F_fence | F_fence, F_atomic _ | F_fence, F_fence -> true
    | F_sync (x1, x2), F_sync (y1, y2) ->
        x1 = y1 || x1 = y2 || (x2 >= 0 && (x2 = y1 || x2 = y2))
    | F_spawn _, F_spawn _ -> true
    | F_spawn t, F_join u | F_join u, F_spawn t -> t = u
    | F_join t, F_join u -> t = u
    | _, _ -> false
  in
  a.d_tid = b.d_tid
  || foot
  || (match a.d_foot with
     | F_spawn t | F_join t -> t = b.d_tid
     | _ -> false)
  || (match b.d_foot with
     | F_spawn t | F_join t -> t = a.d_tid
     | _ -> false)
  || (a.d_rand && b.d_draws > 0)
  || (b.d_rand && a.d_draws > 0)

(* ------------------------------------------------------------------ *)
(* Per-thread "latest position" rows: [r.(p)] is the position of
   thread p's latest event of the row's kind, -1 = none. Rows only
   grow; entries past the end read as -1. *)
type row = { mutable r : int array }

let row_get w p = if p < Array.length w.r then w.r.(p) else -1

(* Rows by key, dense: atomic location ids, object ids and tids are
   per-run counters from 0, so slot [k] is key [k]'s row. Slots no
   event has filled hold [no_row], which stays empty: [keyed] replaces
   it before anything is written. *)
type keyed = { mutable rows : row array }

let no_row = { r = [||] }

type t = {
  last : row;  (* any event *)
  world : row;  (* F_global / F_syscall *)
  any_atomic : row;
  fence : row;
  spawn : row;
  rand : row;  (* d_rand *)
  draws : row;  (* d_draws > 0 *)
  loc_any : keyed;  (* atomic location: any access *)
  loc_write : keyed;  (* atomic location: write/update *)
  sync : keyed;  (* sync id *)
  target : keyed;  (* F_spawn c / F_join c, keyed by c *)
  mutable n : int;  (* path length *)
  mutable nthreads : int;  (* 1 + the largest tid any event named *)
  mutable clk : int array array;  (* per position *)
  mutable enabled : int array array;  (* per position *)
  mutable undo_mark : int array;  (* per position: undo height before it *)
  (* Undo log: (row, thread, previous value) triples. *)
  mutable u_row : row array;
  mutable u_tid : int array;
  mutable u_old : int array;
  mutable u_n : int;
  mutable jp : int array;  (* scratch: j_p of the event being analysed *)
}

let new_row () = { r = [||] }

let create () =
  {
    last = new_row ();
    world = new_row ();
    any_atomic = new_row ();
    fence = new_row ();
    spawn = new_row ();
    rand = new_row ();
    draws = new_row ();
    loc_any = { rows = [||] };
    loc_write = { rows = [||] };
    sync = { rows = [||] };
    target = { rows = [||] };
    n = 0;
    nthreads = 0;
    clk = Array.make 64 [||];
    enabled = Array.make 64 [||];
    undo_mark = Array.make 64 0;
    u_row = Array.make 256 (new_row ());
    u_tid = Array.make 256 0;
    u_old = Array.make 256 0;
    u_n = 0;
    jp = [||];
  }

let length t = t.n

let clock t m =
  if m < 0 || m >= t.n then invalid_arg "Hb.clock" else t.clk.(m)

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- index maintenance ------------------------------------------- *)

(* Key [key]'s row, created on first use. *)
let keyed tbl key =
  if key < 0 then invalid_arg "Hb: negative key";
  if key >= Array.length tbl.rows then tbl.rows <- grow tbl.rows (key + 1) no_row;
  let w = tbl.rows.(key) in
  if w != no_row then w
  else begin
    let w = new_row () in
    tbl.rows.(key) <- w;
    w
  end

(* Key [key]'s row if any event filed one, else the empty [no_row]. *)
let find_key tbl key =
  if key >= 0 && key < Array.length tbl.rows then tbl.rows.(key) else no_row

(* w.(p) := m, logging the old value. *)
let set t w p m =
  if t.u_n >= Array.length t.u_row then begin
    t.u_row <- grow t.u_row (t.u_n + 1) w;
    t.u_tid <- grow t.u_tid (t.u_n + 1) 0;
    t.u_old <- grow t.u_old (t.u_n + 1) 0
  end;
  t.u_row.(t.u_n) <- w;
  t.u_tid.(t.u_n) <- p;
  t.u_old.(t.u_n) <- row_get w p;
  t.u_n <- t.u_n + 1;
  if p >= Array.length w.r then w.r <- grow w.r (p + 1) (-1);
  w.r.(p) <- m

(* File the event at position m under every key it touches. *)
let register t m (e : Decision.t) =
  let p = e.d_tid in
  set t t.last p m;
  (match e.d_foot with
  | F_global | F_syscall _ -> set t t.world p m
  | F_local -> ()
  | F_atomic (l, k) ->
      set t t.any_atomic p m;
      set t (keyed t.loc_any l) p m;
      if k <> Acc_read then set t (keyed t.loc_write l) p m
  | F_fence -> set t t.fence p m
  | F_sync (y1, y2) ->
      set t (keyed t.sync y1) p m;
      if y2 >= 0 then set t (keyed t.sync y2) p m
  | F_spawn c ->
      set t t.spawn p m;
      set t (keyed t.target c) p m
  | F_join c -> set t (keyed t.target c) p m);
  if e.d_rand then set t t.rand p m;
  if e.d_draws > 0 then set t t.draws p m

let pop t =
  if t.n = 0 then invalid_arg "Hb.pop";
  t.n <- t.n - 1;
  let mark = t.undo_mark.(t.n) in
  for u = t.u_n - 1 downto mark do
    t.u_row.(u).r.(t.u_tid.(u)) <- t.u_old.(u)
  done;
  t.u_n <- mark;
  t.clk.(t.n) <- [||];
  t.enabled.(t.n) <- [||]

(* ---- analysis ----------------------------------------------------- *)

(* jp := max jp w over the first nt threads. *)
let merge jp nt w =
  let r = w.r in
  for p = 0 to min nt (Array.length r) - 1 do
    if r.(p) > jp.(p) then jp.(p) <- r.(p)
  done

let merge_key jp nt tbl key = merge jp nt (find_key tbl key)

let merge_thread t jp p =
  let v = row_get t.last p in
  if v > jp.(p) then jp.(p) <- v

(* Fill t.jp.(0 .. nthreads-1) with j_p for e: the position of thread
   p's latest event dependent with e, -1 = none. One clause of [dep]
   per line. *)
let fill_jp t (e : Decision.t) =
  let nt =
    match e.d_foot with
    | F_spawn c | F_join c -> max t.nthreads (1 + max c e.d_tid)
    | _ -> max t.nthreads (e.d_tid + 1)
  in
  t.nthreads <- nt;
  if Array.length t.jp < nt then t.jp <- Array.make (max nt 8) (-1);
  let jp = t.jp in
  Array.fill jp 0 nt (-1);
  merge_thread t jp e.d_tid;
  merge jp nt t.world;
  (match e.d_foot with
  | F_global | F_syscall _ -> merge jp nt t.last
  | F_local -> ()
  | F_atomic (l, k) ->
      merge_key jp nt (if k = Acc_read then t.loc_write else t.loc_any) l;
      merge jp nt t.fence
  | F_fence ->
      merge jp nt t.any_atomic;
      merge jp nt t.fence
  | F_sync (x1, x2) ->
      merge_key jp nt t.sync x1;
      if x2 >= 0 then merge_key jp nt t.sync x2
  | F_spawn c ->
      merge jp nt t.spawn;
      merge_key jp nt t.target c;
      merge_thread t jp c
  | F_join c ->
      merge_key jp nt t.target c;
      merge_thread t jp c);
  merge_key jp nt t.target e.d_tid;
  if e.d_draws > 0 then merge jp nt t.rand;
  if e.d_rand then merge jp nt t.draws;
  nt

let last_dep t e p =
  let nt = fill_jp t e in
  if p >= 0 && p < nt then t.jp.(p) else -1

let clk_get c q = if q < Array.length c then c.(q) else 0

let push t ~enabled (e : Decision.t) =
  let nt = fill_jp t e in
  let jp = t.jp in
  (* blk: the join of the j_p's clocks — every event e inherits from
     through an intermediate. An earlier dependent event of thread p
     is covered by j_p's own clock, so only j_p can race. *)
  let blk = Array.make nt 0 in
  for p = 0 to nt - 1 do
    let j = jp.(p) in
    if j >= 0 then begin
      let c = t.clk.(j) in
      for q = 0 to Array.length c - 1 do
        if c.(q) > blk.(q) then blk.(q) <- c.(q)
      done
    end
  done;
  (* e's clock: blk plus the j_p themselves. *)
  let clk = Array.copy blk in
  for p = 0 to nt - 1 do
    if jp.(p) + 1 > clk.(p) then clk.(p) <- jp.(p) + 1
  done;
  (* Reversible races, descending positions consed into ascending. *)
  let races = ref [] in
  let k = t.n in
  for p = 0 to nt - 1 do
    let i = jp.(p) in
    if i >= 0 && p <> e.d_tid && blk.(p) <= i then races := i :: !races
  done;
  let races =
    List.map
      (fun i ->
        (* Initials of the reordered segment: the least thread enabled
           at i that is e's own or has an event in (i, k) feeding e. *)
        let en = t.enabled.(i) in
        let rec first j =
          if j >= Array.length en then None
          else
            let q = en.(j) in
            if q = e.d_tid || clk_get clk q - 1 > i then Some q
            else first (j + 1)
        in
        (i, first 0))
      (List.sort Int.compare !races)
  in
  if k >= Array.length t.clk then begin
    t.clk <- grow t.clk (k + 1) [||];
    t.enabled <- grow t.enabled (k + 1) [||];
    t.undo_mark <- grow t.undo_mark (k + 1) 0
  end;
  t.clk.(k) <- clk;
  t.enabled.(k) <- enabled;
  t.undo_mark.(k) <- t.u_n;
  register t k e;
  t.n <- k + 1;
  races
