open Decision

(* Int-typed, so the analysis compares ints inline instead of calling
   the polymorphic compare. *)
let max (a : int) b = if a >= b then a else b

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

   [add] below answers "latest dependent event per thread" from
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
(* Per-thread "latest position" rows: cell [p] of a row is the position
   of thread p's latest event of the row's kind, -1 = none. Every row is
   [stride] consecutive cells of one int array, so the undo log records
   a cell index and an old value, two ints, and undoing stores ints:
   neither pays a write barrier. [stride] is at least the number of
   threads any event named, and grows (rarely) with it. Rows 0-6 are
   the fixed ones below; keyed rows are numbered on first use. *)
let r_last = 0 (* any event *)
let r_world = 1 (* F_global / F_syscall *)
let r_any_atomic = 2
let r_fence = 3
let r_spawn = 4
let r_rand = 5 (* d_rand *)
let r_draws = 6 (* d_draws > 0 *)
let fixed_rows = 7

(* Row ids by key, dense: atomic location ids, object ids and tids are
   per-run counters from 0, so slot [k] holds key [k]'s row, -1 until
   an event files one. *)
type keyed = { mutable ids : int array }

type t = {
  mutable stride : int;
  mutable cells : int array;  (* row [r] is cells [r * stride, (r + 1) * stride) *)
  mutable nrows : int;
  loc_any : keyed;  (* atomic location: any access *)
  loc_write : keyed;  (* atomic location: write/update *)
  sync : keyed;  (* sync id *)
  target : keyed;  (* F_spawn c / F_join c, keyed by c *)
  mutable n : int;  (* path length *)
  mutable nthreads : int;  (* 1 + the largest tid any event named *)
  (* Clocks, flat: position m's clock is clk [clk_off.(m), clk_off.(m + 1)). *)
  mutable clk : int array;
  mutable clk_off : int array;
  mutable enabled : int array array;  (* per position *)
  mutable undo_mark : int array;  (* per position: undo height before it *)
  (* Undo log: (cell, previous value) pairs. *)
  mutable u_cell : int array;
  mutable u_old : int array;
  mutable u_n : int;
  (* Scratch of the event being analysed: j_p, the join of the j_p's
     clocks, and its races (position, initial thread or -1). *)
  mutable jp : int array;
  mutable blk : int array;
  mutable race_pos : int array;
  mutable race_init : int array;
  mutable n_races : int;
}

let create () =
  let stride = 8 in
  {
    stride;
    cells = Array.make (16 * stride) (-1);
    nrows = fixed_rows;
    loc_any = { ids = [||] };
    loc_write = { ids = [||] };
    sync = { ids = [||] };
    target = { ids = [||] };
    n = 0;
    nthreads = 0;
    clk = Array.make 256 0;
    clk_off = Array.make 65 0;
    enabled = Array.make 64 [||];
    undo_mark = Array.make 64 0;
    u_cell = Array.make 256 0;
    u_old = Array.make 256 0;
    u_n = 0;
    jp = Array.make stride (-1);
    blk = Array.make stride 0;
    race_pos = Array.make stride 0;
    race_init = Array.make stride 0;
    n_races = 0;
  }

let length t = t.n

let clock t m =
  if m < 0 || m >= t.n then invalid_arg "Hb.clock"
  else Array.sub t.clk t.clk_off.(m) (t.clk_off.(m + 1) - t.clk_off.(m))

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ---- index maintenance ------------------------------------------- *)

(* Room for [nt] threads per row: every row moves to a wider stride,
   and so does every cell index the undo log holds. *)
let ensure_stride t nt =
  if nt > t.stride then begin
    let old = t.stride in
    let stride = max nt (2 * old) in
    let cells = Array.make (Array.length t.cells / old * stride) (-1) in
    for r = 0 to t.nrows - 1 do
      Array.blit t.cells (r * old) cells (r * stride) old
    done;
    for u = 0 to t.u_n - 1 do
      let c = t.u_cell.(u) in
      t.u_cell.(u) <- (c / old * stride) + (c mod old)
    done;
    t.cells <- cells;
    t.stride <- stride;
    t.jp <- Array.make stride (-1);
    t.blk <- Array.make stride 0;
    t.race_pos <- Array.make stride 0;
    t.race_init <- Array.make stride 0
  end

(* Key [key]'s row, created on first use. *)
let keyed t tbl key =
  if key < 0 then invalid_arg "Hb: negative key";
  if key >= Array.length tbl.ids then tbl.ids <- grow tbl.ids (key + 1) (-1);
  let r = tbl.ids.(key) in
  if r >= 0 then r
  else begin
    let r = t.nrows in
    if (r + 1) * t.stride > Array.length t.cells then
      t.cells <- grow t.cells ((r + 1) * t.stride) (-1);
    t.nrows <- r + 1;
    tbl.ids.(key) <- r;
    r
  end

(* Key [key]'s row if any event filed one, else -1. *)
let find_key tbl key =
  if key >= 0 && key < Array.length tbl.ids then tbl.ids.(key) else -1

(* Row [r]'s cell for thread [p] := m, logging the old value. *)
let set t r p m =
  let c = (r * t.stride) + p in
  if t.u_n >= Array.length t.u_cell then begin
    t.u_cell <- grow t.u_cell (t.u_n + 1) 0;
    t.u_old <- grow t.u_old (t.u_n + 1) 0
  end;
  t.u_cell.(t.u_n) <- c;
  t.u_old.(t.u_n) <- t.cells.(c);
  t.u_n <- t.u_n + 1;
  t.cells.(c) <- m

(* File the event at position m under every key it touches. *)
let register t m (e : Decision.t) =
  let p = e.d_tid in
  set t r_last p m;
  (match e.d_foot with
  | F_global | F_syscall _ -> set t r_world p m
  | F_local -> ()
  | F_atomic (l, k) ->
      set t r_any_atomic p m;
      set t (keyed t t.loc_any l) p m;
      if k <> Acc_read then set t (keyed t t.loc_write l) p m
  | F_fence -> set t r_fence p m
  | F_sync (y1, y2) ->
      set t (keyed t t.sync y1) p m;
      if y2 >= 0 then set t (keyed t t.sync y2) p m
  | F_spawn c ->
      set t r_spawn p m;
      set t (keyed t t.target c) p m
  | F_join c -> set t (keyed t t.target c) p m);
  if e.d_rand then set t r_rand p m;
  if e.d_draws > 0 then set t r_draws p m

let pop t =
  if t.n = 0 then invalid_arg "Hb.pop";
  t.n <- t.n - 1;
  let mark = t.undo_mark.(t.n) in
  let cells = t.cells in
  for u = t.u_n - 1 downto mark do
    cells.(t.u_cell.(u)) <- t.u_old.(u)
  done;
  t.u_n <- mark

(* ---- analysis ----------------------------------------------------- *)

(* jp := max jp (row r) over the first nt threads; no row, no change. *)
(* Indices below [nt <= stride] are in bounds of [jp] and of every
   row, so these loops skip the bounds checks. *)
let merge t jp nt r =
  if r >= 0 then begin
    let cells = t.cells and base = r * t.stride in
    for p = 0 to nt - 1 do
      let v = Array.unsafe_get cells (base + p) in
      if v > Array.unsafe_get jp p then Array.unsafe_set jp p v
    done
  end

let merge_thread t jp p =
  let v = t.cells.((r_last * t.stride) + p) in
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
  ensure_stride t nt;
  t.nthreads <- nt;
  let jp = t.jp in
  for p = 0 to nt - 1 do
    jp.(p) <- -1
  done;
  merge_thread t jp e.d_tid;
  merge t jp nt r_world;
  (match e.d_foot with
  | F_global | F_syscall _ -> merge t jp nt r_last
  | F_local -> ()
  | F_atomic (l, k) ->
      merge t jp nt (find_key (if k = Acc_read then t.loc_write else t.loc_any) l);
      merge t jp nt r_fence
  | F_fence ->
      merge t jp nt r_any_atomic;
      merge t jp nt r_fence
  | F_sync (x1, x2) ->
      merge t jp nt (find_key t.sync x1);
      if x2 >= 0 then merge t jp nt (find_key t.sync x2)
  | F_spawn c ->
      merge t jp nt r_spawn;
      merge t jp nt (find_key t.target c);
      merge_thread t jp c
  | F_join c ->
      merge t jp nt (find_key t.target c);
      merge_thread t jp c);
  merge t jp nt (find_key t.target e.d_tid);
  if e.d_draws > 0 then merge t jp nt r_rand;
  if e.d_rand then merge t jp nt r_draws;
  nt

let last_dep t e p =
  let nt = fill_jp t e in
  if p >= 0 && p < nt then t.jp.(p) else -1

(* Room for the event at position k: its enabled set, undo mark and a
   clock of nt entries. *)
let ensure_position t k nt =
  if k >= Array.length t.enabled then begin
    t.enabled <- grow t.enabled (k + 1) [||];
    t.undo_mark <- grow t.undo_mark (k + 1) 0;
    t.clk_off <- grow t.clk_off (k + 2) 0
  end;
  if t.clk_off.(k) + nt > Array.length t.clk then
    t.clk <- grow t.clk (t.clk_off.(k) + nt) 0

(* The first thread of [en] from index [j] on that is [tid] or whose
   entry in the clock at [clk.(o ..)] of [nt] entries passes [i]; -1
   when none does. *)
let rec initial (en : int array) tid clk o nt i j =
  if j >= Array.length en then -1
  else
    let q = en.(j) in
    if q = tid || (q < nt && clk.(o + q) - 1 > i) then q
    else initial en tid clk o nt i (j + 1)

let add t ~enabled (e : Decision.t) =
  let nt = fill_jp t e in
  let jp = t.jp and blk = t.blk and clk_off = t.clk_off in
  (* blk: the join of the j_p's clocks — every event e inherits from
     through an intermediate. An earlier dependent event of thread p
     is covered by j_p's own clock, so only j_p can race. *)
  for q = 0 to nt - 1 do
    blk.(q) <- 0
  done;
  let clk = t.clk in
  for p = 0 to nt - 1 do
    let j = Array.unsafe_get jp p in
    if j >= 0 then begin
      (* position j's clock has at most nt entries, all in [clk] *)
      let o = clk_off.(j) in
      for q = 0 to clk_off.(j + 1) - o - 1 do
        let v = Array.unsafe_get clk (o + q) in
        if v > Array.unsafe_get blk q then Array.unsafe_set blk q v
      done
    end
  done;
  (* e's clock: blk plus the j_p themselves. *)
  let k = t.n in
  ensure_position t k nt;
  let clk = t.clk and o = t.clk_off.(k) in
  for p = 0 to nt - 1 do
    let b = blk.(p) and j = jp.(p) + 1 in
    clk.(o + p) <- (if j > b then j else b)
  done;
  t.clk_off.(k + 1) <- o + nt;
  (* Reversible races, insertion-sorted into ascending positions
     (distinct threads' events sit at distinct positions). *)
  let pos = t.race_pos in
  let nr = ref 0 in
  for p = 0 to nt - 1 do
    let i = jp.(p) in
    if i >= 0 && p <> e.d_tid && blk.(p) <= i then begin
      let j = ref !nr in
      while !j > 0 && pos.(!j - 1) > i do
        pos.(!j) <- pos.(!j - 1);
        decr j
      done;
      pos.(!j) <- i;
      incr nr
    end
  done;
  (* Initials of each reordered segment: the least thread enabled at i
     that is e's own or has an event in (i, k) feeding e. *)
  for r = 0 to !nr - 1 do
    let i = pos.(r) in
    t.race_init.(r) <- initial t.enabled.(i) e.d_tid clk o nt i 0
  done;
  t.n_races <- !nr;
  t.enabled.(k) <- enabled;
  t.undo_mark.(k) <- t.u_n;
  register t k e;
  t.n <- k + 1;
  !nr

let race_pos t r =
  if r < 0 || r >= t.n_races then invalid_arg "Hb.race_pos" else t.race_pos.(r)

let race_initial t r =
  if r < 0 || r >= t.n_races then invalid_arg "Hb.race_initial"
  else t.race_init.(r)
