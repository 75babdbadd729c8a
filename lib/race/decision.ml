type access = Acc_read | Acc_write | Acc_update

type footprint =
  | F_local
  | F_atomic of int * access
  | F_fence
  | F_sync of int * int
  | F_spawn of int
  | F_join of int
  | F_syscall of int
  | F_global

type lock_event = L_none | L_acquire of int | L_release of int | L_blocked of int

type t = {
  d_tid : int;
  d_enabled : int array;
  d_foot : footprint;
  d_draws : int;
  d_rand : bool;
  d_lock : lock_event;
}

type acc = {
  a_tick : int;
  a_tid : int;
  a_pos : int;
  a_var : int;
  a_write : bool;
  a_name : string;
}

let normalize_prefix p =
  let n = ref (Array.length p) in
  while !n > 0 && p.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length p then p else Array.sub p 0 !n

let rec index_from (tid : int) enabled i =
  if i >= Array.length enabled then raise Not_found
  else if enabled.(i) = tid then i
  else index_from tid enabled (i + 1)

let index_of tid enabled = index_from tid enabled 0

(* ------------------------------------------------------------------ *)
(* Shared values *)

module Share = struct
  (* Slot [k] holds the value of key [k], or the table's [none] until
     first asked for; keys at or past [limit] are never kept. *)
  type 'a table = { mutable slots : 'a array; none : 'a }

  let limit = 1024

  let find tbl key make =
    if key < 0 || key >= limit then make key
    else begin
      if key >= Array.length tbl.slots then begin
        let a = Array.make (min limit (max (key + 1) (2 * Array.length tbl.slots))) tbl.none in
        Array.blit tbl.slots 0 a 0 (Array.length tbl.slots);
        tbl.slots <- a
      end;
      let v = Array.unsafe_get tbl.slots key in
      if v != tbl.none then v
      else begin
        let v = make key in
        tbl.slots.(key) <- v;
        v
      end
    end

  type t = {
    atomic : footprint table;  (* 3 * location + access kind *)
    sync : footprint table;  (* F_sync (id, -1) *)
    spawn : footprint table;
    join : footprint table;
    syscall : footprint table;  (* footprint id + 32 *)
    acquire : lock_event table;
    release : lock_event table;
    blocked : lock_event table;
    enabled : int array table;  (* by the set's bitmask *)
  }

  let table none = { slots = [||]; none }

  let create () =
    {
      atomic = table F_local;
      sync = table F_local;
      spawn = table F_local;
      join = table F_local;
      syscall = table F_local;
      acquire = table L_none;
      release = table L_none;
      blocked = table L_none;
      enabled = table [||];
    }

  let kind_index = function Acc_read -> 0 | Acc_write -> 1 | Acc_update -> 2
  let kind_of = function 0 -> Acc_read | 1 -> Acc_write | _ -> Acc_update

  let atomic sh loc k =
    if loc < 0 || loc >= limit then F_atomic (loc, k)
    else
      find sh.atomic ((3 * loc) + kind_index k) (fun key ->
          F_atomic (key / 3, kind_of (key mod 3)))

  let sync sh x y =
    if y >= 0 then F_sync (x, y) else find sh.sync x (fun x -> F_sync (x, -1))

  let spawn sh c = find sh.spawn c (fun c -> F_spawn c)
  let join sh c = find sh.join c (fun c -> F_join c)
  let syscall sh id = find sh.syscall (id + 32) (fun k -> F_syscall (k - 32))
  let acquire sh id = find sh.acquire id (fun id -> L_acquire id)
  let release sh id = find sh.release id (fun id -> L_release id)
  let blocked sh id = find sh.blocked id (fun id -> L_blocked id)

  let mask_bits = 10

  (* The ascending tids of bitmask [m]. *)
  let tids_of_mask m =
    let rec count m = if m = 0 then 0 else (m land 1) + count (m lsr 1) in
    let a = Array.make (count m) 0 in
    let j = ref 0 in
    for tid = 0 to mask_bits - 1 do
      if m land (1 lsl tid) <> 0 then begin
        a.(!j) <- tid;
        incr j
      end
    done;
    a

  let enabled sh m = find sh.enabled m tids_of_mask
end
