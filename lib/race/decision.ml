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

let index_of tid enabled =
  let n = Array.length enabled in
  let rec go i =
    if i >= n then raise Not_found else if enabled.(i) = tid then i else go (i + 1)
  in
  go 0
