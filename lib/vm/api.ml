module Memord = T11r_mem.Memord

type tid = int
type mutex = { mu_id : int; mu_name : string }
type cond = { cv_id : int; cv_name : string }
type rwlock = { rw_id : int; rw_name : string }

type atomic = { a_loc : T11r_mem.Atomics.loc }
type var = { v_var : T11r_race.Detector.var; mutable v_val : int }

type timeout_result = Signalled | Timed_out

type _ req =
  | New_atomic : string * int -> atomic req
  | New_var : string * int -> var req
  | New_mutex : string -> mutex req
  | New_cond : string -> cond req
  | New_rwlock : string -> rwlock req
  | Var_load : var -> int req
  | Var_store : var * int -> unit req
  | Work : int -> unit req
  | Work_mem : int * int -> unit req
  | Sleep : int -> unit req
  | Self : tid req
  | Now : int req
  | Alloc : int -> int req
  | A_load : atomic * Memord.t -> int req
  | A_store : atomic * Memord.t * int -> unit req
  | A_rmw : atomic * Memord.t * (int -> int) -> int req
  | A_cas : atomic * Memord.t * Memord.t * int * int -> (bool * int) req
  | Fence : Memord.t -> unit req
  | Mutex_lock : mutex -> unit req
  | Mutex_trylock : mutex -> bool req
  | Mutex_unlock : mutex -> unit req
  | Rw_rdlock : rwlock -> unit req
  | Rw_wrlock : rwlock -> unit req
  | Rw_tryrdlock : rwlock -> bool req
  | Rw_trywrlock : rwlock -> bool req
  | Rw_unlock : rwlock -> unit req
  | Cond_wait : cond * mutex * int option -> timeout_result req
  | Cond_signal : cond -> unit req
  | Cond_broadcast : cond -> unit req
  | Spawn : string * (unit -> unit) -> tid req
  | Join : tid -> unit req
  | Syscall : Syscall.request -> Syscall.result req
  | Set_signal_handler : int * (unit -> unit) -> unit req
  | Raise_sync : int -> unit req

type _ Effect.t += Op : 'a req -> 'a Effect.t

type program = { pname : string; main : unit -> unit }

let program ~name main = { pname = name; main }

(* ["syscall:" ^ Syscall.kind_to_string k]. *)
let syscall_label : Syscall.kind -> string = function
  | Read -> "syscall:read"
  | Write -> "syscall:write"
  | Recv -> "syscall:recv"
  | Send -> "syscall:send"
  | Recvmsg -> "syscall:recvmsg"
  | Sendmsg -> "syscall:sendmsg"
  | Poll -> "syscall:poll"
  | Select -> "syscall:select"
  | Epoll_wait -> "syscall:epoll_wait"
  | Accept -> "syscall:accept"
  | Accept4 -> "syscall:accept4"
  | Bind -> "syscall:bind"
  | Clock_gettime -> "syscall:clock_gettime"
  | Ioctl -> "syscall:ioctl"
  | Open_ -> "syscall:open"
  | Close -> "syscall:close"
  | Pipe -> "syscall:pipe"

let raise_labels = Array.init 65 (Printf.sprintf "raise_sync:%d")

let req_label : type a. a req -> string = function
  | New_atomic _ -> "new_atomic"
  | New_var _ -> "new_var"
  | New_mutex _ -> "new_mutex"
  | New_cond _ -> "new_cond"
  | New_rwlock _ -> "new_rwlock"
  | Var_load _ -> "var_load"
  | Var_store _ -> "var_store"
  | Work _ -> "work"
  | Work_mem _ -> "work_mem"
  | Sleep _ -> "sleep"
  | Self -> "self"
  | Now -> "now"
  | Alloc _ -> "alloc"
  | A_load _ -> "a_load"
  | A_store _ -> "a_store"
  | A_rmw _ -> "a_rmw"
  | A_cas _ -> "a_cas"
  | Fence _ -> "fence"
  | Mutex_lock _ -> "mutex_lock"
  | Mutex_trylock _ -> "mutex_trylock"
  | Mutex_unlock _ -> "mutex_unlock"
  | Rw_rdlock _ -> "rw_rdlock"
  | Rw_wrlock _ -> "rw_wrlock"
  | Rw_tryrdlock _ -> "rw_tryrdlock"
  | Rw_trywrlock _ -> "rw_trywrlock"
  | Rw_unlock _ -> "rw_unlock"
  | Cond_wait _ -> "cond_wait"
  | Cond_signal _ -> "cond_signal"
  | Cond_broadcast _ -> "cond_broadcast"
  | Spawn _ -> "spawn"
  | Join _ -> "join"
  | Syscall r -> syscall_label r.Syscall.kind
  | Set_signal_handler _ -> "set_signal_handler"
  | Raise_sync signo ->
      if signo >= 0 && signo < Array.length raise_labels then raise_labels.(signo)
      else Printf.sprintf "raise_sync:%d" signo

let op r = Effect.perform (Op r)

(* Invisible requests skip the effect: they call the handler the
   running interpreter installed in this domain's slot, on the calling
   fiber's own stack. Outside any run the slot performs [Op], so an
   unhandled request still raises [Effect.Unhandled]. *)
type handler = { run : 'a. 'a req -> 'a }

let invisible = Domain.DLS.new_key (fun () -> { run = op })

let with_invisible h f x =
  let prev = Domain.DLS.get invisible in
  Domain.DLS.set invisible h;
  match f x with
  | v ->
      Domain.DLS.set invisible prev;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Domain.DLS.set invisible prev;
      Printexc.raise_with_backtrace e bt

let inv r = (Domain.DLS.get invisible).run r

(* Auto-naming counter for unnamed atomics/vars/locks. Domain-local,
   and reset by the interpreter at the start of every run: names must
   be a function of the program alone, not of how many runs this
   domain (or any other) executed before — race reports embed them,
   and campaign aggregates dedupe on report equality. *)
let fresh_name = Domain.DLS.new_key (fun () -> ref 0)

let reset_auto_names () = Domain.DLS.get fresh_name := 0

let auto prefix =
  let r = Domain.DLS.get fresh_name in
  incr r;
  prefix ^ string_of_int !r

module Atomic = struct
  let create ?name init =
    let name = match name with Some n -> n | None -> auto "atomic" in
    inv (New_atomic (name, init))

  let load ?(mo = Memord.Seq_cst) a = op (A_load (a, mo))
  let store ?(mo = Memord.Seq_cst) a v = op (A_store (a, mo, v))
  let fetch_add ?(mo = Memord.Seq_cst) a d = op (A_rmw (a, mo, fun v -> v + d))
  let exchange ?(mo = Memord.Seq_cst) a v = op (A_rmw (a, mo, fun _ -> v))

  let compare_exchange ?(success = Memord.Seq_cst) ?(failure = Memord.Seq_cst)
      a ~expected ~desired =
    op (A_cas (a, success, failure, expected, desired))

  let fence mo = op (Fence mo)
end

module Var = struct
  let create ?name init =
    let name = match name with Some n -> n | None -> auto "var" in
    inv (New_var (name, init))

  let get v = inv (Var_load v)
  let set v x = inv (Var_store (v, x))

  let incr v =
    let x = get v in
    set v (x + 1)
end

module Mutex = struct
  let create ?name () =
    let name = match name with Some n -> n | None -> auto "mutex" in
    inv (New_mutex name)

  let lock m = op (Mutex_lock m)
  let try_lock m = op (Mutex_trylock m)
  let unlock m = op (Mutex_unlock m)

  let with_lock m f =
    lock m;
    Fun.protect ~finally:(fun () -> unlock m) f
end

module Rwlock = struct
  let create ?name () =
    let name = match name with Some n -> n | None -> auto "rwlock" in
    inv (New_rwlock name)

  let rdlock l = op (Rw_rdlock l)
  let wrlock l = op (Rw_wrlock l)
  let try_rdlock l = op (Rw_tryrdlock l)
  let try_wrlock l = op (Rw_trywrlock l)
  let unlock l = op (Rw_unlock l)

  let with_read l f =
    rdlock l;
    Fun.protect ~finally:(fun () -> unlock l) f

  let with_write l f =
    wrlock l;
    Fun.protect ~finally:(fun () -> unlock l) f
end

module Cond = struct
  let create ?name () =
    let name = match name with Some n -> n | None -> auto "cond" in
    inv (New_cond name)

  let wait c m = ignore (op (Cond_wait (c, m, None)))
  let timed_wait c m ~ms = op (Cond_wait (c, m, Some ms))
  let signal c = op (Cond_signal c)
  let broadcast c = op (Cond_broadcast c)
end

module Thread = struct
  let spawn ?name f =
    let name = match name with Some n -> n | None -> auto "thread" in
    op (Spawn (name, f))

  let join t = op (Join t)
  let self () = inv Self
end

module Sys_api = struct
  let call r = op (Syscall r)
  let read ~fd ~len = call (Syscall.request ~fd ~len Syscall.Read)
  let write ~fd payload = call (Syscall.request ~fd ~payload Syscall.Write)
  let recv ~fd ~len = call (Syscall.request ~fd ~len Syscall.Recv)
  let send ~fd payload = call (Syscall.request ~fd ~payload Syscall.Send)

  let poll ~fds ~timeout_ms =
    call (Syscall.request ~fds ~arg:timeout_ms Syscall.Poll)

  let epoll_wait ~fds ~timeout_ms =
    call (Syscall.request ~fds ~arg:timeout_ms Syscall.Epoll_wait)

  let accept ~fd = call (Syscall.request ~fd Syscall.Accept)
  let bind ~port = call (Syscall.request ~arg:port Syscall.Bind)
  let clock_gettime () = (call (Syscall.request Syscall.Clock_gettime)).ret

  let ioctl ~fd ~code payload =
    call (Syscall.request ~fd ~arg:code ~payload Syscall.Ioctl)

  let open_ path = call (Syscall.request ~path Syscall.Open_)

  (* pipe(): ret is the read end; the write end is in the data field. *)
  let pipe () =
    let r = call (Syscall.request Syscall.Pipe) in
    (r.Syscall.ret, int_of_string (Bytes.to_string r.Syscall.data))
  let close ~fd = call (Syscall.request ~fd Syscall.Close)

  let print s = ignore (write ~fd:1 (Bytes.of_string s))

  (* Bounded retry with exponential backoff for transient failures
     (EAGAIN/EINTR). Success and permanent errors return immediately
     after the first call, so fault-free runs are unchanged. *)
  let rec retry ?(attempts = 8) ?(backoff_ms = 1) f =
    let r = f () in
    if attempts <= 1 || not (Syscall.is_transient r) then r
    else begin
      inv (Sleep backoff_ms);
      retry ~attempts:(attempts - 1) ~backoff_ms:(backoff_ms * 2) f
    end
end

let work us = inv (Work us)
let work_mem ?(accesses = 0) us = inv (Work_mem (us, accesses))
let sleep_ms ms = inv (Sleep ms)
let now () = inv Now
let alloc n = inv (Alloc n)
let set_signal_handler signo f = op (Set_signal_handler (signo, f))
let raise_sync signo = op (Raise_sync signo)
let self () = inv Self
