open T11r_util
module Syscall = T11r_vm.Syscall

exception Unsupported of string

type peer = {
  on_receive : Prng.t -> bytes -> (int * bytes) list;
  spontaneous : Prng.t -> int -> (int * bytes) option;
}

type sock = {
  behavior : peer;
  mutable inbox : (int * bytes) list;  (* sorted by arrival time *)
  mutable spont_idx : int;
  mutable spont_prev : int;  (* arrival time of previous spontaneous msg *)
  mutable spont_done : bool;
  mutable closed : bool;
}

type open_file = { content : string; mutable pos : int }

type pipe_buf = { mutable pdata : Bytes.t list; mutable wclosed : bool }

type fd_obj =
  | Listen of { port : int }
  | Sock of sock
  | File of open_file
  | Gpu
  | Std_out
  | Pipe_r of pipe_buf
  | Pipe_w of pipe_buf

type t = {
  rng : Prng.t;
  mutable deterministic_alloc : bool;
  fds : fd_obj Inttbl.t;
  mutable next_fd : int;
  files : (string, string) Hashtbl.t;
  proc_files : (string, Prng.t -> string) Hashtbl.t;
  mutable pending_conns : (int * int * peer) list;  (* port, time, peer *)
  mutable signals : (int * int) list;  (* sorted (time, signo) *)
  out : Buffer.t;
  mutable alloc_base : int;
  mutable alloc_off : int;
  alloc_used : unit Inttbl.t;
  mutable forbid_opaque_ioctl : bool;
  mutable gpu_frames : int;
  mutable faults : Fault.t;
}

let stdout_fd = 1
let gpu_path = "/dev/gpu0"

(* Every field but the rng, restored to what a fresh world holds; the
   rng must be (re)seeded first, since [alloc_base] is drawn from it.
   Table storage and the output buffer are kept (cleared), which is
   the point: a recycled world allocates almost nothing. *)
let init t ~deterministic_alloc ~faults =
  t.deterministic_alloc <- deterministic_alloc;
  Inttbl.clear t.fds;
  Inttbl.replace t.fds stdout_fd Std_out;
  t.next_fd <- 3;
  Hashtbl.clear t.files;
  Hashtbl.clear t.proc_files;
  t.pending_conns <- [];
  t.signals <- [];
  Buffer.clear t.out;
  t.alloc_base <-
    (if deterministic_alloc then 0x10000000
     else 0x10000000 + (Prng.int t.rng 0xFFFF * 0x1000));
  t.alloc_off <- 0;
  Inttbl.clear t.alloc_used;
  t.forbid_opaque_ioctl <- false;
  t.gpu_frames <- 0;
  t.faults <- faults

let reset ?(deterministic_alloc = false) ?(faults = Fault.none) t ~seed =
  Prng.reseed t.rng ~seed1:seed ~seed2:(Int64.lognot seed);
  init t ~deterministic_alloc ~faults

(* Its own function: inlined into [create]'s match, [Int64.of_float]
   makes the compiler unbox [seed] and box it again for every seeded
   world. *)
let clock_seed () = Int64.of_float (Unix.gettimeofday () *. 1e6)

(* A fresh world is fresh storage put through [reset]'s [init], so a
   recycled world equals a fresh one by construction. *)
let create ?seed ?(deterministic_alloc = false) ?(faults = Fault.none) () =
  let seed = match seed with Some s -> s | None -> clock_seed () in
  let t =
    {
      rng = Prng.create ~seed1:seed ~seed2:(Int64.lognot seed);
      deterministic_alloc;
      fds = Inttbl.create 16;
      next_fd = 3;
      files = Hashtbl.create 8;
      proc_files = Hashtbl.create 4;
      pending_conns = [];
      signals = [];
      out = Buffer.create 256;
      alloc_base = 0;
      alloc_off = 0;
      alloc_used = Inttbl.create 16;
      forbid_opaque_ioctl = false;
      gpu_frames = 0;
      faults;
    }
  in
  init t ~deterministic_alloc ~faults;
  t

let set_faults t f = t.faults <- f
let faults_injected t = Fault.injected t.faults

let fresh_fd t obj =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Inttbl.replace t.fds fd obj;
  fd

(* Into a list sorted by time, after the entries of equal time. The
   time is int-typed, so the test is a compare, not a call to the
   polymorphic [caml_lessthan]. *)
let insert_sorted xs (((at : int), _) as x) =
  let rec go = function
    | [] -> [ x ]
    | ((at', _) as y) :: rest -> if at < at' then x :: y :: rest else y :: go rest
  in
  go xs

let expect_connection t ~port ~at peer =
  t.pending_conns <- t.pending_conns @ [ (port, at, peer) ]

let mk_sock t peer ~at =
  let s =
    {
      behavior = peer;
      inbox = [];
      spont_idx = 0;
      spont_prev = at;
      spont_done = false;
      closed = false;
    }
  in
  fresh_fd t (Sock s)

let connect t peer = mk_sock t peer ~at:0

(* An intra-process pipe as (read_fd, write_fd), for the [pipe]
   syscall. Reads on an empty pipe return EAGAIN (the program polls);
   reads after the write end closes return 0. *)
let new_pipe t =
  let buf = { pdata = []; wclosed = false } in
  let rfd = fresh_fd t (Pipe_r buf) in
  let wfd = fresh_fd t (Pipe_w buf) in
  (rfd, wfd)

let add_file t ~path content = Hashtbl.replace t.files path content
let add_proc_file t ~path gen = Hashtbl.replace t.proc_files path gen

let schedule_signal t ~at ~signo =
  t.signals <- insert_sorted t.signals (at, signo)

let set_forbid_opaque_ioctl t b = t.forbid_opaque_ioctl <- b

let next_signal t ~upto =
  match t.signals with
  | (at, signo) :: rest when at <= upto ->
      t.signals <- rest;
      Some (at, signo)
  | _ -> None

let peek_signal t = match t.signals with s :: _ -> Some s | [] -> None
let signal_pending t = match t.signals with _ :: _ -> true | [] -> false

(* The deterministic allocator is a plain bump allocator; the default
   allocator models a real malloc under ASLR: addresses are scattered,
   so the *order* of two allocations' addresses is unpredictable — the
   nondeterminism behind the §5.5 limitation. *)
let alloc t n =
  if t.deterministic_alloc then begin
    let addr = t.alloc_base + t.alloc_off in
    t.alloc_off <- t.alloc_off + ((n + 15) / 16 * 16);
    addr
  end
  else begin
    let rec fresh () =
      let addr = t.alloc_base + (Prng.int t.rng 0xFFFFFF * 16) in
      if Inttbl.mem t.alloc_used addr then fresh ()
      else begin
        Inttbl.replace t.alloc_used addr ();
        addr
      end
    in
    fresh ()
  end

let jitter t n = if n <= 0 then 0 else Prng.int t.rng n

let output t = Buffer.contents t.out
let gpu_frames t = t.gpu_frames

(* -- sock plumbing -------------------------------------------------- *)

(* Pull spontaneous messages from the peer up to time [upto]. *)
let fill t s ~upto =
  let continue = ref (not s.spont_done) in
  while !continue do
    match s.behavior.spontaneous t.rng s.spont_idx with
    | None ->
        s.spont_done <- true;
        continue := false
    | Some (gap, payload) ->
        let at = s.spont_prev + gap in
        if at <= upto then begin
          s.inbox <- insert_sorted s.inbox (at, payload);
          s.spont_idx <- s.spont_idx + 1;
          s.spont_prev <- at
        end
        else
          (* Not yet due; stop without consuming. We must remember it:
             re-generating would draw the PRNG again. Push it and mark
             consumed — inbox entries beyond "now" are simply not
             visible to poll/recv until due. *)
          begin
            s.inbox <- insert_sorted s.inbox (at, payload);
            s.spont_idx <- s.spont_idx + 1;
            s.spont_prev <- at;
            continue := false
          end
  done

(* Earliest inbox arrival, pulling one look-ahead message if needed. *)
let next_arrival t s =
  (match s.inbox with [] -> fill t s ~upto:max_int | _ -> ());
  match s.inbox with [] -> None | (at, _) :: _ -> Some at

let sock_ready t s ~now =
  fill t s ~upto:now;
  match s.inbox with (at, _) :: _ -> at <= now | [] -> false

let pending_for t port = List.filter (fun (p, _, _) -> p = port) t.pending_conns

(* -- syscall dispatch ----------------------------------------------- *)

let bad_fd = Syscall.error ~errno:Syscall.ebadf ()

let do_recv t s ~now ~len:_ =
  fill t s ~upto:now;
  match s.inbox with
  | (at, payload) :: rest when at <= now ->
      s.inbox <- rest;
      Syscall.ok ~data:payload (Bytes.length payload)
  | _ -> (
      match next_arrival t s with
      | Some at -> (
          match s.inbox with
          | (_, payload) :: rest ->
              s.inbox <- rest;
              Syscall.ok ~data:payload ~elapsed:(max 0 (at - now))
                (Bytes.length payload)
          | [] -> assert false)
      | None ->
          (* Peer exhausted: connection EOF. *)
          Syscall.ok 0)

let do_send t s ~now payload =
  if s.closed then Syscall.error ~errno:Syscall.econnreset ()
  else begin
    let replies = s.behavior.on_receive t.rng payload in
    List.iter
      (fun (delay, data) ->
        s.inbox <- insert_sorted s.inbox (now + max delay 0, data))
      replies;
    Syscall.ok (Bytes.length payload)
  end

let fd_ready t ~now = function
  | Sock s -> sock_ready t s ~now
  | Listen { port } -> List.exists (fun (_, at, _) -> at <= now) (pending_for t port)
  | Pipe_r b -> b.pdata <> [] || b.wclosed
  | File _ | Std_out | Gpu | Pipe_w _ -> true

(* Earliest future event on an fd (for poll timeouts). *)
let fd_next_event t = function
  | Sock s -> next_arrival t s
  | Listen { port } -> (
      match pending_for t port with
      | [] -> None
      | conns -> Some (List.fold_left (fun acc (_, at, _) -> min acc at) max_int conns))
  | Pipe_r b -> if b.pdata <> [] then Some 0 else None
  | File _ | Std_out | Gpu | Pipe_w _ -> Some 0

let do_poll t ~now ~fds ~timeout_ms =
  let objs = List.filter_map (fun fd -> Inttbl.find_opt t.fds fd) fds in
  let ready = List.filter (fd_ready t ~now) objs in
  if ready <> [] then Syscall.ok (List.length ready)
  else begin
    let deadline =
      if timeout_ms < 0 then max_int else now + (timeout_ms * 1000)
    in
    let next =
      List.fold_left
        (fun acc o ->
          match fd_next_event t o with
          | Some at when at > now -> min acc at
          | _ -> acc)
        max_int objs
    in
    if next <= deadline then Syscall.ok ~elapsed:(next - now) 1
    else if timeout_ms < 0 then
      (* Infinite poll with nothing ever arriving. *)
      Syscall.error ~errno:Syscall.eagain ()
    else Syscall.ok ~elapsed:(timeout_ms * 1000) 0
  end

let do_accept t ~now fd =
  match Inttbl.find_opt t.fds fd with
  | Some (Listen { port }) -> (
      let mine = pending_for t port in
      match List.sort (fun (_, a, _) (_, b, _) -> compare a b) mine with
      | [] -> Syscall.error ~errno:Syscall.eagain ()
      | (_, at, peer) :: _ ->
          t.pending_conns <-
            (let removed = ref false in
             List.filter
               (fun (p, a, _) ->
                 if (not !removed) && p = port && a = at then begin
                   removed := true;
                   false
                 end
                 else true)
               t.pending_conns);
          let nfd = mk_sock t peer ~at:(max at now) in
          Syscall.ok ~elapsed:(max 0 (at - now)) nfd)
  | _ -> bad_fd

let do_open t path =
  match Hashtbl.find_opt t.proc_files path with
  | Some gen ->
      let fd = fresh_fd t (File { content = gen t.rng; pos = 0 }) in
      Syscall.ok fd
  | None -> (
      if path = gpu_path then Syscall.ok (fresh_fd t Gpu)
      else
        match Hashtbl.find_opt t.files path with
        | Some content -> Syscall.ok (fresh_fd t (File { content; pos = 0 }))
        | None -> Syscall.error ~errno:Syscall.enoent ())

let do_ioctl t ~code ~payload:_ fd_obj =
  match fd_obj with
  | Gpu ->
      if t.forbid_opaque_ioctl then
        raise (Unsupported "ioctl on proprietary display driver");
      if code = 1 then t.gpu_frames <- t.gpu_frames + 1;
      (* The driver returns opaque handles — env-random bytes that the
         recorder cannot interpret. *)
      let data = Bytes.init 8 (fun _ -> Char.chr (Prng.int t.rng 256)) in
      Syscall.ok ~data 0
  | _ -> Syscall.error ~errno:Syscall.einval ()

(* Fault injection happens here, at dispatch, so every syscall site can
   fail. Blocking points (poll/accept/socket recv) can take EINTR;
   socket transfers can spuriously EAGAIN, reset, or lose/duplicate/
   delay a message; file and pipe transfers can come up short; the
   clock can read skewed. Errors are injected *before* the call takes
   effect, so a retry observes the same world the first attempt did. *)
let syscall t ~now (r : Syscall.request) : Syscall.result =
  let obj fd = Inttbl.find_opt t.fds fd in
  let fl = t.faults in
  let eintr () = Syscall.error ~errno:Syscall.eintr () in
  match r.kind with
  | Pipe ->
      let rfd, wfd = new_pipe t in
      Syscall.ok ~data:(Bytes.of_string (string_of_int wfd)) rfd
  | Bind -> Syscall.ok (fresh_fd t (Listen { port = r.arg }))
  | Accept | Accept4 -> if Fault.eintr fl then eintr () else do_accept t ~now r.fd
  | Poll | Select | Epoll_wait ->
      if Fault.eintr fl then eintr ()
      else do_poll t ~now ~fds:r.fds ~timeout_ms:r.arg
  | Recv | Recvmsg | Read -> (
      match obj r.fd with
      | Some (Sock s) ->
          if Fault.eintr fl then eintr ()
          else if Fault.eagain fl then Syscall.error ~errno:Syscall.eagain ()
          else begin
            (* Message-level faults act on the head of the inbox; pull
               the look-ahead message first so there is usually one. *)
            if Fault.drop fl then begin
              ignore (next_arrival t s);
              match s.inbox with _ :: rest -> s.inbox <- rest | [] -> ()
            end;
            if Fault.duplicate fl then begin
              ignore (next_arrival t s);
              match s.inbox with m :: rest -> s.inbox <- m :: m :: rest | [] -> ()
            end;
            let res = do_recv t s ~now ~len:r.len in
            let extra = if res.Syscall.ret > 0 then Fault.delay fl else 0 in
            if extra = 0 then res
            else { res with Syscall.elapsed = res.Syscall.elapsed + extra }
          end
      | Some (Pipe_r b) -> (
          match b.pdata with
          | chunk :: rest ->
              let chunk, rest =
                let n = Bytes.length chunk in
                if n > 1 && Fault.short fl then
                  let k = n / 2 in
                  (Bytes.sub chunk 0 k, Bytes.sub chunk k (n - k) :: rest)
                else (chunk, rest)
              in
              b.pdata <- rest;
              Syscall.ok ~data:chunk (Bytes.length chunk)
          | [] ->
              if b.wclosed then Syscall.ok 0
              else Syscall.error ~errno:Syscall.eagain ())
      | Some (File f) ->
          let n = min r.len (String.length f.content - f.pos) in
          let n = max n 0 in
          let n = if n > 1 && Fault.short fl then n / 2 else n in
          let data = Bytes.of_string (String.sub f.content f.pos n) in
          f.pos <- f.pos + n;
          Syscall.ok ~data n
      | Some _ -> Syscall.error ~errno:Syscall.einval ()
      | None -> bad_fd)
  | Send | Sendmsg | Write -> (
      match obj r.fd with
      | Some (Sock s) ->
          if Fault.eintr fl then eintr ()
          else if Fault.eagain fl then Syscall.error ~errno:Syscall.eagain ()
          else if Fault.reset fl then begin
            (* The connection is gone for good: later sends fail too. *)
            s.closed <- true;
            Syscall.error ~errno:Syscall.econnreset ()
          end
          else do_send t s ~now r.payload
      | Some (Pipe_w b) ->
          let n = Bytes.length r.payload in
          let n = if n > 1 && Fault.short fl then n / 2 else n in
          b.pdata <- b.pdata @ [ Bytes.sub r.payload 0 n ];
          Syscall.ok n
      | Some Std_out ->
          Buffer.add_bytes t.out r.payload;
          Syscall.ok (Bytes.length r.payload)
      | Some (File _) ->
          let n = Bytes.length r.payload in
          Syscall.ok (if n > 1 && Fault.short fl then n / 2 else n)
      | Some _ -> Syscall.error ~errno:Syscall.einval ()
      | None -> bad_fd)
  | Clock_gettime -> Syscall.ok (now + Fault.clock_skew_us fl)
  | Ioctl -> (
      match obj r.fd with
      | Some o -> do_ioctl t ~code:r.arg ~payload:r.payload o
      | None -> bad_fd)
  | Open_ -> do_open t r.path
  | Close -> (
      match obj r.fd with
      | Some (Sock s) ->
          s.closed <- true;
          Inttbl.remove t.fds r.fd;
          Syscall.ok 0
      | Some (Pipe_w b) ->
          b.wclosed <- true;
          Inttbl.remove t.fds r.fd;
          Syscall.ok 0
      | Some _ ->
          Inttbl.remove t.fds r.fd;
          Syscall.ok 0
      | None -> bad_fd)
