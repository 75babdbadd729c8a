type kind =
  | Read
  | Write
  | Recv
  | Send
  | Recvmsg
  | Sendmsg
  | Poll
  | Select
  | Epoll_wait
  | Accept
  | Accept4
  | Bind
  | Clock_gettime
  | Ioctl
  | Open_
  | Close
  | Pipe

type request = {
  kind : kind;
  fd : int;
  fds : int list;
  payload : bytes;
  len : int;
  arg : int;
  path : string;
}

type result = { ret : int; errno : int; data : bytes; elapsed : int }

let request ?(fd = -1) ?(fds = []) ?(payload = Bytes.empty) ?(len = 0)
    ?(arg = 0) ?(path = "") kind =
  { kind; fd; fds; payload; len; arg; path }

let ok ?(data = Bytes.empty) ?(elapsed = 0) ret = { ret; errno = 0; data; elapsed }
let error ?(elapsed = 0) ~errno () = { ret = -1; errno; data = Bytes.empty; elapsed }

let kind_to_string = function
  | Read -> "read"
  | Write -> "write"
  | Recv -> "recv"
  | Send -> "send"
  | Recvmsg -> "recvmsg"
  | Sendmsg -> "sendmsg"
  | Poll -> "poll"
  | Select -> "select"
  | Epoll_wait -> "epoll_wait"
  | Accept -> "accept"
  | Accept4 -> "accept4"
  | Bind -> "bind"
  | Clock_gettime -> "clock_gettime"
  | Ioctl -> "ioctl"
  | Open_ -> "open"
  | Close -> "close"
  | Pipe -> "pipe"

(* Dependency-footprint id for systematic exploration: the channel a
   request touches, as one stable integer. Requests on a live fd are
   keyed by the fd; fd-less requests (open, pipe, clock_gettime, …)
   are keyed by a negative per-kind tag so they never collide with a
   descriptor. The schedule explorer currently treats every syscall as
   dependent on every other one (they all share the world's state and
   PRNG stream), so this id is informational — but it is emitted with
   each decision so a finer per-channel conflict relation can be
   switched on without re-recording anything. *)
let footprint_id (r : request) =
  if r.fd >= 0 then r.fd
  else
    let tag = function
      | Read -> 1 | Write -> 2 | Recv -> 3 | Send -> 4 | Recvmsg -> 5
      | Sendmsg -> 6 | Poll -> 7 | Select -> 8 | Epoll_wait -> 9
      | Accept -> 10 | Accept4 -> 11 | Bind -> 12 | Clock_gettime -> 13
      | Ioctl -> 14 | Open_ -> 15 | Close -> 16 | Pipe -> 17
    in
    -tag r.kind

let eagain = 11
let ebadf = 9
let econnreset = 104
let einval = 22
let enoent = 2
let eintr = 4

let is_transient r = r.ret < 0 && (r.errno = eagain || r.errno = eintr)
