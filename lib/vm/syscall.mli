(** System-call descriptors and results.

    As in the paper (§4.4), "syscall" means the libc-wrapper level: a
    call takes user buffers, fills them, sets [errno] and returns a
    value. The request names the call and its inputs; the result packs
    everything nondeterministic — return value, errno, returned data,
    and (because our substrate measures simulated time) how long the
    call blocked. The demo's [SYSCALL] file stores exactly the result
    fields, RLE-compressed, so replay can overwrite the live result. *)

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
  fd : int;  (** primary file descriptor; [-1] when not applicable *)
  fds : int list;  (** descriptor set for [Poll]/[Select]/[Epoll_wait] *)
  payload : bytes;  (** outgoing data ([Write]/[Send]/[Ioctl] argument) *)
  len : int;  (** buffer capacity for [Read]/[Recv] *)
  arg : int;  (** timeout (ms) for poll-likes, request code for ioctl,
                  port for bind, flags otherwise *)
  path : string;  (** path for [Open_] *)
}

type result = {
  ret : int;
  errno : int;
  data : bytes;  (** bytes returned into the user buffer *)
  elapsed : int;  (** simulated µs the call blocked for *)
}

val request :
  ?fd:int ->
  ?fds:int list ->
  ?payload:bytes ->
  ?len:int ->
  ?arg:int ->
  ?path:string ->
  kind ->
  request

val ok : ?data:bytes -> ?elapsed:int -> int -> result
(** Successful result with [errno = 0]. *)

val error : ?elapsed:int -> errno:int -> unit -> result
(** [ret = -1] result with the given errno. *)

val footprint_id : request -> int
(** Dependency-footprint id for systematic exploration: the fd for
    requests made on a live descriptor, a negative per-kind tag for
    fd-less requests. Emitted with every explored scheduling decision
    (see {!T11r_race.Decision.t}); the explorer conservatively treats all
    syscalls as mutually dependent, so this only labels the decision
    today but supports a per-channel conflict relation later. *)

val kind_to_string : kind -> string

(* Errno values used by the environment (numeric values as on Linux,
   so demo files read naturally next to strace output). *)
val eagain : int
val ebadf : int
val econnreset : int
val einval : int
val enoent : int
val eintr : int

val is_transient : result -> bool
(** [true] for failures that a caller should simply retry: [EAGAIN]
    (nothing ready yet) and [EINTR] (interrupted before completion).
    Everything else — including success — is not transient. *)
