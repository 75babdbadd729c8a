(** The program-under-test API.

    A *program* is ordinary OCaml code that calls the functions below.
    Each visible call performs an OCaml 5 effect that suspends the
    calling thread and hands a request to the interpreter (lib/core) —
    this is the substrate standing in for tsan's compile-time
    instrumentation: every visible operation traps into the runtime,
    and everything in between is an *invisible region* (represented
    explicitly by {!work}, which advances the thread's simulated clock
    without creating a scheduling point).

    Visible operations (scheduling points, §2/§3 of the paper): atomic
    loads/stores/RMWs/fences, mutex and condition-variable operations,
    thread create/join, syscalls, installing a signal handler, and
    signal-handler entry. Invisible operations: {!work}, {!sleep},
    non-atomic variable accesses (race-checked but not scheduling
    points), allocation, and queries like {!self}. Only visible calls
    perform an effect: an invisible call runs the interpreter's
    {!handler} inline, on the calling thread's own stack, and returns
    its value directly.

    Programs must only be run through the interpreter; calling these
    functions outside of one raises [Effect.Unhandled]. *)

module Memord = T11r_mem.Memord
(** Re-export so programs can say [Api.Memord.Relaxed]. *)

type tid = int
type mutex = { mu_id : int; mu_name : string }
type cond = { cv_id : int; cv_name : string }
type rwlock = { rw_id : int; rw_name : string }

type atomic = { a_loc : T11r_mem.Atomics.loc }
(** A C++11 atomic location holding an [int]. The payload is the
    memory-model location; only the interpreter touches it. *)

type var = { v_var : T11r_race.Detector.var; mutable v_val : int }
(** An instrumented non-atomic location holding an [int]. Accesses are
    race-checked but are not scheduling points. Only the interpreter
    touches the fields. *)

type timeout_result = Signalled | Timed_out

(** The request GADT: one constructor per operation the instrumentation
    layer intercepts. Programs never build these directly — the
    functions below do — but the interpreter and tests pattern-match on
    them. *)
type _ req =
  (* -- object creation (invisible) -- *)
  | New_atomic : string * int -> atomic req
  | New_var : string * int -> var req
  | New_mutex : string -> mutex req
  | New_cond : string -> cond req
  | New_rwlock : string -> rwlock req
  (* -- invisible operations -- *)
  | Var_load : var -> int req
  | Var_store : var * int -> unit req
  | Work : int -> unit req  (** burn [n] µs of invisible computation *)
  | Work_mem : int * int -> unit req
      (** [Work_mem (us, accesses)]: [us] µs of computation touching
          [accesses] instrumented (non-shared) memory locations — the
          knob that gives each workload its tsan instrumentation
          density (cheap for blackscholes, dominant for fluidanimate) *)
  | Sleep : int -> unit req  (** sleep [n] ms (invisible, advances time) *)
  | Self : tid req
  | Now : int req  (** current simulated time, µs (invisible; contrast
                       with the [Clock_gettime] syscall which is a
                       visible op and recordable) *)
  | Alloc : int -> int req
      (** allocate [n] bytes; returns the *address* — the canonical
          unrecorded nondeterminism of §5.5 *)
  (* -- atomics (visible) -- *)
  | A_load : atomic * Memord.t -> int req
  | A_store : atomic * Memord.t * int -> unit req
  | A_rmw : atomic * Memord.t * (int -> int) -> int req
  | A_cas : atomic * Memord.t * Memord.t * int * int -> (bool * int) req
  | Fence : Memord.t -> unit req
  (* -- mutexes and condition variables (visible) -- *)
  | Mutex_lock : mutex -> unit req
  | Mutex_trylock : mutex -> bool req
  | Mutex_unlock : mutex -> unit req
  | Rw_rdlock : rwlock -> unit req
  | Rw_wrlock : rwlock -> unit req
  | Rw_tryrdlock : rwlock -> bool req
  | Rw_trywrlock : rwlock -> bool req
  | Rw_unlock : rwlock -> unit req
  | Cond_wait : cond * mutex * int option -> timeout_result req
      (** timeout in ms; [None] = untimed *)
  | Cond_signal : cond -> unit req
  | Cond_broadcast : cond -> unit req
  (* -- threads (visible) -- *)
  | Spawn : string * (unit -> unit) -> tid req
  | Join : tid -> unit req
  (* -- environment (visible) -- *)
  | Syscall : Syscall.request -> Syscall.result req
  | Set_signal_handler : int * (unit -> unit) -> unit req
  | Raise_sync : int -> unit req
      (** synchronous signal (SIGSEGV-style): raised by the thread
          itself at a fixed program point, so — per §4.3 — it is never
          recorded: it "should reoccur at the same point in the
          execution without the help of our tool" *)

type _ Effect.t += Op : 'a req -> 'a Effect.t

type program = { pname : string; main : unit -> unit }
(** A complete program under test: [main] runs as thread 0 and may
    spawn further threads. *)

val program : name:string -> (unit -> unit) -> program

type handler = { run : 'a. 'a req -> 'a }
(** What an invisible request calls instead of performing an effect. *)

val with_invisible : handler -> ('a -> 'b) -> 'a -> 'b
(** [with_invisible h f x] runs [f x] with [h] answering every
    invisible request made on this domain, then restores the previous
    handler, also when [f] raises. Visible requests still perform [Op].
    Outside any [with_invisible], an invisible request performs [Op]
    too. *)

val req_label : 'a req -> string
(** Short human-readable tag ("a_load", "mutex_lock",
    "syscall:read", "raise_sync:11", ...), used in traces and desync
    diagnostics. A constant string for every request but a
    [Raise_sync] of a signal number outside [0, 64], so labelling a
    tick allocates nothing. *)

val syscall_label : Syscall.kind -> string
(** [req_label (Syscall r)] for a request [r] of this kind. *)

val reset_auto_names : unit -> unit
(** Reset the domain-local counter behind auto-generated names
    ("atomic1", "thread2", ...). Called by the interpreter at the
    start of every run so that generated names depend only on the
    program — identical across runs, run orders and worker domains. *)

(** {1 Program-side operations} *)

module Atomic : sig
  val create : ?name:string -> int -> atomic
  val load : ?mo:Memord.t -> atomic -> int
  val store : ?mo:Memord.t -> atomic -> int -> unit
  val fetch_add : ?mo:Memord.t -> atomic -> int -> int
  val exchange : ?mo:Memord.t -> atomic -> int -> int

  val compare_exchange :
    ?success:Memord.t -> ?failure:Memord.t -> atomic -> expected:int ->
    desired:int -> bool * int

  val fence : Memord.t -> unit
end
(** Default memory order is [Seq_cst], as in C++. *)

module Var : sig
  val create : ?name:string -> int -> var
  val get : var -> int
  val set : var -> int -> unit
  val incr : var -> unit  (** non-atomic increment: a read then a write *)
end

module Mutex : sig
  val create : ?name:string -> unit -> mutex
  val lock : mutex -> unit
  val try_lock : mutex -> bool
  val unlock : mutex -> unit
  val with_lock : mutex -> (unit -> 'a) -> 'a
end

module Rwlock : sig
  val create : ?name:string -> unit -> rwlock
  val rdlock : rwlock -> unit
  val wrlock : rwlock -> unit
  val try_rdlock : rwlock -> bool
  val try_wrlock : rwlock -> bool
  val unlock : rwlock -> unit
  val with_read : rwlock -> (unit -> 'a) -> 'a
  val with_write : rwlock -> (unit -> 'a) -> 'a
end
(** Reader-writer locks (pthread_rwlock): any number of concurrent
    readers or one writer. Like {!Mutex.lock}, blocking acquisitions
    are trylock loops — each failed attempt is its own critical
    section and disables the thread until an unlock re-enables it. *)

module Cond : sig
  val create : ?name:string -> unit -> cond
  val wait : cond -> mutex -> unit
  val timed_wait : cond -> mutex -> ms:int -> timeout_result
  val signal : cond -> unit
  val broadcast : cond -> unit
end

module Thread : sig
  val spawn : ?name:string -> (unit -> unit) -> tid
  val join : tid -> unit
  val self : unit -> tid
end

module Sys_api : sig
  val call : Syscall.request -> Syscall.result
  val read : fd:int -> len:int -> Syscall.result
  val write : fd:int -> bytes -> Syscall.result
  val recv : fd:int -> len:int -> Syscall.result
  val send : fd:int -> bytes -> Syscall.result
  val poll : fds:int list -> timeout_ms:int -> Syscall.result
  val epoll_wait : fds:int list -> timeout_ms:int -> Syscall.result
  val accept : fd:int -> Syscall.result
  val bind : port:int -> Syscall.result
  (* clock_gettime: visible+recordable clock read, in µs *)
  val clock_gettime : unit -> int
  val ioctl : fd:int -> code:int -> bytes -> Syscall.result
  val open_ : string -> Syscall.result

  (* pipe(): returns (read_fd, write_fd). Pipe I/O is inter-thread
     communication and is recorded by the default policy, unlike
     regular-file I/O (§4.4). *)
  val pipe : unit -> int * int
  val close : fd:int -> Syscall.result
  val print : string -> unit
  (** observable output: a [write] to fd 1; the replayer compares the
      output stream for soft-desync detection *)

  val retry :
    ?attempts:int ->
    ?backoff_ms:int ->
    (unit -> Syscall.result) ->
    Syscall.result
  (** [retry f] calls [f] until its result is not transient
      ({!Syscall.is_transient}) or [attempts] (default 8) are
      exhausted, sleeping [backoff_ms] (default 1, doubling each
      attempt) between tries. Success and permanent errors return
      after the first call, so fault-free behaviour is unchanged. *)
end

val work : int -> unit
(** [work us] burns [us] microseconds of invisible computation. *)

val work_mem : ?accesses:int -> int -> unit
(** [work_mem ~accesses us] burns [us] µs of computation that performs
    [accesses] instrumented memory accesses (default [0]): under
    race-detecting tools each access pays the shadow-memory cost. *)

val sleep_ms : int -> unit
val now : unit -> int
val alloc : int -> int
val set_signal_handler : int -> (unit -> unit) -> unit

val raise_sync : int -> unit
(** Deliver a synchronous signal to the calling thread: its handler
    runs immediately (before the next operation), like a SIGSEGV at a
    faulting instruction. Unhandled synchronous signals crash the
    thread. *)

val self : unit -> tid
