(** The simulated external world.

    Everything outside the process lives here: network peers, the
    filesystem, [/proc]-style pseudo-files, an opaque display driver, an
    allocator, wall-clock jitter and asynchronous signals. The world is
    driven by its own PRNG which is {e never} part of a demo — this is
    the uncontrolled nondeterminism that record and replay exists to
    tame. A recorded syscall's result is captured in the demo; an
    unrecorded (passthrough) syscall hits a {e fresh} world during
    replay and may legitimately return something different.

    Time is the interpreter's simulated clock, in µs, passed into every
    call as [now]; blocking calls report how long they blocked via
    [Syscall.result.elapsed]. *)

module Syscall = T11r_vm.Syscall

type t

exception Unsupported of string
(** Raised when an endpoint cannot be driven through the syscall layer
    at all — the opaque GPU driver under a tool that must record ioctl
    (§5.4: rr "is unable to record and replay" the game/display
    communication). *)

val create :
  ?seed:int64 -> ?deterministic_alloc:bool -> ?faults:Fault.t -> unit -> t
(** A fresh world. [seed] fixes the environment PRNG (tests and the
    harness pass run-specific seeds; omitting it seeds from the wall
    clock). [deterministic_alloc] models replacing the program's
    allocator with a deterministic one — the §5.5 workaround.
    [faults] installs a {!Fault} plan (default {!Fault.none}). *)

val reset : ?deterministic_alloc:bool -> ?faults:Fault.t -> t -> seed:int64 -> unit
(** Reinitialise [t] in place to exactly the state
    [create ~seed ?deterministic_alloc ?faults ()] would build — same
    PRNG stream, same allocator base — while keeping its table and
    buffer storage, so recycling a world across campaign runs is both
    allocation-free and observationally invisible. [create] seeds fresh
    storage and runs [reset]'s field initialisation on it, so the two
    cannot drift apart. *)

val set_faults : t -> Fault.t -> unit
(** Install (or replace) the fault plan consulted by {!syscall}. *)

val faults_injected : t -> int
(** Faults the installed plan has injected so far. *)

(** {1 Configuration before a run} *)

(** How a remote peer behaves once connected. *)
type peer = {
  on_receive : T11r_util.Prng.t -> bytes -> (int * bytes) list;
      (** Replies to data the app sends: list of (delay µs, payload). *)
  spontaneous : T11r_util.Prng.t -> int -> (int * bytes) option;
      (** [spontaneous prng i] is the i-th unsolicited message as
          (gap µs since previous, payload), or [None] when the peer
          goes quiet. *)
}

val expect_connection : t -> port:int -> at:int -> peer -> unit
(** Register a remote client that connects to [port] at time [at]. *)

val connect : t -> peer -> int
(** Outgoing connection (the app is the client, e.g. Fig. 2): returns a
    connected socket fd immediately. *)

val add_file : t -> path:string -> string -> unit
(** A regular file with deterministic contents. *)

val add_proc_file : t -> path:string -> (T11r_util.Prng.t -> string) -> unit
(** A [/proc]-style pseudo-file whose contents are regenerated
    nondeterministically on every open (the htop example of §4.4). *)

val gpu_path : string
(** Path of the opaque display driver device ("/dev/gpu0"). Opening it
    yields an fd that only answers [ioctl]. *)

val schedule_signal : t -> at:int -> signo:int -> unit
(** An asynchronous signal will arrive at absolute time [at]. *)

(** {1 Used by the interpreter during a run} *)

val syscall : t -> now:int -> Syscall.request -> Syscall.result
(** Execute a syscall against the live world.
    @raise Unsupported for ioctl on the GPU device when
    [forbid_opaque_ioctl] has been set (the rr model). *)

val set_forbid_opaque_ioctl : t -> bool -> unit
(** When true, GPU ioctls raise {!Unsupported} instead of executing —
    models a recorder that insists on capturing all ioctl traffic but
    cannot interpret the proprietary driver protocol. *)

val next_signal : t -> upto:int -> (int * int) option
(** [next_signal w ~upto] pops the earliest scheduled signal with
    arrival time [<= upto] as [(time, signo)]. *)

val peek_signal : t -> (int * int) option
(** Earliest scheduled signal without popping it. *)

val alloc : t -> int -> int
(** Allocate [n] bytes, returning the address. Randomised unless the
    world was created with [~deterministic_alloc:true]. *)

val jitter : t -> int -> int
(** Uniform draw in [\[0, n)] from the environment PRNG — models
    physical-timing noise (OS scheduling jitter, queue arrival skew). *)

val output : t -> string
(** Everything the program wrote to fd 1, in write order — the
    observable output stream used for soft-desync detection. *)

val gpu_frames : t -> int
(** Number of frame-flip ioctls the driver has serviced (lets game
    workloads compute fps). *)

(** {1 Well-known fds} *)

val stdout_fd : int
