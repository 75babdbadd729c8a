(** Sparse syscall-recording policies (§4.4).

    The heart of the paper's sparse approach: instead of recording every
    syscall, a per-application policy names the calls whose results must
    be captured for faithful replay; everything else is re-issued
    against the live environment during replay. Recording decisions may
    depend on the descriptor class — e.g. [read]/[write] "whose file
    descriptors correspond to files in the file system" never need
    recording, but the same calls on pipes or sockets do.

    A policy is data, so applications can ship their own (the paper's
    vision of a configurable core set plus per-scenario extensions). *)

type fd_class = [ `Sock | `File | `Pipe | `Listen | `Gpu | `Stdout | `Unknown ]

type t = {
  name : string;
  record_kinds : T11r_vm.Syscall.kind list;
      (** syscall kinds captured in the demo *)
  record_file_rw : bool;
      (** capture [read]/[write] on regular files too (normally off) *)
  ignore_ioctl : bool;
      (** §5.4 workaround: let [ioctl] run natively in both record and
          replay, capturing nothing — required for the opaque display
          driver *)
  record_clock : bool;  (** capture [clock_gettime] results *)
  full_interposition : bool;
      (** in-kernel-style tracing that can capture anything, including
          [epoll_wait]'s opaque unions — true only for the rr model *)
}

val default : t
(** The paper's supported set: read, write, recvmsg, recv, sendmsg,
    accept, accept4, clock_gettime, ioctl, select and bind (§4.4),
    plus poll (the httpd workaround replaces epoll_wait with poll). *)

val games : t
(** [default] with [ignore_ioctl] — the SDL-game policy of §5.4. *)

val with_proc : t
(** [default] extended to record regular-file reads as well — what an
    htop-style application monitoring [/proc] would need (§4.4). *)

val records_kind : t -> T11r_vm.Syscall.kind -> bool
(** Whether [record_kinds] lists the kind. *)

val should_record : t -> fd_class:fd_class -> T11r_vm.Syscall.request -> bool
(** Decision procedure used by the recorder and replayer. Writes to
    stdout are never recorded (they are the observable output used for
    soft-desync detection). *)

val supports : t -> T11r_vm.Syscall.kind -> bool
(** Whether the interposition layer can handle the call at all.
    [Epoll_wait] is unsupported (§5.2: the returned union's active
    member cannot be determined), so issuing it under a recording
    policy is a runtime error that forces the poll workaround. *)
