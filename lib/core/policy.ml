module Syscall = T11r_vm.Syscall

type fd_class = [ `Sock | `File | `Pipe | `Listen | `Gpu | `Stdout | `Unknown ]

type t = {
  name : string;
  record_kinds : Syscall.kind list;
  record_file_rw : bool;
  ignore_ioctl : bool;
  record_clock : bool;
  full_interposition : bool;
}

let paper_kinds : Syscall.kind list =
  [
    Read; Write; Recvmsg; Recv; Sendmsg; Send; Accept; Accept4;
    Clock_gettime; Ioctl; Select; Poll; Bind; Pipe;
  ]

let default =
  {
    name = "default";
    record_kinds = paper_kinds;
    record_file_rw = false;
    ignore_ioctl = false;
    record_clock = true;
    full_interposition = false;
  }

let games = { default with name = "games"; ignore_ioctl = true }

let with_proc = { default with name = "with-proc"; record_file_rw = true }

(* [kind] is a constant constructor, an immediate: physical equality
   tests it without the polymorphic compare of [List.mem]. *)
let records_kind t (kind : Syscall.kind) = List.memq kind t.record_kinds

let should_record t ~fd_class (r : Syscall.request) =
  match (r.kind, fd_class) with
  | _, `Stdout -> false
  | Ioctl, _ when t.ignore_ioctl -> false
  | Clock_gettime, _ -> t.record_clock
  | (Read | Write), `File -> t.record_file_rw && records_kind t r.kind
  | _ -> records_kind t r.kind

let supports t (k : Syscall.kind) =
  t.full_interposition || match k with Epoll_wait -> false | _ -> true
