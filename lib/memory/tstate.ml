open T11r_util

type t = {
  mutable tid : int;
  mut : Vclock.Mut.mut;
  mutable snap : Vclock.t;
  mutable snap_ok : bool;
  mutable ep : int;
  mutable acq_pending : Vclock.t;
  mutable rel_fence : Vclock.t;
}

let create ~tid =
  let mut = Vclock.Mut.create () in
  Vclock.Mut.incr mut tid;
  {
    tid;
    mut;
    snap = Vclock.empty;
    snap_ok = false;
    ep = 1;
    acq_pending = Vclock.empty;
    rel_fence = Vclock.empty;
  }

let epoch t = t.ep
let clock_get t tid = Vclock.Mut.get t.mut tid

let clock t =
  if t.snap_ok then t.snap
  else begin
    let s = Vclock.Mut.snapshot t.mut in
    t.snap <- s;
    t.snap_ok <- true;
    s
  end

let tick t =
  Vclock.Mut.incr t.mut t.tid;
  t.ep <- t.ep + 1;
  t.snap_ok <- false

let acquire t c =
  if Vclock.Mut.join_imm t.mut c then begin
    t.snap_ok <- false;
    (* a foreign clock can in principle carry our own component, so
       refresh the cached epoch from the mut *)
    t.ep <- Vclock.Mut.get t.mut t.tid
  end

let acquire_thread t other =
  if Vclock.Mut.join_mut t.mut other.mut then begin
    t.snap_ok <- false;
    t.ep <- Vclock.Mut.get t.mut t.tid
  end

let fork ~parent ~tid =
  let mut = Vclock.Mut.of_imm (clock parent) in
  Vclock.Mut.incr mut tid;
  let child =
    {
      tid;
      mut;
      snap = Vclock.empty;
      snap_ok = false;
      ep = Vclock.Mut.get mut tid;
      acq_pending = Vclock.empty;
      rel_fence = Vclock.empty;
    }
  in
  tick parent;
  child

(* In-place equivalents of [create]/[fork] for recycled thread states:
   observable state after a reinit is indistinguishable from the fresh
   constructor's result. A recycled state is long-lived, so a clock
   field that is already empty is not written again: the store would
   cost a write barrier. *)

let clear_clocks t =
  if t.snap != Vclock.empty then t.snap <- Vclock.empty;
  t.snap_ok <- false;
  if t.acq_pending != Vclock.empty then t.acq_pending <- Vclock.empty;
  if t.rel_fence != Vclock.empty then t.rel_fence <- Vclock.empty

let reinit t ~tid =
  Vclock.Mut.reset t.mut;
  Vclock.Mut.incr t.mut tid;
  t.tid <- tid;
  clear_clocks t;
  t.ep <- 1

let reinit_fork t ~parent ~tid =
  Vclock.Mut.reset_to_mut t.mut parent.mut;
  Vclock.Mut.incr t.mut tid;
  t.tid <- tid;
  clear_clocks t;
  t.ep <- Vclock.Mut.get t.mut tid;
  tick parent
