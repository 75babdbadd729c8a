(** The recorded-decision format: the one description of a controlled
    run that the interpreter captures, dynamic partial-order reduction
    ([T11r_harness.Systematic]) explores and the offline predictive
    race analysis ({!Predict}) reorders.

    Under the [Conf.Guided] strategy — and only there — every
    scheduling point records the chosen thread, the enabled set, a
    {e dependency footprint} of the visible operation executed and the
    lock transition it performed; every shadow-checked non-atomic
    access is recorded with its thread-position attribution. Every
    other configuration pays one branch per tick and allocates
    nothing. *)

type access = Acc_read | Acc_write | Acc_update

type footprint =
  | F_local  (** no shared effect the explorer can observe *)
  | F_atomic of int * access  (** atomic location id + access kind *)
  | F_fence
  | F_sync of int * int
      (** mutex/condvar/rwlock object id(s) — ids share one allocation
          space, so they never collide across kinds; the second id is
          [-1] unless the op touches two objects (condvar waits touch
          the condvar and its mutex) *)
  | F_spawn of int  (** created tid *)
  | F_join of int  (** joined tid *)
  | F_syscall of int
      (** [Syscall.footprint_id]; conservatively global — all syscalls
          share the world's state and PRNG stream *)
  | F_global
      (** other world-coupled ops (signal plumbing, timed waits):
          dependent on everything *)

(** Lock transition performed by the decision's visible op, if any —
    disambiguates the [F_sync] footprint (lock, unlock and failed
    acquire all share one footprint shape). *)
type lock_event =
  | L_none
  | L_acquire of int
  | L_release of int
  | L_blocked of int  (** failed acquire: the thread parked on the id *)

(** One scheduling decision: at the tick where it was recorded, the
    threads in [d_enabled] (ascending tids, matching the Guided
    strategy's index order) were runnable, [d_tid]'s visible op
    executed with footprint [d_foot], consuming [d_draws] scheduler-
    PRNG draws. [d_rand] marks draws that actually chose among two or
    more behaviour-relevant alternatives (an atomic load offered
    several admissible stores, a wake picking among several waiters) —
    forced single-option draws keep the stream aligned but commute. *)
type t = {
  d_tid : int;
  d_enabled : int array;
  d_foot : footprint;
  d_draws : int;
  d_rand : bool;
  d_lock : lock_event;
}

(** One shadow-checked non-atomic access. *)
type acc = {
  a_tick : int;  (** decision index the access is attributed to *)
  a_tid : int;
  a_pos : int;
      (** visible ops [a_tid] had executed when the access ran — the
          access's program-order position between events [a_pos] and
          [a_pos + 1] of its thread *)
  a_var : int;  (** shadow-variable id *)
  a_write : bool;
  a_name : string;
}

val normalize_prefix : int array -> int array
(** Strip trailing zeros — beyond its prefix the guided strategy picks
    index 0, so [p ++ [0]] realizes the same schedule as [p]. *)

val index_of : int -> int array -> int
(** [index_of tid enabled] is the guided-strategy index that picks
    [tid] from the enabled set [enabled].
    @raise Not_found when [tid] is not enabled. *)

(** Shared immutable values for decision capture: one footprint, lock
    event or enabled set per distinct value, made on first use and kept
    for the table's lifetime (an interpreter arena's). Each table keeps
    keys below 1024 (location, object or tid numbers); a larger key
    gets a fresh value. Sharing changes no value, only how many blocks
    hold it. *)
module Share : sig
  type t

  val create : unit -> t
  val atomic : t -> int -> access -> footprint
  (** [F_atomic (loc, kind)]. *)

  val sync : t -> int -> int -> footprint
  (** [F_sync (x, y)]; shared when [y = -1]. *)

  val spawn : t -> int -> footprint
  val join : t -> int -> footprint
  val syscall : t -> int -> footprint
  val acquire : t -> int -> lock_event
  val release : t -> int -> lock_event
  val blocked : t -> int -> lock_event

  val mask_bits : int
  (** Enabled sets are shared when every tid is below [mask_bits]. *)

  val enabled : t -> int -> int array
  (** [enabled sh m] is the shared ascending array of the tids of
      bitmask [m > 0]. *)
end
