(** Offline predictive race analysis over one recorded execution.

    The paper's toolchain finds weak-memory races by {e running} many
    controlled schedules; this module is the classic complement
    (Ronsse & De Bosschere's replay-based detection, RVPredict-style
    HB relaxation): take the per-decision metadata of a single
    recorded run ({!Decision}: chosen thread, enabled set, dependency
    footprint, lock events) plus the stream of shadow-checked
    non-atomic accesses, and {e without executing
    anything} predict which access pairs can race in some feasible
    reordering of that run.

    Three orders are computed over the recorded events:

    - the {b hard} order: program order, spawn (a child starts after
      its spawn point; spawn points are chained, because thread ids
      are assigned in spawn order) and join edges. No reordering can
      break these, so pairs ordered here are structurally impossible
      and are not reported at all.
    - the {b relaxed} order: the hard order plus every edge a
      reordering must still respect — fence chains, world-coupled
      operation chains (syscalls share the world PRNG), condvar
      signal/wait chains, and atomic reads-from edges that were
      {e forced} (the store window offered exactly one admissible
      store, so the load could not have seen anything else).
      Scheduler-induced edges are dropped: mutex/rwlock
      release-to-acquire ordering (mutual exclusion is enforced by
      the lockset pass and by witness scheduling instead) and atomic
      reads-from edges where the bounded store window offered two or
      more admissible stores ([d_rand]) — the window is exactly what
      licenses the relaxation, and also what bounds it.
    - the {b lockset} view: accesses whose held-lock sets intersect
      can never race, whatever the order.

    Conflicting pairs with disjoint locksets are then tagged [Must]
    (unordered in the relaxed order — a concrete witness schedule is
    constructed) or [May] (ordered in the relaxed order but not in the
    hard one — lockset-only evidence, no feasible reordering
    constructed). Only [Must] pairs whose witness is {e confirmed} by
    a guided replay may ever be reported as races; [May] and refuted
    pairs never are. *)

type input = {
  steps : Decision.t array;  (** one per executed decision, in order *)
  accs : Decision.acc array;
      (** shadow-checked non-atomic accesses, in order *)
  observed : Report.t list;  (** races the recording itself reported *)
}

type confidence = Must | May

type witness = {
  w_tids : int array;
      (** planned thread per decision — the schedule to realize *)
  w_prefix : int array;
      (** the plan as a normalized guided-strategy index prefix (the
          same format [Systematic] and [Corpus] use); a best-effort
          starting point that guided replay repairs adaptively *)
}

(** Witness arrays and lists are read-only: an analysis shares them
    between pairs (every Must pair's list ends with the same empty
    serialization witness, and the pairs without a reverse witness
    share one whole list), as pairs share equal reports. The sharing
    is physical only: {!digest}'s [No_sharing] bytes do not see it. *)
type pair = {
  p_report : Report.t;  (** normalized (canonical orientation) *)
  p_var : int;
  p_first : int * int;  (** (tid, position) of the earlier access *)
  p_second : int * int;
  p_confidence : confidence;
  p_observed : bool;  (** the recording already reported this race *)
  p_witnesses : witness list;
      (** non-empty iff [Must]: candidate schedules, most faithful to
          the recording first *)
}

type t = {
  pairs : pair list;  (** in {!compare_pair} order *)
  n_must : int;
  n_may : int;
  n_observed : int;
  n_vars : int;  (** distinct shared locations in the access stream *)
  n_lock_excluded : int;
      (** conflicting pairs excluded by a common lock *)
}

val compare_pair : pair -> pair -> int
(** The order of [pairs] in {!t}: [Stdlib.compare] on [(p_report, p_first,
    p_second, p_var)], the report by {!Report.compare}. Builds no tuple
    and calls no polymorphic compare. *)

val analyze : input -> t
(** Pure function of the input — identical output whatever domain or
    worker count computed it. *)

val merge : t list -> t
(** The analyses of several runs of one program as one analysis: one
    pair per normalized report. The first run's pair is kept, and is
    replaced only by a later one that predicts it [Must] where it was
    [May], or observed it where it was not. [n_lock_excluded] is the
    sum over the runs and [n_vars] the largest per-run count, because
    location ids restart in every run. Pure and order-sensitive: merge
    runs in run-index order for a reproducible result. *)

val digest : t -> string
(** Hex MD5 of the full analysis' Marshal [No_sharing] bytes, like the
    campaign digest discipline. The bytes are streamed, never built
    ({!T11r_util.Mdigest}): each pair is marshalled without its
    witness list and each physically distinct witness once, so the
    cost follows the distinct data, not the unshared size. The value
    is that of [Digest.string (Marshal.to_string t [No_sharing])]. *)

val pp : Format.formatter -> t -> unit

val recorded_prefix : input -> int array
(** The exact normalized index prefix that realizes the recorded
    schedule (each step's chosen tid located in its enabled set).
    @raise Not_found on a step whose tid is not enabled — never for a
    live run's input or one {!decode_input} accepted. *)

val encode_input : input -> string list
(** Line encoding for demo aux files (the DECISIONS file), one line
    per step, access and observed race:
    - [S <tid> <rand 0|1> <footprint> <lock> E<enabled,...> D<draws>]
    - [A <tick> <tid> <pos> <var> <write 0|1> <name>]
    - [R <ww|wr|rw> <tid1> <tid2> <name>]

    Names come last, written with {!T11r_util.Codec.escape} so a
    space or newline in a name cannot split a line. *)

val decode_input : string list -> input option
(** Inverse of {!encode_input}: [decode_input (encode_input i)] is [i].
    It accepts exactly the lines {!encode_input} writes: [None] on any
    other line (a step's [C<clock>] column or an unescaped name, as
    older builds wrote them, included). Integers are plain decimal as
    [string_of_int] writes them (no ["+0"], ["0x1F"], ["1_000"] or
    leading zero), flags are [0] or [1], a tag-only footprint is its
    one letter and an atomic footprint's kind one letter after the
    [.]. It is also [None] on a step whose tid is negative
    or not in its enabled set (or whose spawn/join target is negative),
    and on an access with a negative tid or position. *)
