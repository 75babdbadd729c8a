(** Per-run counters.

    Every interpreter run produces one of these for free (plain int
    increments on the hot path, no allocation); campaigns sum them
    with {!add} in run-index order, so the aggregate is the same
    bit-for-bit at every worker count — the same monoid discipline as
    the rest of [Campaign]'s report. *)

type t = {
  m_ticks : int;  (** critical sections executed *)
  m_waits : int;  (** times a thread blocked (mutex/rwlock/cond/join) *)
  m_preemptions : int;
      (** context switches away from a thread that could still run *)
  m_evictions : int;
      (** store-window evictions: stores pushed out of a location's
          bounded history ring *)
  m_stale_reads : int;
      (** atomic loads that observed an admissible store older than the
          newest one *)
  m_det_checks : int;  (** race-detector shadow-state checks performed *)
  m_desyncs : int;  (** replay divergences encountered *)
  m_timeouts : int;  (** 1 when the run hit its wall-clock deadline *)
  m_retries : int;
      (** always 0: nothing sets it, and nothing is retried — a run
          that raises is quarantined once ([Outcome.protect]). The
          field stays until the benchmark's pinned fingerprints can
          change: [Campaign.digest] marshals this record, so removing
          it moves every digest *)
  m_salvages : int;
      (** always 0, like [m_retries]: the journal lines a campaign
          drops are counted in [supervision] too *)
  m_cov_bits : int;
      (** bits set in the run's schedule-coverage fingerprint; 0 when
          coverage collection is off *)
  m_corpus_adds : int;
      (** seeds admitted to the guided corpus (campaign-level; always 0
          in a raw interpreter result) *)
  m_energy : int;
      (** power-schedule energy spent by guided hunting
          (campaign-level; always 0 in a raw interpreter result) *)
  m_predicted : int;
      (** always 0 and kept, like [m_retries]: no code sets it or the
          two fields below; prediction counts live in
          [Predictor.report] *)
  m_pred_verified : int;  (** always 0, like [m_predicted] *)
  m_pred_refuted : int;  (** always 0, like [m_predicted] *)
}

val zero : t
(** Identity of {!add}: all counters 0. *)

val add : t -> t -> t
(** Componentwise sum — associative with identity {!zero}. *)

type sum
(** A running {!add} of many [t]s, kept in place. *)

val sum : unit -> sum
(** A sum of no [t]: its {!total} is {!zero}. *)

val accumulate : sum -> t -> unit
(** Adds one [t] to the sum, allocating nothing. *)

val total : sum -> t
(** The sum so far: [add]s of every accumulated [t] onto {!zero}. *)

val equal : t -> t -> bool
(** [a = b], field by field, without the polymorphic compare. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One flat JSON object, keys in declaration order. *)
