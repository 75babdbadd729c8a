(** The guided-hunt corpus.

    A corpus keeps the (strategy, seed-pair) inputs whose coverage
    fingerprints added bits no earlier seed had, assigns each
    power-schedule energy proportional to how much it added, and
    breeds new candidates from them. A corpus is an immutable value:
    {!consider} folds it forward in run-index order, so corpus
    evolution is a pure function of the run stream — bit-identical at
    every worker count, and reproducible from a journal snapshot. *)

module Conf = Tsan11rec.Conf
module Coverage = T11r_race.Coverage

type strategy_desc =
  | S_random
  | S_queue
  | S_pct of int
  | S_db of int
  | S_pb of int
  | S_guided of int array
      (** A marshal-safe strategy description. [Conf.strategy]'s
          [Guided] carries a mutable [observed] ref, so the corpus
          stores only the prefix and rebuilds a fresh [Guided] per
          run. *)

val strategy_of_desc : strategy_desc -> Conf.strategy

val portfolio : strategy_desc array
(** The bootstrap rotation and strategy-switch pool: random plus the
    schedule-bounding strategies that beat it on litmus race rates. *)

type entry = {
  e_id : int;  (** admission order, 0-based *)
  e_strategy : strategy_desc;
  e_seed1 : int64;
  e_seed2 : int64;
  e_cov : Coverage.summary;
  e_new_bits : int;  (** bits this entry added when admitted *)
  e_energy : int;  (** [1 + e_new_bits] *)
  e_round : int;  (** hunt round that produced it *)
}

type t

val empty : t
val size : t -> int
val entries : t -> entry list
(** In admission ([e_id]) order. *)

val total_bits : t -> int
val energy_spent : t -> int

val consider :
  t ->
  strategy:strategy_desc ->
  seed1:int64 ->
  seed2:int64 ->
  round:int ->
  Coverage.summary ->
  t * bool
(** Admit the input iff its fingerprint has bits outside {!total};
    returns the (possibly unchanged) corpus and whether it grew. *)

val charge : t -> int -> t
(** Record power-schedule energy spent breeding candidates. *)

val select : t -> T11r_util.Prng.t -> entry option
(** Energy-weighted choice over the entries in admission order; one
    PRNG draw. [None] on an empty corpus. *)

type candidate = {
  c_strategy : strategy_desc;
  c_seed1 : int64;
  c_seed2 : int64;
}

val mutate : entry -> T11r_util.Prng.t -> candidate
(** Breed one candidate from a parent: SplitMix64-backed seed
    splicing, strategy switching into {!portfolio}, or guided-prefix
    splicing in the style of [Systematic]'s frontier expansion
    (out-of-range prefix values are clamped by the interpreter). *)

val digest : t -> string
(** Hex MD5 over the corpus' pure data — the cross-process
    determinism witness. *)

