(** Verified predictive race analysis: the harness side of
    [T11r_race.Predict].

    The analysis itself is a pure offline pass over one recorded run's
    decision metadata; this module supplies everything around it —
    loading the metadata back out of a demo or a campaign journal,
    {e verifying} each [Must] pair by actually executing its witness
    schedule under the guided strategy (with adaptive prefix repair and
    a seed sweep), and admitting confirmed witnesses into the guided
    corpus so [Guided.hunt] and [Minimize.find_bug] start from
    schedules already known to reach a race. A campaign journal's runs
    are analysed one by one and combined with [Predict.merge].

    Soundness discipline (asserted in test/test_predict.ml and CI):
    only pairs whose verdict is [Confirmed] are ever surfaced as races;
    [May] pairs and [Refuted] pairs are reported as predictions that
    did not (or could not) be confirmed, never as races. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module Predict = T11r_race.Predict
module Report = T11r_race.Report
module Coverage = T11r_race.Coverage

(** {1 Recording under prediction} *)

val recording_prefix : int -> int array
(** The seed-derived pseudo-random guided prefix `record --guided'
    records under: small indices (taken modulo the enabled-set size)
    perturb the schedule without forcing pathological starvation, and
    a batch of seeds diversifies the schedules the recordings explore.
    The benches and tests derive their recording schedules the same
    way so prediction results line up with the CLI's. *)

(** {1 Recovering analysis inputs} *)

val input_of_demo : Demo.t -> (Predict.input, string) result
(** Decode the DECISIONS file of a loaded demo. [Error] explains what
    is missing: recordings made without the guided strategy carry no
    decision metadata (re-record under [--guided]). *)

val inputs_of_journal : string -> Predict.input list
(** Analysis inputs of every journaled campaign run that carried
    decision metadata, in run-index order.
    @raise Invalid_argument as [Campaign.journal_results]. *)

(** {1 Witness verification} *)

type verdict =
  | Confirmed of {
      c_seed1 : int64;
      c_seed2 : int64;  (** scheduler seeds of the confirming run *)
      c_prefix : int array;
          (** normalized guided prefix that realized the witness —
              replayable input for [Guided]/[Corpus]/[Minimize] *)
      c_runs : int;
          (** attempts charged to this pair, inclusive: the executions
              its class ran (see {!verify}) *)
      c_race : Report.t;  (** the confirming sighting, normalized *)
      c_cov : Coverage.summary;
          (** the confirming run's coverage fingerprint, for corpus
              admission *)
    }
  | Refuted of int
      (** no witness attempt manifested the race within the budget —
          the pair is NOT a race finding ([runs] attempts charged, as
          [c_runs]) *)

type verified = { v_pair : Predict.pair; v_verdict : verdict }

type report = {
  r_analysis : Predict.t;
  r_verified : verified list;
      (** the [Must] pairs in analysis order; [May] pairs are never
          executed and never appear here *)
  r_confirmed : int;
  r_refuted : int;
  r_runs : int;
      (** attempts charged to pairs, summed over [r_verified]; pairs
          of one class each count their class's execution sequence *)
  r_executed : int;
      (** interpreter runs actually performed, summed over classes;
          at most [r_runs] *)
}

val verify :
  ?jobs:int ->
  ?attempts:int ->
  ?extra_seeds:int ->
  ?recorded_seeds:int64 * int64 ->
  ?base_conf:Conf.t ->
  instance:(unit -> T11r_env.World.t * T11r_vm.Api.program) ->
  Predict.t ->
  report
(** Execute each [Must] pair's witness schedules under the guided
    strategy until one run sights the predicted race or the per-pair
    budget ([attempts], default 48 executions) is exhausted. Witness
    plans are tried most-faithful-first, each against the recording's
    own seeds first ([recorded_seeds]) and then [extra_seeds] (default
    24) SplitMix64-derived pairs; within one (plan, seeds) cell the
    guided prefix is repaired adaptively — on a divergence from the
    plan the realized prefix is corrected at the first mismatching
    decision and re-run, abandoning the cell when the planned thread
    is not enabled there.

    [instance] builds a fresh (world, program) per execution and must
    be safe to call from several domains.

    Pairs are grouped into classes with equal [p_report] and
    [p_witnesses]. The verdict of a pair depends on nothing else of
    it, and executions are deterministic, so only the first pair of a
    class (in analysis order) is executed and every pair of the class
    shares one execution sequence and one verdict. The result is the
    one verifying every pair separately would give, apart from
    [r_executed]. Classes are verified on up to [jobs] domains
    (default 1) and folded in analysis order, so the report is
    identical whatever [jobs] is.

    @raise Invalid_argument when [attempts < 1], [extra_seeds < 0], or
    the seed sweep is empty ([recorded_seeds] absent and
    [extra_seeds = 0]): such a call could only refute every pair
    without running anything. *)

(** {1 Corpus admission} *)

val admit : Corpus.t -> report -> Corpus.t * int
(** Offer every confirmed witness (guided prefix + confirming seeds +
    coverage fingerprint) to the corpus via [Corpus.consider], in
    analysis order; returns the evolved corpus and how many were
    admitted (a witness whose coverage adds no new bits is dropped,
    same discipline as the hunt). *)

val pp : Format.formatter -> report -> unit
