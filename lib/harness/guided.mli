(** Coverage-guided schedule hunting.

    Each round breeds a batch of candidate (strategy, seed-pair)
    inputs from the {!Corpus} (portfolio rotation while the corpus is
    empty), runs the batch as one [Campaign], and folds every run's
    coverage fingerprint back into the corpus in run-index order.
    Candidate breeding is a pure function of (salt, round, corpus), and
    coverage merging is a fold in run-index order, so the corpus and the
    report digest are bit-identical at every worker count.

    With [?corpus_dir] the hunt is durable: the fold state is
    snapshotted into a CRC-framed journal after each round, and each
    round's campaign writes its own run journal — a SIGKILL loses at
    most the round's unflushed runs, and re-running with the same
    directory resumes and reproduces the uninterrupted digest. *)

module Conf = Tsan11rec.Conf
module Coverage = T11r_race.Coverage
module Metrics = T11r_obs.Metrics

type report = {
  g_label : string;
  g_rounds_done : int;
  g_batch : int;
  g_runs : int;
  g_racy : int;
  g_first_race : int option;
      (** global run index of the first racy run, if any *)
  g_corpus : Corpus.t;
  g_coverage : Coverage.summary;  (** union over every run *)
  g_outcomes : (string * int) list;  (** outcome histogram, sorted *)
  g_sightings : Campaign.sighting list;  (** distinct races, most-sighted first *)
  g_metrics : Metrics.t;
      (** summed per-run counters, with [m_corpus_adds] and [m_energy]
          filled in from the corpus *)
  g_wall_s : float;  (** excluded from {!digest} *)
  g_interrupted : bool;  (** excluded from {!digest} *)
}

val hunt :
  Campaign.spec ->
  ?rounds:int ->
  ?batch:int ->
  ?jobs:int ->
  ?corpus_dir:string ->
  ?salt:int64 ->
  ?stop_on_race:bool ->
  ?deadline_s:float ->
  ?tick_budget:int ->
  ?cancel:(unit -> bool) ->
  unit ->
  report
(** Run a guided hunt over the spec's workload. The spec's per-index
    configuration is overridden per candidate (strategy, seeds,
    coverage forced on). [?salt] decorrelates otherwise identical
    hunts; [?stop_on_race] ends the hunt at the first round that found
    a race (the runs-to-first-race experiment); [?cancel] is polled
    between rounds and inside each round's campaign.

    The corpus journal's header pins the label, [batch] and [salt];
    an interrupted round's run journal is checked by {!Campaign.run}.
    A hunt resumed from a snapshot also breeds round 0 again from the
    empty corpus and requires [round-0.journal], when present, to
    reproduce ({!Campaign.check_reproduces}) before any round is
    served, so a hunt over another world or tick budget is refused. A
    corpus written only by {!save_corpus} has no round journal and is
    accepted.

    @raise Invalid_argument when [rounds < 1], [batch < 1], or when a
    journal in [?corpus_dir] is refused (see
    {!T11r_util.Journal.open_pinned} and {!Campaign.run}): a damaged
    first line or not a journal, another engine's journal, an
    unreadable header or another {!corpus_schema}, one pinned to a
    different hunt (label/batch/salt), or a round journal that does
    not reproduce. *)

val corpus_schema : int
(** Version of the marshalled snapshot layout, pinned in the corpus
    journal's header; {!hunt} and {!load_corpus} refuse a corpus
    journal of another schema before unmarshalling any snapshot. *)

val digest : report -> string
(** Hex MD5 over everything except [g_wall_s] and [g_interrupted] —
    the determinism witness compared across worker counts and across
    SIGKILL+resume. *)

val pp : Format.formatter -> report -> unit

val load_corpus : string -> Corpus.t option
(** The corpus of the newest intact snapshot in a corpus directory —
    [None] when the directory has no readable snapshots. Read-only:
    the schema pin is checked, the hunt identity pins are not.
    @raise Invalid_argument when the corpus journal has a damaged
    first line, is another engine's journal, or has an unreadable
    header or another {!corpus_schema}. *)

val save_corpus : string -> Corpus.t -> unit
(** Append a snapshot carrying [corpus] to a corpus directory's
    journal (creating it as needed), with a round index newer than any
    existing snapshot so {!load_corpus} returns it. Used by external
    admitters — [Predictor] seeds the guided corpus with verified
    witness schedules this way. A corpus journal written this way
    alone has no header; {!hunt} accepts it and pins it.
    @raise Invalid_argument as {!load_corpus}. *)
