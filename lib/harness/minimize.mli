(** Iterative context bounding (Musuvathi & Qadeer, PLDI 2007 — cited
    by the paper as the natural companion to controlled scheduling).

    Empirically, concurrency bugs need very few preemptions to manifest
    (Lu et al., ASPLOS 2008, also cited). This module exploits that:
    hunt for a failure with preemption bound 0, then 1, then 2, ... —
    the first hit gives both a reproduction seed and a complexity
    certificate ("this bug needs at most [b] preemptions"), which is
    the most debugging-friendly schedule to replay. *)

type failure = Race | Crash | Deadlock | Any

type found = {
  bound : int;  (** preemption bound at which the failure appeared *)
  seed : int64;
      (** first scheduler seed that exposes it (re-run with both seeds
          to record) *)
  seed2 : int64;
      (** second scheduler seed — the pair is derived per (bound, try)
          via SplitMix64, so failures that need a specific weak-memory
          read choice are reachable (the old derivation pinned this to
          a constant) *)
  runs : int;  (** total executions spent across all bounds *)
  outcome : Tsan11rec.Interp.outcome;
  races : T11r_race.Report.t list;
}

type result = Found of found | Not_found of int  (** runs spent *)

val find_bug :
  ?failure:failure ->
  ?max_bound:int ->
  ?tries_per_bound:int ->
  ?deadline_s:float ->
  ?tick_budget:int ->
  ?world_seed:int64 ->
  ?corpus:Corpus.t ->
  build:(unit -> T11r_vm.Api.program) ->
  unit ->
  result
(** Randomised search under [Conf.Preempt_bounded b] for
    [b = 0 .. max_bound] (default 4), [tries_per_bound] seeds each
    (default 100). With [?corpus], each bound tries the guided
    corpus' seed pairs first (highest energy first) before the blind
    SplitMix64 sweep — they count against [tries_per_bound].

    Every try is one {!Campaign.run_one} on the recycled world, so a
    sweep allocates per run what a campaign run does, and
    [deadline_s] / [tick_budget] bound each try as they bound a
    campaign run (a budget only lowers [max_ticks]); a try cut short
    ([Timeout], [Tick_limit]) — like a harness-level failure mapped by
    [Outcome.protect] — counts as "no match" and the sweep continues
    with the next seed. *)

val pp : Format.formatter -> result -> unit
