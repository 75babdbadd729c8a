(** The one place outcomes are turned into histogram keys and counted,
    and the harness's one crash rule, which keeps a single faulty run
    from killing a whole experiment. [Campaign], [Systematic] and
    [Guided] all tally their runs' outcomes here, and print the
    histogram with {!pp}. *)

val key : Tsan11rec.Interp.outcome -> string
(** Stable short name for aggregation ("completed", "deadlock",
    "crashed", "hard-desync", "unsupported", "app-error",
    "tick-limit", "timeout", "corrupt-demo"). *)

type histogram = (string * int) list
(** Runs per outcome, as [(key, count)] pairs sorted by key, one per
    outcome seen. *)

type tally
(** A mutable count per outcome constructor: {!add} allocates nothing. *)

val tally : unit -> tally
val add : tally -> Tsan11rec.Interp.outcome -> unit
val histogram : tally -> histogram

val merge : histogram -> histogram -> histogram
(** Both histograms' runs: a linear merge, adding the counts of a key
    both hold. *)

val count : histogram -> string -> int
(** A key's count, 0 when absent. *)

val pp : Format.formatter -> histogram -> unit
(** One ["  outcome <key> <count>"] line per key. *)

val protect : (unit -> Tsan11rec.Interp.result) -> Tsan11rec.Interp.result
(** Run one experiment iteration (world setup + program build +
    interpretation) and never raise. [World.Unsupported] becomes an
    [Unsupported_app] result, [Failure] and [Invalid_argument] become
    [App_error] results, and every other exception [e] becomes the
    quarantine result [Crashed (-1, Printexc.to_string e)]. A run is a
    pure function of its seeds, so it is never retried.
    [Campaign.run_one] is the only caller: every engine gets this
    rule. *)
