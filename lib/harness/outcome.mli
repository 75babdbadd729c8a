(** The one place outcomes are turned into histogram keys, and the
    harness's one crash rule, which keeps a single faulty run from
    killing a whole experiment. *)

val key : Tsan11rec.Interp.outcome -> string
(** Stable short name for aggregation ("completed", "deadlock",
    "crashed", "hard-desync", "unsupported", "app-error",
    "tick-limit", "timeout", "corrupt-demo"). *)

val protect : (unit -> Tsan11rec.Interp.result) -> Tsan11rec.Interp.result
(** Run one experiment iteration (world setup + program build +
    interpretation) and never raise. [World.Unsupported] becomes an
    [Unsupported_app] result, [Failure] and [Invalid_argument] become
    [App_error] results, and every other exception [e] becomes the
    quarantine result [Crashed (-1, Printexc.to_string e)]. A run is a
    pure function of its seeds, so it is never retried.
    [Campaign.run_one] is the only caller: every engine gets this
    rule. *)
