(** Fault-injection sweep over the httpd workload: record under a
    seeded fault plan of increasing probability, then replay each demo
    fault-free and check that the recorded syscall-result sequence
    (injected failures included) reproduces with zero hard desyncs.

    Each run is an independent, index-seeded record/replay pair with
    its own demo directory, so a cell's runs shard across the domain
    pool ({!Pool.map}); rows are identical for every [jobs]. *)

type row = {
  p : float;  (** per-site fault probability *)
  runs : int;
  record_completed : int;  (** recordings that ran to completion *)
  mean_injected : float;  (** faults injected per recording *)
  replay_faithful : int;  (** replays matching the recorded outcome *)
  hard_desyncs : int;
  soft_desyncs : int;
}

val sweep : ?smoke:bool -> ?jobs:int -> unit -> row list
(** Run the sweep. [smoke] shrinks it to two probabilities and two runs
    each for CI; [jobs] shards each cell's runs over that many domains
    (default 1). *)

val print : row list -> unit
val run : ?smoke:bool -> ?jobs:int -> unit -> unit
