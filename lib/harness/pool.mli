(** Work-stealing Domain pool: the sharding substrate for parallel
    campaigns.

    Run indices [0..n-1] are handed out to an OCaml 5 domain pool
    through an atomic cursor; each index is computed exactly once, on
    exactly one domain, and the join before returning publishes every
    result to the caller. Because campaign runs construct all their
    state (Conf, World, program) from the index, results are identical
    whatever [jobs] is; [jobs = 1] is a plain sequential loop with no
    domains spawned. *)

val default_jobs : unit -> int
(** [$T11R_JOBS] if set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. *)

exception Worker_error of int * exn
(** A worker raised while computing the given index. When several
    indices fail, the lowest index is reported — deterministically,
    regardless of execution order. *)

val map : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] is [Array.init n f] computed on up to [jobs]
    domains (clamped to [n]; default 1 = sequential). [f] must not
    share mutable state across indices. *)

val iter :
  ?jobs:int -> ?should_stop:(unit -> bool) -> int -> (int -> unit) -> unit
(** [iter ~jobs n f] calls [f i] once for every [i] in [0 .. n-1], on up
    to [jobs] domains, for callers that store each result themselves:
    [f] may write slot [i] of its own array, and the join before
    returning publishes every write. Cancellation and errors as in
    {!map_opt}: indices not started when [should_stop] turns true are
    skipped. *)

val map_opt :
  ?jobs:int -> ?should_stop:(unit -> bool) -> int -> (int -> 'a) -> 'a option array
(** Cancellable {!map}: [should_stop] (e.g. a SIGINT flag) is polled
    before each sequential index / parallel chunk claim; once it
    returns true no new work starts, in-flight indices finish, and
    uncomputed slots are [None]. Without [should_stop] every slot is
    [Some]. Exceptions still raise {!Worker_error} with the lowest
    failing index. *)
