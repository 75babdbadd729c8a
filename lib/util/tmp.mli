(** Race-free unique temporary directories.

    Unlike the [Filename.temp_file]-then-[Sys.remove] idiom, the
    directory is atomically created (via [mkdir]) before the path is
    returned, so concurrent callers — including multiple domains of
    one process — can never be handed the same path. *)

val fresh_dir : ?base:string -> prefix:string -> unit -> string
(** [fresh_dir ~prefix ()] creates a fresh empty directory named after
    [prefix], the pid and a process-wide counter under [base] (default
    the system temp dir) and returns its path. Thread- and
    domain-safe. *)

val rm_rf : string -> unit
(** Best-effort recursive removal; never raises. *)

val with_dir : ?base:string -> prefix:string -> (string -> 'a) -> 'a
(** [with_dir ~prefix f] runs [f dir] on a fresh directory and removes
    the directory (recursively) when [f] returns {e or raises} — the
    bracket that keeps crashed runs from stranding [t11r-*] dirs. *)
