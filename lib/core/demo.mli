(** The demo: a recorded execution (§4).

    A demo is "a series of constraints arising from the recorded
    execution, which the replay is required to satisfy". On disk it is a
    directory of line-oriented files named exactly as in the paper:

    - [META]   — strategy, the two PRNG seeds, tick count, application
                 name, digest of observable output;
    - [QUEUE]  — queue-strategy schedule: first tick per thread, then
                 the ordered tick list consumed on leaving critical
                 sections, run-length encoded (§4.2). Absent for the
                 random strategy, whose schedule lives in the seeds;
    - [SIGNAL] — one line ["tid tick signo"] per delivered asynchronous
                 signal (§4.3);
    - [SYSCALL]— return value, errno, elapsed block time and RLE'd
                 buffer contents per recorded syscall (§4.4);
    - [ASYNC]  — asynchronous scheduler events (reschedules, signal
                 wakeups) with their ticks (§4.5).

    A recording may carry further line files next to them: the debug
    [TRACE] of its operations and the [DECISIONS] metadata of offline
    race prediction. They are part of the demo ({!t}'s [extra]).

    Durability (see docs/ARCHITECTURE.md "Durability & supervision"):
    {!save} is crash-atomic — files are written, then fsynced in one
    pass, in a fresh sibling directory which is then renamed into
    place — and every file carries a [#crc] trailer plus an entry in a
    directory [MANIFEST], so {!load} detects truncation, bit flips and
    missing files and reports them as a structured {!Corrupt} instead
    of a stray parse exception. {!load} is the one reader of a demo.
    {!salvage} recovers the intact prefix of a torn recording, and of
    one made before the framing change, which {!load} refuses.

    The codec's CPU cost is close to its I/O cost: the files are
    rendered into one buffer and checksummed and written from it, and
    read once, verified with one scan and one CRC pass, and parsed in
    place (see docs/ARCHITECTURE.md "Durability & supervision"). *)

type signal_entry = { s_tid : int; s_tick : int; s_signo : int }

type async_kind = Reschedule | Signal_wakeup of int  (** woken tid *)

type async_entry = { a_tick : int; a_kind : async_kind }

type syscall_entry = {
  sc_tick : int;
  sc_tid : int;
  sc_label : string;  (** syscall kind name, for desync diagnostics *)
  sc_ret : int;
  sc_errno : int;
  sc_elapsed : int;
  sc_data : bytes;
}

type queue_data = {
  first_ticks : (int * int) list;  (** tid -> first tick it is scheduled *)
  next_ticks : int list;
      (** for each critical-section exit, in exit order: the tick at
          which that thread runs next, or [-1] if it never runs again *)
}

type meta = {
  app : string;
  strategy : string;
  seed1 : int64;
  seed2 : int64;
  ticks : int;
  output_digest : string;
}

type t = {
  meta : meta;
  queue : queue_data option;
  signals : signal_entry list;
  syscalls : syscall_entry list;
  asyncs : async_entry list;
  extra : (string * string list) list;
      (** every other file, as (name, payload lines), in MANIFEST
          order: [TRACE], [DECISIONS] *)
}

type corruption = {
  c_file : string;  (** file inside the demo dir ("META", "QUEUE", …) *)
  c_line : int;  (** 1-based line, or 0 for file-level damage *)
  c_reason : string;
}

exception Corrupt of corruption

val corruption_to_string : corruption -> string

val save : ?durable:bool -> t -> dir:string -> unit
(** Crash-atomically (re)write the demo directory: all files — the
    paper's, then the [extra] ones — are CRC-framed, listed in a
    [MANIFEST] and written into a fresh sibling directory [<tmp>], each
    on its own descriptor; then ([durable], default true; pass false
    for throwaway recordings where the fsyncs would dominate) every
    file is fsynced in one pass after the last write, and [<tmp>]
    after them; then [<tmp>] is renamed into place and ([durable]) the
    parent directory fsynced. Every file is rendered once, into one
    buffer, checksummed there and written from it with its trailer in
    one write. A previous demo at [dir] is first renamed to
    [<tmp>.old] and removed once the new one is in place: a crash
    leaves the complete previous demo or the complete new one, never
    a torn mix — at [dir], except between the two renames, when [dir]
    is absent and the previous demo sits at [<tmp>.old]. A save that
    fails removes [<tmp>], closes every descriptor it opened and
    raises, leaving [dir] as it was. *)

(** {2 The stages of a save}

    {!save} is {!render}, {!write} into [<tmp>], {!sync} (when
    durable) and {!close}, then the directory fsyncs and renames.
    They are exposed to cost each on its own ([bench/main.exe
    costs]). *)

type rendered
(** Every file of a demo, framed, in one buffer. *)

val render : t -> rendered
(** The paper's files, then the [extra] ones, then the [MANIFEST]. *)

type written
(** The open descriptors of a {!write}, one per file, in order. *)

val write : rendered -> dir:string -> written
(** Create (or truncate) each file in the existing directory [dir]
    and write it whole on its own descriptor, which stays open. On a
    failure the descriptors already opened are closed before the
    exception goes on. *)

val sync : written -> unit
(** The fsync pass: every written file, in order. *)

val close : written -> unit
(** Close every descriptor (errors ignored). *)

val load : dir:string -> t
(** Load and verify a demo {!save} wrote: the [MANIFEST], a [#crc]
    trailer on every file it lists, which must include META, SIGNAL,
    SYSCALL and ASYNC, and META's [format] line. QUEUE is parsed when
    listed; every other listed file comes back in [extra]. Each file is
    read once; one scan finds its trailer and counts its lines, one CRC
    pass checks its payload, and the paper files are parsed from the
    file's string without splitting it into lines or fields. A field
    that is not plain is read by the [Codec]/[Rle] function defining
    it, whose reason the [Corrupt] carries; of two bad fields on a
    line, or two bad files, the later one is named.
    @raise Corrupt on a missing, truncated, tampered, malformed or
    unframed demo — never any other exception. *)

type salvage_report = {
  sv_dropped : (string * int) list;
      (** per damaged file, the number of payload lines abandoned *)
}

val dropped_total : salvage_report -> int

val salvage : dir:string -> (t * salvage_report, corruption) result
(** Best-effort recovery of a damaged recording: per file, keep the
    longest parseable prefix (checksums ignored), so a truncated
    QUEUE/SYSCALL tail still yields a demo that replays up to the
    recorded prefix. Fails only when META is too damaged to supply the
    strategy and seeds. Re-{!save} the result to obtain a verified
    directory again: this also upgrades a recording made before the
    framing change (no trailers, MANIFEST or [format] line). An [extra]
    file is kept whole, in name order, when its own trailer verifies,
    and dropped otherwise, counted in [sv_dropped] with its line count
    (at least 1). *)

val reseal : dir:string -> unit
(** Recompute every file's trailer and the MANIFEST over the payload
    bytes currently on disk — for tooling and tests that edit demo
    files in place and need the directory to verify again. *)

val queue_of_trace : int array -> int -> queue_data
(** The QUEUE of a run whose tick [i] ran thread [tids.(i)], [i < n]. *)

(** {2 Replay} *)

type cursor
(** A demo as one replay consumes it, in tick order. *)

val cursor : t -> cursor
(** ASYNC and SIGNAL entries stable-sorted by tick, every QUEUE thread
    at its first tick. *)

val scheduled : cursor -> int -> int
(** The thread QUEUE schedules at this tick, or [-1]. *)

val leave : cursor -> int -> unit
(** Thread [tid] left a critical section: it takes the next entry of
    QUEUE's tick list (§4.2), even if QUEUE expected another thread. *)

val take_asyncs : cursor -> int -> (async_entry -> unit) -> unit
val take_signals : cursor -> int -> (signal_entry -> unit) -> unit
(** Consume the entries up to this tick (SIGNAL's is the victim's last
    tick, -1 before its first), applying [f] to those at it in recorded
    order; ticks only move forward. *)

val next_syscall : cursor -> syscall_entry option

val take_syscall :
  cursor -> tid:int -> label:string -> within:int -> syscall_entry option
(** Serve the first of the next [within] SYSCALL entries that is thread
    [tid]'s [label] call; the entries it skips stay. *)

val size_bytes : t -> int
(** Total size of the rendered demo payload — the paper's demo-size
    metric (§5.2). Framing (trailers, MANIFEST) is excluded. The files
    go through {!save}'s renderers into one scratch buffer, which is
    reused from file to file. *)

val syscall_bytes : t -> int
(** Size of the SYSCALL file alone (§5.4 reports it separately),
    counted the same way. *)

val pp : Format.formatter -> t -> unit
