(** Append-only checksummed JSONL journal.

    Each entry is one line of valid JSON carrying a kind tag and an
    opaque binary payload, framed with a CRC-32 over both so torn or
    bit-flipped lines are detected before the payload is decoded. The
    campaign engine journals every completed run here so a SIGKILLed
    campaign can be resumed ([--resume]) without redoing finished
    work; see docs/ARCHITECTURE.md "Durability & supervision". *)

type entry = { kind : string; payload : string }
(** [kind] must be non-empty [[A-Za-z0-9_-]+]; [payload] is arbitrary
    bytes (escaped on disk). *)

type writer

val create : ?fsync_every:int -> ?buffer:int -> string -> writer
(** Open (creating parent directories and the file as needed) for
    appending. By default ([buffer = 0]) every append is flushed to
    the kernel — a SIGKILL loses nothing already appended — and an
    fsync is issued every [fsync_every] appends (default 32; 0
    disables) and on {!close} to bound machine-crash loss.

    [buffer > 0] bounds an in-process buffer (bytes) instead: appends
    accumulate and are drained when the buffer fills, on {!flush} and
    on {!close}, so journaling a hot loop does not serialise on
    write(2). Whole lines reach the file in single writes either way,
    so a kill tears at most the final line (dropped by {!read}) and
    loses at most the buffered suffix — which a resume re-executes.

    Torn-tail guarantee: the writer never appends onto a torn line. An
    unterminated final line after intact ones is terminated first (so
    {!read} drops and counts it, and the next entry is a line of its
    own); a file that is nothing but one unterminated line is emptied. *)

val append : writer -> entry -> unit
(** Serialise and append one entry. Safe to call from multiple domains
    (appends are mutex-serialised).
    @raise Invalid_argument on a malformed kind. *)

val flush : writer -> unit
(** Drain the buffer to the file and fsync — the batch-boundary /
    SIGINT durability point for buffered writers. *)

val close : writer -> unit

val read : string -> entry list * int
(** All intact entries in file order, plus the number of corrupt or
    torn lines that were dropped. [([], 0)] if the file is absent.
    Never raises on file content. *)

(** {1 Pinned journals}

    A resume journal starts with a header entry (the engine's
    marshalled identity record, schema first) followed by entries of
    one payload kind. The resume rules live here, once:
    - an absent or empty file starts fresh, and so does one holding
      only an unterminated journal line (a header torn by a kill);
    - otherwise the first line must be an intact entry, or the file is
      refused: a damaged header, or not a journal at all;
    - an intact entry of any other kind is refused as
      ["<path> is a <kind> journal, not a <header> one"];
    - a file with an intact payload first line and no header (a
      snapshot written by an external admitter) is accepted. *)

val open_pinned :
  ?buffer:int ->
  header:entry ->
  payload:string ->
  mismatch:(string -> string) ->
  string ->
  writer * entry list * int
(** Apply the rules, then check every header byte for byte against
    [header]; return an append-mode writer ({!create} [?buffer]), the
    [payload] entries in file order and the dropped-line count. A file
    with no header gets [header] appended and flushed.
    @raise Invalid_argument when a rule refuses the file, with
    [mismatch found] when a header's payload [found] differs, and
    before anything is written. *)

val load_pinned :
  header:string -> payload:string -> string -> string option * entry list * int
(** Read-only sibling of {!open_pinned} for offline readers: the same
    rules, but nothing is written and the (first) header payload is
    returned instead of compared — the reader checks only its schema.
    @raise Invalid_argument when a rule refuses the file. *)
