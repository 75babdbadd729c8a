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

val create : string -> writer
(** Open (creating parent directories and the file as needed) for
    appending. Appends accumulate in a 256 KiB in-process buffer that
    is drained when full, on {!flush} and on {!close}, so journaling a
    hot loop does not serialise on write(2); a drain that finds 32 or
    more appends since the last fsync issues one, and so do {!flush}
    and {!close}. Whole lines reach the file in single writes, so a
    kill tears at most the final line (dropped by {!read}) and loses
    at most the buffered suffix — which a resume re-executes.

    Torn-tail guarantee: the writer never appends onto a torn line. An
    unterminated final line after intact ones is terminated first (so
    {!read} drops and counts it, and the next entry is a line of its
    own); a file that is nothing but one unterminated line is emptied. *)

val append : writer -> entry -> unit
(** Serialise and append one entry. Safe to call from multiple domains
    (appends are mutex-serialised).
    @raise Invalid_argument on a malformed kind. *)

val flush : writer -> unit
(** Drain the buffer to the file and fsync — the durability point
    between batches (a guided hunt's round snapshot). *)

val close : writer -> unit

val read : string -> entry list * int
(** All intact entries in file order, plus the number of corrupt or
    torn lines that were dropped. [([], 0)] if the file is absent.
    Never raises on file content. *)

(** {1 Pinned journals}

    A resume journal starts with a header entry of kind [kind] whose
    payload is the text ["schema <n> <identity>"]: [n] versions the
    Marshal layout of the payload entries that follow, and [identity]
    is one line naming the engine run that owns the file. The rules
    live here, once:
    - an absent or empty file starts fresh, and so does one holding
      only an unterminated journal line (a header torn by a kill);
    - otherwise the first line must be an intact entry, or the file is
      refused: a damaged header, or not a journal at all;
    - an intact entry of any other kind is refused as
      ["<path> is a <kind> journal, not a <kind> one"];
    - a header is refused as ["journal <path>: unreadable header"],
      then as ["journal <path> has schema <found>, this build writes
      <n>"], and only then is its identity compared;
    - payloads are unmarshalled only after that; one that does not
      unmarshal counts as dropped;
    - a file with an intact payload first line and no header (a
      snapshot written by an external admitter) is accepted. *)

val open_pinned :
  kind:string ->
  schema:int ->
  identity:string ->
  payload:string ->
  string ->
  writer * 'a list * int
(** Apply the rules, then refuse a header whose identity is not
    [identity] as ["journal <path> is pinned to <found>, not
    <identity>"]; return an append-mode writer ({!create}), the
    decoded [payload] entries in file order and the dropped-line
    count. A file with no header gets one appended and flushed. ['a]
    must be the type the payloads were marshalled at under [schema].
    @raise Invalid_argument when a rule refuses the file, before
    anything is written. *)

val load_pinned :
  kind:string ->
  schema:int ->
  payload:string ->
  string ->
  string option * 'a list * int
(** Read-only sibling of {!open_pinned} for offline readers: the same
    rules (the schema included), but nothing is written and the first
    header's identity is returned instead of compared ([None] when the
    file has no header).
    @raise Invalid_argument when a rule refuses the file. *)
