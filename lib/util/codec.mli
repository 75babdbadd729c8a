(** The one reader and the escape of the text formats.

    The demo files ([META], [QUEUE], [SIGNAL], [SYSCALL], [ASYNC], the
    [MANIFEST], each file's [#crc] trailer), the [DECISIONS] file a
    guided recording adds and the journal frame are plain text, one
    record per line, fields separated by spaces — mirroring the
    paper's description (e.g. the [SIGNAL] line ["2 5 15"]: thread 2
    receives signal 15 at tick 5). Binary payloads (syscall buffers,
    names, journal payloads) are hex-escaped so the files stay
    line-structured.

    Every reader works over a slice [s.[a .. b-1]] of a file's string:
    a line or a field is a pair of bounds, and cutting one makes no
    substring. A value reader raises [Invalid_argument] with a fixed
    text ([Codec.int_field: "x"], [Codec.unescape: bad hex digit], …),
    which the demo loader reports as the reason of a corrupt line. *)

val escape : string -> string
(** Escape a binary string into a token containing no spaces, newlines
    or '%' except as escape lead-ins ([%XX] hex escapes). The empty
    string encodes as ["%-"]. *)

val needs_escape : char -> bool
(** Whether {!escape} writes this byte as a [%XX] escape. *)

val read_file : string -> string
(** A file's whole contents; [""] if absent. *)

val iter_lines : string -> int -> int -> (int -> int -> int -> unit) -> unit
(** [iter_lines s a b f] calls [f a' e ln] for each line [s.[a' .. e-1]]
    of [s.[a .. b-1]], numbered [ln] from 1: lines are cut at each
    ['\n'], which [e] indexes (or [e = b]), with no empty line after a
    final one — the lines [input_line] would return. *)

val fields : string -> int -> int -> int array -> int
(** [fields s a b fld] cuts [s.[a .. b-1]] at spaces, with no empty
    fields, and returns how many there are, counting at most one more
    than [fld] has room for. Field [k] is [s.[fld.(2k) .. fld.(2k+1)-1]]
    for each [k] that fits. *)

val is_at : string -> int -> int -> string -> bool
(** [is_at s a b w]: [s.[a .. b-1]] is [w]. *)

val field_is : string -> int array -> int -> string -> bool
(** [field_is s fld k w]: field [k] of the last {!fields} cut is [w]. *)

val int_at : string -> int -> int -> int
(** The decimal integer [s.[a .. b-1]], as [int_of_string] reads it.
    @raise Invalid_argument ["Codec.int_field: <the field, quoted>"]
    otherwise. *)

val int64_at : string -> int -> int -> int64
(** As {!int_at}, with [Int64.of_string] and ["Codec.int64_field"]. *)

val unescape_into : string -> int -> int -> Bytes.t -> int
(** Inverse of {!escape}: decode [s.[a .. b-1]] into [dst] from index
    0 and return the decoded length, at most [b - a] (the room [dst]
    must have).
    @raise Invalid_argument ["Codec.unescape: truncated escape"] or
    ["Codec.unescape: bad hex digit"] on malformed input. *)

val unescape_at : string -> int -> int -> string
(** {!unescape_into} as a fresh string. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; no-op if present. *)
