(** Line-oriented serialisation helpers for demo files.

    Demo files ([QUEUE], [SIGNAL], [SYSCALL], [ASYNC], [META]) are
    plain-text, one record per line, fields separated by single spaces —
    mirroring the paper's description (e.g. the [SIGNAL] line
    ["2 5 15"]: thread 2 receives signal 15 at tick 5). Binary payloads
    (syscall buffers) are hex-escaped so the files stay line-structured. *)

val escape : string -> string
(** Escape a binary string into a token containing no spaces, newlines
    or '%' except as escape lead-ins ([%XX] hex escapes). The empty
    string encodes as ["%-"]. *)

val needs_escape : char -> bool
(** Whether {!escape} writes this byte as a [%XX] escape. *)

val unescape : string -> string
(** Inverse of {!escape}.
    @raise Invalid_argument on malformed input. *)

val fields : string -> string list
(** Split a line into space-separated fields (no empty fields). *)

val int_field : string -> int
(** Parse a decimal integer field. @raise Invalid_argument otherwise. *)

val int64_field : string -> int64

val read_file : string -> string
(** A file's whole contents; [""] if absent. *)

val lines : string -> string list
(** The lines of a text as [input_line] reads them: cut at each ['\n'],
    without the newline, and no empty last line after a final one. *)

val read_lines : string -> string list
(** [lines (read_file path)]: all lines of a file, without trailing
    newlines; [] if absent. *)

val write_lines : string -> string list -> unit
(** Write lines to a file, each terminated by a newline; creates parent
    directories as needed. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; no-op if present. *)
