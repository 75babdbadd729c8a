(** Byte-level run-length encoding of syscall buffers, which the paper
    says "will be treated as character buffers and have a simple run
    length encoding applied" (§4.4). The [QUEUE] file's run-length
    code (§4.2) is written and read by the demo codec itself. *)

val encode_bytes : bytes -> string
(** Byte-level RLE with escape framing, suitable for arbitrary binary
    syscall buffers. The output is a self-delimiting binary string. *)

val decode_into : string -> int -> int -> Buffer.t -> unit
(** Inverse of {!encode_bytes}: append the decoding of [s.[a .. b-1]]
    to the buffer.
    @raise Invalid_argument ["Rle.decode_bytes: <what is wrong>"] on
    malformed input, the buffer then holding a prefix of the decoding. *)

val run_marker : char
val lit_marker : char
(** The first byte of a run chunk (['\x00'] len byte) and of a literal
    chunk (['\x01'] len bytes) in {!encode_bytes}'s output. *)

val chunks :
  bytes -> run:(char -> int -> unit) -> lit:(bytes -> int -> int -> unit) -> unit
(** The chunks {!encode_bytes} cuts a buffer into, in order, for
    writers that emit them elsewhere: [run c len] for a run of [len]
    copies of [c], [lit b start len] for the literal stretch
    [b.[start .. start+len-1]]; [1 <= len <= 255]. *)

val encoded_size : bytes -> int
(** [encoded_size b = String.length (encode_bytes b)] without building
    the string; used for demo-size accounting. *)
