(** Byte-level run-length encoding of syscall buffers, which the paper
    says "will be treated as character buffers and have a simple run
    length encoding applied" (§4.4). The [QUEUE] file's run-length
    code (§4.2) is written and read by the demo codec itself.

    An encoding is a sequence of chunks, each {!run_marker} [len c]
    ([len] copies of the byte [c]) or {!lit_marker} [len] followed by
    [len] literal bytes, with [1 <= len <= 255]: self-delimiting and
    safe for arbitrary binary buffers. The demo writer emits the chunks
    of {!chunks} escaped, with no encoded string in between. *)

val decode_into : string -> int -> int -> Buffer.t -> unit
(** Append the decoding of the encoding [s.[a .. b-1]] to the buffer.
    @raise Invalid_argument ["Rle.decode_bytes: <what is wrong>"] on
    malformed input, the buffer then holding a prefix of the decoding. *)

val run_marker : char
val lit_marker : char
(** The first byte of a run chunk (['\x00'] len byte) and of a literal
    chunk (['\x01'] len bytes). *)

val chunks :
  bytes -> run:(char -> int -> unit) -> lit:(bytes -> int -> int -> unit) -> unit
(** The chunks a buffer's encoding cuts it into, in order: [run c len]
    for a run of [len] copies of [c], [lit b start len] for the literal
    stretch [b.[start .. start+len-1]]; [1 <= len <= 255]. *)
