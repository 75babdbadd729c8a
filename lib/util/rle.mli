(** Run-length encoding.

    Two codecs are provided, matching the two places the paper applies
    RLE: the [QUEUE] demo file "uses run-length encoding to efficiently
    record the case where a thread is scheduled multiple times in
    succession" (§4.2), and syscall buffers "will be treated as
    character buffers and have a simple run length encoding applied"
    (§4.4). *)

val encode : int list -> (int * int) list
(** [encode xs] compresses [xs] into [(value, run_length)] pairs,
    preserving order. [decode (encode xs) = xs]. *)

val decode : (int * int) list -> int list
(** Inverse of {!encode}. @raise Invalid_argument on a non-positive
    run length. *)

val encode_bytes : bytes -> string
(** Byte-level RLE with escape framing, suitable for arbitrary binary
    syscall buffers. The output is a self-delimiting binary string. *)

val decode_bytes : string -> bytes
(** Inverse of {!encode_bytes}.
    @raise Invalid_argument on malformed input. *)

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
