(** The digest of a value's unshared Marshal bytes, computed without
    building them.

    [digest w] equals
    [Digest.to_hex (Digest.string (Marshal.to_string v [No_sharing]))]
    for the value [v] that the writer [w] describes, part by part:
    block headers it emits itself, and leaf values marshalled one at a
    time. Without sharing, a block's Marshal body is its header
    followed by the bodies of its fields, in order, with no
    back-references; and the header's counts (data length, object
    count, which stays 0, and the sizes in words on 32- and 64-bit
    platforms) add up over the parts. So [w] runs twice: the first
    pass sums the counts, the second feeds the header and then each
    part to an incremental MD5, the small parts gathered into 1 KiB
    chunks. The largest string built is one leaf's, or one
    {!shared} part's.

    A writer must emit the same parts on both passes. *)

type sink
(** Where a writer emits the parts of one value. *)

val digest : (sink -> unit) -> string
(** Hex MD5 of the Marshal bytes of the value the writer emits.
    @raise Invalid_argument if the two passes emit different counts. *)

val of_value : 'a -> string
(** [digest] of a value emitted as one leaf. *)

val block : sink -> tag:int -> size:int -> unit
(** The header of a block of [size] fields and tag [tag]; the writer
    emits the [size] fields next, in order. Blocks past 2{^22} fields
    (a 64-bit header word) and atoms are leaves, for {!value}.
    @raise Invalid_argument on a size outside [1, 2{^22}) or a tag
    outside [0, Lazy_tag). *)

val value : sink -> 'a -> unit
(** A leaf: [v]'s own Marshal body. Leaves, unlike totals, stay below
    2{^32} bytes and words (Marshal's small header).
    @raise Invalid_argument on a larger leaf. *)

val int : sink -> int -> unit
(** [value s n] without the Marshal call: the immediate [n] in
    extern.c's encoding (one byte for [0 .. 63], then 8-, 16-, 32- and
    64-bit codes; the 32-bit code holds [-2{^30} .. 2{^30}-1], what a
    32-bit OCaml int holds). *)

type body = private {
  data : string;  (** the Marshal body, without the header *)
  words_32 : int;  (** its size in words on a 32-bit platform *)
  words_64 : int;  (** and on a 64-bit one *)
}
(** A value's Marshal body, built once and fed any number of times. *)

val body : 'a -> body

val raw : sink -> body -> unit
(** [raw s (body v)] emits what [value s v] emits. *)

val value_but_last : sink -> 'a -> unit
(** [v], a block whose last field is an immediate [0] ([[]], [None],
    [false]), without that field: the writer emits its replacement
    next. Marshal writes a block's fields in order, so the last field
    ends the body.
    @raise Invalid_argument if the body does not end with [0]. *)

val fields : sink -> 'a -> unit
(** The fields of the block [v], in order, without [v]'s own header:
    [fields s (a, b, c)] emits what [value s a; value s b; value s c]
    emits, with one Marshal call. A writer uses a tuple to emit a run
    of fields of the block it is writing.
    @raise Invalid_argument if [v] is not a block of fewer than
    2{^22} fields. *)

val list : sink -> (('a -> unit) -> 'c -> unit) -> (sink -> 'a -> unit) -> 'c -> unit
(** [list s iter f c] emits the elements [iter] visits in [c], each by
    [f], as one list: [list s List.iter f l] is [l], and
    [list s Array.iter f a] is [Array.to_list a]. *)

type 'a memo
(** Parts by physical identity, for one {!digest}. *)

val memo : ?hash:('a -> int) -> unit -> 'a memo
(** [hash] (default [Hashtbl.hash]) picks a value's bucket; values in
    a bucket are told apart by [==], so it need not tell values apart,
    only spread them. *)

val shared : sink -> 'a memo -> (sink -> 'a -> unit) -> 'a -> unit
(** [w s v], written once per pass for each physically distinct [v]:
    the first pass keeps its counts, and the second keeps its bytes
    when the first met [v] more than once, so a repeat costs a lookup
    and one feed. A value met once keeps no bytes. Structurally equal
    values are not merged ([0.0] and [-0.0] are equal but marshal
    differently). [w] must emit a part of fewer than 2{^32} bytes and
    words; [shared s m value v] is a leaf marshalled at most twice.
    @raise Invalid_argument on a larger part. *)

val header : len:int -> size_32:int -> size_64:int -> string
(** The Marshal header for those totals and no shared objects: the
    20-byte small header, or the 32-byte big one once any total
    reaches 2{^32} ([extern.c]'s rule; the big header has no 32-bit
    size). *)

(** Incremental MD5: [finish] of a context fed a string in any chunks
    equals [Digest.string] of the string. *)
module Md5 : sig
  type t

  val create : unit -> t

  val feed : t -> string -> int -> int -> unit
  (** [feed m s pos len] adds [s.[pos .. pos+len-1]].
      @raise Invalid_argument if that is not a valid range of [s]. *)

  val finish : t -> Digest.t
  (** The digest; the context is spent. *)
end
