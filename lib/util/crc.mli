(** CRC-32 (IEEE, reflected; zlib's [crc32]) checksums for file and
    journal framing. *)

val string : string -> int
(** Checksum of a whole string, in [0, 0xFFFFFFFF]. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] with [s.[pos .. pos+len-1]],
    so checksums can be computed incrementally over chunks; [crc] is
    taken modulo 2{^32}.
    @raise Invalid_argument if [pos] and [len] are not a valid range
    of [s]. *)

val to_hex : int -> string
(** Fixed-width 8-digit uppercase hex rendering. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits. *)
