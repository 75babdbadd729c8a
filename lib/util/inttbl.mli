(** Hash tables over [int] keys: the run path's tables (locks,
    condition variables, descriptors, signal handlers, allocations)
    look their keys up without the polymorphic compare and hash of the
    generic [Hashtbl]. The buckets are the generic table's, so every
    iteration order is unchanged. *)

include Hashtbl.S with type key = int
