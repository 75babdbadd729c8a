(* [Hashtbl.hash] is the generic table's hash, so a table of this
   module has the generic one's buckets and iteration order; only the
   key test changes, from [compare] to [Int.equal]. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)
