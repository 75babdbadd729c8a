type kind = Write_write | Write_read | Read_write

type t = {
  var : string;
  kind : kind;
  first_tid : int;
  second_tid : int;
}

let kind_to_string = function
  | Write_write -> "write-write"
  | Write_read -> "write-read"
  | Read_write -> "read-write"

let pp fmt r =
  Format.fprintf fmt "data race (%s) on %s: T%d vs T%d"
    (kind_to_string r.kind) r.var r.first_tid r.second_tid

(* Field by field, in [Stdlib.compare]'s order on the record: the var
   by bytes then by length ([String.compare] is that order, and returns
   at once on a physically equal string), the kind by constructor
   index, then the two tids. No polymorphic compare, no allocation. *)
let kind_index = function Write_write -> 0 | Write_read -> 1 | Read_write -> 2

let equal (a : t) b =
  a == b
  || Int.equal a.first_tid b.first_tid
     && Int.equal a.second_tid b.second_tid
     && a.kind == b.kind
     && String.equal a.var b.var

let compare (a : t) b =
  if a == b then 0
  else
    match String.compare a.var b.var with
    | 0 -> (
        match Int.compare (kind_index a.kind) (kind_index b.kind) with
        | 0 -> (
            match Int.compare a.first_tid b.first_tid with
            | 0 -> Int.compare a.second_tid b.second_tid
            | c -> c)
        | c -> c)
    | c -> c

(* Canonical form of the symmetric pair: the same race observed in the
   opposite order (write seen first vs. read seen first) must key
   identically in histograms. Write-before-read is the canonical
   orientation; write-write pairs order by tid. *)
let norm (r : t) =
  match r.kind with
  | Write_read -> r
  | Read_write ->
      {
        r with
        kind = Write_read;
        first_tid = r.second_tid;
        second_tid = r.first_tid;
      }
  | Write_write ->
      if r.first_tid <= r.second_tid then r
      else { r with first_tid = r.second_tid; second_tid = r.first_tid }
