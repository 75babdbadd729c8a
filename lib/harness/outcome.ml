module Interp = Tsan11rec.Interp
module World = T11r_env.World

(* The histogram keys, sorted; [index] numbers the constructors by
   their key's position here, so a tally lists in key order as is. *)
let keys =
  [| "app-error"; "completed"; "corrupt-demo"; "crashed"; "deadlock";
     "hard-desync"; "tick-limit"; "timeout"; "unsupported" |]

let index : Interp.outcome -> int = function
  | Interp.App_error _ -> 0
  | Interp.Completed -> 1
  | Interp.Corrupt_demo _ -> 2
  | Interp.Crashed _ -> 3
  | Interp.Deadlock _ -> 4
  | Interp.Hard_desync _ -> 5
  | Interp.Tick_limit -> 6
  | Interp.Timeout -> 7
  | Interp.Unsupported_app _ -> 8

let key o = keys.(index o)

type histogram = (string * int) list
type tally = int array

let tally () = Array.make (Array.length keys) 0
let add t o =
  let i = index o in
  t.(i) <- t.(i) + 1

let histogram t =
  let rec from i =
    if i = Array.length t then []
    else if t.(i) = 0 then from (i + 1)
    else (keys.(i), t.(i)) :: from (i + 1)
  in
  from 0

let rec merge a b =
  match (a, b) with
  | [], h | h, [] -> h
  | ((ka, va) as x) :: a', ((kb, vb) as y) :: b' ->
      let c = String.compare ka kb in
      if c = 0 then (ka, va + vb) :: merge a' b'
      else if c < 0 then x :: merge a' b
      else y :: merge a b'

let count h k = Option.value ~default:0 (List.assoc_opt k h)

let pp fmt h =
  List.iter (fun (k, v) -> Format.fprintf fmt "  outcome %-12s %d@." k v) h

(* The one crash rule: no exception out of world setup, program build
   or interpretation escapes a run. Controlled scheduling makes a run
   a pure function of its seeds, so a run that raised would raise
   again — it is quarantined, not retried. *)
let protect f =
  match f () with
  | r -> r
  | exception World.Unsupported msg ->
      Interp.result_of_outcome (Interp.Unsupported_app msg)
  | exception Failure msg -> Interp.result_of_outcome (Interp.App_error msg)
  | exception Invalid_argument msg ->
      Interp.result_of_outcome (Interp.App_error msg)
  | exception e ->
      Interp.result_of_outcome (Interp.Crashed (-1, Printexc.to_string e))
