module Interp = Tsan11rec.Interp
module World = T11r_env.World

let key (o : Interp.outcome) =
  match o with
  | Interp.Completed -> "completed"
  | Interp.Deadlock _ -> "deadlock"
  | Interp.Crashed _ -> "crashed"
  | Interp.Hard_desync _ -> "hard-desync"
  | Interp.Unsupported_app _ -> "unsupported"
  | Interp.App_error _ -> "app-error"
  | Interp.Tick_limit -> "tick-limit"
  | Interp.Timeout -> "timeout"
  | Interp.Corrupt_demo _ -> "corrupt-demo"

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
