(* Quickstart: write a concurrent program against the VM API, find a
   weak-memory race with controlled random scheduling, then record and
   replay the buggy execution.

   Run with: dune exec examples/quickstart.exe *)

open T11r_vm
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World

(* A message-passing bug: the flag is published with a relaxed store,
   so the consumer can observe the flag without observing the data. *)
let buggy_program () =
  Api.program ~name:"quickstart" (fun () ->
      let data = Api.Var.create ~name:"data" 0 in
      let flag = Api.Atomic.create ~name:"flag" 0 in
      let producer =
        Api.Thread.spawn ~name:"producer" (fun () ->
            Api.work 50;
            Api.Var.set data 42;
            (* BUG: should be ~mo:Release *)
            Api.Atomic.store ~mo:Relaxed flag 1)
      in
      let consumer =
        Api.Thread.spawn ~name:"consumer" (fun () ->
            (* BUG: should be ~mo:Acquire *)
            if Api.Atomic.load ~mo:Relaxed flag = 1 then
              Api.Sys_api.print (Printf.sprintf "got %d" (Api.Var.get data)))
      in
      Api.Thread.join producer;
      Api.Thread.join consumer)

let () =
  Fmt.pr "== 1. hunt for the race with controlled random scheduling ==@.";
  let racy_seed = ref None in
  for seed = 1 to 100 do
    if !racy_seed = None then begin
      let conf =
        Conf.with_seeds
          (Conf.tsan11rec ~strategy:Conf.Random ())
          (Int64.of_int seed) 99L
      in
      let r =
        Interp.run ~world:(World.create ~seed:7L ()) conf (buggy_program ())
      in
      if r.race_count > 0 then racy_seed := Some (seed, r)
    end
  done;
  let seed, r =
    match !racy_seed with
    | Some x -> x
    | None -> failwith "no racy schedule found (unexpected)"
  in
  Fmt.pr "seed %d exposes the bug:@." seed;
  List.iter (fun rep -> Fmt.pr "  %a@." T11r_race.Report.pp rep) r.races;

  Fmt.pr "@.== 2. record that execution ==@.";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "quickstart-demo" in
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Record dir) ())
      (Int64.of_int seed) 99L
  in
  let r1 =
    Interp.run ~world:(World.create ~seed:7L ()) conf (buggy_program ())
  in
  Fmt.pr "recorded: %a@." Tsan11rec.Demo.pp (Option.get r1.demo);

  Fmt.pr "@.== 3. replay the demo: same schedule, same race ==@.";
  let conf =
    Conf.tsan11rec ~mode:(Conf.Replay dir) ()
  in
  let r2 =
    Interp.run ~world:(World.create ~seed:888L ()) conf (buggy_program ())
  in
  Fmt.pr "replay outcome: %a, races: %d, synchronised: %b@." Interp.pp_outcome
    r2.outcome r2.race_count (not r2.soft_desync);
  assert (r2.races = r1.races);
  assert (r2.trace = r1.trace);
  Fmt.pr "replay trace identical to recording (%d critical sections)@."
    (Array.length r2.trace.codes)
