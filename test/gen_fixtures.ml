(* Regenerates the determinism fixtures under test/fixtures/.

     dune exec test/gen_fixtures.exe

   Run it ONLY to re-baseline after an intentional semantic change;
   test_determinism.ml asserts that the current build still produces
   these exact bytes and digests. The fixtures were generated on the
   tree *before* the hot-path representation rewrite, so they pin the
   rewrite to the old semantics bit for bit. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Campaign = T11r_harness.Campaign
module World = T11r_env.World

let fixtures_dir = Filename.concat "test" "fixtures"

(* Shared constants with test_determinism.ml — keep in sync. *)
let demo_world_seed = 42L
let demo_seed1 = 1234L
let demo_seed2 = 5678L
let campaign_runs = 300

let record_demo () =
  let dir = Filename.concat fixtures_dir "fig1_demo" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      demo_seed1 demo_seed2
  in
  let conf = { conf with Conf.debug_trace = true } in
  let world = World.create ~seed:demo_world_seed () in
  let r =
    Interp.run ~world conf (T11r_litmus.Registry.fig1.T11r_litmus.Registry.build ())
  in
  (match r.Interp.outcome with
  | Interp.Completed -> ()
  | o -> Format.eprintf "fig1 record did not complete: %a@." Interp.pp_outcome o);
  Printf.printf "recorded fig1 demo: %d ticks, %d races -> %s\n" r.Interp.ticks
    r.Interp.race_count dir

let campaign_digest name =
  let e =
    if name = "fig1" then T11r_litmus.Registry.fig1
    else Option.get (T11r_litmus.Registry.find name)
  in
  let spec =
    Campaign.spec ~label:name
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.T11r_litmus.Registry.build
  in
  Campaign.digest (Campaign.run spec ~n:campaign_runs ~jobs:1 [])

let write_digests () =
  let path = Filename.concat fixtures_dir "campaign.digest" in
  let oc = open_out path in
  List.iter
    (fun name ->
      let d = campaign_digest name in
      Printf.fprintf oc "%s %s\n" name d;
      Printf.printf "campaign digest %s = %s\n" name d)
    [ "fig1"; "mcs-lock" ];
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Golden Chrome trace for the standard fig1 run — test_obs.ml asserts
   the exporter still produces these exact bytes. *)
let write_trace_fixture () =
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      demo_seed1 demo_seed2
  in
  let conf = { conf with Conf.trace_events = true } in
  let world = World.create ~seed:demo_world_seed () in
  let r =
    Interp.run ~world conf
      (T11r_litmus.Registry.fig1.T11r_litmus.Registry.build ())
  in
  let json =
    T11r_obs.Chrome.export ~thread_names:r.Interp.thread_names
      ~events:r.Interp.events ()
  in
  (match T11r_obs.Chrome.validate json with
  | Ok () -> ()
  | Error e -> Format.eprintf "fig1 trace does not validate: %s@." e);
  let path = Filename.concat fixtures_dir "fig1_trace.json" in
  let oc = open_out_bin path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s (%d events)\n" path (List.length r.Interp.events)

let () =
  if not (Sys.file_exists fixtures_dir) then Unix.mkdir fixtures_dir 0o755;
  record_demo ();
  write_digests ();
  write_trace_fixture ()
