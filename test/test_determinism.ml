(* Determinism regression against PRE-OPTIMISATION fixtures.

   test/fixtures/ holds bytes produced by the tree before the hot-path
   representation rewrite (gen_fixtures.ml documents exactly how):

   - fig1_demo/        a fig1 recording (queue strategy, fixed seeds,
                       TRACE included) — committed demo bytes;
   - campaign.digest   Campaign.digest of 300-run fig1 and mcs-lock
                       campaigns (random strategy, jobs=1);
   - interp.golden     golden.ml's cases: a short campaign of every
                       workload under every configuration,
                       record/replay/desync pairs of four apps, the
                       offline prediction of guided recordings, a
                       small guided hunt of every workload, the demo
                       bytes of recordings that write TRACE and
                       DECISIONS files, and what Demo.load reads back
                       from every recording, extra files included.

   The optimised build must (a) replay the committed demo with zero
   divergence, (b) re-record it byte-identically, and (c) reproduce
   the identical campaign aggregate at every worker count. Any failure
   here means the representation change silently altered semantics. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Campaign = T11r_harness.Campaign
module Registry = T11r_litmus.Registry

let check = Alcotest.check

(* Constants shared with gen_fixtures.ml — keep in sync. *)
let demo_world_seed = 42L
let demo_seed1 = 1234L
let demo_seed2 = 5678L
let campaign_runs = 300

let demo_dir = Filename.concat "fixtures" "fig1_demo"

let fig1_build = Registry.fig1.Registry.build

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)

let test_replay_bit_identical () =
  let conf =
    {
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay demo_dir) ()) with
      Conf.debug_trace = true;
    }
  in
  let world = World.create ~seed:demo_world_seed () in
  let r = Interp.run ~world conf (fig1_build ()) in
  (match r.Interp.outcome with
  | Interp.Completed -> ()
  | o -> Alcotest.failf "replay outcome: %a" Interp.pp_outcome o);
  check Alcotest.(option string) "no trace divergence" None
    r.Interp.trace_divergence;
  check Alcotest.bool "no soft desync (output digest matches)" false
    r.Interp.soft_desync;
  check Alcotest.int "no recoverable desyncs" 0 r.Interp.desync_count

let test_rerecord_byte_identical () =
  let dir = T11r_util.Tmp.fresh_dir ~prefix:"fix_rerec" () in
  let conf =
    {
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ()) with
      Conf.debug_trace = true;
    }
  in
  let conf = Conf.with_seeds conf demo_seed1 demo_seed2 in
  let world = World.create ~seed:demo_world_seed () in
  let r = Interp.run ~world conf (fig1_build ()) in
  (match r.Interp.outcome with
  | Interp.Completed -> ()
  | o -> Alcotest.failf "re-record outcome: %a" Interp.pp_outcome o);
  let files d = List.sort compare (Array.to_list (Sys.readdir d)) in
  check
    Alcotest.(list string)
    "same demo file set" (files demo_dir) (files dir);
  List.iter
    (fun f ->
      let expect = read_file (Filename.concat demo_dir f) in
      let got = read_file (Filename.concat dir f) in
      if expect <> got then
        Alcotest.failf "demo file %s differs from committed fixture (%d vs %d bytes)"
          f (String.length expect) (String.length got))
    (files demo_dir)

let committed_digests () =
  let path = Filename.concat "fixtures" "campaign.digest" in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ name; d ] -> Some (name, d)
      | _ -> None)
    (String.split_on_char '\n' (read_file path))

let campaign_spec name =
  let e =
    if name = "fig1" then Registry.fig1 else Option.get (Registry.find name)
  in
  Campaign.spec ~label:name
    ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
    e.Registry.build

let test_campaign_aggregates () =
  List.iter
    (fun (name, expect) ->
      let spec = campaign_spec name in
      let seq = Campaign.run spec ~n:campaign_runs ~jobs:1 [] in
      check Alcotest.string
        (Printf.sprintf "%s aggregate digest matches pre-opt fixture" name)
        expect (Campaign.digest seq);
      List.iter
        (fun jobs ->
          let par = Campaign.run spec ~n:campaign_runs ~jobs [] in
          check Alcotest.bool
            (Printf.sprintf "%s aggregate identical at jobs=%d" name jobs)
            true (Campaign.equal seq par))
        [ 2; 3 ])
    (committed_digests ())

(* Every case of golden.ml, recomputed and compared with the committed
   fingerprints; a mismatch names each case that moved. *)
let test_golden () =
  let committed =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ key; d ] -> Some (key, d)
        | _ -> None)
      (String.split_on_char '\n'
         (read_file (Filename.concat "fixtures" Golden.fixture_name)))
  in
  let current = Golden.cases () in
  check
    Alcotest.(list string)
    "same golden cases" (List.map fst committed) (List.map fst current);
  let moved =
    List.filter_map
      (fun (key, d) ->
        match List.assoc_opt key committed with
        | Some d' when d' = d -> None
        | _ -> Some key)
      current
  in
  check Alcotest.(list string) "golden cases that moved" [] moved

let () =
  Alcotest.run "determinism"
    [
      ( "fixtures",
        [
          Alcotest.test_case "replay committed demo bit-identically" `Quick
            test_replay_bit_identical;
          Alcotest.test_case "re-record committed demo byte-identically" `Quick
            test_rerecord_byte_identical;
          Alcotest.test_case "campaign aggregates match pre-opt digests" `Quick
            test_campaign_aggregates;
          Alcotest.test_case "interpreter golden: workloads x configs, replays"
            `Quick test_golden;
        ] );
    ]
