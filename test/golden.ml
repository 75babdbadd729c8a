(* Differential golden cases for the interpreter: fingerprints that pin
   every workload's results, demos and replays bit for bit.

   [cases ()] computes one (key, hex digest) pair per case;
   gen_fixtures.ml writes them to test/fixtures/interp.golden and
   test_determinism.ml recomputes and compares them. Both executables
   share this module so the two sides can never drift apart. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Campaign = T11r_harness.Campaign
module Workloads = T11r_harness.Workloads
module World = T11r_env.World

let fixture_name = "interp.golden"
let runs = 4
let tick_budget = 20000

(* The configurations every workload's campaign digest is pinned under:
   the four baselines and tsan11rec with each strategy. *)
let configs () =
  let rec_ s = Conf.tsan11rec ~strategy:s () in
  [
    ("native", Conf.native);
    ("tsan11", Conf.tsan11);
    ("rr", Conf.rr_model);
    ("tsan11+rr", Conf.tsan11_rr);
    ("random", rec_ Conf.Random);
    ("queue", rec_ Conf.Queue);
    ("pct:3", rec_ (Conf.Pct 3));
    ("db:2", rec_ (Conf.Delay_bounded 2));
    ("pb:2", rec_ (Conf.Preempt_bounded 2));
    ( "guided",
      rec_
        (Conf.Guided
           {
             prefix = T11r_harness.Predictor.recording_prefix 1;
             observed = ref [];
           }) );
    (* The observability hooks (trace events, coverage marks) are off
       in every configuration above; pin their streams too. *)
    ( "random+obs",
      Conf.with_coverage (Conf.with_trace (rec_ Conf.Random) ~capacity:4096)
        true );
  ]

let campaign_cases () =
  List.concat_map
    (fun (w : Workloads.t) ->
      List.map
        (fun (cname, base) ->
          let spec = Workloads.spec_of ~base_conf:base w in
          let r = Campaign.run spec ~n:runs ~jobs:1 ~tick_budget [] in
          (Printf.sprintf "campaign/%s/%s" w.w_name cname, Campaign.digest r))
        (configs ()))
    Workloads.all

let hex_of_string s = Digest.to_hex (Digest.string s)

(* A result minus its demo handle (a recording's demo bytes are pinned
   on their own); [No_sharing] keeps the encoding a function of the
   value alone. *)
let result_digest (r : Interp.result) =
  hex_of_string (Marshal.to_string { r with Interp.demo = None } [ Marshal.No_sharing ])

let demo_digest dir =
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat dir f) in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Buffer.add_string b (Printf.sprintf "%s %d\n" f (String.length s));
      Buffer.add_string b s)
    files;
  hex_of_string (Buffer.contents b)

let run_workload (w : Workloads.t) ~world_seed conf =
  let world = World.create ~seed:world_seed () in
  let build = w.w_instance world in
  Interp.run ~world
    (Conf.with_max_ticks (Conf.with_policy conf w.w_policy) tick_budget)
    (build ())

(* Record under queue and under random on one world seed and replay on
   the same world; then replay the queue demo under Resync and under
   Diagnose on another world seed. sqlite-like's seeds are a pair whose
   environments differ enough to desync the replay. *)
let replay_cases () =
  List.concat_map
    (fun (name, seed, other_seed) ->
      let w = Option.get (Workloads.find name) in
      List.concat_map
        (fun (sname, strategy) ->
          T11r_util.Tmp.with_dir ~prefix:"golden" (fun dir ->
              let key what = Printf.sprintf "replay/%s/%s/%s" name sname what in
              let replay ?(on_desync = Conf.Abort) world_seed =
                result_digest
                  (run_workload w ~world_seed
                     (Conf.with_on_desync
                        (Conf.tsan11rec ~strategy ~mode:(Conf.Replay dir) ())
                        on_desync))
              in
              let recorded =
                result_digest
                  (run_workload w ~world_seed:seed
                     (Conf.with_seeds
                        (Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ())
                        11L 13L))
              in
              let demo = demo_digest dir in
              let replayed = replay seed in
              let desynced =
                if strategy <> Conf.Queue then []
                else
                  let resync = replay ~on_desync:Conf.Resync other_seed in
                  let diagnose = replay ~on_desync:Conf.Diagnose other_seed in
                  [ (key "resync", resync); (key "diagnose", diagnose) ]
              in
              [ (key "record", recorded); (key "demo", demo); (key "replay", replayed) ]
              @ desynced))
        [ ("queue", Conf.Queue); ("random", Conf.Random) ])
    [
      ("fig2-client", 5L, 6L);
      ("httpd", 5L, 6L);
      ("zandronum-bug", 5L, 6L);
      ("sqlite-like", 2L, 11L);
    ]

let cases () = campaign_cases () @ replay_cases ()
