(* Differential golden cases for the interpreter: fingerprints that pin
   every workload's results, demos and replays bit for bit.

   [cases ()] computes one (key, hex digest) pair per case;
   gen_fixtures.ml writes them to test/fixtures/interp.golden and
   test_determinism.ml recomputes and compares them. Both executables
   share this module so the two sides can never drift apart. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Campaign = T11r_harness.Campaign
module Guided = T11r_harness.Guided
module Systematic = T11r_harness.Systematic
module Workloads = T11r_harness.Workloads
module World = T11r_env.World
module Predict = T11r_race.Predict
module Demo = Tsan11rec.Demo

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
   on their own), in the layout [Interp.write_result] streams: the
   unshared Marshal bytes of the record whose trace was a list. *)
let result_digest = Interp.result_digest

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

(* The demo [Demo.load] reads back from [dir]: the paper's files and,
   in MANIFEST order, every other file the MANIFEST lists (TRACE,
   DECISIONS) with its payload lines. *)
let demo_load_digest dir =
  let d = Demo.load ~dir in
  hex_of_string
    (Marshal.to_string
       (d.Demo.meta, d.Demo.queue, d.Demo.signals, d.Demo.syscalls, d.Demo.asyncs,
        d.Demo.extra)
       [ Marshal.No_sharing ])

let demo_load_key key = "demo-load/" ^ key

let run_workload (w : Workloads.t) ~world_seed conf =
  let world = World.create ~seed:world_seed () in
  let build = w.w_instance world in
  Interp.run ~world
    (Conf.with_max_ticks (Conf.with_policy conf w.w_policy) tick_budget)
    (build ())

(* Record workload [name] under [strategy] with scheduler seeds
   [seeds] on world seed [seed], then replay the demo once per
   [(what, world seed, desync mode)] of [replays]: the record, demo and
   replay fingerprints, keyed [replay/name/sname/what]. *)
let record_replay name sname strategy ?(seeds = (11L, 13L)) ~seed replays =
  let w = Option.get (Workloads.find name) in
  T11r_util.Tmp.with_dir ~prefix:"golden" (fun dir ->
      let key what = Printf.sprintf "replay/%s/%s/%s" name sname what in
      let recorded =
        result_digest
          (run_workload w ~world_seed:seed
             (Conf.with_seeds
                (Conf.tsan11rec ~strategy ~mode:(Conf.Record dir) ())
                (fst seeds) (snd seeds)))
      in
      let demo = demo_digest dir in
      (key "record", recorded)
      :: (key "demo", demo)
      :: (demo_load_key (name ^ "/" ^ sname), demo_load_digest dir)
      :: List.map
           (fun (what, world_seed, on_desync) ->
             ( key what,
               result_digest
                 (run_workload w ~world_seed
                    (Conf.with_on_desync
                       (Conf.tsan11rec ~strategy ~mode:(Conf.Replay dir) ())
                       on_desync)) ))
           replays)

(* Record under queue and under random on one world seed and replay on
   the same world; then replay the queue demo under Resync and under
   Diagnose on another world seed. sqlite-like's seeds are a pair whose
   environments differ enough to desync the replay. *)
let replay_cases () =
  List.concat_map
    (fun (name, seed, other_seed) ->
      List.concat_map
        (fun (sname, strategy) ->
          record_replay name sname strategy ~seed
            (("replay", seed, Conf.Abort)
            ::
            (if strategy <> Conf.Queue then []
             else
               [
                 ("resync", other_seed, Conf.Resync);
                 ("diagnose", other_seed, Conf.Diagnose);
               ])))
        [ ("queue", Conf.Queue); ("random", Conf.Random) ])
    [
      ("fig2-client", 5L, 6L);
      ("httpd", 5L, 6L);
      ("zandronum-bug", 5L, 6L);
      ("sqlite-like", 2L, 11L);
    ]

(* Replays [replay_cases] leaves out, each on another world seed:
   random recordings of streamcluster and bodytrack, heavy in ASYNC
   entries (2,221 and 1,344 reschedules; `record W -s random`'s seeds),
   fig2-client's recordings under the bounded strategies, which carry
   a SIGNAL entry, and a Resync replay of sqlite-like's random
   recording, which survives one divergence. *)
let more_replay_cases () =
  let only what cases =
    List.filter (fun (k, _) -> Filename.basename k = what) cases
  in
  List.concat_map
    (fun name ->
      record_replay name "random" Conf.Random ~seeds:(1L, 7920L) ~seed:42L
        [ ("replay", 43L, Conf.Abort) ])
    [ "streamcluster"; "bodytrack" ]
  @ List.concat_map
      (fun (sname, strategy) ->
        record_replay "fig2-client" sname strategy ~seed:5L
          [ ("replay", 6L, Conf.Abort) ])
      [
        ("pct:3", Conf.Pct 3);
        ("db:2", Conf.Delay_bounded 2);
        ("pb:2", Conf.Preempt_bounded 2);
      ]
  @ only "resync"
      (record_replay "sqlite-like" "random" Conf.Random ~seed:2L
         [ ("resync", 11L, Conf.Resync) ])

(* The guided recording `record W --guided --seed s' makes (on world
   seed 42+s), as an analysis input. *)
let guided_input (w : Workloads.t) s =
  let prefix = T11r_harness.Predictor.recording_prefix s in
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:(Conf.Guided { prefix; observed = ref [] }) ())
      (Int64.of_int s)
      (Int64.of_int (s + 7919))
  in
  Interp.to_predict_input
    (run_workload w ~world_seed:(Int64.of_int (42 + s)) conf)

(* A digest of an analysis, like [Predict.digest] but hashing every
   witness once. httpd's first recording has 56,000 Must pairs that all
   share its 20,000-step recorded schedule as a witness: over a
   gigabyte of bytes without sharing. [Predict.digest] streams them
   without building the string, so its cost is time, not memory:
   seconds per httpd case, and this file computes every case on each
   test run. Each witness is replaced by the digest of its plan and
   prefix, computed once per physically shared witness, so equal
   analyses still get equal digests. *)
module Shared = Hashtbl.Make (struct
  type t = Predict.witness

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let analysis_digest (a : Predict.t) =
  let seen = Shared.create 16 in
  let witness w =
    match Shared.find_opt seen w with
    | Some d -> d
    | None ->
        let d = hex_of_string (Marshal.to_string w [ Marshal.No_sharing ]) in
        Shared.add seen w d;
        d
  in
  let pairs =
    List.map
      (fun (p : Predict.pair) ->
        ({ p with Predict.p_witnesses = [] }, List.map witness p.Predict.p_witnesses))
      a.Predict.pairs
  in
  hex_of_string
    (Marshal.to_string (pairs, { a with Predict.pairs = [] }) [ Marshal.No_sharing ])

(* The offline analysis of every workload's guided recordings 1 and 2. *)
let predict_cases () =
  List.concat_map
    (fun (w : Workloads.t) ->
      List.map
        (fun s ->
          ( Printf.sprintf "predict/%s/s%d" w.w_name s,
            analysis_digest (Predict.analyze (guided_input w s)) ))
        [ 1; 2 ])
    Workloads.all

(* Guided recordings 1-4 of every workload, merged as one analysis. *)
let merged_runs = 4

let predict_merge_cases () =
  List.map
    (fun (w : Workloads.t) ->
      ( Printf.sprintf "predict-merge/%s" w.w_name,
        analysis_digest
          (Predict.merge
             (List.init merged_runs (fun i ->
                  Predict.analyze (guided_input w (i + 1))))) ))
    Workloads.all

(* A small guided hunt on every workload: pins the coverage fingerprints
   of each run, their merge, and the corpus admissions they drive. *)
let guided_cases () =
  List.map
    (fun (w : Workloads.t) ->
      let spec = Workloads.spec_of w in
      ( Printf.sprintf "guided/%s" w.w_name,
        Guided.digest
          (Guided.hunt spec ~rounds:2 ~batch:16 ~jobs:1 ~salt:1L ~tick_budget ()) ))
    Workloads.all

(* The demo bytes of recordings that write the files replay_cases does
   not: pbzip's (the benchmark's other application), httpd's with the
   debug TRACE file, and the guided recordings of fig1 and ms-queue
   with their DECISIONS file. *)
let demo_cases () =
  let record name case ~world_seed conf =
    let w = Option.get (Workloads.find name) in
    let case = name ^ "/" ^ case in
    T11r_util.Tmp.with_dir ~prefix:"golden" (fun dir ->
        ignore
          (run_workload w ~world_seed
             (conf (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())));
        [ ("demo/" ^ case, demo_digest dir); (demo_load_key case, demo_load_digest dir) ])
  in
  let seeded c = Conf.with_seeds c 11L 13L in
  let guided name =
    record name "guided" ~world_seed:43L (fun c ->
        Conf.with_seeds
          (Conf.with_strategy c
             (Conf.Guided
                {
                  prefix = T11r_harness.Predictor.recording_prefix 1;
                  observed = ref [];
                }))
          1L 7920L)
  in
  List.concat
    [
      record "pbzip" "queue" ~world_seed:5L seeded;
      record "httpd" "queue+trace" ~world_seed:5L (fun c ->
          { (seeded c) with Conf.debug_trace = true });
      guided "fig1";
      guided "ms-queue";
    ]

(* DPOR exploration order: the exhausting benchmarks of the check
   workload under two seed pairs each, and ms-queue cut at 12 runs.
   Each line digests the journal's entries in analysis order (prefix,
   outcome and decision array per analysed schedule), so a change to
   which schedules are explored, in what order, or what their runs
   capture moves it. *)
let exhausting =
  [ "fig1"; "dekker-fences"; "mcs-lock"; "linuxrwlocks"; "mpmc-queue";
    "barrier"; "barrier-fixed"; "dekker-fences-fixed"; "mcs-lock-fixed";
    "mpmc-queue-fixed" ]

let systematic_case ?max_runs name seed =
  let module R = T11r_litmus.Registry in
  let e =
    if name = "fig1" then R.fig1
    else List.find (fun (e : R.entry) -> e.R.name = name) (R.all @ R.fixed)
  in
  let s1 = Int64.of_int seed and s2 = Int64.of_int (seed + 7919) in
  T11r_util.Tmp.with_dir ~prefix:"golden" (fun dir ->
      let journal = Filename.concat dir "sys.journal" in
      ignore
        (Systematic.explore ?max_runs ~world_seed:(Int64.of_int seed)
           ~seeds:(s1, s2) ~journal ~build:e.R.build ());
      let _, entries, _ =
        T11r_util.Journal.load_pinned ~kind:"systematic"
          ~schema:Systematic.journal_schema ~payload:"sys" journal
      in
      let steps =
        List.map
          (fun ((prefix, r) : int array * Interp.result) ->
            (prefix, r.Interp.outcome, r.Interp.decisions))
          entries
      in
      ( Printf.sprintf "systematic/%s/%Ld,%Ld" name s1 s2,
        hex_of_string (Marshal.to_string steps [ Marshal.No_sharing ]) ))

let systematic_cases () =
  List.concat_map
    (fun name -> List.map (systematic_case name) [ 1; 2 ])
    exhausting
  @ [ systematic_case ~max_runs:12 "ms-queue" 1 ]

(* Every case; the [demo-load] lines, computed with the recordings
   that write them, come last. *)
let cases () =
  let cases, loads =
    List.partition
      (fun (k, _) -> not (String.starts_with ~prefix:"demo-load/" k))
      (campaign_cases () @ replay_cases () @ predict_cases ()
      @ predict_merge_cases () @ guided_cases () @ demo_cases ()
      @ more_replay_cases () @ systematic_cases ())
  in
  cases @ loads
