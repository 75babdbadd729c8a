(* Tests for the offline predictive race analysis (lib/race/predict)
   and its verification harness (lib/harness/predictor): order
   classification on small programs, witness construction, the
   encode/decode aux format, the soundness discipline (May and refuted
   pairs are never surfaced as races), lockset interaction with failed
   trylocks, end-to-end prediction + confirmation on the racy
   workloads, jobs-independence of every digest, merging a campaign's
   runs, and per-class verification against the per-pair reference in
   ref_model.ml. *)

open T11r_vm
module World = T11r_env.World
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Predict = T11r_race.Predict
module Decision = T11r_race.Decision
module Report = T11r_race.Report
module Predictor = T11r_harness.Predictor
module Workloads = T11r_harness.Workloads
module Campaign = T11r_harness.Campaign
module Corpus = T11r_harness.Corpus
module Guided = T11r_harness.Guided
module Prng = T11r_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let tmpfile () =
  let f = Filename.temp_file "t11r_predict" ".jsonl" in
  Sys.remove f;
  f

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* The seed-derived guided prefix `record --guided' uses. *)
let guided_prefix_of_seed = Predictor.recording_prefix

let guided_conf ?(base = Conf.tsan11rec ()) ?(prefix = [||])
    ?(seeds = (1L, 7920L)) () =
  Conf.make ~base ~mode:Conf.Free
    ~strategy:(Conf.Guided { prefix; observed = ref [] })
    ~seeds ()

let run_guided ?base ?prefix ?seeds prog =
  let world = World.create ~seed:42L () in
  Interp.run ~world (guided_conf ?base ?prefix ?seeds ()) prog

let input_of ?prefix ?seeds prog =
  Interp.to_predict_input (run_guided ?prefix ?seeds (prog ()))

(* ------------------------------------------------------------------ *)
(* Order classification on hand-written programs *)

(* Spawn/join order every reordering respects: no pair reported. *)
let prog_hard () =
  Api.program ~name:"hard" (fun () ->
      let v = Api.Var.create ~name:"v" 0 in
      Api.Var.set v 1;
      let t = Api.Thread.spawn ~name:"T1" (fun () -> ignore (Api.Var.get v)) in
      Api.Thread.join t;
      Api.Var.set v 2)

let test_hard_ordered_skipped () =
  let a = Predict.analyze (input_of prog_hard) in
  check Alcotest.int "no pairs" 0 (List.length a.Predict.pairs);
  check Alcotest.int "no must" 0 a.Predict.n_must;
  check Alcotest.int "no may" 0 a.Predict.n_may;
  check Alcotest.int "one location" 1 a.Predict.n_vars

(* A common lock excludes the pair, whatever the order. *)
let prog_lockset () =
  Api.program ~name:"lockset" (fun () ->
      let v = Api.Var.create ~name:"v" 0 in
      let m = Api.Mutex.create ~name:"m" () in
      let body () = Api.Mutex.with_lock m (fun () -> Api.Var.incr v) in
      let t1 = Api.Thread.spawn ~name:"T1" body in
      let t2 = Api.Thread.spawn ~name:"T2" body in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_lockset_excludes () =
  let a = Predict.analyze (input_of prog_lockset) in
  check Alcotest.int "no pairs" 0 (List.length a.Predict.pairs);
  check Alcotest.bool "lock-excluded counted" true
    (a.Predict.n_lock_excluded >= 1)

(* Unordered conflicting writes: Must, with witnesses ending in the
   empty-prefix serialization witness. *)
let prog_must () =
  Api.program ~name:"must" (fun () ->
      let v = Api.Var.create ~name:"shared" 0 in
      let t1 =
        Api.Thread.spawn ~name:"T1" (fun () ->
            Api.Atomic.fence Seq_cst;
            Api.Var.set v 1)
      in
      let t2 =
        Api.Thread.spawn ~name:"T2" (fun () ->
            Api.Atomic.fence Seq_cst;
            Api.Var.set v 2)
      in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_must_pair_and_witnesses () =
  let a = Predict.analyze (input_of prog_must) in
  check Alcotest.int "one pair" 1 (List.length a.Predict.pairs);
  let p = List.hd a.Predict.pairs in
  check Alcotest.bool "must" true (p.Predict.p_confidence = Predict.Must);
  check Alcotest.string "var" "shared" p.Predict.p_report.Report.var;
  check Alcotest.bool "witnesses non-empty" true (p.Predict.p_witnesses <> []);
  (* the serialization fallback is always the last candidate *)
  let last = List.nth p.Predict.p_witnesses
      (List.length p.Predict.p_witnesses - 1) in
  check Alcotest.int "serialization witness: empty prefix" 0
    (Array.length last.Predict.w_prefix);
  check Alcotest.int "serialization witness: no plan" 0
    (Array.length last.Predict.w_tids);
  (* the first (most faithful) witness replays the recorded schedule *)
  let first = List.hd p.Predict.p_witnesses in
  check Alcotest.bool "preserve witness has a plan" true
    (Array.length first.Predict.w_tids > 0)

(* SC-fence chain orders the accesses in every feasible reordering the
   relaxation admits, but nothing hard does: May, no witness, and the
   verifier never executes it. *)
let prog_may () =
  Api.program ~name:"may" (fun () ->
      let v = Api.Var.create ~name:"v" 0 in
      let t1 =
        Api.Thread.spawn ~name:"T1" (fun () ->
            Api.Var.set v 1;
            Api.Atomic.fence Seq_cst)
      in
      let t2 =
        Api.Thread.spawn ~name:"T2" (fun () ->
            Api.Atomic.fence Seq_cst;
            ignore (Api.Var.get v))
      in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_may_pair_no_witness () =
  let a = Predict.analyze (input_of prog_may) in
  check Alcotest.int "one pair" 1 (List.length a.Predict.pairs);
  let p = List.hd a.Predict.pairs in
  check Alcotest.bool "may" true (p.Predict.p_confidence = Predict.May);
  check Alcotest.bool "not observed" false p.Predict.p_observed;
  check Alcotest.int "no witnesses" 0 (List.length p.Predict.p_witnesses)

(* ------------------------------------------------------------------ *)
(* Prefix and aux-format plumbing *)

let test_normalize_prefix () =
  check
    Alcotest.(array int)
    "strips trailing zeros" [| 1; 0; 2 |]
    (Decision.normalize_prefix [| 1; 0; 2; 0; 0 |]);
  check Alcotest.(array int) "all zeros -> empty" [||]
    (Decision.normalize_prefix [| 0; 0; 0 |]);
  check Alcotest.(array int) "empty ok" [||] (Decision.normalize_prefix [||])

(* Replaying recorded_prefix under the same seeds reproduces the
   recorded schedule exactly. *)
let test_recorded_prefix_replays () =
  let wl = Option.get (Workloads.find "fig1") in
  let run prefix =
    let world = World.create ~seed:42L () in
    let prog = wl.Workloads.w_instance world () in
    Interp.run ~world
      (guided_conf ~prefix ~seeds:(3L, 7922L) ())
      prog
  in
  let r1 = run (guided_prefix_of_seed 3) in
  let inp = Interp.to_predict_input r1 in
  let r2 = run (Predict.recorded_prefix inp) in
  check Alcotest.bool "same trace" true (r1.Interp.trace = r2.Interp.trace)

(* The guided fig1 recording `record fig1 --guided --seed 1' makes. *)
let fig1_guided_input () =
  let wl = Option.get (Workloads.find "fig1") in
  let world = World.create ~seed:42L () in
  let prog = wl.Workloads.w_instance world () in
  let r =
    Interp.run ~world
      (guided_conf ~prefix:(guided_prefix_of_seed 1) ())
      prog
  in
  Interp.to_predict_input r

let test_encode_decode_roundtrip () =
  let inp = fig1_guided_input () in
  check Alcotest.bool "recording has steps" true (Array.length inp.Predict.steps > 0);
  let lines = Predict.encode_input inp in
  match Predict.decode_input lines with
  | None -> Alcotest.fail "decode failed"
  | Some inp' ->
      check Alcotest.int "steps" (Array.length inp.Predict.steps)
        (Array.length inp'.Predict.steps);
      check Alcotest.int "accs" (Array.length inp.Predict.accs)
        (Array.length inp'.Predict.accs);
      check Alcotest.int "observed"
        (List.length inp.Predict.observed)
        (List.length inp'.Predict.observed);
      check Alcotest.bool "decoded steps = recorded decisions" true
        (inp'.Predict.steps = inp.Predict.steps);
      check Alcotest.bool "decoded accesses = recorded accesses" true
        (inp'.Predict.accs = inp.Predict.accs);
      check Alcotest.(list string) "re-encodes identically" lines
        (Predict.encode_input inp');
      (* the analysis of the decoded input is the analysis *)
      check Alcotest.string "same analysis digest"
        (Predict.digest (Predict.analyze inp))
        (Predict.digest (Predict.analyze inp'))

let test_decode_rejects_garbage () =
  check Alcotest.bool "malformed line" true
    (Predict.decode_input [ "Z nonsense" ] = None);
  check Alcotest.bool "truncated step" true
    (Predict.decode_input [ "S 0" ] = None);
  let rejects what line =
    check Alcotest.bool what true (Predict.decode_input [ line ] = None)
  in
  rejects "negative step tid" "S -1 0 L - E-1,0 D0";
  rejects "step tid not enabled" "S 2 0 L - E0,1 D0";
  rejects "step with empty enabled set" "S 0 0 L - E D0";
  rejects "negative spawn target" "S 0 0 P-1 - E0 D0";
  rejects "negative join target" "S 0 0 J-2 - E0 D0";
  rejects "unknown last step column" "S 0 0 L - E0 X0";
  rejects "malformed legacy clock" "S 0 0 L - E0 Cx";
  rejects "negative access tid" "A 0 -1 0 0 1 v";
  rejects "negative access position" "A 0 1 -1 0 1 v";
  (* only what [encode_input] writes: one-letter tags and kinds, plain
     decimal integers, 0/1 flags *)
  rejects "tag-only footprint with a tail" "S 0 0 Lx - E0 D0";
  rejects "atomic kind of two bytes" "S 0 0 A1.rx - E0 D0";
  rejects "hex draw count" "S 0 0 L - E0 D0x1F";
  rejects "signed enabled tid and underscored draws" "S 0 0 L - E+0 D1_000";
  rejects "leading zero" "S 0 0 L - E00 D0";
  rejects "negative zero" "S 0 0 L - E0 D-0";
  rejects "rand flag of 2" "S 0 2 L - E0 D0";
  rejects "write flag of 2" "A 0 0 0 0 2 v";
  check Alcotest.bool "well-formed step and access accepted" true
    (Predict.decode_input [ "S 0 0 L - E0 D0"; "A 0 0 0 0 1 v" ] <> None)

(* DECISIONS as older builds wrote it for fig1 (`record fig1 --guided
   --seed 1'): the last step column is the FastTrack clock of the
   chosen thread ([C…]) rather than the draw count ([D…]). Decoding
   accepts only what [encode_input] writes, so it is refused. *)
let legacy_fig1_decisions =
  [
    "S 0 0 P1 - E0 C2";
    "S 1 0 A0.w - E0,1 C1,2";
    "S 1 0 A1.w - E0,1 C1,3";
    "S 0 0 P2 - E0 C3";
    "S 2 1 A1.r - E0,2 C2,0,2";
    "S 0 0 P3 - E0 C4";
    "S 3 1 A0.r - E0,3 C3,1,0,2";
    "S 0 0 J1 - E0,3 C4,3";
    "S 0 0 J2 - E0,3 C4,3,2";
    "S 3 0 W1 - E0,3 C3,1,0,2";
    "S 0 0 J3 - E0 C4,3,2,2";
    "A 0 1 0 0 1 nax";
    "A 6 3 1 0 0 nax";
  ]

(* A variable whose name holds a newline: its guided recording must
   load, and the names must survive the DECISIONS file. Written raw,
   the name split its access line in two and the file failed its
   trailer's line count. *)
let prog_newline_name () =
  Api.program ~name:"newline" (fun () ->
      let v = Api.Var.create ~name:"a\nb" 0 in
      let t = Api.Thread.spawn ~name:"T1" (fun () -> Api.Var.set v 1) in
      Api.Var.set v 2;
      Api.Thread.join t)

let test_newline_name_recording_loads () =
  T11r_util.Tmp.with_dir ~prefix:"t11r_predict" (fun base ->
      let dir = Filename.concat base "demo" in
      let r =
        Interp.run ~world:(World.create ~seed:42L ())
          (Conf.with_mode (guided_conf ()) (Conf.Record dir))
          (prog_newline_name ())
      in
      let d =
        try Tsan11rec.Demo.load ~dir
        with Tsan11rec.Demo.Corrupt c ->
          Alcotest.failf "recording does not load: %s"
            (Tsan11rec.Demo.corruption_to_string c)
      in
      match Predictor.input_of_demo d with
      | Error e -> Alcotest.fail e
      | Ok inp ->
          check Alcotest.bool "accesses recorded" true
            (Array.length inp.Predict.accs > 0);
          check Alcotest.bool "races observed" true (inp.Predict.observed <> []);
          check Alcotest.bool "access names" true
            (Array.for_all (fun a -> a.Decision.a_name = "a\nb") inp.Predict.accs);
          check Alcotest.bool "race names" true
            (List.for_all (fun r -> r.Report.var = "a\nb") inp.Predict.observed);
          check Alcotest.bool "decoded = live input" true
            (inp = Interp.to_predict_input r))

(* Names as older builds wrote them, raw: one holding a space splits
   its line, one holding a '%' that starts no escape does not unescape;
   both are refused. *)
let test_decode_refuses_raw_names () =
  List.iter
    (fun line ->
      check Alcotest.bool line true
        (Predict.decode_input [ "S 0 0 L - E0 D0"; line ] = None))
    [ "A 0 0 0 0 1 my var"; "A 1 0 1 1 0 100%"; "R ww 0 1 my var" ]

let test_decode_refuses_clock_column () =
  check Alcotest.bool "older fig1 DECISIONS" true
    (Predict.decode_input legacy_fig1_decisions = None);
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"S " line then
        check Alcotest.bool line true (Predict.decode_input [ line ] = None))
    legacy_fig1_decisions

(* A guided recording whose DECISIONS file is gone is a corrupt demo:
   its MANIFEST lists the file. *)
let test_missing_decisions_corrupt () =
  T11r_util.Tmp.with_dir ~prefix:"t11r_predict" (fun base ->
      let dir = Filename.concat base "demo" in
      let wl = Option.get (Workloads.find "fig1") in
      let world = World.create ~seed:43L () in
      ignore
        (Interp.run ~world
           (Conf.with_mode (guided_conf ~prefix:(guided_prefix_of_seed 1) ()) (Conf.Record dir))
           (wl.Workloads.w_instance world ()));
      (match Predictor.input_of_demo (Tsan11rec.Demo.load ~dir) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "intact recording: %s" e);
      Sys.remove (Filename.concat dir "DECISIONS");
      match Tsan11rec.Demo.load ~dir with
      | exception Tsan11rec.Demo.Corrupt c ->
          check Alcotest.string "names DECISIONS" "DECISIONS" c.Tsan11rec.Demo.c_file
      | _ -> Alcotest.fail "the loader accepted a demo missing DECISIONS")

(* ------------------------------------------------------------------ *)
(* Failed trylock never contributes a lock-order edge *)

(* Both threads hold one lock and try the other while it is provably
   held (flag handshakes pin the overlap), so both trylocks fail on
   every schedule. If a failed trylock fed Lockorder, the A->B->A
   cycle would be reported. *)
let trylock_outcomes seed1 seed2 =
  let got1 = ref true and got2 = ref true in
  let prog =
    Api.program ~name:"trylock" (fun () ->
        let a = Api.Mutex.create ~name:"A" () in
        let b = Api.Mutex.create ~name:"B" () in
        let fa = Api.Atomic.create ~name:"fa" 0 in
        let fb = Api.Atomic.create ~name:"fb" 0 in
        let da = Api.Atomic.create ~name:"da" 0 in
        let db = Api.Atomic.create ~name:"db" 0 in
        let side ~mine ~theirs ~f_mine ~f_theirs ~d_mine ~d_theirs ~got () =
          Api.Mutex.lock mine;
          Api.Atomic.store f_mine 1;
          while Api.Atomic.load f_theirs = 0 do () done;
          got := Api.Mutex.try_lock theirs;
          if !got then Api.Mutex.unlock theirs;
          Api.Atomic.store d_mine 1;
          while Api.Atomic.load d_theirs = 0 do () done;
          Api.Mutex.unlock mine
        in
        let t1 =
          Api.Thread.spawn ~name:"T1"
            (side ~mine:a ~theirs:b ~f_mine:fa ~f_theirs:fb ~d_mine:da
               ~d_theirs:db ~got:got1)
        in
        let t2 =
          Api.Thread.spawn ~name:"T2"
            (side ~mine:b ~theirs:a ~f_mine:fb ~f_theirs:fa ~d_mine:db
               ~d_theirs:da ~got:got2)
        in
        Api.Thread.join t1;
        Api.Thread.join t2)
  in
  let world = World.create ~seed:7L () in
  let conf = Conf.with_seeds (Conf.tsan11rec ()) seed1 seed2 in
  let r = Interp.run ~world conf prog in
  (r, !got1, !got2)

let failed_trylock_no_edge =
  QCheck.Test.make ~name:"failed trylock adds no lock-order edge"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let r, got1, got2 =
        trylock_outcomes (Int64.of_int (s1 + 1)) (Int64.of_int (s2 + 1))
      in
      r.Interp.outcome = Interp.Completed
      && (not got1) && (not got2)
      && r.Interp.lock_cycles = [])

(* Positive control: a successful trylock does contribute, so the
   property above is not vacuous. *)
let test_successful_trylock_contributes () =
  let prog =
    Api.program ~name:"trylock-ok" (fun () ->
        let a = Api.Mutex.create ~name:"A" () in
        let b = Api.Mutex.create ~name:"B" () in
        Api.Mutex.lock a;
        assert (Api.Mutex.try_lock b);
        Api.Mutex.unlock b;
        Api.Mutex.unlock a;
        Api.Mutex.lock b;
        assert (Api.Mutex.try_lock a);
        Api.Mutex.unlock a;
        Api.Mutex.unlock b)
  in
  let world = World.create ~seed:7L () in
  let r = Interp.run ~world (Conf.tsan11rec ()) prog in
  check Alcotest.int "inversion cycle reported" 1
    (List.length r.Interp.lock_cycles)

(* ------------------------------------------------------------------ *)
(* Soundness: May and refuted pairs are never surfaced as races *)

let wl_instance name =
  let wl = Option.get (Workloads.find name) in
  let base = Conf.with_policy (Conf.tsan11rec ()) wl.Workloads.w_policy in
  let instance () =
    let w = World.create ~seed:42L () in
    (w, wl.Workloads.w_instance w ())
  in
  (wl, base, instance)

let pp_report r = Format.asprintf "%a" Predictor.pp r

let test_may_never_verified_or_reported () =
  let a = Predict.analyze (input_of prog_may) in
  check Alcotest.bool "has a may pair" true (a.Predict.n_may >= 1);
  let instance () = (World.create ~seed:42L (), prog_may ()) in
  let rep = Predictor.verify ~attempts:4 ~instance a in
  check Alcotest.int "nothing verified" 0 (List.length rep.Predictor.r_verified);
  check Alcotest.int "nothing confirmed" 0 rep.Predictor.r_confirmed;
  check Alcotest.int "no runs spent" 0 rep.Predictor.r_runs;
  let out = pp_report rep in
  check Alcotest.bool "no RACE line" false
    (contains out "RACE");
  check Alcotest.bool "explicitly not a race" true
    (contains out "not a race")

(* A Must pair whose race can never manifest: the reader only touches
   the location after an acquire-load reads the release-store's value,
   so every witness execution synchronizes. The verifier must refute
   it and the report must not call it a race. *)
let prog_refutable () =
  Api.program ~name:"refutable" (fun () ->
      let v = Api.Var.create ~name:"v" 0 in
      let x = Api.Atomic.create ~name:"x" 0 in
      let t1 =
        Api.Thread.spawn ~name:"T1" (fun () ->
            Api.Var.set v 1;
            Api.Atomic.store ~mo:Release x 1)
      in
      let t2 =
        Api.Thread.spawn ~name:"T2" (fun () ->
            while Api.Atomic.load ~mo:Acquire x = 0 do () done;
            ignore (Api.Var.get v))
      in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_refuted_not_reported () =
  let a = Predict.analyze (input_of prog_refutable) in
  check Alcotest.bool "predicted must" true (a.Predict.n_must >= 1);
  let instance () = (World.create ~seed:42L (), prog_refutable ()) in
  let rep = Predictor.verify ~attempts:12 ~extra_seeds:4 ~instance a in
  check Alcotest.int "confirmed" 0 rep.Predictor.r_confirmed;
  check Alcotest.bool "refuted" true (rep.Predictor.r_refuted >= 1);
  let out = pp_report rep in
  check Alcotest.bool "no RACE line" false
    (contains out "RACE");
  check Alcotest.bool "refuted is spelled out" true
    (contains out "refuted");
  (* refuted witnesses never reach the corpus either *)
  let _, admitted = Predictor.admit Corpus.empty rep in
  check Alcotest.int "nothing admitted" 0 admitted

(* ------------------------------------------------------------------ *)
(* End-to-end: predict + confirm on the racy workloads *)

(* The guided-hunt-reachable races of each workload (see test_campaign
   and the hunt CLI): predictions from <= 5 guided recordings must
   cover them all, and every one must be confirmed by its witness. *)
let expected_races = function
  | "fig1" ->
      [ { Report.var = "nax"; kind = Report.Write_read; first_tid = 1;
          second_tid = 3 } ]
  | "dekker-fences" ->
      [ { Report.var = "critical"; kind = Report.Write_write; first_tid = 1;
          second_tid = 2 };
        { Report.var = "critical"; kind = Report.Write_read; first_tid = 1;
          second_tid = 2 };
        { Report.var = "critical"; kind = Report.Write_read; first_tid = 2;
          second_tid = 1 } ]
  | "mcs-lock" ->
      [ { Report.var = "mcsdata"; kind = Report.Write_read; first_tid = 1;
          second_tid = 2 } ]
  | w -> Alcotest.failf "no expectation for %s" w

let record_input name seed =
  let wl, base, _ = wl_instance name in
  let world = World.create ~seed:42L () in
  let prog = wl.Workloads.w_instance world () in
  let r =
    Interp.run ~world
      (guided_conf ~base
         ~prefix:(guided_prefix_of_seed seed)
         ~seeds:(Int64.of_int seed, Int64.of_int (seed + 7919))
         ())
      prog
  in
  Interp.to_predict_input r

(* Verifies the predictions from guided recordings 1..5 and returns
   the confirmed races, the refuted-pair count, and the first recording
   whose verification confirmed a race. *)
let e2e_workload name =
  let _, _, instance = wl_instance name in
  let confirmed = ref [] and refuted = ref 0 and first = ref None in
  for seed = 1 to 5 do
    let a = Predict.analyze (record_input name seed) in
    let rep =
      Predictor.verify ~attempts:48
        ~recorded_seeds:(Int64.of_int seed, Int64.of_int (seed + 7919))
        ~instance a
    in
    refuted := !refuted + rep.Predictor.r_refuted;
    if rep.Predictor.r_confirmed > 0 && !first = None then first := Some seed;
    List.iter
      (fun v ->
        match v.Predictor.v_verdict with
        | Predictor.Confirmed _ ->
            let r = v.Predictor.v_pair.Predict.p_report in
            if not (List.exists (Report.equal r) !confirmed) then
              confirmed := r :: !confirmed
        | Predictor.Refuted _ -> ())
      rep.Predictor.r_verified
  done;
  (!confirmed, !refuted, !first)

(* The guided-only baseline: runs to the first racy run of a
   coverage-guided hunt (48 runs in batches of 16), if any. *)
let hunt_runs_to_first_race name =
  let wl = Option.get (Workloads.find name) in
  let spec = Workloads.spec_of ~base_conf:(Conf.tsan11rec ()) wl in
  let h = Guided.hunt spec ~rounds:3 ~batch:16 ~stop_on_race:true () in
  Option.map (fun i -> i + 1) h.Guided.g_first_race

let test_e2e name () =
  let confirmed, refuted, first = e2e_workload name in
  check Alcotest.int "no refuted pair anywhere" 0 refuted;
  List.iter
    (fun want ->
      let want = Report.norm want in
      if not (List.exists (Report.equal want) confirmed) then
        Alcotest.failf "race %s not predicted+confirmed within 5 recordings"
          (Format.asprintf "%a" Report.pp want))
    (expected_races name);
  (* Prediction is no worse than hunting: it needs no more recorded
     runs to confirm a race than the guided hunt needs to hit one. *)
  match (first, hunt_runs_to_first_race name) with
  | Some p, Some g ->
      check Alcotest.bool
        (Printf.sprintf "recordings to a confirmed race (%d) <= hunt runs (%d)"
           p g)
        true (p <= g)
  | None, Some g ->
      Alcotest.failf "the hunt raced after %d runs, prediction never did" g
  | _, None -> ()

(* ------------------------------------------------------------------ *)
(* Determinism: verification and campaign observation vs --jobs *)

let verdict_key = function
  | Predictor.Confirmed { c_seed1; c_seed2; c_prefix; c_runs; _ } ->
      ("confirmed", c_seed1, c_seed2, Array.to_list c_prefix, c_runs)
  | Predictor.Refuted n -> ("refuted", 0L, 0L, [], n)

let test_verify_jobs_independent () =
  let a = Predict.analyze (record_input "dekker-fences" 2) in
  check Alcotest.bool "pairs predicted" true (a.Predict.n_must >= 2);
  let _, _, instance = wl_instance "dekker-fences" in
  let go jobs =
    Predictor.verify ~jobs ~attempts:48 ~recorded_seeds:(2L, 7921L) ~instance a
  in
  let r1 = go 1 and r2 = go 2 in
  check Alcotest.int "confirmed" r1.Predictor.r_confirmed
    r2.Predictor.r_confirmed;
  check Alcotest.int "refuted" r1.Predictor.r_refuted r2.Predictor.r_refuted;
  check Alcotest.int "runs" r1.Predictor.r_runs r2.Predictor.r_runs;
  check Alcotest.int "executed" r1.Predictor.r_executed
    r2.Predictor.r_executed;
  let keys r =
    List.map (fun v -> verdict_key v.Predictor.v_verdict)
      r.Predictor.r_verified
  in
  check Alcotest.bool "identical verdicts in order" true (keys r1 = keys r2)

(* ------------------------------------------------------------------ *)
(* Verification runs each (report, witnesses) class once *)

(* Every Must pair of the ms-queue recording `record ms-queue --guided
   --seed 1' makes is observed, so all 10,800 share the recorded
   schedule as first witness and fall into one class per report. *)
let ms_queue_analysis () = Predict.analyze (record_input "ms-queue" 1)

let test_verify_ms_queue_uncapped () =
  let _, base, instance = wl_instance "ms-queue" in
  let rep =
    Predictor.verify ~recorded_seeds:(1L, 7920L) ~base_conf:base ~instance
      (ms_queue_analysis ())
  in
  check Alcotest.int "confirmed" 10800 rep.Predictor.r_confirmed;
  check Alcotest.int "refuted" 0 rep.Predictor.r_refuted;
  check Alcotest.int "attempts charged" 10800 rep.Predictor.r_runs;
  check Alcotest.int "executed" 3 rep.Predictor.r_executed;
  check Alcotest.bool "printed" true
    (contains (pp_report rep)
       "verified: 10800 confirmed, 0 refuted in 10800 runs (3 executed)")

(* The first [n] Must pairs of an analysis, May pairs kept. *)
let first_musts n (a : Predict.t) =
  let k = ref 0 in
  let pairs =
    List.filter
      (fun (p : Predict.pair) ->
        p.Predict.p_confidence = Predict.May
        || (incr k;
            !k <= n))
      a.Predict.pairs
  in
  { a with Predict.pairs; n_must = min n a.Predict.n_must }

(* [verify] at jobs 1 and 2 returns the report of verifying every pair
   separately, except for [r_executed]. *)
let check_matches_ref what ?attempts ?extra_seeds ?recorded_seeds ?base_conf
    ~instance a =
  let want =
    Ref_model.Predictor.verify ?attempts ?extra_seeds ?recorded_seeds
      ?base_conf ~instance a
  in
  List.iter
    (fun jobs ->
      let got =
        Predictor.verify ~jobs ?attempts ?extra_seeds ?recorded_seeds
          ?base_conf ~instance a
      in
      let what = Printf.sprintf "%s, jobs %d" what jobs in
      check Alcotest.int (what ^ ": pairs")
        (List.length want.Predictor.r_verified)
        (List.length got.Predictor.r_verified);
      List.iter2
        (fun (w : Predictor.verified) (g : Predictor.verified) ->
          check Alcotest.bool (what ^ ": same pair") true
            (w.Predictor.v_pair == g.Predictor.v_pair);
          check Alcotest.bool (what ^ ": same verdict") true
            (w.Predictor.v_verdict = g.Predictor.v_verdict))
        want.Predictor.r_verified got.Predictor.r_verified;
      check Alcotest.int (what ^ ": confirmed") want.Predictor.r_confirmed
        got.Predictor.r_confirmed;
      check Alcotest.int (what ^ ": refuted") want.Predictor.r_refuted
        got.Predictor.r_refuted;
      check Alcotest.int (what ^ ": runs") want.Predictor.r_runs
        got.Predictor.r_runs;
      check Alcotest.bool (what ^ ": executed <= runs") true
        (got.Predictor.r_executed <= got.Predictor.r_runs))
    [ 1; 2 ]

let test_verify_matches_ref () =
  let _, base, instance = wl_instance "dekker-fences" in
  for seed = 1 to 6 do
    check_matches_ref
      (Printf.sprintf "dekker-fences seed %d" seed)
      ~recorded_seeds:(Int64.of_int seed, Int64.of_int (seed + 7919))
      ~base_conf:base ~instance
      (Predict.analyze (record_input "dekker-fences" seed))
  done;
  check_matches_ref "refutable" ~attempts:12 ~extra_seeds:4
    ~instance:(fun () -> (World.create ~seed:42L (), prog_refutable ()))
    (Predict.analyze (input_of prog_refutable));
  let _, base, instance = wl_instance "fig1" in
  check_matches_ref "fig1" ~recorded_seeds:(1L, 7920L) ~base_conf:base
    ~instance
    (Predict.analyze (record_input "fig1" 1));
  let _, base, instance = wl_instance "ms-queue" in
  check_matches_ref "ms-queue, first 200 Must pairs"
    ~recorded_seeds:(1L, 7920L) ~base_conf:base ~instance
    (first_musts 200 (ms_queue_analysis ()))

(* A call that could only return zero-evidence verdicts is rejected. *)
let test_verify_rejects_empty_budget () =
  let a = Predict.analyze (input_of prog_must) in
  let instance () = (World.create ~seed:42L (), prog_must ()) in
  let rejects what f =
    match f () with
    | (_ : Predictor.report) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "attempts 0" (fun () -> Predictor.verify ~attempts:0 ~instance a);
  rejects "attempts -1" (fun () -> Predictor.verify ~attempts:(-1) ~instance a);
  rejects "extra_seeds -1" (fun () ->
      Predictor.verify ~extra_seeds:(-1) ~recorded_seeds:(1L, 7920L) ~instance a);
  rejects "empty seed sweep" (fun () ->
      Predictor.verify ~extra_seeds:0 ~instance a);
  (* the recorded seeds alone are a sweep *)
  let rep =
    Predictor.verify ~extra_seeds:0 ~recorded_seeds:(1L, 7920L) ~instance a
  in
  check Alcotest.bool "recorded seeds alone run" true (rep.Predictor.r_runs > 0)

(* A four-run guided campaign on fig1, with each run's analysis merged
   in run-index order. *)
let merged_campaign ~jobs ?journal () =
  let wl, base, _ = wl_instance "fig1" in
  let spec =
    {
      Campaign.label = "predict-merge";
      conf =
        (fun i ->
          guided_conf ~base
            ~prefix:(guided_prefix_of_seed (i + 1))
            ~seeds:(Int64.of_int (i + 1), Int64.of_int (i + 7920))
            ());
      instance =
        (fun _i ->
          let w = World.create ~seed:42L () in
          (w, wl.Workloads.w_instance w ()));
    }
  in
  let r = Campaign.run spec ~n:4 ~jobs ?journal [] in
  Predict.merge
    (Array.to_list
       (Array.map
          (fun r -> Predict.analyze (Interp.to_predict_input r))
          r.Campaign.results))

let test_merge_jobs_independent () =
  let m1 = merged_campaign ~jobs:1 () in
  let m2 = merged_campaign ~jobs:2 () in
  check Alcotest.bool "pairs predicted" true (m1.Predict.pairs <> []);
  check Alcotest.string "digest jobs-independent" (Predict.digest m1)
    (Predict.digest m2)

let test_journal_merge_matches_live () =
  let file = tmpfile () in
  let live = merged_campaign ~jobs:2 ~journal:file () in
  let inputs = Predictor.inputs_of_journal file in
  check Alcotest.int "journaled runs" 4 (List.length inputs);
  let offline = Predict.merge (List.map Predict.analyze inputs) in
  check Alcotest.string "journal merge = live merge" (Predict.digest live)
    (Predict.digest offline);
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Pair order: the monomorphic comparators against polymorphic compare *)

module Predict_order = Ref_model.Predict_order

(* A physically distinct copy of [s]. *)
let copy s = Bytes.to_string (Bytes.of_string s)

let sign c = Int.compare c 0
let kinds = [ Report.Write_write; Report.Write_read; Report.Read_write ]

(* Names sharing prefixes, bytes either side of the signed/unsigned
   boundary, and the empty name. *)
let name_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ ""; "a"; "ab"; "abc"; "b"; "ba"; "na"; "nax"; "naxx" ];
        string_size ~gen:(oneofl [ 'a'; 'b'; '\000'; '\127'; '\128'; '\255' ])
          (int_range 0 3);
      ])

let report_gen =
  QCheck.Gen.(
    let* var = name_gen in
    let* kind = oneofl kinds in
    let* first_tid = int_range 0 2 in
    let* second_tid = int_range 0 2 in
    return { Report.var; kind; first_tid; second_tid })

let show_report (r : Report.t) =
  Printf.sprintf "%S %s T%d T%d" r.Report.var (Report.kind_to_string r.Report.kind)
    r.Report.first_tid r.Report.second_tid

(* The second report is independent, or the first with its name copied
   and at most one other field redrawn, so equal and nearly equal
   reports on physically distinct names are frequent. *)
let report_pair_gen =
  QCheck.Gen.(
    let* a = report_gen in
    let* b =
      oneof
        [
          report_gen;
          return { a with Report.var = copy a.Report.var };
          map (fun k -> { a with Report.var = copy a.Report.var; kind = k })
            (oneofl kinds);
          map
            (fun t -> { a with Report.var = copy a.Report.var; second_tid = t })
            (int_range 0 2);
          map (fun v -> { a with Report.var = v }) name_gen;
        ]
    in
    return (a, b))

let report_order_matches =
  QCheck.Test.make ~name:"Report.compare/equal = polymorphic compare/=" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> show_report a ^ " / " ^ show_report b)
       report_pair_gen)
    (fun (a, b) ->
      sign (Report.compare a b) = sign (Stdlib.compare a b)
      && sign (Report.compare b a) = sign (Stdlib.compare b a)
      && Report.equal a b = (a = b)
      && Report.compare a a = 0
      && Report.equal a a)

(* Every kind against every kind, on equal names that are distinct
   strings, a prefix, and the same tids. *)
let test_report_order_exhaustive () =
  let names = [ ""; "a"; copy "a"; "ab"; copy "ab"; "b"; "\255" ] in
  let reports =
    List.concat_map
      (fun var ->
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun t1 ->
                List.map
                  (fun t2 -> { Report.var; kind; first_tid = t1; second_tid = t2 })
                  [ 0; 1 ])
              [ 0; 1 ])
          kinds)
      names
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let what = show_report a ^ " / " ^ show_report b in
          check Alcotest.int ("compare " ^ what)
            (sign (Stdlib.compare a b))
            (sign (Report.compare a b));
          check Alcotest.bool ("equal " ^ what) (a = b) (Report.equal a b))
        reports)
    reports

(* Pairs over a small key space, so full ties (equal report, positions
   and var on distinct records) are common; reports are sometimes
   shared, sometimes equal copies. *)
let pair_list_gen =
  QCheck.Gen.(
    let* shared = list_size (int_range 1 3) report_gen in
    let pair_gen =
      let* p_report =
        oneof
          [
            oneofl shared;
            map (fun r -> { r with Report.var = copy r.Report.var }) (oneofl shared);
            report_gen;
          ]
      in
      let* t1 = int_range 0 2 and* k1 = int_range 0 2 in
      let* t2 = int_range 0 2 and* k2 = int_range 0 2 in
      let* p_var = int_range 0 1 in
      let* must = bool and* p_observed = bool in
      return
        {
          Predict.p_report;
          p_var;
          p_first = (t1, k1);
          p_second = (t2, k2);
          p_confidence = (if must then Predict.Must else Predict.May);
          p_observed;
          p_witnesses = [];
        }
    in
    list_size (int_range 0 40) pair_gen)

let show_pair (p : Predict.pair) =
  Printf.sprintf "%s T%d@%d T%d@%d v%d" (show_report p.Predict.p_report)
    (fst p.Predict.p_first) (snd p.Predict.p_first) (fst p.Predict.p_second)
    (snd p.Predict.p_second) p.Predict.p_var

let pair_order_matches =
  QCheck.Test.make ~name:"compare_pair and its sort = tuple comparator's" ~count:1000
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_pair l))
       pair_list_gen)
    (fun l ->
      List.for_all
        (fun p ->
          List.for_all
            (fun q ->
              sign (Predict.compare_pair p q)
              = sign (Predict_order.compare_pair p q))
            l)
        l
      (* physical equality, element by element: ties keep their order *)
      && List.for_all2 ( == )
           (List.sort Predict.compare_pair l)
           (List.sort Predict_order.compare_pair l))

(* An analysis' and a merge's pairs are already in the tuple
   comparator's order, tied pairs included. *)
let check_sorted what (a : Predict.t) =
  check Alcotest.bool (what ^ " pairs in reference order") true
    (List.for_all2 ( == ) a.Predict.pairs
       (List.sort Predict_order.compare_pair a.Predict.pairs))

(* Taken before the monomorphic comparators and the per-access sharing:
   the analysis output, its order and its bytes stay put. *)
let ms_queue_digests =
  [
    (1, "03cf37b5da61131cacbe4193bd6ec61e");
    (2, "73f8594a9f1fc5b50b26d8b5c1ce29cf");
    (3, "65d108cda47614ada5c0fee51f2e517a");
  ]

let test_ms_queue_digests_pinned () =
  let analyses =
    List.map
      (fun (seed, want) ->
        let a = Predict.analyze (record_input "ms-queue" seed) in
        check Alcotest.string
          (Printf.sprintf "ms-queue seed %d analysis digest" seed)
          want (Predict.digest a);
        check_sorted (Printf.sprintf "ms-queue seed %d" seed) a;
        a)
      ms_queue_digests
  in
  check_sorted "ms-queue merge" (Predict.merge analyses);
  List.iter
    (fun name ->
      let a = Predict.analyze (record_input name 1) in
      check_sorted name a)
    [ "fig1"; "dekker-fences"; "mcs-lock" ]

(* ------------------------------------------------------------------ *)
(* The streamed digest against the whole unshared Marshal string *)

let old_digest = Ref_model.Marshal_digest.of_value

(* Analyses shaped like [analyze]'s: one preserve witness and the
   empty serialization witness shared by every Must pair, one shared
   [preserve; serial] list, fresh reverse witnesses, equal but
   unshared witnesses, May pairs without any, and the empty analysis. *)
let analysis_gen =
  QCheck.Gen.(
    let ints = array_size (int_range 0 40) (oneof [ int_range 0 5; int ]) in
    let witness =
      let* w_tids = ints and* w_prefix = ints in
      return { Predict.w_tids; w_prefix }
    in
    let* preserve = witness in
    let serial = { Predict.w_tids = [||]; w_prefix = [||] } in
    let preserve_serial = [ preserve; serial ] in
    let witnesses =
      oneof
        [
          return [];
          return preserve_serial;
          map (fun w -> [ preserve; w; serial ]) witness;
          return
            [ { Predict.w_tids = Array.copy preserve.Predict.w_tids;
                w_prefix = Array.copy preserve.Predict.w_prefix }; serial ];
        ]
    in
    let pair =
      let* p_report = report_gen and* p_witnesses = witnesses in
      let* t1 = int_range 0 3 and* k1 = int_range 0 300 in
      let* t2 = int_range 0 3 and* k2 = int_range 0 300 in
      let* p_var = int_range 0 100 and* p_observed = bool in
      return
        {
          Predict.p_report;
          p_var;
          p_first = (t1, k1);
          p_second = (t2, k2);
          p_confidence = (if p_witnesses = [] then Predict.May else Predict.Must);
          p_observed;
          p_witnesses;
        }
    in
    let* pairs = oneof [ return []; list_size (int_range 1 30) pair ] in
    let* n_must = small_nat and* n_may = small_nat and* n_observed = small_nat in
    let* n_vars = int and* n_lock_excluded = small_nat in
    return { Predict.pairs; n_must; n_may; n_observed; n_vars; n_lock_excluded })

let digest_matches_marshal =
  QCheck.Test.make ~name:"digest = Marshal digest on random analyses" ~count:300
    (QCheck.make
       ~print:(fun (a : Predict.t) ->
         String.concat "; " (List.map show_pair a.Predict.pairs))
       analysis_gen)
    (fun a -> Predict.digest a = old_digest a)

(* The golden file's prediction cases: every workload's guided
   recordings 1 and 2, and 1-4 merged. httpd's are left out: unshared,
   each is gigabytes of Marshal string. *)
let test_golden_cases_match_marshal () =
  List.iter
    (fun (w : Workloads.t) ->
      if w.Workloads.w_name <> "httpd" then begin
        let analyses =
          List.init Golden.merged_runs (fun i ->
              Predict.analyze (Golden.guided_input w (i + 1)))
        in
        List.iteri
          (fun i a ->
            if i < 2 then
              check Alcotest.string
                (Printf.sprintf "predict/%s/s%d" w.Workloads.w_name (i + 1))
                (old_digest a) (Predict.digest a))
          analyses;
        let m = Predict.merge analyses in
        check Alcotest.string
          (Printf.sprintf "predict-merge/%s" w.Workloads.w_name)
          (old_digest m) (Predict.digest m)
      end)
    Workloads.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "predict"
    [
      ( "analysis",
        [
          Alcotest.test_case "hard-ordered pairs are skipped" `Quick
            test_hard_ordered_skipped;
          Alcotest.test_case "common lock excludes" `Quick
            test_lockset_excludes;
          Alcotest.test_case "unordered writes are Must with witnesses" `Quick
            test_must_pair_and_witnesses;
          Alcotest.test_case "relaxed-ordered pair is May, no witness" `Quick
            test_may_pair_no_witness;
        ] );
      ( "format",
        [
          Alcotest.test_case "normalize_prefix" `Quick test_normalize_prefix;
          Alcotest.test_case "recorded_prefix replays the schedule" `Quick
            test_recorded_prefix_replays;
          Alcotest.test_case "encode/decode round-trip" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_decode_rejects_garbage;
          Alcotest.test_case "decode refuses a clock column" `Quick
            test_decode_refuses_clock_column;
          Alcotest.test_case "newline in a name" `Quick
            test_newline_name_recording_loads;
          Alcotest.test_case "decode refuses raw names" `Quick
            test_decode_refuses_raw_names;
          Alcotest.test_case "guided demo without DECISIONS" `Quick
            test_missing_decisions_corrupt;
        ] );
      ( "lockorder",
        [
          qtest failed_trylock_no_edge;
          Alcotest.test_case "successful trylock contributes" `Quick
            test_successful_trylock_contributes;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "May pairs never verified or reported" `Quick
            test_may_never_verified_or_reported;
          Alcotest.test_case "refuted pairs never reported or admitted" `Quick
            test_refuted_not_reported;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "fig1 races predicted and confirmed" `Slow
            (test_e2e "fig1");
          Alcotest.test_case "dekker-fences races predicted and confirmed"
            `Slow
            (test_e2e "dekker-fences");
          Alcotest.test_case "mcs-lock races predicted and confirmed" `Slow
            (test_e2e "mcs-lock");
        ] );
      ( "determinism",
        [
          Alcotest.test_case "verify report jobs-independent" `Slow
            test_verify_jobs_independent;
          Alcotest.test_case "merge digest jobs-independent" `Quick
            test_merge_jobs_independent;
          Alcotest.test_case "journal merge matches live runs" `Quick
            test_journal_merge_matches_live;
        ] );
      ( "classes",
        [
          Alcotest.test_case "ms-queue uncapped: 3 executions" `Quick
            test_verify_ms_queue_uncapped;
          Alcotest.test_case "verify = per-pair reference" `Quick
            test_verify_matches_ref;
          Alcotest.test_case "zero-evidence budgets rejected" `Quick
            test_verify_rejects_empty_budget;
        ] );
      ( "order",
        [
          qtest report_order_matches;
          Alcotest.test_case "Report.compare on every kind" `Quick
            test_report_order_exhaustive;
          qtest pair_order_matches;
          Alcotest.test_case "ms-queue analysis digests pinned" `Quick
            test_ms_queue_digests_pinned;
        ] );
      ( "digest",
        [
          qtest digest_matches_marshal;
          Alcotest.test_case "golden cases = Marshal digest" `Quick
            test_golden_cases_match_marshal;
        ] );
    ]
