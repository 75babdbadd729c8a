(* Tests for the observability subsystem (lib/obs): the event ring
   buffer, run metrics, the Chrome trace-event exporter, and the way
   the interpreter and campaign engine thread them through. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Campaign = T11r_harness.Campaign
module Trace = T11r_obs.Trace
module Metrics = T11r_obs.Metrics
module Chrome = T11r_obs.Chrome
open T11r_vm

let check = Alcotest.check

let tmpdir () =
  let d = Filename.temp_file "t11r_obs" "" in
  Sys.remove d;
  d

(* Shared constants with gen_fixtures.ml — keep in sync. *)
let fix_world_seed = 42L
let fix_seed1 = 1234L
let fix_seed2 = 5678L

(* ------------------------------------------------------------------ *)
(* Trace ring buffer *)

let emit_n t n =
  for i = 1 to n do
    Trace.emit t Trace.Op ~tick:i ~tid:0 ~label:"op" ~ts:(10 * i) ~dur:1
  done

let test_ring_basic () =
  let t = Trace.create ~capacity:8 () in
  check Alcotest.bool "enabled" true (Trace.enabled t);
  check Alcotest.int "capacity" 8 (Trace.capacity t);
  emit_n t 5;
  check Alcotest.int "total" 5 (Trace.total t);
  check Alcotest.int "length" 5 (Trace.length t);
  check Alcotest.int "dropped" 0 (Trace.dropped t);
  let ticks = List.map (fun e -> e.Trace.ev_tick) (Trace.to_list t) in
  check Alcotest.(list int) "oldest first" [ 1; 2; 3; 4; 5 ] ticks

let test_ring_wraps () =
  let t = Trace.create ~capacity:4 () in
  emit_n t 10;
  check Alcotest.int "total" 10 (Trace.total t);
  check Alcotest.int "length caps at capacity" 4 (Trace.length t);
  check Alcotest.int "dropped" 6 (Trace.dropped t);
  (* The four youngest events survive, oldest first. *)
  let ticks = List.map (fun e -> e.Trace.ev_tick) (Trace.to_list t) in
  check Alcotest.(list int) "last 4, in order" [ 7; 8; 9; 10 ] ticks;
  let e = List.hd (Trace.to_list t) in
  check Alcotest.int "ts kept" 70 e.Trace.ev_ts;
  check Alcotest.string "label kept" "op" e.Trace.ev_label

let test_disabled_is_noop () =
  let t = Trace.disabled in
  check Alcotest.bool "not enabled" false (Trace.enabled t);
  emit_n t 100;
  check Alcotest.int "nothing recorded" 0 (Trace.total t);
  check Alcotest.(list int) "empty" []
    (List.map (fun e -> e.Trace.ev_tick) (Trace.to_list t))

let test_kind_names_distinct () =
  let all =
    [ Trace.Sched; Trace.Op; Trace.Stale_read; Trace.Fault; Trace.Race;
      Trace.Desync ]
  in
  let names = List.map Trace.kind_name all in
  check Alcotest.int "all distinct" (List.length all)
    (List.length (List.sort_uniq compare names))

(* ------------------------------------------------------------------ *)
(* Metrics monoid *)

let m1 =
  {
    Metrics.m_ticks = 1; m_waits = 2; m_preemptions = 3; m_evictions = 4;
    m_stale_reads = 5; m_det_checks = 6; m_desyncs = 7; m_timeouts = 8;
    m_retries = 9; m_salvages = 10; m_cov_bits = 11; m_corpus_adds = 12;
    m_energy = 13; m_predicted = 14; m_pred_verified = 15; m_pred_refuted = 16;
  }

let test_metrics_monoid () =
  check Alcotest.bool "zero is left identity" true
    (Metrics.equal m1 (Metrics.add Metrics.zero m1));
  check Alcotest.bool "zero is right identity" true
    (Metrics.equal m1 (Metrics.add m1 Metrics.zero));
  let s = Metrics.add m1 m1 in
  check Alcotest.int "componentwise" 2 s.Metrics.m_ticks;
  check Alcotest.int "componentwise last" 14 s.Metrics.m_desyncs;
  check Alcotest.bool "commutes" true
    (Metrics.equal (Metrics.add m1 s) (Metrics.add s m1))

let test_metrics_json () =
  let j = Metrics.to_json m1 in
  check Alcotest.bool "mentions every counter" true
    (List.for_all
       (fun k ->
         let n = String.length k and h = String.length j in
         let rec go i = i + n <= h && (String.sub j i n = k || go (i + 1)) in
         go 0)
       [ "ticks"; "waits"; "preemptions"; "evictions"; "stale_reads";
         "detector_checks"; "desyncs"; "timeouts"; "retries"; "salvages";
         "coverage_bits"; "corpus_adds"; "energy" ]);
  match Chrome.validate (Printf.sprintf "{\"traceEvents\": [], \"m\": %s}" j)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics JSON not well-formed: %s" e

(* ------------------------------------------------------------------ *)
(* Interpreter integration *)

let fig1_conf ?(trace = false) () =
  let c =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ())
      fix_seed1 fix_seed2
  in
  { c with Conf.trace_events = trace }

let run_fig1 ?trace () =
  Interp.run
    ~world:(World.create ~seed:fix_world_seed ())
    (fig1_conf ?trace ())
    (T11r_litmus.Registry.fig1.T11r_litmus.Registry.build ())

let test_run_collects_metrics () =
  let r = run_fig1 () in
  check Alcotest.int "metric ticks = result ticks" r.Interp.ticks
    r.Interp.metrics.Metrics.m_ticks;
  check Alcotest.bool "detector was exercised" true
    (r.Interp.metrics.Metrics.m_det_checks > 0);
  check Alcotest.int "no desyncs outside replay" 0
    r.Interp.metrics.Metrics.m_desyncs

let test_events_off_by_default () =
  let r = run_fig1 () in
  check Alcotest.(list string) "no events" []
    (List.map (fun e -> e.Trace.ev_label) r.Interp.events);
  check Alcotest.int "none dropped" 0 r.Interp.events_dropped

let test_events_on_when_enabled () =
  let r = run_fig1 ~trace:true () in
  let events = r.Interp.events in
  check Alcotest.bool "events captured" true (events <> []);
  (* Exactly one Op slice per critical section. *)
  let ops = List.filter (fun e -> e.Trace.ev_kind = Trace.Op) events in
  check Alcotest.int "one op event per tick" r.Interp.ticks (List.length ops);
  (* Every event's tid belongs to a known thread. *)
  let tids = List.map fst r.Interp.thread_names in
  List.iter
    (fun e ->
      check Alcotest.bool "tid known" true (List.mem e.Trace.ev_tid tids))
    events

let test_events_capacity_drops_oldest () =
  let c = { (fig1_conf ~trace:true ()) with Conf.trace_capacity = 4 } in
  let r =
    Interp.run
      ~world:(World.create ~seed:fix_world_seed ())
      c
      (T11r_litmus.Registry.fig1.T11r_litmus.Registry.build ())
  in
  check Alcotest.int "ring bounded" 4 (List.length r.Interp.events);
  check Alcotest.bool "drops reported" true (r.Interp.events_dropped > 0)

(* ------------------------------------------------------------------ *)
(* Chrome export and validation *)

let test_export_validates () =
  let r = run_fig1 ~trace:true () in
  let json =
    Chrome.export ~thread_names:r.Interp.thread_names ~events:r.Interp.events
      ()
  in
  match Chrome.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "export does not validate: %s" e

let test_export_escapes () =
  let events =
    [
      {
        Trace.ev_kind = Trace.Op; ev_tick = 0; ev_tid = 0;
        ev_label = "quote\" back\\slash \n tab\t"; ev_ts = 0; ev_dur = 1;
      };
    ]
  in
  let json = Chrome.export ~thread_names:[ (0, "ma\"in") ] ~events () in
  match Chrome.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaped export does not validate: %s" e

let test_validate_rejects_garbage () =
  let bad s =
    match Chrome.validate s with
    | Ok () -> Alcotest.failf "validated %S" s
    | Error _ -> ()
  in
  bad "";
  bad "not json";
  bad "{\"traceEvents\": ";
  (* well-formed JSON, wrong shape *)
  bad "[]";
  bad "{}";
  bad "{\"traceEvents\": 3}";
  (* events missing required fields *)
  bad "{\"traceEvents\": [3]}";
  bad "{\"traceEvents\": [{\"name\": \"x\"}]}";
  bad "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"tid\": 0, \"ts\": 1}]}";
  (* trailing garbage after the object *)
  bad "{\"traceEvents\": []} extra"

let test_golden_fig1_trace () =
  (* The committed fixture pins the exporter's output for the standard
     fig1 run bit for bit (regenerate with gen_fixtures after an
     intentional format change). *)
  let path = Filename.concat "fixtures" "fig1_trace.json" in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let expected = really_input_string ic n in
  close_in ic;
  let r = run_fig1 ~trace:true () in
  let json =
    Chrome.export ~thread_names:r.Interp.thread_names ~events:r.Interp.events
      ()
  in
  check Alcotest.string "byte-identical to fixture" expected json

(* ------------------------------------------------------------------ *)
(* Campaign aggregation *)

let test_campaign_metrics_jobs_identical () =
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  let spec =
    Campaign.spec ~label:"mcs"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.T11r_litmus.Registry.build
  in
  let seq = Campaign.run spec ~n:40 ~jobs:1 [] in
  let par = Campaign.run spec ~n:40 ~jobs:4 [] in
  check Alcotest.bool "totals nonzero" true
    (seq.Campaign.metrics.Metrics.m_ticks > 0);
  check Alcotest.bool "metrics identical at jobs 1 vs 4" true
    (Metrics.equal seq.Campaign.metrics par.Campaign.metrics);
  check Alcotest.bool "whole report identical" true (Campaign.equal seq par)

let test_campaign_metrics_sum_runs () =
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  let spec =
    Campaign.spec ~label:"mcs"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.T11r_litmus.Registry.build
  in
  let c = Campaign.run spec ~n:10 ~jobs:1 [] in
  let by_hand =
    Array.fold_left
      (fun acc (r : Interp.result) -> Metrics.add acc r.Interp.metrics)
      Metrics.zero c.Campaign.results
  in
  check Alcotest.bool "aggregate = fold of per-run metrics" true
    (Metrics.equal by_hand c.Campaign.metrics)

(* ------------------------------------------------------------------ *)
(* Replay divergence is checked on every replay (no debug_trace) *)

let counted_prog steps () =
  Api.program ~name:"counted" (fun () ->
      let a = Api.Atomic.create 0 in
      for _ = 1 to steps do
        Api.Atomic.store a 1
      done;
      ignore (Api.Atomic.load a))

let record_counted dir steps =
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      1L 2L
  in
  let r =
    Interp.run ~world:(World.create ~seed:5L ()) rc (counted_prog steps ())
  in
  check Alcotest.bool "recording completed" true
    (r.Interp.outcome = Interp.Completed);
  check Alcotest.bool "no TRACE file without debug_trace" false
    (Sys.file_exists (Filename.concat dir "TRACE"))

let replay_counted dir steps =
  let pc = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let pc = { pc with Conf.on_desync = Conf.Resync } in
  Interp.run ~world:(World.create ~seed:6L ()) pc (counted_prog steps ())

let test_replay_faithful_no_divergence () =
  let dir = tmpdir () in
  record_counted dir 3;
  let r = replay_counted dir 3 in
  check Alcotest.(option string) "no divergence" None r.Interp.trace_divergence

let test_replay_divergence_without_debug_trace () =
  (* The recording has no TRACE file, yet replaying a program with an
     extra op must still be flagged — via the META op-count fallback. *)
  let dir = tmpdir () in
  record_counted dir 3;
  let r = replay_counted dir 4 in
  match r.Interp.trace_divergence with
  | Some _ -> ()
  | None -> Alcotest.fail "op-count divergence not reported"

let test_replay_divergence_shorter_run () =
  let dir = tmpdir () in
  record_counted dir 4;
  let r = replay_counted dir 3 in
  match r.Interp.trace_divergence with
  | Some _ -> ()
  | None -> Alcotest.fail "op-count divergence not reported"

(* ------------------------------------------------------------------ *)
(* Detector packed-representation bounds *)

let test_detector_rejects_huge_tid () =
  let det = T11r_race.Detector.create () in
  let var = T11r_race.Detector.fresh_var det ~name:"v" in
  let st = T11r_mem.Tstate.create ~tid:(1 lsl 20) in
  (match T11r_race.Detector.write det var ~st with
  | () -> Alcotest.fail "tid 2^20 accepted"
  | exception Failure msg ->
      check Alcotest.bool "names the limit" true
        (String.length msg > 0 && msg.[0] = 'D'));
  (* One below the limit is fine. *)
  let st_ok = T11r_mem.Tstate.create ~tid:((1 lsl 20) - 1) in
  T11r_race.Detector.write det var ~st:st_ok

let test_detector_rejects_huge_epoch () =
  let det = T11r_race.Detector.create () in
  let var = T11r_race.Detector.fresh_var det ~name:"v" in
  let st = T11r_mem.Tstate.create ~tid:1 in
  (* Simulate a runaway epoch directly through the cache mirror — the
     check must fire before the packed word is built. *)
  st.T11r_mem.Tstate.ep <- max_int;
  match T11r_race.Detector.read det var ~st with
  | () -> Alcotest.fail "epoch max_int accepted"
  | exception Failure _ -> ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "ring basic" `Quick test_ring_basic;
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "kind names" `Quick test_kind_names_distinct;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "monoid" `Quick test_metrics_monoid;
          Alcotest.test_case "json" `Quick test_metrics_json;
        ] );
      ( "interp",
        [
          Alcotest.test_case "collects metrics" `Quick test_run_collects_metrics;
          Alcotest.test_case "events off by default" `Quick
            test_events_off_by_default;
          Alcotest.test_case "events on when enabled" `Quick
            test_events_on_when_enabled;
          Alcotest.test_case "capacity drops oldest" `Quick
            test_events_capacity_drops_oldest;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export validates" `Quick test_export_validates;
          Alcotest.test_case "escaping" `Quick test_export_escapes;
          Alcotest.test_case "rejects garbage" `Quick
            test_validate_rejects_garbage;
          Alcotest.test_case "golden fig1 trace" `Quick test_golden_fig1_trace;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "jobs identical" `Quick
            test_campaign_metrics_jobs_identical;
          Alcotest.test_case "sum of runs" `Quick test_campaign_metrics_sum_runs;
        ] );
      ( "replay",
        [
          Alcotest.test_case "faithful" `Quick test_replay_faithful_no_divergence;
          Alcotest.test_case "extra op flagged" `Quick
            test_replay_divergence_without_debug_trace;
          Alcotest.test_case "missing op flagged" `Quick
            test_replay_divergence_shorter_run;
        ] );
      ( "detector-bounds",
        [
          Alcotest.test_case "huge tid" `Quick test_detector_rejects_huge_tid;
          Alcotest.test_case "huge epoch" `Quick test_detector_rejects_huge_epoch;
        ] );
    ]
