(* The Conf builder API: name round-trips (qcheck), the validate
   accept/reject matrix, and the with_* setters. *)

module Conf = Tsan11rec.Conf

let qtest = QCheck_alcotest.to_alcotest

(* ---- name round-trips ---------------------------------------------- *)

(* Guided is deliberately excluded: it carries a schedule prefix and
   has no name syntax (strategy_of_name never produces it — guided
   hunting constructs it programmatically from the corpus). *)
let strategy_gen =
  QCheck.Gen.(
    oneof
      [
        return Conf.Random;
        return Conf.Queue;
        map (fun d -> Conf.Pct d) (int_range 0 64);
        map (fun d -> Conf.Delay_bounded d) (int_range 0 64);
        map (fun b -> Conf.Preempt_bounded b) (int_range 0 64);
      ])

let strategy_arb =
  QCheck.make ~print:Conf.strategy_name strategy_gen

let strategy_roundtrip =
  QCheck.Test.make ~name:"strategy_of_name inverts strategy_name" ~count:500
    strategy_arb (fun s ->
      Conf.strategy_of_name (Conf.strategy_name s) = Some s)

(* META's strategy names: every replayable schedule round-trips, and
   the two no replay can follow do not parse. *)
let sched_roundtrip =
  QCheck.Test.make ~name:"sched_of_name inverts sched_name" ~count:200
    QCheck.(option strategy_arb)
    (fun s ->
      let sched =
        match s with Some s -> Conf.Controlled s | None -> Conf.Os_model
      in
      Conf.sched_of_name (Conf.sched_name sched) = Some sched
      && Conf.sched_of_name "guided" = None
      && Conf.sched_of_name "bogus" = None)

let desync_arb =
  QCheck.make ~print:Conf.desync_mode_name
    QCheck.Gen.(oneofl [ Conf.Abort; Conf.Diagnose; Conf.Resync ])

let desync_roundtrip =
  QCheck.Test.make ~name:"desync_mode_of_name inverts desync_mode_name"
    ~count:100 desync_arb (fun m ->
      Conf.desync_mode_of_name (Conf.desync_mode_name m) = Some m)

let test_guided_has_no_name_syntax () =
  Alcotest.(check (option string))
    "guided does not parse" None
    (Option.map Conf.strategy_name (Conf.strategy_of_name "guided"));
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (bad ^ " rejected") true
        (Conf.strategy_of_name bad = None))
    [ "pct:"; "db:x"; "pb"; "rnd:1"; "" ]

(* ---- validate ------------------------------------------------------ *)

let ok_ t = match Conf.validate t with Ok _ -> true | Error _ -> false

let test_validate_accepts () =
  List.iter
    (fun (label, t) -> Alcotest.(check bool) label true (ok_ t))
    [
      ("default", Conf.default);
      ("native", Conf.native);
      ("tsan11", Conf.tsan11);
      ("rr_model", Conf.rr_model);
      ("tsan11+rr", Conf.tsan11_rr);
      ("tsan11rec", Conf.tsan11rec ());
      ("make defaults", Conf.make ());
      ( "guided in free mode",
        Conf.make
          ~strategy:(Conf.Guided { prefix = [| 0; 1 |]; observed = ref [] })
          () );
      (* A replay follows the strategy its demo's META names, so the
         configuration's strategy is no inconsistency. *)
      ( "guided under replay",
        Conf.make
          ~strategy:(Conf.Guided { prefix = [| 0 |]; observed = ref [] })
          ~mode:(Conf.Replay "d") () );
      (* Record + guided carries the decision metadata the predictive
         race analysis consumes. *)
      ( "guided under record",
        Conf.make
          ~strategy:(Conf.Guided { prefix = [| 0; 1 |]; observed = ref [] })
          ~mode:(Conf.Record "d") () );
      ("coverage on", Conf.with_coverage (Conf.tsan11rec ()) true);
      ("trace ring", Conf.with_trace (Conf.tsan11rec ()) ~capacity:16);
    ]

let test_validate_rejects () =
  List.iter
    (fun (label, t) -> Alcotest.(check bool) label false (ok_ t))
    [
      ("trace_capacity 0", Conf.make ~trace_capacity:0 ());
      ("trace_capacity negative", Conf.make ~trace_capacity:(-4) ());
      ("max_history 0", Conf.make ~max_history:0 ());
      ("max_ticks 0", Conf.make ~max_ticks:0 ());
      ("negative resched", Conf.make ~resched_ms:(-1) ());
      ("negative jitter", Conf.make ~queue_jitter_us:(-1) ());
      ("negative deadline", Conf.make ~deadline_s:(-0.5) ());
      ("negative var cost", { Conf.default with Conf.var_cost = -1 });
      ("negative vis cost", { Conf.default with Conf.vis_cost = -2 });
      ("negative record cost", { Conf.default with Conf.record_cost = -1 });
    ]

let test_validate_returns_conf () =
  (* Ok carries the validated configuration itself, so the builder
     chain can end with [validate |> Result.get_ok]. *)
  match Conf.validate (Conf.tsan11rec ()) with
  | Ok c -> Alcotest.(check string) "same conf" "tsan11rec-rnd" c.Conf.name
  | Error e -> Alcotest.fail e

(* ---- builders ------------------------------------------------------ *)

let test_make_overrides () =
  let c =
    Conf.make ~name:"custom" ~strategy:Conf.Queue ~max_history:3
      ~coverage:true ~on_desync:Conf.Resync ()
  in
  Alcotest.(check string) "name" "custom" c.Conf.name;
  Alcotest.(check bool) "strategy" true
    (c.Conf.sched = Conf.Controlled Conf.Queue);
  Alcotest.(check int) "max_history" 3 c.Conf.max_history;
  Alcotest.(check bool) "coverage" true c.Conf.coverage;
  Alcotest.(check bool) "on_desync" true (c.Conf.on_desync = Conf.Resync);
  (* unspecified fields come from ?base (default: Conf.default) *)
  Alcotest.(check int) "untouched field" Conf.default.Conf.max_ticks
    c.Conf.max_ticks;
  let c2 = Conf.make ~base:Conf.tsan11 ~coverage:true () in
  Alcotest.(check bool) "base preserved" true
    (c2.Conf.race_detection && c2.Conf.coverage)

let test_setters () =
  let base = Conf.tsan11rec () in
  Alcotest.(check bool) "with_coverage" true
    (Conf.with_coverage base true).Conf.coverage;
  let traced = Conf.with_trace base ~capacity:99 in
  Alcotest.(check bool) "with_trace enables" true traced.Conf.trace_events;
  Alcotest.(check int) "with_trace capacity" 99 traced.Conf.trace_capacity;
  Alcotest.(check int) "with_max_history" 5
    (Conf.with_max_history base 5).Conf.max_history;
  Alcotest.(check bool) "with_on_desync" true
    ((Conf.with_on_desync base Conf.Diagnose).Conf.on_desync = Conf.Diagnose);
  Alcotest.(check string) "with_name" "x" (Conf.with_name base "x").Conf.name;
  Alcotest.(check bool) "setters don't mutate" true
    (base.Conf.coverage = false)

let () =
  Alcotest.run "conf"
    [
      ( "names",
        [
          qtest strategy_roundtrip;
          qtest sched_roundtrip;
          qtest desync_roundtrip;
          Alcotest.test_case "guided unparsable" `Quick
            test_guided_has_no_name_syntax;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts" `Quick test_validate_accepts;
          Alcotest.test_case "rejects" `Quick test_validate_rejects;
          Alcotest.test_case "returns conf" `Quick test_validate_returns_conf;
        ] );
      ( "builders",
        [
          Alcotest.test_case "make overrides" `Quick test_make_overrides;
          Alcotest.test_case "setters" `Quick test_setters;
        ] );
    ]
