(* Tests for bounded systematic schedule exploration (stateless model
   checking) and the harness's exploration reports. *)

open T11r_vm
module Conf = Tsan11rec.Conf
module Systematic = T11r_harness.Systematic
module Campaign = T11r_harness.Campaign
module Interp = Tsan11rec.Interp
module Decision = T11r_race.Decision

let check = Alcotest.check

let tmp_journal tag =
  let f = Filename.temp_file ("systematic-" ^ tag) ".journal" in
  Sys.remove f;
  f

let enabled_sizes (r : Interp.result) =
  Array.map (fun d -> Array.length d.Decision.d_enabled) r.Interp.decisions

let decided_preemptions (ds : Decision.t array) =
  let n = ref 0 in
  Array.iteri
    (fun k (d : Decision.t) ->
      if k > 0 then begin
        let prev = ds.(k - 1).Decision.d_tid in
        if d.Decision.d_tid <> prev && Array.mem prev d.Decision.d_enabled then
          incr n
      end)
    ds;
  !n

(* The choice counts of [prefix]'s decisions when it runs again, on a
   fresh world, under the exploration's configuration. *)
let rerun_counts ~world_seed ~seeds:(s1, s2) ~tick_budget ~build prefix =
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:(Conf.Guided { prefix; observed = ref [] }) ())
      s1 s2
  in
  let conf =
    match tick_budget with
    | Some b when b < conf.Conf.max_ticks -> Conf.with_max_ticks conf b
    | _ -> conf
  in
  enabled_sizes
    (Interp.run ~world:(T11r_env.World.create ~seed:world_seed ()) conf
       (build ()))

(* Check every run journalled at [path]; the longest decision array. *)
let check_runs ~rerun path =
  let _, entries, _ =
    T11r_util.Journal.load_pinned ~kind:"systematic"
      ~schema:Systematic.journal_schema ~payload:"sys" path
  in
  List.fold_left
    (fun depth ((prefix, run) : int array * Interp.result) ->
      let where =
        String.concat "," (Array.to_list (Array.map string_of_int prefix))
      in
      if rerun prefix <> enabled_sizes run then
        Alcotest.failf "prefix [%s]: rerun choice counts differ from decisions"
          where;
      (* Guided's pick, read back from each decision: the prefix's
         index (0 beyond it) into the enabled set, clamped to it. *)
      Array.iteri
        (fun k (d : Decision.t) ->
          let n = Array.length d.Decision.d_enabled in
          let idx = if k < Array.length prefix then min prefix.(k) (n - 1) else 0 in
          if d.Decision.d_enabled.(idx) <> d.Decision.d_tid then
            Alcotest.failf "prefix [%s]: tick %d picked %d, not enabled index %d"
              where k d.Decision.d_tid idx)
        run.Interp.decisions;
      let m = run.Interp.metrics.T11r_obs.Metrics.m_preemptions in
      let d = decided_preemptions run.Interp.decisions in
      if m <> d then
        Alcotest.failf "prefix [%s]: %d preemptions counted, %d decided" where
          m d;
      max depth (Array.length run.Interp.decisions))
    0 entries

(* Every exploration in this file goes through [explore], which
   journals the walk and then checks each run it executed: the
   enabled-set sizes of the decisions the run's prefix makes when it
   executes again are those of the run's own decisions, and the
   preemptions its metrics count are the ones its decisions show (a
   switch away from a thread that was still enabled). [~per_run:false]
   skips the check for a walk whose journal would be too large to
   write and read back in a unit test. *)
(* The outcome histogram and distinct races the explorer's aggregate
   gave before it counted per constructor: journalled results in
   analysis order folded into a string-keyed [Hashtbl] (listed by
   [Hashtbl.fold], then sorted by key, the order the explorer lists
   its histogram in) and a polymorphic race set. *)
let reference_aggregate path =
  let outcomes = Hashtbl.create 4 and seen = Hashtbl.create 16 in
  let races = ref [] in
  List.iter
    (fun (e : T11r_util.Journal.entry) ->
      if e.kind = "sys" then begin
        let _, (r : Interp.result) = Marshal.from_string e.payload 0 in
        List.iter
          (fun race ->
            if not (Hashtbl.mem seen race) then begin
              Hashtbl.replace seen race ();
              races := race :: !races
            end)
          r.Interp.races;
        let k = T11r_harness.Outcome.key r.Interp.outcome in
        Hashtbl.replace outcomes k
          (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
      end)
    (fst (T11r_util.Journal.read path));
  ( List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []),
    List.rev !races )

let explore ?(per_run = true) ?max_runs ?jobs ?dpor ?deadline_s ?tick_budget
    ?(world_seed = 7L) ?(seeds = (11L, 13L)) ?journal ?cancel ~build () =
  let path =
    match journal with
    | None when per_run -> Some (tmp_journal "runs")
    | _ -> journal
  in
  let r =
    Systematic.explore ?max_runs ?jobs ?dpor ?deadline_s ?tick_budget
      ~world_seed ~seeds ?journal:path ?cancel ~build ()
  in
  (match path with
  | Some path when per_run ->
      let depth =
        check_runs path
          ~rerun:(rerun_counts ~world_seed ~seeds ~tick_budget ~build)
      in
      if journal = None then begin
        check Alcotest.int "max_depth_seen = longest decision array" depth
          r.Systematic.max_depth_seen;
        let outcomes, races = reference_aggregate path in
        check Alcotest.bool "outcomes = the Hashtbl fold's, sorted by key" true
          (outcomes = r.Systematic.outcomes);
        check Alcotest.bool "races = the polymorphic set's, in order" true
          (races = r.Systematic.races);
        Sys.remove path
      end
  | _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* Systematic exploration *)

let two_by_two () =
  Api.program ~name:"2x2" (fun () ->
      let a = Api.Atomic.create 0 in
      let w () =
        ignore (Api.Atomic.fetch_add a 1);
        ignore (Api.Atomic.fetch_add a 1)
      in
      let t1 = Api.Thread.spawn w in
      let t2 = Api.Thread.spawn w in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_exhausts_small_program () =
  let r = explore ~build:two_by_two () in
  check Alcotest.bool "complete" true r.complete;
  (* All schedules terminate with the correct count; more than one
     schedule exists (the two workers interleave). *)
  check Alcotest.bool "multiple schedules" true (r.runs > 1);
  check
    Alcotest.(list (pair string int))
    "all complete"
    [ ("completed", r.runs) ]
    (List.sort compare r.outcomes)

let test_single_thread_single_schedule () =
  let prog () =
    Api.program ~name:"solo" (fun () ->
        let a = Api.Atomic.create 0 in
        Api.Atomic.store a 1;
        Api.Atomic.store a 2)
  in
  let r = explore ~build:prog () in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.int "exactly one schedule" 1 r.runs

let abba () =
  Api.program ~name:"abba" (fun () ->
      let a = Api.Mutex.create ~name:"A" () in
      let b = Api.Mutex.create ~name:"B" () in
      let t1 =
        Api.Thread.spawn (fun () ->
            Api.Mutex.lock a;
            Api.Mutex.lock b;
            Api.Mutex.unlock b;
            Api.Mutex.unlock a)
      in
      let t2 =
        Api.Thread.spawn (fun () ->
            Api.Mutex.lock b;
            Api.Mutex.lock a;
            Api.Mutex.unlock a;
            Api.Mutex.unlock b)
      in
      Api.Thread.join t1;
      Api.Thread.join t2)

let test_finds_reachable_deadlock () =
  (* The whole point of systematic exploration: the AB-BA deadlock is
     guaranteed to be found, not merely likely. *)
  let r = explore ~build:abba () in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "deadlock schedules found" true (r.deadlock_schedules > 0)

let test_verifies_fixed_dekker () =
  (* Exhausting the schedule space with zero races is a bounded
     verification of the repaired protocol. *)
  let e =
    List.find
      (fun (e : T11r_litmus.Registry.entry) -> e.name = "dekker-fences-fixed")
      T11r_litmus.Registry.fixed
  in
  let r = explore ~max_runs:5000 ~build:e.build () in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.int "no racy schedule exists" 0 r.racy_schedules

let test_finds_buggy_dekker_races () =
  let e = Option.get (T11r_litmus.Registry.find "dekker-fences") in
  let r = explore ~max_runs:5000 ~build:e.build () in
  check Alcotest.bool "complete" true r.complete;
  check Alcotest.bool "racy schedules found" true (r.racy_schedules > 0);
  check Alcotest.bool "distinct races reported" true (List.length r.races >= 1)

let test_budget_respected () =
  let r = explore ~max_runs:5 ~build:abba () in
  check Alcotest.int "stopped at budget" 5 r.runs;
  check Alcotest.bool "incomplete" false r.complete

(* A budget below one run is refused before anything executes, as
   [Campaign.run] refuses [n < 1]: it used to run one schedule and
   report the budget hit. *)
let test_budget_below_one_refused () =
  let builds = ref 0 in
  let build () =
    incr builds;
    abba ()
  in
  List.iter
    (fun max_runs ->
      Alcotest.check_raises
        (Printf.sprintf "max_runs %d" max_runs)
        (Invalid_argument "Systematic.explore: max_runs < 1")
        (fun () -> ignore (Systematic.explore ~max_runs ~build ())))
    [ 0; -1 ];
  check Alcotest.int "nothing executed" 0 !builds

let test_exploration_deterministic () =
  let go () = explore ~build:two_by_two () in
  let r1 = go () in
  let r2 = go () in
  check Alcotest.int "same run count" r1.runs r2.runs;
  check Alcotest.bool "same outcomes" true (r1.outcomes = r2.outcomes)

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction *)

let distinct_outcome_keys (r : Systematic.result) =
  List.sort_uniq compare (List.map fst r.Systematic.outcomes)

let distinct_races (r : Systematic.result) =
  List.sort_uniq compare r.Systematic.races

(* The DPOR correctness bar: on every litmus benchmark whose schedule
   space the exhaustive walk exhausts within budget, the reduced walk
   must exhaust too, reach exactly the same distinct outcomes and the
   same distinct races, and spend no more runs. The budget covers the
   fixed variants as well (barrier-fixed's naive walk exhausts at 5,033
   runs), and the set of benchmarks judged is pinned, so a change that
   stops a naive walk exhausting cannot quietly drop it from the check. *)
let test_dpor_equals_exhaustive_on_litmus () =
  let budget = 6000 in
  let entries =
    (T11r_litmus.Registry.fig1 :: T11r_litmus.Registry.all)
    @ T11r_litmus.Registry.fixed
  in
  let exhausted = ref [] in
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      (* ms-queue's capped naive walk would journal 6,000 runs of
         ~70 kB each; its DPOR runs are checked by the golden pin. *)
      let naive =
        explore ~per_run:(e.name <> "ms-queue") ~max_runs:budget ~dpor:false
          ~build:e.build ()
      in
      if naive.complete then begin
        exhausted := e.name :: !exhausted;
        let dp = explore ~max_runs:budget ~build:e.build () in
        check Alcotest.bool (e.name ^ ": dpor complete") true dp.complete;
        check Alcotest.bool
          (Printf.sprintf "%s: dpor runs (%d) <= naive runs (%d)" e.name
             dp.runs naive.runs)
          true (dp.runs <= naive.runs);
        check
          Alcotest.(list string)
          (e.name ^ ": same distinct outcomes")
          (distinct_outcome_keys naive) (distinct_outcome_keys dp);
        check Alcotest.bool (e.name ^ ": same distinct races") true
          (distinct_races naive = distinct_races dp)
      end)
    entries;
  check
    Alcotest.(list string)
    "benchmarks judged (naive walk exhausted)"
    [ "fig1"; "barrier"; "dekker-fences"; "linuxrwlocks"; "mcs-lock";
      "mpmc-queue"; "barrier-fixed"; "dekker-fences-fixed" ]
    (List.rev !exhausted)

(* Same property as a qcheck sweep over scheduler seed pairs: the
   reduction must not depend on which weak-memory read stream the run
   happens to draw (the PRNG-coupling clause of the dependence
   relation is what makes this hold). *)
let qcheck_dpor_equiv_seeds =
  QCheck.Test.make ~count:8 ~name:"dpor = exhaustive across seeds"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let seeds = (Int64.of_int (a + 1), Int64.of_int (b + 101)) in
      List.for_all
        (fun build ->
          let naive =
            explore ~max_runs:5000 ~dpor:false ~seeds ~build ()
          in
          let dp = explore ~max_runs:5000 ~seeds ~build () in
          naive.Systematic.complete && dp.Systematic.complete
          && distinct_outcome_keys naive = distinct_outcome_keys dp
          && distinct_races naive = distinct_races dp
          && dp.Systematic.runs <= naive.Systematic.runs)
        [ two_by_two; abba ])

let test_dpor_actually_reduces () =
  let naive = explore ~max_runs:5000 ~dpor:false ~build:abba () in
  let dp = explore ~max_runs:5000 ~build:abba () in
  check Alcotest.bool "both complete" true (naive.complete && dp.complete);
  check Alcotest.bool
    (Printf.sprintf "strictly fewer runs (%d < %d)" dp.runs naive.runs)
    true
    (dp.runs < naive.runs);
  check Alcotest.bool "deadlock still found" true (dp.deadlock_schedules > 0)

(* ------------------------------------------------------------------ *)
(* The incremental happens-before index against the O(path) reference *)

module Hb = T11r_race.Hb
module D = T11r_race.Decision

(* A well-formed decision over threads 0..3: the chosen thread is
   enabled, the enabled set is ascending, a few atomic locations and
   sync ids (>= 0), spawn/join targets, syscalls and PRNG draws. Keys
   are mostly small, but also drawn from a few sparse ones (0, past a
   gap, into the thousands; targets up to 40), often enough that
   events collide on them too, which grows the index's dense per-key
   rows. *)
let key_gen small =
  QCheck.Gen.(
    frequency
      [ (6, int_range 0 small); (2, oneofl [ 0; 37; 1000; 4095 ]) ])

let target_gen =
  QCheck.Gen.(frequency [ (6, int_range 0 4); (1, oneofl [ 9; 40 ]) ])

let decision_gen =
  QCheck.Gen.(
    let tid = int_range 0 3 in
    let* d_tid = tid in
    let* others = list_size (int_range 0 3) tid in
    let d_enabled = Array.of_list (List.sort_uniq compare (d_tid :: others)) in
    let* d_foot =
      frequency
        [
          (2, return D.F_local);
          ( 6,
            map2
              (fun l k -> D.F_atomic (l, k))
              (key_gen 2)
              (oneofl [ D.Acc_read; D.Acc_write; D.Acc_update ]) );
          (2, return D.F_fence);
          ( 3,
            map2
              (fun x y -> D.F_sync (x, y))
              (key_gen 3)
              (oneof [ return (-1); key_gen 3 ]) );
          (1, map (fun t -> D.F_spawn t) target_gen);
          (1, map (fun t -> D.F_join t) target_gen);
          (1, map (fun n -> D.F_syscall n) (int_range 0 2));
          (1, return D.F_global);
        ]
    in
    let* d_draws = frequency [ (3, return 0); (1, int_range 1 2) ] in
    let* d_rand = if d_draws > 0 then bool else return false in
    return { D.d_tid; d_enabled; d_foot; d_draws; d_rand; d_lock = D.L_none })

let pp_decision (d : D.t) =
  let foot =
    match d.d_foot with
    | D.F_local -> "local"
    | D.F_atomic (l, k) ->
        Printf.sprintf "atomic(%d,%s)" l
          (match k with
          | D.Acc_read -> "r"
          | D.Acc_write -> "w"
          | D.Acc_update -> "u")
    | D.F_fence -> "fence"
    | D.F_sync (x, y) -> Printf.sprintf "sync(%d,%d)" x y
    | D.F_spawn t -> Printf.sprintf "spawn(%d)" t
    | D.F_join t -> Printf.sprintf "join(%d)" t
    | D.F_syscall n -> Printf.sprintf "syscall(%d)" n
    | D.F_global -> "global"
  in
  Printf.sprintf "T%d[%s] %s draws=%d%s" d.d_tid
    (String.concat "," (Array.to_list (Array.map string_of_int d.d_enabled)))
    foot d.d_draws
    (if d.d_rand then " rand" else "")

(* A DFS-shaped walk: push an event, or pop the newest one. *)
type hb_op = Push of D.t | Pop

let hb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map (function Push d -> pp_decision d | Pop -> "pop") ops))
    QCheck.Gen.(
      list_size (int_range 1 80)
        (frequency [ (4, map (fun d -> Push d) decision_gen); (1, return Pop) ]))

let trim c =
  let n = ref (Array.length c) in
  while !n > 0 && c.(!n - 1) = 0 do
    decr n
  done;
  Array.sub c 0 !n

(* Walks that cross the index's growth edges both ways: bursts of up to
   40 pushes or pops, 150-400 ops deep, so the path outgrows the
   per-position arrays (64), the flat clocks and the undo log (256
   entries), a spawn or join of thread 9 or 40 widens every row while
   the undo log holds cells of the narrower layout, and bursts of pops
   then unwind across those edges. *)
let hb_ops_deep =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map (function Push d -> pp_decision d | Pop -> "pop") ops))
    QCheck.Gen.(
      let burst =
        let* k = int_range 1 40 in
        frequency
          [
            (3, list_repeat k (map (fun d -> Push d) decision_gen));
            (1, return (List.init k (fun _ -> Pop)));
          ]
      in
      map List.concat (list_size (int_range 8 20) burst))

(* [e]'s reversible races as [Hb.add] reports them, after appending it:
   (position, initial thread or [None]) in ascending positions. *)
let push hb (e : D.t) =
  let n = Hb.add hb ~enabled:e.D.d_enabled e in
  List.init n (fun r ->
      let q = Hb.race_initial hb r in
      (Hb.race_pos hb r, if q < 0 then None else Some q))

(* Per event: the same clock, the same race set and the same backtrack
   additions as the O(path) analysis, and a key index that finds each
   thread's latest dependent event — across pushes and pops. *)
let hb_matches_reference ops =
  let hb = Hb.create () in
  let path = ref [||] in
  List.for_all
    (function
      | Pop ->
          let k = Array.length !path in
          if k > 0 then begin
            Hb.pop hb;
            path := Array.sub !path 0 (k - 1)
          end;
          Hb.length hb = Array.length !path
      | Push e ->
          let k = Array.length !path in
          let latest_ok =
            List.for_all
              (fun p ->
                let want = ref (-1) in
                Array.iteri
                  (fun m (f : Ref_model.Dpor.frame) ->
                    if f.ev.D.d_tid = p && Ref_model.Dpor.dep f.ev e then
                      want := m)
                  !path;
                Hb.last_dep hb e p = !want)
              [ 0; 1; 2; 3; 4 ]
          in
          let clk, races = Ref_model.Dpor.analyse !path e in
          let got = push hb e in
          let want =
            List.map
              (fun (i, cand) ->
                (i, match cand with [] -> None | cs -> Some (List.fold_left min max_int cs)))
              races
          in
          path :=
            Array.append !path
              [| { Ref_model.Dpor.ev = e; enabled = e.D.d_enabled; clk } |];
          latest_ok && got = want
          && trim (Hb.clock hb k) = trim clk
          && Hb.length hb = k + 1)
    ops

let qcheck_hb_matches_reference =
  QCheck.Test.make ~count:500 ~name:"Hb = O(path) race analysis" hb_ops
    hb_matches_reference

let qcheck_hb_growth_edges =
  QCheck.Test.make ~count:60 ~name:"Hb = O(path) across growth edges" hb_ops_deep
    (fun ops ->
      hb_matches_reference ops
      &&
      (* Every clock still on the path survives the later growth. *)
      let hb = Hb.create () in
      let path = ref [] in
      List.iter
        (function
          | Push e ->
              ignore (push hb e);
              path := e :: !path
          | Pop -> (
              match !path with
              | [] -> ()
              | _ :: rest ->
                  Hb.pop hb;
                  path := rest))
        ops;
      let fresh = Hb.create () in
      List.iter
        (fun (e : D.t) -> ignore (push fresh e))
        (List.rev !path);
      List.for_all
        (fun m -> trim (Hb.clock hb m) = trim (Hb.clock fresh m))
        (List.init (Hb.length hb) Fun.id))

let qcheck_hb_index_is_dep =
  QCheck.Test.make ~count:2000 ~name:"Hb key index = dep, pairwise"
    QCheck.(
      make
        ~print:(fun (a, b) -> pp_decision a ^ " / " ^ pp_decision b)
        Gen.(pair decision_gen decision_gen))
    (fun (a, b) ->
      let hb = Hb.create () in
      ignore (push hb a);
      let d = Ref_model.Dpor.dep a b in
      Hb.dep a b = d
      && Hb.dep b a = d
      && Hb.last_dep hb b a.D.d_tid = if d then 0 else -1)

(* ------------------------------------------------------------------ *)
(* Golden exploration pin: run counts, completeness, distinct outcome
   keys and distinct races of the default DPOR walk at one seed pair.
   A change to what DPOR explores fails here. *)

let golden =
  [
    ("fig1", 180, true, [ "completed" ], []);
    ( "dekker-fences", 204, true, [ "completed" ],
      [
        "data race (write-write) on critical: T1 vs T2";
        "data race (write-write) on critical: T2 vs T1";
        "data race (write-read) on critical: T1 vs T2";
        "data race (write-read) on critical: T2 vs T1";
      ] );
    ( "mcs-lock", 170, true, [ "completed" ],
      [ "data race (write-read) on mcsdata: T1 vs T2" ] );
    ( "linuxrwlocks", 307, true, [ "completed" ],
      [ "data race (write-read) on rwdata: T1 vs T2" ] );
    ( "mpmc-queue", 79, true, [ "completed" ],
      [ "data race (write-read) on slot0: T1 vs T2" ] );
    ( "barrier", 21, true, [ "completed" ],
      [ "data race (write-read) on payload: T1 vs T2" ] );
    ("barrier-fixed", 427, true, [ "completed" ], []);
    ("dekker-fences-fixed", 118, true, [ "completed" ], []);
    ("mcs-lock-fixed", 1358, true, [ "completed" ], []);
    ("mpmc-queue-fixed", 727, true, [ "completed" ], []);
    ( "ms-queue", 12, false, [ "completed" ],
      [
        "data race (write-write) on op_count: T1 vs T2";
        "data race (write-read) on op_count: T1 vs T2";
      ] );
  ]

let test_golden_exploration () =
  let entries =
    T11r_litmus.Registry.(fig1 :: (all @ fixed))
  in
  List.iter
    (fun (name, runs, complete, keys, races) ->
      let e =
        List.find (fun (e : T11r_litmus.Registry.entry) -> e.name = name) entries
      in
      let max_runs = if name = "ms-queue" then 12 else 10_000 in
      let r =
        explore ~max_runs ~seeds:(4L, 7923L) ~world_seed:4L
          ~build:e.build ()
      in
      check Alcotest.int (name ^ ": runs") runs r.runs;
      check Alcotest.bool (name ^ ": complete") complete r.complete;
      check Alcotest.(list string) (name ^ ": outcome keys") keys
        (distinct_outcome_keys r);
      check Alcotest.(list string) (name ^ ": races") races
        (List.map (Format.asprintf "%a" T11r_race.Report.pp) (distinct_races r)))
    golden

(* ------------------------------------------------------------------ *)
(* Journal resume and jobs-independence *)

let read_file f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_jobs_identical_results_and_journal () =
  let j1 = tmp_journal "j1" and j4 = tmp_journal "j4" in
  let r1 = explore ~jobs:1 ~journal:j1 ~build:abba () in
  let r4 = explore ~jobs:4 ~journal:j4 ~build:abba () in
  check Alcotest.bool "results identical at jobs 1 and 4" true (r1 = r4);
  check Alcotest.bool "journal bytes identical at jobs 1 and 4" true
    (read_file j1 = read_file j4);
  Sys.remove j1;
  Sys.remove j4

(* The resumed-runs counter regression: cache hits used to be counted
   with [incr] on pool worker domains, losing updates at --jobs > 1.
   Now every hit is counted on the supervising domain, so the count is
   exact — a full resume replays every run — at every jobs value. *)
let test_resumed_counts_exact () =
  let j = tmp_journal "resume" in
  let fresh = explore ~journal:j ~build:two_by_two () in
  check Alcotest.int "fresh run resumes nothing" 0 fresh.resumed_runs;
  let again1 = explore ~jobs:1 ~journal:j ~build:two_by_two () in
  check Alcotest.int "jobs 1: every run resumed" fresh.runs
    again1.resumed_runs;
  check Alcotest.int "jobs 1: same total" fresh.runs again1.runs;
  let again4 = explore ~jobs:4 ~journal:j ~build:two_by_two () in
  check Alcotest.int "jobs 4: every run resumed" fresh.runs
    again4.resumed_runs;
  check Alcotest.int "jobs 4: same total" fresh.runs again4.runs;
  Sys.remove j

let test_resume_partial_budget () =
  let j = tmp_journal "partial" in
  let partial =
    explore ~max_runs:5 ~journal:j ~build:two_by_two ()
  in
  check Alcotest.int "budget respected" 5 partial.runs;
  check Alcotest.bool "incomplete" false partial.complete;
  let resumed = explore ~journal:j ~build:two_by_two () in
  check Alcotest.int "exactly the journalled prefixes resumed" 5
    resumed.resumed_runs;
  check Alcotest.bool "complete after resume" true resumed.complete;
  let clean = explore ~build:two_by_two () in
  check Alcotest.bool "resumed result = clean result" true
    ({ resumed with Systematic.resumed_runs = 0 } = clean);
  Sys.remove j

let test_sigkill_then_resume_dpor () =
  let j = tmp_journal "sigkill" in
  let max_runs = 2000 in
  let build = T11r_litmus.Registry.fig1.build in
  let clean = explore ~max_runs ~build () in
  (* Unix.fork is off-limits once the pool has ever spawned a domain,
     so the victim is a dedicated executable exploring the same
     workload (slowed per run so the kill lands mid-exploration). *)
  let child =
    Filename.concat (Filename.dirname Sys.executable_name) "resume_child.exe"
  in
  let pid =
    Unix.create_process child
      [| child; "systematic"; j; string_of_int max_runs |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.08;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  let resumed = explore ~max_runs ~journal:j ~build () in
  check Alcotest.bool "complete after resume" true resumed.complete;
  check Alcotest.bool "SIGKILLed-then-resumed result = clean result" true
    ({ resumed with Systematic.resumed_runs = 0 } = clean);
  Sys.remove j

(* ------------------------------------------------------------------ *)
(* Per-run supervision inside the exploration *)

(* A thread that spins forever: every schedule runs into the tick
   budget, the exploration itself stays bounded, and a journalled
   exploration of it resumes identically. *)
let spinner () =
  Api.program ~name:"spinner" (fun () ->
      let a = Api.Atomic.create 0 in
      let t =
        Api.Thread.spawn (fun () ->
            while Api.Atomic.load a = 0 do
              ()
            done)
      in
      Api.Thread.join t)

let test_tick_budget_bounds_runs () =
  let j = tmp_journal "ticks" in
  let r =
    explore ~max_runs:50 ~tick_budget:300 ~journal:j
      ~build:spinner ()
  in
  check Alcotest.bool "tick-limit outcomes seen" true
    (List.mem_assoc "tick-limit" r.outcomes);
  let resumed =
    explore ~max_runs:50 ~tick_budget:300 ~journal:j
      ~build:spinner ()
  in
  check Alcotest.int "timed-out prefixes resume identically" r.runs
    resumed.resumed_runs;
  check Alcotest.bool "same result on resume" true
    ({ resumed with Systematic.resumed_runs = 0 }
    = { r with Systematic.resumed_runs = 0 });
  Sys.remove j

(* ------------------------------------------------------------------ *)
(* Randomised exploration reports *)

let test_explore_report () =
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  let spec =
    Campaign.spec ~label:"mcs"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.build
  in
  let r = Campaign.run spec ~n:80 ~first:1 [] in
  check Alcotest.int "all runs counted" 80 r.Campaign.n;
  check Alcotest.bool "schedule diversity" true (r.distinct_schedules > 10);
  check Alcotest.bool "races sighted" true (r.sightings <> []);
  (match r.sightings with
  | s :: _ ->
      check Alcotest.bool "sightings counted" true (s.s_count >= 1);
      check Alcotest.bool "first seed valid" true
        (s.s_first >= 1 && s.s_first <= 80)
  | [] -> ());
  (* the report renders *)
  check Alcotest.bool "pp nonempty" true
    (String.length (Format.asprintf "%a" Campaign.pp r) > 0)

let test_explore_counts_outcomes () =
  let spec =
    Campaign.spec ~label:"abba"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      abba
  in
  let r = Campaign.run spec ~n:60 ~first:1 [] in
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 r.Campaign.outcomes in
  check Alcotest.int "histogram sums to runs" 60 total

(* ------------------------------------------------------------------ *)
(* Iterative context bounding *)

module Minimize = T11r_harness.Minimize

let test_icb_finds_abba_deadlock_at_bound_one () =
  (* The AB-BA deadlock needs exactly one preemption (between the two
     acquisitions); bound 0 cannot produce it. *)
  match Minimize.find_bug ~failure:Minimize.Deadlock ~build:abba () with
  | Minimize.Found f -> check Alcotest.int "minimal bound" 1 f.bound
  | Minimize.Not_found n -> Alcotest.failf "not found after %d runs" n

let test_icb_bound_zero_insufficient () =
  match
    Minimize.find_bug ~failure:Minimize.Deadlock ~max_bound:0 ~build:abba ()
  with
  | Minimize.Not_found _ -> ()
  | Minimize.Found f -> Alcotest.failf "deadlock at bound %d?" f.bound

let test_icb_finds_litmus_race_with_few_preemptions () =
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  match Minimize.find_bug ~failure:Minimize.Race ~build:e.build () with
  | Minimize.Found f ->
      check Alcotest.bool
        (Printf.sprintf "small bound (%d)" f.bound)
        true (f.bound <= 2);
      check Alcotest.bool "race captured" true (f.races <> [])
  | Minimize.Not_found n -> Alcotest.failf "not found after %d runs" n

let test_icb_seed_reproduces () =
  (* The returned seed pair must deterministically reproduce the failure. *)
  match Minimize.find_bug ~failure:Minimize.Deadlock ~build:abba () with
  | Minimize.Not_found _ -> Alcotest.fail "not found"
  | Minimize.Found f ->
      let conf =
        Conf.with_seeds
          (Conf.tsan11rec ~strategy:(Conf.Preempt_bounded f.bound) ())
          f.seed f.seed2
      in
      let r =
        Tsan11rec.Interp.run
          ~world:(T11r_env.World.create ~seed:7L ())
          conf (abba ())
      in
      (match r.Tsan11rec.Interp.outcome with
      | Tsan11rec.Interp.Deadlock _ -> ()
      | o ->
          Alcotest.failf "seed did not reproduce: %a" Tsan11rec.Interp.pp_outcome o)

(* Regression for the constant-seed2 bug: a race that can only manifest
   through a non-default weak-memory read choice. The reader waits
   (without synchronising) until the writer has completely finished, so
   the data accesses can never overlap in the schedule; the only way
   the detector can see them as concurrent is the reader's acquire load
   of [flag] observing the stale initial 0 instead of the release store
   of 1. With seed2 pinned to a constant the read-choice stream never
   varied across tries, so failures like this were only reachable if
   that one stream happened to pick the stale store. *)
let stale_publish () =
  Api.program ~name:"stale-publish" (fun () ->
      let data = Api.Var.create ~name:"data" 0 in
      let flag = Api.Atomic.create ~name:"flag" 0 in
      let done_ = Api.Atomic.create ~name:"done" 0 in
      let writer =
        Api.Thread.spawn ~name:"writer" (fun () ->
            Api.Var.set data 1;
            Api.Atomic.store ~mo:Api.Memord.Release flag 1;
            Api.Atomic.store ~mo:Api.Memord.Relaxed done_ 1)
      in
      let reader =
        Api.Thread.spawn ~name:"reader" (fun () ->
            (* Bounded, synchronisation-free wait for the writer. *)
            let budget = ref 64 in
            while
              !budget > 0 && Api.Atomic.load ~mo:Api.Memord.Relaxed done_ = 0
            do
              decr budget
            done;
            if
              !budget > 0
              && Api.Atomic.load ~mo:Api.Memord.Acquire flag = 0
            then Api.Var.set data 2)
      in
      Api.Thread.join writer;
      Api.Thread.join reader)

let test_icb_race_needs_stale_read () =
  match
    Minimize.find_bug ~failure:Minimize.Race ~max_bound:2 ~build:stale_publish
      ()
  with
  | Minimize.Not_found n ->
      Alcotest.failf "stale-read race not found (%d runs)" n
  | Minimize.Found f ->
      (* Reproduce with the returned seed pair and confirm the race
         really rides on a stale read. *)
      let conf =
        Conf.with_seeds
          (Conf.tsan11rec ~strategy:(Conf.Preempt_bounded f.bound) ())
          f.seed f.seed2
      in
      let r =
        Tsan11rec.Interp.run
          ~world:(T11r_env.World.create ~seed:7L ())
          conf (stale_publish ())
      in
      check Alcotest.bool "race reproduced" true
        (r.Tsan11rec.Interp.race_count > 0);
      check Alcotest.bool "stale read involved" true
        (r.Tsan11rec.Interp.metrics.T11r_obs.Metrics.m_stale_reads > 0)

let test_icb_clean_program_not_found () =
  let prog () =
    Api.program ~name:"clean" (fun () ->
        let m = Api.Mutex.create () in
        let ts =
          List.init 2 (fun _ ->
              Api.Thread.spawn (fun () -> Api.Mutex.with_lock m (fun () -> ())))
        in
        List.iter Api.Thread.join ts)
  in
  match
    Minimize.find_bug ~max_bound:2 ~tries_per_bound:30 ~build:prog ()
  with
  | Minimize.Not_found _ -> ()
  | Minimize.Found f ->
      Alcotest.failf "clean program 'failed' at bound %d" f.bound

(* Supervision regression: a run that only ever hits its tick budget is
   "no match" — the sweep spends its tries and reports Not_found
   instead of wedging on the livelock (each unsupervised try would burn
   the conf's default 5M-tick ceiling) or miscounting the cut-off as a
   failure. *)
let test_icb_tick_budget_is_no_match () =
  match
    Minimize.find_bug ~max_bound:1 ~tries_per_bound:3 ~tick_budget:500
      ~build:spinner ()
  with
  | Minimize.Not_found runs -> check Alcotest.int "all tries spent" 6 runs
  | Minimize.Found f ->
      Alcotest.failf "tick-limited run counted as a failure at bound %d"
        f.bound

(* An empty search is a usage error, not "no failure within bounds
   (0 runs)". *)
let test_icb_rejects_empty_search () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "find_bug accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let build = T11r_litmus.Registry.fig1.build in
  rejects "max_bound -1" (fun () -> Minimize.find_bug ~max_bound:(-1) ~build ());
  rejects "tries_per_bound 0" (fun () ->
      Minimize.find_bug ~tries_per_bound:0 ~build ())

(* ------------------------------------------------------------------ *)
(* Campaign aggregation and workload registry *)

let test_runner_aggregates () =
  let e = Option.get (T11r_litmus.Registry.find "dekker-fences") in
  let spec =
    Campaign.spec ~label:"dekker"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.build
  in
  let agg = Campaign.run spec ~n:50 [] in
  check Alcotest.int "n recorded" 50 agg.Campaign.n;
  check Alcotest.int "all runs kept" 50 (Array.length agg.results);
  check Alcotest.bool "times positive" true (agg.time_ms.T11r_util.Stats.mean > 0.0);
  check Alcotest.bool "rate within bounds" true
    (agg.race_rate >= 0.0 && agg.race_rate <= 100.0);
  check Alcotest.int "all completed" 50 agg.completed;
  let total = List.fold_left (fun acc (_, v) -> acc + v) 0 agg.outcomes in
  check Alcotest.int "outcome histogram total" 50 total

let test_runner_seeds_vary () =
  (* Different run indices must see different schedules (seed discipline). *)
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  let spec =
    Campaign.spec ~label:"mcs"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      e.build
  in
  let agg = Campaign.run spec ~n:30 [] in
  let traces =
    List.sort_uniq compare
      (List.map
         (fun r -> r.Tsan11rec.Interp.trace)
         (Array.to_list agg.Campaign.results))
  in
  check Alcotest.bool "distinct schedules across runs" true
    (List.length traces > 5)

let test_runner_overhead_and_throughput () =
  let e = Option.get (T11r_litmus.Registry.find "ms-queue") in
  let base label conf = Campaign.spec ~label ~base_conf:conf e.build in
  let mean_ms label conf =
    (Campaign.run (base label conf) ~n:5 []).time_ms.T11r_util.Stats.mean
  in
  let nat = mean_ms "native" Conf.native in
  let tsan = mean_ms "tsan11" Conf.tsan11 in
  check Alcotest.bool "native time positive" true (nat > 0.0);
  check Alcotest.bool "tsan11 slower than native" true (tsan /. nat > 1.0);
  (* work items per simulated second *)
  let throughput ms = 100.0 /. (ms /. 1000.0) in
  check Alcotest.bool "throughput inverse of time" true
    (throughput nat > throughput tsan)

let test_workload_registry_complete () =
  let names = T11r_harness.Workloads.names () in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " registered") true
        (List.mem expected names))
    [
      "barrier"; "chase-lev-deque"; "dekker-fences"; "linuxrwlocks";
      "mcs-lock"; "mpmc-queue"; "ms-queue"; "fig1"; "fig2-client"; "httpd";
      "pbzip"; "blackscholes"; "fluidanimate"; "streamcluster"; "bodytrack";
      "ferret"; "quakespasm"; "zandronum"; "zandronum-bug"; "sqlite-like";
      "htop-like";
    ];
  check Alcotest.bool "find miss" true (T11r_harness.Workloads.find "nope" = None)

let test_every_workload_runs_under_queue () =
  (* Smoke: every registered workload completes (or legitimately
     crashes, for the bug workload) under the queue strategy. *)
  List.iter
    (fun (w : T11r_harness.Workloads.t) ->
      let world = T11r_env.World.create ~seed:5L () in
      let build = w.w_instance world in
      let conf =
        Conf.with_policy
          (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ()) 1L 2L)
          w.w_policy
      in
      let r = Tsan11rec.Interp.run ~world conf (build ()) in
      match r.Tsan11rec.Interp.outcome with
      | Tsan11rec.Interp.Completed | Tsan11rec.Interp.Crashed _ -> ()
      | o ->
          Alcotest.failf "%s: unexpected outcome %a" w.w_name
            Tsan11rec.Interp.pp_outcome o)
    T11r_harness.Workloads.all

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "systematic"
    [
      ( "systematic",
        [
          Alcotest.test_case "exhausts small program" `Quick test_exhausts_small_program;
          Alcotest.test_case "single schedule" `Quick test_single_thread_single_schedule;
          Alcotest.test_case "finds deadlock" `Quick test_finds_reachable_deadlock;
          Alcotest.test_case "verifies fixed dekker" `Quick test_verifies_fixed_dekker;
          Alcotest.test_case "finds buggy dekker" `Quick test_finds_buggy_dekker_races;
          Alcotest.test_case "budget" `Quick test_budget_respected;
          Alcotest.test_case "budget below one refused" `Quick
            test_budget_below_one_refused;
          Alcotest.test_case "deterministic" `Quick test_exploration_deterministic;
        ] );
      ( "dpor",
        [
          Alcotest.test_case "equals exhaustive on litmus" `Slow
            test_dpor_equals_exhaustive_on_litmus;
          QCheck_alcotest.to_alcotest qcheck_dpor_equiv_seeds;
          Alcotest.test_case "actually reduces" `Quick test_dpor_actually_reduces;
          QCheck_alcotest.to_alcotest qcheck_hb_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_hb_index_is_dep;
          QCheck_alcotest.to_alcotest qcheck_hb_growth_edges;
          Alcotest.test_case "golden exploration pin" `Quick
            test_golden_exploration;
        ] );
      ( "resume",
        [
          Alcotest.test_case "jobs identical (results + journal)" `Quick
            test_jobs_identical_results_and_journal;
          Alcotest.test_case "resumed counts exact" `Quick
            test_resumed_counts_exact;
          Alcotest.test_case "partial budget resume" `Quick
            test_resume_partial_budget;
          Alcotest.test_case "sigkill then resume" `Slow
            test_sigkill_then_resume_dpor;
          Alcotest.test_case "tick budget supervision" `Quick
            test_tick_budget_bounds_runs;
        ] );
      ( "icb",
        [
          Alcotest.test_case "abba at bound 1" `Quick
            test_icb_finds_abba_deadlock_at_bound_one;
          Alcotest.test_case "bound 0 insufficient" `Quick
            test_icb_bound_zero_insufficient;
          Alcotest.test_case "litmus race few preemptions" `Quick
            test_icb_finds_litmus_race_with_few_preemptions;
          Alcotest.test_case "seed reproduces" `Quick test_icb_seed_reproduces;
          Alcotest.test_case "race needs stale read" `Quick
            test_icb_race_needs_stale_read;
          Alcotest.test_case "clean program" `Quick test_icb_clean_program_not_found;
          Alcotest.test_case "tick budget is no match" `Quick
            test_icb_tick_budget_is_no_match;
          Alcotest.test_case "empty search rejected" `Quick
            test_icb_rejects_empty_search;
        ] );
      ( "runner",
        [
          Alcotest.test_case "aggregates" `Quick test_runner_aggregates;
          Alcotest.test_case "seed discipline" `Quick test_runner_seeds_vary;
          Alcotest.test_case "overhead/throughput" `Quick
            test_runner_overhead_and_throughput;
          Alcotest.test_case "registry complete" `Quick test_workload_registry_complete;
          Alcotest.test_case "all workloads run" `Slow test_every_workload_runs_under_queue;
        ] );
      ( "explore",
        [
          Alcotest.test_case "report" `Quick test_explore_report;
          Alcotest.test_case "outcome histogram" `Quick test_explore_counts_outcomes;
        ] );
    ]
