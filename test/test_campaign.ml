(* The parallel campaign engine: Pool sharding, Campaign determinism
   across worker counts, the race-free tmpdir helper, journal
   durability and schema pinning. The load-bearing property throughout is
   that results are a function of the run index alone, so any [jobs]
   produces bit-identical aggregates. *)

module Conf = Tsan11rec.Conf
module World = T11r_env.World
module Fault = T11r_env.Fault
module Pool = T11r_harness.Pool
module Campaign = T11r_harness.Campaign
module Httpd = T11r_apps.Httpd

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_map_matches_array_init () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let expect = Array.init n (fun i -> (i * 37) mod 11) in
          let got = Pool.map ~jobs n (fun i -> (i * 37) mod 11) in
          Alcotest.(check (array int))
            (Printf.sprintf "map jobs=%d n=%d" jobs n)
            expect got)
        [ 0; 1; 2; 7; 64 ])
    [ 1; 2; 4; 9 ]

let test_map_error_lowest_index () =
  (* Several indices raise; the reported index must be the lowest,
     whatever order the domains reached them in. *)
  List.iter
    (fun jobs ->
      match
        Pool.map ~jobs 50 (fun i ->
            if i mod 7 = 3 then failwith (string_of_int i) else i)
      with
      | _ -> Alcotest.fail "expected Worker_error"
      | exception Pool.Worker_error (i, Failure m) ->
          Alcotest.(check int) "lowest failing index" 3 i;
          Alcotest.(check string) "original exception" "3" m
      | exception e -> raise e)
    [ 1; 4 ]

let test_fresh_dir_concurrent_unique () =
  let dirs = Pool.map ~jobs:4 100 (fun _ -> T11r_util.Tmp.fresh_dir ~prefix:"t11r_test" ()) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) (d ^ " exists") true (Sys.is_directory d))
    dirs;
  let distinct =
    Array.to_list dirs |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "all paths distinct" (Array.length dirs) distinct;
  Array.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) dirs

(* ------------------------------------------------------------------ *)
(* Campaign determinism                                                *)

let fig1_spec =
  Campaign.spec ~label:"fig1"
    ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
    T11r_litmus.Registry.fig1.build

let check_campaign_deterministic name spec n =
  let seq = Campaign.run spec ~n ~jobs:1 [] in
  let par = Campaign.run spec ~n ~jobs:4 [] in
  Alcotest.(check bool) (name ^ ": -j4 = -j1") true (Campaign.equal seq par);
  Alcotest.(check int) (name ^ ": jobs recorded") 4 par.Campaign.jobs;
  (* and re-running sequentially reproduces itself exactly *)
  let seq' = Campaign.run spec ~n ~jobs:1 [] in
  Alcotest.(check bool) (name ^ ": rerun stable") true (Campaign.equal seq seq')

let test_fig1_deterministic_across_jobs () =
  check_campaign_deterministic "fig1" fig1_spec 40

let test_httpd_faults_deterministic_across_jobs () =
  (* The stress case for per-run isolation: world setup opens
     connections the program closes over, and a per-run fault plan
     injects syscall failures. *)
  let cfg = { Httpd.default_config with queries = 24; clients = 3; workers = 3 } in
  let spec =
    Campaign.spec_io ~label:"httpd+faults"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      (fun i world ->
        World.set_faults world
          (Fault.uniform ~seed:(Int64.of_int ((i * 31) + 5)) ~p:0.05 ());
        Httpd.setup_world cfg world;
        fun () -> Httpd.program ~cfg ())
  in
  check_campaign_deterministic "httpd+faults" spec 8

let test_observer_order_and_count () =
  let seen = ref [] in
  let obs = Campaign.observer (fun i _r -> seen := i :: !seen) in
  let report = Campaign.run fig1_spec ~n:12 ~jobs:3 [ obs ] in
  Alcotest.(check (list int))
    "observer sees every run in ascending index order"
    (List.init 12 Fun.id)
    (List.rev !seen);
  Alcotest.(check int) "n" 12 report.Campaign.n

let test_runner_compat_across_jobs () =
  let a1 = Campaign.run fig1_spec ~n:20 ~jobs:1 [] in
  let a3 = Campaign.run fig1_spec ~n:20 ~jobs:3 [] in
  Alcotest.(check (float 0.0)) "race_rate" a1.Campaign.race_rate a3.Campaign.race_rate;
  Alcotest.(check (float 0.0)) "mean_ticks" a1.Campaign.mean_ticks a3.Campaign.mean_ticks;
  Alcotest.(check int) "completed" a1.Campaign.completed a3.Campaign.completed;
  Alcotest.(check bool) "outcome histograms" true (a1.Campaign.outcomes = a3.Campaign.outcomes)

(* distinct_schedules must equal an exact count of distinct (tid, op)
   projections of the traces — the sort-and-dedupe reference below. *)
let reference_distinct (r : Campaign.report) =
  Array.to_list r.Campaign.results
  |> List.map (fun (x : Tsan11rec.Interp.result) ->
         List.map
           (fun (_, tid, label) -> (tid, label))
           (Tsan11rec.Interp.trace_list x))
  |> List.sort_uniq compare |> List.length

let mcs_spec =
  let e = Option.get (T11r_litmus.Registry.find "mcs-lock") in
  Campaign.spec ~label:"mcs-lock"
    ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
    e.T11r_litmus.Registry.build

let test_distinct_schedules_exact () =
  List.iter
    (fun (name, spec, n) ->
      List.iter
        (fun jobs ->
          let r = Campaign.run spec ~n ~jobs [] in
          let expect = reference_distinct r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: more than one schedule" name)
            true (expect > 1);
          Alcotest.(check int)
            (Printf.sprintf "%s jobs=%d: distinct_schedules exact" name jobs)
            expect r.Campaign.distinct_schedules)
        [ 1; 3 ])
    [ ("fig1", fig1_spec, 2000); ("mcs-lock", mcs_spec, 300) ]

(* Single-threaded runs whose traces share a 21-op prefix and differ
   only in their last op, chosen by the run index. A hash that reads
   only a bounded prefix of the trace sees one key here. *)
let test_distinct_schedules_shared_prefix () =
  let module Api = T11r_vm.Api in
  let spec =
    {
      fig1_spec with
      Campaign.label = "shared-prefix";
      instance =
        (fun i ->
          let world = World.create ~seed:(Int64.of_int i) () in
          ( world,
            Api.program ~name:"shared-prefix" (fun () ->
                let a = Api.Atomic.create 0 in
                for _ = 1 to 20 do
                  Api.Atomic.store a 1
                done;
                match i mod 4 with
                | 0 -> ignore (Api.Atomic.load a)
                | 1 -> Api.Atomic.store a 2
                | 2 -> ignore (Api.Atomic.fetch_add a 1)
                | _ -> Api.Atomic.fence T11r_mem.Memord.Seq_cst) ));
    }
  in
  let r = Campaign.run spec ~n:12 [] in
  Array.iter
    (fun (x : Tsan11rec.Interp.result) ->
      Alcotest.(check bool) "trace holds the 20-op prefix" true
        (Array.length x.Tsan11rec.Interp.trace.Tsan11rec.Interp.codes > 20))
    r.Campaign.results;
  Alcotest.(check int) "reference: four schedules" 4 (reference_distinct r);
  Alcotest.(check int) "distinct_schedules" 4 r.Campaign.distinct_schedules

let test_faultsweep_deterministic_across_jobs () =
  let rows1 = T11r_harness.Faultsweep.sweep ~smoke:true ~jobs:1 () in
  let rows2 = T11r_harness.Faultsweep.sweep ~smoke:true ~jobs:2 () in
  Alcotest.(check bool) "smoke rows identical at -j1 and -j2" true (rows1 = rows2)

(* ------------------------------------------------------------------ *)
(* Cancellable pool                                                    *)

let test_map_opt_full_matches_map () =
  List.iter
    (fun jobs ->
      let got = Pool.map_opt ~jobs 40 (fun i -> i * 3) in
      Alcotest.(check (array (option int)))
        (Printf.sprintf "map_opt jobs=%d" jobs)
        (Array.init 40 (fun i -> Some (i * 3)))
        got)
    [ 1; 4 ]

let test_map_opt_cancelled_is_partial () =
  List.iter
    (fun jobs ->
      let stop = Atomic.make false in
      let got =
        Pool.map_opt ~jobs ~should_stop:(fun () -> Atomic.get stop) 1000
          (fun i ->
            if i >= 10 then Atomic.set stop true;
            i)
      in
      let computed =
        Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 got
      in
      Alcotest.(check bool)
        (Printf.sprintf "partial at jobs=%d" jobs)
        true
        (computed > 0 && computed < 1000);
      (* computed slots hold the right values *)
      Array.iteri
        (fun i -> function
          | Some v -> Alcotest.(check int) "slot value" i v
          | None -> ())
        got)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Supervision: deadlines, budgets, quarantine                        *)

(* A workload with enough ticks that per-run budgets bite. *)
let busy_spec label =
  Campaign.spec ~label
    ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
    (fun () ->
      T11r_vm.Api.program ~name:"busy" (fun () ->
          let a = T11r_vm.Api.Atomic.create 0 in
          for _ = 1 to 300 do
            ignore (T11r_vm.Api.Atomic.fetch_add a 1)
          done))

let test_deadline_turns_wedged_runs_into_timeouts () =
  let c = Campaign.run (busy_spec "busy-deadline") ~n:4 ~deadline_s:1e-9 [] in
  Alcotest.(check int) "all runs timed out" 4
    (List.fold_left
       (fun a (k, v) -> if k = "timeout" then a + v else a)
       0 c.Campaign.outcomes);
  Alcotest.(check int) "supervision counts them" 4
    c.Campaign.supervision.Campaign.sup_timeouts;
  Alcotest.(check int) "metrics count them" 4
    c.Campaign.metrics.T11r_obs.Metrics.m_timeouts

let test_tick_budget_is_deterministic () =
  let run jobs = Campaign.run (busy_spec "busy-budget") ~n:6 ~jobs ~tick_budget:10 [] in
  let a = run 1 and b = run 2 in
  Alcotest.(check string) "digest stable across jobs" (Campaign.digest a)
    (Campaign.digest b);
  Alcotest.(check bool) "budget bit" true
    (List.mem_assoc "tick-limit" a.Campaign.outcomes)

exception Boom of int

let crashy_spec label =
  let base = busy_spec label in
  {
    base with
    Campaign.instance =
      (fun i -> if i = 3 then raise (Boom i) else base.Campaign.instance i);
  }

let test_crash_is_quarantined_not_fatal () =
  let c = Campaign.run (crashy_spec "crashy") ~n:8 [] in
  let sup = c.Campaign.supervision in
  Alcotest.(check int) "campaign completed all runs" 8 sup.Campaign.sup_done;
  (match sup.Campaign.sup_quarantined with
  | [ (3, _) ] -> ()
  | q -> Alcotest.failf "expected run 3 quarantined, got %d" (List.length q));
  (* the quarantined run aggregates as a crashed outcome *)
  Alcotest.(check bool) "crashed in histogram" true
    (List.mem_assoc "crashed" c.Campaign.outcomes)

let test_quarantine_deterministic_across_jobs () =
  let run jobs = Campaign.run (crashy_spec "crashy-j") ~n:8 ~jobs [] in
  Alcotest.(check string) "digest stable across jobs"
    (Campaign.digest (run 1))
    (Campaign.digest (run 2))

(* ------------------------------------------------------------------ *)
(* The crash rule: Outcome.protect, once, in every engine              *)

let test_protect_quarantines_any_exception () =
  match
    (T11r_harness.Outcome.protect (fun () -> raise Not_found))
      .Tsan11rec.Interp.outcome
  with
  | Tsan11rec.Interp.Crashed (-1, "Not_found") -> ()
  | o ->
      Alcotest.failf "expected Crashed (-1, \"Not_found\"), got %a"
        Tsan11rec.Interp.pp_outcome o

let test_raising_run_executes_once () =
  List.iter
    (fun jobs ->
      let calls = Atomic.make 0 in
      let base = crashy_spec "crashy-once" in
      let spec =
        {
          base with
          Campaign.instance =
            (fun i ->
              if i = 3 then Atomic.incr calls;
              base.Campaign.instance i);
        }
      in
      let c = Campaign.run spec ~n:8 ~jobs [] in
      Alcotest.(check int)
        (Printf.sprintf "instance 3 called once (jobs=%d)" jobs)
        1 (Atomic.get calls);
      Alcotest.(check (list int))
        (Printf.sprintf "run 3 quarantined (jobs=%d)" jobs)
        [ 3 ]
        (List.map fst c.Campaign.supervision.Campaign.sup_quarantined))
    [ 1; 2 ]

let test_systematic_counts_raising_schedule () =
  let calls = ref 0 in
  let build () =
    incr calls;
    if !calls = 2 then raise (Boom 2);
    T11r_litmus.Registry.fig1.build ()
  in
  let r = T11r_harness.Systematic.explore ~max_runs:200 ~build () in
  Alcotest.(check bool) "exploration completes" true
    r.T11r_harness.Systematic.complete;
  Alcotest.(check int) "one crash schedule" 1
    r.T11r_harness.Systematic.crash_schedules

let test_minimize_raising_build_not_found () =
  let module Minimize = T11r_harness.Minimize in
  match
    Minimize.find_bug ~max_bound:1 ~tries_per_bound:5
      ~build:(fun () -> raise (Boom 0))
      ()
  with
  | Minimize.Not_found runs -> Alcotest.(check int) "every try spent" 10 runs
  | Minimize.Found _ -> Alcotest.fail "a quarantined try matched"

(* A campaign cancelled before its first run (SIGINT before the hunt
   starts, or during a guided round) reports zero runs, not a crash. *)
let test_cancel_before_first_run () =
  List.iter
    (fun jobs ->
      let c = Campaign.run fig1_spec ~n:5 ~jobs ~cancel:(fun () -> true) [] in
      let sup = c.Campaign.supervision in
      Alcotest.(check int) "no run done" 0 sup.Campaign.sup_done;
      Alcotest.(check bool) "interrupted" true sup.Campaign.sup_interrupted;
      Alcotest.(check int) "no results" 0 (Array.length c.Campaign.results);
      Alcotest.(check int) "no schedules" 0 c.Campaign.distinct_schedules;
      Alcotest.(check int) "empty time summary" 0 c.Campaign.time_ms.T11r_util.Stats.n;
      Alcotest.(check (float 0.0)) "mean ticks" 0.0 c.Campaign.mean_ticks;
      Alcotest.(check bool) "report prints INTERRUPTED" true
        (contains (Format.asprintf "%a" Campaign.pp c) "INTERRUPTED: 0/5 runs done"))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Journal: resume must reproduce the uninterrupted digest             *)

let jpath () =
  let f = Filename.temp_file "t11r_campj" ".jsonl" in
  Sys.remove f;
  f

let test_resume_reproduces_digest () =
  let n = 30 in
  let clean = Campaign.run fig1_spec ~n [] in
  let journal = jpath () in
  (* phase 1: cancel partway through — completed runs reach the journal *)
  let executed = ref 0 in
  let counting =
    {
      fig1_spec with
      Campaign.instance =
        (fun i ->
          incr executed;
          fig1_spec.Campaign.instance i);
    }
  in
  let partial =
    Campaign.run counting ~n ~journal
      ~cancel:(fun () -> !executed >= 7)
      []
  in
  Alcotest.(check bool) "phase 1 interrupted" true
    partial.Campaign.supervision.Campaign.sup_interrupted;
  Alcotest.(check bool) "phase 1 partial" true
    (partial.Campaign.supervision.Campaign.sup_done < n);
  (* phase 2: resume from the journal, at both -j1 and -j2 *)
  List.iter
    (fun jobs ->
      let resumed = Campaign.run fig1_spec ~n ~jobs ~journal [] in
      let sup = resumed.Campaign.supervision in
      Alcotest.(check bool)
        (Printf.sprintf "runs were resumed (jobs=%d)" jobs)
        true (sup.Campaign.sup_resumed > 0);
      Alcotest.(check int) "complete" n sup.Campaign.sup_done;
      Alcotest.(check string)
        (Printf.sprintf "resumed digest = clean digest (jobs=%d)" jobs)
        (Campaign.digest clean) (Campaign.digest resumed))
    [ 1; 2 ];
  Sys.remove journal

let test_resume_tolerates_torn_tail () =
  let n = 12 in
  let clean = Campaign.run fig1_spec ~n [] in
  let journal = jpath () in
  ignore (Campaign.run fig1_spec ~n ~journal []);
  (* simulate a crash mid-append: drop the tail of the last line *)
  let ic = open_in_bin journal in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin journal in
  output_string oc (String.sub s 0 (String.length s - 9));
  close_out oc;
  let resumed = Campaign.run fig1_spec ~n ~journal [] in
  let sup = resumed.Campaign.supervision in
  Alcotest.(check bool) "torn line counted" true
    (sup.Campaign.sup_journal_dropped > 0);
  Alcotest.(check int) "complete despite damage" n sup.Campaign.sup_done;
  Alcotest.(check string) "digest survives the torn tail"
    (Campaign.digest clean) (Campaign.digest resumed);
  Sys.remove journal

let test_resume_rejects_mismatched_campaign () =
  let journal = jpath () in
  ignore (Campaign.run fig1_spec ~n:5 ~journal []);
  (match Campaign.run fig1_spec ~n:9 ~journal [] with
  | _ -> Alcotest.fail "expected a header mismatch"
  | exception Invalid_argument _ -> ());
  Sys.remove journal

(* A journal written under another marshalled layout is refused from
   its header, before any payload entry is unmarshalled — reading a
   value of another layout is undefined behaviour, not just wrong
   data. Each header carries the identity its engine writes for this
   call; only the schema is another. *)
let write_journal path entries =
  let w = T11r_util.Journal.create path in
  List.iter
    (fun (kind, payload) ->
      T11r_util.Journal.append w { T11r_util.Journal.kind; payload })
    entries;
  T11r_util.Journal.close w

let test_stale_schema_rejected () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a journal of an older schema" what
    | exception Invalid_argument _ -> ()
  in
  let stale schema identity =
    Printf.sprintf "schema %d %s" (schema - 1) identity
  in
  let journal = jpath () in
  write_journal journal
    [
      ( "campaign",
        stale Campaign.journal_schema {|"fig1" n=5 first=0 tick-budget=none|} );
      ("run", Marshal.to_string (0, "result of an older layout") []);
    ];
  rejects "Campaign.run" (fun () -> Campaign.run fig1_spec ~n:5 ~journal []);
  rejects "Campaign.journal_results" (fun () ->
      Campaign.journal_results journal);
  Sys.remove journal;
  let journal = jpath () in
  write_journal journal
    [
      ( "systematic",
        stale T11r_harness.Systematic.journal_schema
          "world-seed=7 seeds=11,13 tick-budget=none" );
      ("sys", Marshal.to_string ([||], [||], "result of an older layout") []);
    ];
  rejects "Systematic.explore" (fun () ->
      T11r_harness.Systematic.explore ~world_seed:7L ~seeds:(11L, 13L) ~journal
        ~build:T11r_litmus.Registry.fig1.build ());
  Sys.remove journal;
  let dir = Filename.temp_file "t11r_corpus" "" in
  Sys.remove dir;
  write_journal
    (Filename.concat dir "corpus.journal")
    [
      ( "corpus-hunt",
        stale T11r_harness.Guided.corpus_schema {|"fig1" batch=4 salt=0|} );
      ("snap", Marshal.to_string "a snapshot of an older layout" []);
    ];
  rejects "Guided.hunt" (fun () ->
      T11r_harness.Guided.hunt fig1_spec ~rounds:1 ~batch:4 ~corpus_dir:dir ());
  rejects "Guided.load_corpus" (fun () -> T11r_harness.Guided.load_corpus dir);
  T11r_util.Tmp.rm_rf dir

(* A damaged header is not an absent one, and another engine's
   journal is not this one's: both are refused before anything is
   served or appended. A header torn by a kill holds nothing and
   starts the journal afresh. *)
let slurp path = In_channel.with_open_bin path In_channel.input_all
let spit path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Flip one bit in the payload of [path]'s first line. *)
let flip_first_line path =
  let s = Bytes.of_string (slurp path) in
  let i = Bytes.index s '\n' - 4 in
  Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 1));
  spit path (Bytes.to_string s)

let test_damaged_or_foreign_rejected () =
  let module Systematic = T11r_harness.Systematic in
  let module Guided = T11r_harness.Guided in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a damaged or foreign journal" what
    | exception Invalid_argument _ -> ()
  in
  let explore journal =
    Systematic.explore ~max_runs:40 ~world_seed:7L ~seeds:(11L, 13L) ~journal
      ~build:T11r_litmus.Registry.fig1.build ()
  in
  let cj = jpath () and sj = jpath () in
  ignore (Campaign.run fig1_spec ~n:5 ~journal:cj []);
  ignore (explore sj);
  (* another engine's journal *)
  rejects "Systematic.explore (campaign journal)" (fun () -> explore cj);
  rejects "Campaign.run (systematic journal)" (fun () ->
      Campaign.run fig1_spec ~n:5 ~journal:sj []);
  (* a flipped byte in the first line, per engine *)
  flip_first_line cj;
  flip_first_line sj;
  rejects "Campaign.run (flipped header)" (fun () ->
      Campaign.run fig1_spec ~n:5 ~journal:cj []);
  rejects "Campaign.journal_results (flipped header)" (fun () ->
      Campaign.journal_results cj);
  rejects "Systematic.explore (flipped header)" (fun () -> explore sj);
  let dir = Filename.temp_file "t11r_corpus" "" in
  Sys.remove dir;
  let hunt () = Guided.hunt fig1_spec ~rounds:2 ~batch:4 ~corpus_dir:dir () in
  ignore (hunt ());
  flip_first_line (Filename.concat dir "corpus.journal");
  rejects "Guided.hunt (flipped header)" hunt;
  T11r_util.Tmp.rm_rf dir;
  (* a header torn by a kill: accepted, and the run is a clean one *)
  let header = List.hd (String.split_on_char '\n' (slurp cj)) in
  spit cj (String.sub header 0 (String.length header / 2));
  let clean = Campaign.run fig1_spec ~n:5 [] in
  let resumed = Campaign.run fig1_spec ~n:5 ~journal:cj [] in
  Alcotest.(check string) "torn header: digest = clean digest"
    (Campaign.digest clean) (Campaign.digest resumed);
  let entries, dropped = T11r_util.Journal.read cj in
  Alcotest.(check int) "torn header: no damage left" 0 dropped;
  Alcotest.(check int) "torn header: header + 5 runs" 6 (List.length entries);
  List.iter Sys.remove [ cj; sj ]

(* A journal of another spec under the same identity is refused
   before any entry is served, and the file is left byte for byte:
   another strategy, other scheduler seeds, another tick budget,
   another world, another workload. A same-spec journal still serves
   every entry. *)
let test_foreign_spec_refused () =
  let module Systematic = T11r_harness.Systematic in
  let refused what path f =
    let before = slurp path in
    (match f () with
    | _ -> Alcotest.failf "%s: resumed a foreign journal" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check string) (what ^ ": journal untouched") before (slurp path)
  in
  let n = 20 in
  let cj = jpath () in
  ignore (Campaign.run fig1_spec ~n ~journal:cj []);
  List.iter
    (fun jobs ->
      let r = Campaign.run fig1_spec ~n ~jobs ~journal:cj [] in
      Alcotest.(check int)
        (Printf.sprintf "same spec: every entry served (jobs=%d)" jobs)
        n r.Campaign.supervision.Campaign.sup_resumed)
    [ 1; 2 ];
  let queue =
    Campaign.spec ~label:"fig1"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Queue ())
      T11r_litmus.Registry.fig1.build
  in
  refused "another strategy" cj (fun () -> Campaign.run queue ~n ~journal:cj []);
  let other_seeds =
    {
      fig1_spec with
      Campaign.conf = (fun i -> fig1_spec.Campaign.conf (i + 1000));
    }
  in
  refused "other seeds" cj (fun () -> Campaign.run other_seeds ~n ~journal:cj []);
  refused "another tick budget" cj (fun () ->
      Campaign.run fig1_spec ~n ~tick_budget:50 ~journal:cj []);
  (* fig1 never reads its world; httpd does *)
  let httpd =
    T11r_harness.Workloads.spec_of
      (Option.get (T11r_harness.Workloads.find "httpd"))
  in
  let hj = jpath () in
  ignore (Campaign.run httpd ~n:5 ~journal:hj []);
  let other_world =
    {
      httpd with
      Campaign.instance = (fun i -> httpd.Campaign.instance (i + 1000));
    }
  in
  refused "another world" hj (fun () ->
      Campaign.run other_world ~n:5 ~journal:hj []);
  let sj = jpath () in
  let explore ?tick_budget build =
    Systematic.explore ~max_runs:50 ?tick_budget ~journal:sj ~build ()
  in
  let fig1 = explore T11r_litmus.Registry.fig1.build in
  let again = explore T11r_litmus.Registry.fig1.build in
  Alcotest.(check int) "same workload: every entry served" fig1.Systematic.runs
    again.Systematic.resumed_runs;
  refused "another workload" sj (fun () ->
      explore (Option.get (T11r_litmus.Registry.find "dekker-fences")).build);
  refused "another tick budget (explore)" sj (fun () ->
      explore ~tick_budget:50 T11r_litmus.Registry.fig1.build);
  List.iter Sys.remove [ cj; hj; sj ]

(* The check skips runs whose result is not a function of the spec: a
   run quarantined after a transient failure is served as journalled,
   not executed again. *)
let test_quarantined_run_not_rechecked () =
  let failed = ref false in
  let flaky =
    {
      fig1_spec with
      Campaign.instance =
        (fun i ->
          if i = 0 && not !failed then begin
            failed := true;
            raise (Boom i)
          end;
          fig1_spec.Campaign.instance i);
    }
  in
  let journal = jpath () in
  let first = Campaign.run flaky ~n:5 ~journal [] in
  Alcotest.(check int) "run 0 quarantined" 1
    (List.length first.Campaign.supervision.Campaign.sup_quarantined);
  let resumed = Campaign.run flaky ~n:5 ~journal [] in
  Alcotest.(check int) "every entry served" 5
    resumed.Campaign.supervision.Campaign.sup_resumed;
  Alcotest.(check string) "digest as journalled" (Campaign.digest first)
    (Campaign.digest resumed);
  Sys.remove journal

(* The real thing: SIGKILL a campaign mid-flight, then resume from its
   journal and reproduce the uninterrupted digest bit for bit. *)
let test_sigkill_then_resume_digest () =
  let n = 40 in
  (* per-run dawdle so the kill lands mid-campaign, not after it *)
  let slow =
    {
      fig1_spec with
      Campaign.label = "fig1-sigkill";
      instance =
        (fun i ->
          Unix.sleepf 0.004;
          fig1_spec.Campaign.instance i);
    }
  in
  let clean = Campaign.run slow ~n [] in
  let journal = jpath () in
  (* Unix.fork is off-limits once the pool has ever spawned a domain,
     so the victim is a dedicated executable running the same spec. *)
  let child =
    Filename.concat (Filename.dirname Sys.executable_name) "resume_child.exe"
  in
  let pid =
    Unix.create_process child
      [| child; journal; string_of_int n |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.06;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  let resumed = Campaign.run slow ~n ~journal [] in
  Alcotest.(check int) "complete after resume" n
    resumed.Campaign.supervision.Campaign.sup_done;
  Alcotest.(check string) "SIGKILLed-then-resumed digest = clean digest"
    (Campaign.digest clean) (Campaign.digest resumed);
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Result sharing and retention                                        *)

module Interp = Tsan11rec.Interp

let bytes_of (r : Interp.result) =
  Marshal.to_string { r with Interp.demo = None } [ Marshal.No_sharing ]

(* Within one report, structurally equal demo-less results are one
   physical result, and each slot still equals its run executed alone:
   a merge never replaces a result with an unequal one. The digest is
   the reference fold's. *)
let check_sharing name (spec : Campaign.spec) (c : Campaign.report) =
  let by_bytes = Hashtbl.create 1024 in
  let merged = ref 0 in
  Array.iteri
    (fun k (r : Interp.result) ->
      let i = c.Campaign.first + k in
      let alone =
        Campaign.run_one ~deadline_s:0. ~tick_budget:None (spec.Campaign.conf i)
          (fun () -> spec.Campaign.instance i)
      in
      let b = bytes_of r in
      if not (String.equal b (bytes_of alone)) then
        Alcotest.failf "%s: run %d differs from the run executed alone" name i;
      match Hashtbl.find_opt by_bytes b with
      | Some r' ->
          if r' != r then
            Alcotest.failf "%s: run %d is an unshared copy of an earlier run"
              name i;
          incr merged
      | None -> Hashtbl.add by_bytes b r)
    c.Campaign.results;
  Alcotest.(check bool) (name ^ ": runs repeat") true (!merged > 0);
  let pairs = Array.mapi (fun k r -> (c.Campaign.first + k, r)) c.Campaign.results in
  let reference =
    Ref_model.Campaign_aggregate.aggregate ~label:c.Campaign.label ~n:c.Campaign.n
      ~first:c.Campaign.first ~jobs:c.Campaign.jobs ~wall_s:c.Campaign.wall_s
      ~supervision:c.Campaign.supervision pairs
  in
  Alcotest.(check string) (name ^ ": digest = reference fold's")
    (Campaign.digest reference) (Campaign.digest c)

(* Runs alike in schedule, ints and strings, told apart only by their
   thread names: the structural comparison keeps them apart. *)
let names_spec =
  let module Api = T11r_vm.Api in
  {
    fig1_spec with
    Campaign.label = "thread-names";
    instance =
      (fun i ->
        ( World.create ~seed:(Int64.of_int i) (),
          Api.program ~name:"thread-names" (fun () ->
              let name = if i mod 2 = 0 then "even" else "odd" in
              Api.Thread.join (Api.Thread.spawn ~name (fun () -> ()))) ));
  }

let test_equal_results_shared () =
  let n = 2000 in
  List.iter
    (fun jobs ->
      check_sharing (Printf.sprintf "fig1 j%d" jobs) fig1_spec
        (Campaign.run fig1_spec ~n ~jobs []);
      check_sharing (Printf.sprintf "thread names j%d" jobs) names_spec
        (Campaign.run names_spec ~n:40 ~jobs []))
    [ 1; 2 ];
  let journal = jpath () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
    (fun () ->
      ignore (Campaign.run fig1_spec ~n ~journal []);
      let resumed = Campaign.run fig1_spec ~n ~jobs:2 ~journal [] in
      Alcotest.(check int) "every run from the journal" n
        resumed.Campaign.supervision.Campaign.sup_resumed;
      check_sharing "fig1 resumed" fig1_spec resumed)

let retained (c : Campaign.report) = Obj.reachable_words (Obj.repr c)

(* What a fig1 report keeps: 57 words a run at 4,000 runs (1,465
   distinct schedules), measured with one copy per distinct result;
   keeping every run's own result read 98. *)
let test_retention_budget () =
  let n = 4000 in
  let per_run = float_of_int (retained (Campaign.run fig1_spec ~n [])) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words/run <= 2 x 57" per_run)
    true
    (per_run <= 2. *. 57.)

(* A report grows with the distinct results it holds, plus one slot a
   run. From 4,000 to 16,000 fig1 runs the distinct schedules grow
   2.1x, well under the runs' 4x; keeping every run's own result grew
   the report 3.4x. Twice the 4,000-run report is out of reach while
   the distinct results alone grow past 2x. *)
let test_retention_grows_with_findings () =
  let small = Campaign.run fig1_spec ~n:4000 [] in
  let words_small = retained small and d_small = small.Campaign.distinct_schedules in
  let large = Campaign.run fig1_spec ~n:16000 [] in
  let words_large = retained large and d_large = large.Campaign.distinct_schedules in
  let grew = float_of_int words_large /. float_of_int words_small in
  let found = float_of_int d_large /. float_of_int d_small in
  Alcotest.(check bool)
    (Printf.sprintf "report grew %.2fx, its distinct schedules %.2fx" grew found)
    true
    (grew < 1.1 *. found && found < 3.)

(* ------------------------------------------------------------------ *)
(* Coverage-guided hunting                                             *)

module Coverage = T11r_race.Coverage
module Corpus = T11r_harness.Corpus
module Guided = T11r_harness.Guided

(* Corpus admission/merge is pure and order-disciplined: the same
   consider sequence always yields the same corpus digest, repeat
   coverage is never admitted, and union commutes on non-empty
   summaries. It does not commute on bytes when an all-zero bitmap
   meets the empty summary: the left operand is tested first, so the
   result is whichever comes second. *)
let test_corpus_admission () =
  let cov_a = Coverage.create () in
  Coverage.mark cov_a (Coverage.site_edge ~tid:1 ~obj:2);
  let a = Coverage.summarize cov_a in
  let cov_b = Coverage.create () in
  Coverage.mark cov_b
    (Coverage.site_race ~var:"x" ~kind:0 ~first_tid:1 ~second_tid:2);
  let b = Coverage.summarize cov_b in
  let c0 = Corpus.empty in
  let c1, fresh1 = Corpus.consider c0 ~strategy:Corpus.S_random ~seed1:1L ~seed2:2L ~round:0 a in
  Alcotest.(check bool) "new coverage admitted" true fresh1;
  let c2, fresh2 = Corpus.consider c1 ~strategy:Corpus.S_queue ~seed1:3L ~seed2:4L ~round:0 a in
  Alcotest.(check bool) "repeat coverage rejected" false fresh2;
  Alcotest.(check int) "size unchanged on reject" 1 (Corpus.size c2);
  let c3, fresh3 =
    Corpus.consider c2 ~strategy:(Corpus.S_pct 3) ~seed1:5L ~seed2:6L ~round:1 b
  in
  Alcotest.(check bool) "disjoint coverage admitted" true fresh3;
  Alcotest.(check int) "both kept" 2 (Corpus.size c3);
  Alcotest.(check string) "union commutes"
    (Coverage.digest (Coverage.union a b))
    (Coverage.digest (Coverage.union b a));
  let zeros = Coverage.summarize (Coverage.create ()) in
  Alcotest.(check string) "union zeros empty = empty" Coverage.empty
    (Coverage.union zeros Coverage.empty);
  Alcotest.(check string) "union empty zeros = zeros" (String.make 512 '\000')
    (Coverage.union Coverage.empty zeros);
  Alcotest.(check bool) "an empty operand yields the other unchanged" true
    (Coverage.union zeros a == a && Coverage.union a Coverage.empty == a);
  (* replaying the same consider sequence reproduces the digest *)
  let replay =
    List.fold_left
      (fun c (s, s1, s2, r, cov) -> fst (Corpus.consider c ~strategy:s ~seed1:s1 ~seed2:s2 ~round:r cov))
      Corpus.empty
      [ (Corpus.S_random, 1L, 2L, 0, a); (Corpus.S_queue, 3L, 4L, 0, a);
        (Corpus.S_pct 3, 5L, 6L, 1, b) ]
  in
  Alcotest.(check string) "consider sequence deterministic" (Corpus.digest c3)
    (Corpus.digest replay)

let test_guided_deterministic_across_jobs () =
  let g1 = Guided.hunt fig1_spec ~rounds:4 ~batch:8 ~jobs:1 () in
  let g4 = Guided.hunt fig1_spec ~rounds:4 ~batch:8 ~jobs:4 () in
  Alcotest.(check int) "all runs executed" 32 g1.Guided.g_runs;
  Alcotest.(check string) "guided digest: -j4 = -j1" (Guided.digest g1)
    (Guided.digest g4);
  Alcotest.(check string) "corpus digest: -j4 = -j1"
    (Corpus.digest g1.Guided.g_corpus)
    (Corpus.digest g4.Guided.g_corpus);
  (* a different salt decorrelates the hunt *)
  let g_salt = Guided.hunt fig1_spec ~rounds:4 ~batch:8 ~jobs:1 ~salt:99L () in
  Alcotest.(check bool) "salt changes the hunt" true
    (Guided.digest g_salt <> Guided.digest g1)

let cpath () =
  let d = Filename.temp_file "t11r_corpus" "" in
  Sys.remove d;
  d

let test_guided_corpus_resume () =
  (* A completed hunt's corpus directory replays entirely from the
     journals: re-running returns instantly with the identical report. *)
  let dir = cpath () in
  let clean = Guided.hunt fig1_spec ~rounds:3 ~batch:8 ~jobs:1 () in
  let first = Guided.hunt fig1_spec ~rounds:3 ~batch:8 ~jobs:1 ~corpus_dir:dir () in
  Alcotest.(check string) "journalled = unjournalled" (Guided.digest clean)
    (Guided.digest first);
  let resumed = Guided.hunt fig1_spec ~rounds:3 ~batch:8 ~jobs:4 ~corpus_dir:dir () in
  Alcotest.(check string) "re-run from snapshots = clean" (Guided.digest clean)
    (Guided.digest resumed);
  (match Guided.load_corpus dir with
  | Some c ->
      Alcotest.(check string) "load_corpus sees the final corpus"
        (Corpus.digest clean.Guided.g_corpus) (Corpus.digest c)
  | None -> Alcotest.fail "no corpus snapshot found");
  T11r_util.Tmp.rm_rf dir

(* A snapshot pins label, batch and salt only: resuming it under
   another world is refused through round 0's journal, every file
   left byte for byte, and the same spec still resumes to the
   uninterrupted digest. *)
let test_guided_foreign_world_refused () =
  let httpd =
    T11r_harness.Workloads.spec_of
      (Option.get (T11r_harness.Workloads.find "httpd"))
  in
  let hunt ?corpus_dir spec = Guided.hunt spec ~rounds:2 ~batch:4 ?corpus_dir () in
  let clean = hunt httpd in
  let dir = cpath () in
  ignore (hunt ~corpus_dir:dir httpd);
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let snapshot () =
    List.map (fun f -> slurp (Filename.concat dir f)) files
  in
  let before = snapshot () in
  let other_world =
    {
      httpd with
      Campaign.instance = (fun i -> httpd.Campaign.instance (i + 1000));
    }
  in
  (match hunt ~corpus_dir:dir other_world with
  | _ -> Alcotest.fail "resumed a snapshot of another world"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list string)) "files untouched" before (snapshot ());
  Alcotest.(check string) "same spec resumes to the clean digest"
    (Guided.digest clean)
    (Guided.digest (hunt ~corpus_dir:dir httpd));
  T11r_util.Tmp.rm_rf dir

(* SIGKILL a guided hunt mid-flight; resuming from its corpus
   directory must reproduce the uninterrupted digest bit for bit. *)
let test_guided_sigkill_then_resume_digest () =
  let rounds = 3 and batch = 10 in
  let slow =
    {
      fig1_spec with
      Campaign.label = "fig1-sigkill";
      instance =
        (fun i ->
          Unix.sleepf 0.004;
          fig1_spec.Campaign.instance i);
    }
  in
  let clean = Guided.hunt slow ~rounds ~batch () in
  let dir = cpath () in
  let child =
    Filename.concat (Filename.dirname Sys.executable_name) "resume_child.exe"
  in
  let pid =
    Unix.create_process child
      [| child; "guided"; dir; string_of_int rounds; string_of_int batch |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Unix.sleepf 0.06;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  let resumed = Guided.hunt slow ~rounds ~batch ~jobs:2 ~corpus_dir:dir () in
  Alcotest.(check string) "SIGKILLed guided hunt resumes to the clean digest"
    (Guided.digest clean) (Guided.digest resumed);
  Alcotest.(check string) "and to the clean corpus"
    (Corpus.digest clean.Guided.g_corpus)
    (Corpus.digest resumed.Guided.g_corpus);
  T11r_util.Tmp.rm_rf dir

(* Guidance pays: summed over fig1, chase-lev-deque and barrier, the
   median runs to the first race over 5 trials is lower for the
   coverage-guided hunt than for plain random runs. Random needs many
   runs per race on fig1 (~0.3% racy) and chase-lev-deque (~0%);
   barrier (~30%) is the sanity row. Both hunters run trial t's run i
   under the same seeds and world, so only the schedule choice
   differs. A trial that never races scores its whole budget. The
   whole-suite total keeps one easy benchmark from masking a hunter
   that burns its budget on the hard ones. *)
let test_guided_beats_random () =
  let trials = 5 and budget = 400 and batch = 16 in
  let median_runs trial =
    let a = Array.init trials (fun t -> trial (t + 1)) in
    Array.sort compare a;
    a.(trials / 2)
  in
  let conf t i =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Random ())
      (Int64.of_int ((t * budget) + i))
      (Int64.of_int ((t * budget) + i + 7919))
  in
  let world t i = World.create ~seed:(Int64.of_int ((t * budget) + i + 3)) () in
  let medians (e : T11r_litmus.Registry.entry) =
    let random t =
      let rec go i =
        if i > budget then budget
        else
          let r =
            Tsan11rec.Interp.run ~world:(world t i) (conf t i) (e.build ())
          in
          if r.Tsan11rec.Interp.race_count > 0 then i else go (i + 1)
      in
      go 1
    in
    let guided t =
      let spec =
        { Campaign.label = e.name; conf = conf t;
          instance = (fun i -> (world t i, e.build ())) }
      in
      let g =
        Guided.hunt spec ~rounds:(budget / batch) ~batch
          ~salt:(Int64.of_int ((t * 7919) + 1))
          ~stop_on_race:true ()
      in
      match g.Guided.g_first_race with Some i -> i + 1 | None -> budget
    in
    (median_runs random, median_runs guided)
  in
  let rows =
    List.map medians
      (T11r_litmus.Registry.fig1
      :: List.filter_map T11r_litmus.Registry.find
           [ "chase-lev-deque"; "barrier" ])
  in
  let total_random = List.fold_left (fun a (r, _) -> a + r) 0 rows in
  let total_guided = List.fold_left (fun a (_, g) -> a + g) 0 rows in
  Alcotest.(check bool)
    (Printf.sprintf "guided total %d < random total %d" total_guided
       total_random)
    true
    (total_guided < total_random)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.init" `Quick test_map_matches_array_init;
          Alcotest.test_case "error reports lowest index" `Quick
            test_map_error_lowest_index;
          Alcotest.test_case "fresh_dir unique under domains" `Quick
            test_fresh_dir_concurrent_unique;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fig1: -j4 = -j1" `Quick
            test_fig1_deterministic_across_jobs;
          Alcotest.test_case "httpd+faults: -j4 = -j1" `Quick
            test_httpd_faults_deterministic_across_jobs;
          Alcotest.test_case "observer order" `Quick test_observer_order_and_count;
          Alcotest.test_case "run_many jobs compat" `Quick
            test_runner_compat_across_jobs;
          Alcotest.test_case "faultsweep rows jobs-stable" `Quick
            test_faultsweep_deterministic_across_jobs;
          Alcotest.test_case "distinct_schedules exact" `Quick
            test_distinct_schedules_exact;
          Alcotest.test_case "distinct_schedules: shared prefix" `Quick
            test_distinct_schedules_shared_prefix;
        ] );
      ( "retention",
        [
          Alcotest.test_case "equal results shared, -j1 -j2 resume" `Quick
            test_equal_results_shared;
          Alcotest.test_case "4k-run fig1 report words/run" `Quick
            test_retention_budget;
          Alcotest.test_case "16k-run report grows with findings" `Quick
            test_retention_grows_with_findings;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "map_opt full = map" `Quick
            test_map_opt_full_matches_map;
          Alcotest.test_case "map_opt cancel is partial" `Quick
            test_map_opt_cancelled_is_partial;
          Alcotest.test_case "deadline => timeout outcomes" `Quick
            test_deadline_turns_wedged_runs_into_timeouts;
          Alcotest.test_case "tick budget jobs-stable" `Quick
            test_tick_budget_is_deterministic;
          Alcotest.test_case "crash quarantined" `Quick
            test_crash_is_quarantined_not_fatal;
          Alcotest.test_case "quarantine jobs-stable" `Quick
            test_quarantine_deterministic_across_jobs;
          Alcotest.test_case "cancel before first run" `Quick
            test_cancel_before_first_run;
        ] );
      ( "crash rule",
        [
          Alcotest.test_case "protect quarantines Not_found" `Quick
            test_protect_quarantines_any_exception;
          Alcotest.test_case "raising run executed once" `Quick
            test_raising_run_executes_once;
          Alcotest.test_case "systematic counts a raising schedule" `Quick
            test_systematic_counts_raising_schedule;
          Alcotest.test_case "find_bug over a raising build" `Quick
            test_minimize_raising_build_not_found;
        ] );
      ( "journal",
        [
          Alcotest.test_case "resume reproduces digest" `Quick
            test_resume_reproduces_digest;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_resume_tolerates_torn_tail;
          Alcotest.test_case "header mismatch rejected" `Quick
            test_resume_rejects_mismatched_campaign;
          Alcotest.test_case "stale schema rejected" `Quick
            test_stale_schema_rejected;
          Alcotest.test_case "damaged or foreign journal rejected" `Quick
            test_damaged_or_foreign_rejected;
          Alcotest.test_case "foreign spec refused" `Quick
            test_foreign_spec_refused;
          Alcotest.test_case "quarantined run not re-checked" `Quick
            test_quarantined_run_not_rechecked;
          Alcotest.test_case "SIGKILL then resume = clean digest" `Quick
            test_sigkill_then_resume_digest;
        ] );
      ( "guided",
        [
          Alcotest.test_case "corpus admission + merge" `Quick
            test_corpus_admission;
          Alcotest.test_case "guided digest: -j4 = -j1" `Quick
            test_guided_deterministic_across_jobs;
          Alcotest.test_case "corpus dir replays to clean digest" `Quick
            test_guided_corpus_resume;
          Alcotest.test_case "snapshot of another world refused" `Quick
            test_guided_foreign_world_refused;
          Alcotest.test_case "SIGKILL guided hunt, resume = clean" `Quick
            test_guided_sigkill_then_resume_digest;
          Alcotest.test_case "beats random on runs to first race" `Quick
            test_guided_beats_random;
        ] );
    ]
