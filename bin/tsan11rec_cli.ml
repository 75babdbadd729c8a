(* The tsan11rec command-line tool.

   Subcommands mirror how the paper's tool is used:
     list              show the available workloads
     run WORKLOAD      one execution under a chosen tool configuration
                       (--tsan prints ThreadSanitizer-style warnings)
     record WORKLOAD   record a demo
     replay WORKLOAD   replay a demo (reports desynchronisation;
                       --salvage recovers a truncated recording first)
     hunt WORKLOAD     repeated controlled runs hunting for races:
                       distinct schedules, each race's first seed and
                       the command that reproduces it (--resume picks
                       up an interrupted campaign; --guided breeds
                       seeds from a coverage corpus)
     check WORKLOAD    bounded systematic exploration (model checking)
     icb WORKLOAD      smallest preemption bound exposing a failure
     trace WORKLOAD    run (or replay) with event tracing, export
                       Chrome trace-event JSON for Perfetto
     predict           offline predictive race analysis over a recorded
                       demo (or a campaign journal); --verify confirms
                       each predicted pair by scheduling its witness
     demo-info DIR     summarise and integrity-check a recorded demo *)

open Cmdliner
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module Policy = Tsan11rec.Policy
module World = T11r_env.World
module Workloads = T11r_harness.Workloads
module Campaign = T11r_harness.Campaign
module Guided = T11r_harness.Guided
module Outcome = T11r_harness.Outcome
module Corpus = T11r_harness.Corpus
module Predictor = T11r_harness.Predictor
module Predict = T11r_race.Predict
module Decision = T11r_race.Decision

(* ---- exit codes ---------------------------------------------------- *)

(* The one verdict on a finished replay: it diverged if it desynced
   hard, ran another trace than the recording's, or printed another
   output. [exit_of] codes it and [report] prints it. *)
let divergence (r : Interp.result) =
  match (r.outcome, r.trace_divergence) with
  | Interp.Hard_desync msg, _ | _, Some msg -> Some msg
  | _ -> if r.soft_desync then Some "program output differs" else None

(* One code per structured outcome so scripts and CI can branch without
   parsing output (also listed in every subcommand's EXIT STATUS):
     0 completed (replay: faithfully)      1 campaign found bugs
     2 usage error                         3 corrupt/unreadable demo
     4 deadline or tick budget exhausted   5 program crashed
     6 deadlock                            7 hard replay desync
     8 workload unsupported                9 application error
    10 soft replay desync                130 interrupted (SIGINT) *)
let exit_of (r : Interp.result) =
  match r.outcome with
  | Interp.Completed -> if divergence r = None then 0 else 10
  | Interp.Corrupt_demo _ -> 3
  | Interp.Timeout | Interp.Tick_limit -> 4
  | Interp.Crashed _ -> 5
  | Interp.Deadlock _ -> 6
  | Interp.Hard_desync _ -> 7
  | Interp.Unsupported_app _ -> 8
  | Interp.App_error _ -> 9

let defaults_sans_ok =
  List.filter
    (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.ok)
    Cmd.Exit.defaults

let outcome_exits =
  [
    Cmd.Exit.info 0 ~doc:"the run completed (for replay: faithfully).";
    Cmd.Exit.info 3 ~doc:"the demo directory is corrupt or unreadable.";
    Cmd.Exit.info 4
      ~doc:"the run exhausted its wall-clock deadline or tick budget.";
    Cmd.Exit.info 5 ~doc:"the program crashed (failed assertion).";
    Cmd.Exit.info 6 ~doc:"the program deadlocked.";
    Cmd.Exit.info 7 ~doc:"replay desynchronised beyond recovery.";
    Cmd.Exit.info 8
      ~doc:"the workload is unsupported under this configuration.";
    Cmd.Exit.info 9 ~doc:"the application reported an error.";
    Cmd.Exit.info 10
      ~doc:
        "replay completed but soft-desynchronised: its trace or its output \
         differs from the recording's.";
  ]
  @ defaults_sans_ok

let campaign_exits =
  [
    Cmd.Exit.info 0 ~doc:"the campaign finished with no findings.";
    Cmd.Exit.info 1 ~doc:"the campaign found races, crashes or deadlocks.";
    Cmd.Exit.info 2
      ~doc:
        "usage error: a bad flag value, or a journal or corpus the engine \
         refuses (damaged, foreign, or another run's).";
    Cmd.Exit.info 130
      ~doc:
        "interrupted (SIGINT): in-flight runs were drained and journalled; \
         rerun with $(b,--resume) to continue.";
  ]
  @ defaults_sans_ok

(* ---- SIGINT draining ----------------------------------------------- *)

(* First Ctrl-C: stop claiming new runs, let in-flight ones finish and
   reach the journal, print a partial report. Second Ctrl-C: abort. *)
let interrupted = Atomic.make false
let cancel () = Atomic.get interrupted

let install_sigint () =
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Atomic.get interrupted then exit 130
         else begin
           Atomic.set interrupted true;
           prerr_endline
             "interrupt: draining in-flight runs (Ctrl-C again to abort)"
         end))

(* After a drained Ctrl-C: the resume hint (or a note that progress
   was lost without a journal), then exit 130. *)
let exit_if_interrupted journal =
  if Atomic.get interrupted then begin
    (match journal with
    | Some j -> Fmt.pr "interrupted; resume with --resume %s@." j
    | None ->
        Fmt.pr
          "interrupted (no journal — progress lost; use --journal FILE next \
           time)@.");
    exit 130
  end

(* ---- positional / subcommand-specific arguments -------------------- *)

let workload_arg =
  let doc = "Workload to run (see `list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let tool_arg =
  let doc =
    "Tool configuration: native, tsan11, rr, tsan11+rr, or tsan11rec."
  in
  Arg.(value & opt string "tsan11rec" & info [ "tool" ] ~docv:"TOOL" ~doc)

let demo_arg =
  let doc = "Demo directory." in
  Arg.(value & opt string "demo" & info [ "demo"; "d" ] ~docv:"DIR" ~doc)

(* ---- the shared flag-spec table ------------------------------------ *)

(* Every option shared by two or more subcommands is declared exactly
   once below — one name set, one docstring, one parser, one validation
   path — and subcommands select the rows they take by listing [flag]
   values. Unselected rows parse as their defaults and stay out of that
   subcommand's $(b,--help). *)

type flag =
  | Strategy
  | Seed
  | Env_seed
  | Runs
  | Jobs
  | Deadline
  | Tick_budget
  | Journal
  | Fault_p
  | Fault_seed
  | On_desync
  | Dpor

(* The parsed, validated values of every shared flag (defaults for the
   rows a subcommand did not select). *)
type common = {
  co_strategy : Conf.strategy;
  co_strategy_name : string;
  co_seed : int;
  co_env_seed : int;
  co_runs : int;
  co_jobs : int;  (* already resolved: never 0 *)
  co_deadline : float;
  co_tick_budget : int option;
  co_journal : string option;
  co_fault_p : float;
  co_fault_seed : int;
  co_on_desync : Conf.desync_mode;
  co_dpor : bool;
}

let strategy_row =
  let doc =
    "Scheduling strategy for tsan11rec: random, queue, pct:D, db:D, or pb:B."
  in
  Arg.(value & opt string "random" & info [ "strategy"; "s" ] ~docv:"STRAT" ~doc)

let seed_row =
  let doc = "Scheduler PRNG seed (two seeds are derived from it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let env_seed_row =
  let doc = "Environment (external world) seed." in
  Arg.(value & opt int 42 & info [ "env-seed" ] ~docv:"N" ~doc)

let runs_row =
  let doc = "Number of runs." in
  Arg.(value & opt int 100 & info [ "runs"; "n" ] ~docv:"N" ~doc)

let jobs_row =
  let doc =
    "Worker domains for campaign subcommands: 1 (default) runs \
     sequentially, 0 uses every core ($(b,T11R_JOBS) overrides the \
     auto-detected count). Results are identical for every value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"J" ~doc)

let deadline_row =
  let doc =
    "Per-run wall-clock deadline in seconds: a wedged run is cut off with \
     a $(b,timeout) outcome (exit 4) instead of hanging its worker. 0 \
     disables. Wall time is nondeterministic — use $(b,--tick-budget) \
     when the campaign digest must be reproducible."
  in
  Arg.(value & opt float 0.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let tick_budget_row =
  let doc =
    "Deterministic per-run budget: cap every run at $(docv) critical \
     sections (a $(b,tick-limit) outcome, exit 4), identically on every \
     host and at every $(b,--jobs)."
  in
  Arg.(value & opt (some int) None & info [ "tick-budget" ] ~docv:"N" ~doc)

let journal_row =
  let doc =
    "Append every completed run to this checksummed JSONL journal and \
     skip runs it already holds. $(b,--resume) and $(b,--journal) are the \
     same option: pointing it at the journal of an interrupted or killed \
     campaign continues exactly where it stopped, and the final report \
     and digest are bit-identical to an uninterrupted run. A journal of \
     another run (other workload, strategy, seeds, $(b,--env-seed) or \
     $(b,--tick-budget)) is refused with exit status 2 and left as it is. \
     $(b,hunt --guided) refuses this option (exit status 2): its journal \
     is the $(b,--corpus) directory."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "resume"; "journal" ] ~docv:"FILE" ~doc)

let fault_p_row =
  let doc =
    "Inject environment faults (transient EAGAIN/EINTR, connection resets, \
     short transfers) with this per-syscall probability (in [0,1])."
  in
  Arg.(value & opt float 0.0 & info [ "fault-p" ] ~docv:"P" ~doc)

let fault_seed_row =
  let doc = "Seed for the fault plan's PRNG." in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)

let on_desync_row =
  let doc =
    "Replay divergence handling: abort (stop with a hard desync, the \
     default), diagnose (stop with a structured divergence report), or \
     resync (best-effort continuation, counting divergences)."
  in
  Arg.(value & opt string "abort" & info [ "on-desync" ] ~docv:"MODE" ~doc)

let dpor_row =
  let on =
    Arg.info [ "dpor" ]
      ~doc:
        "Dynamic partial-order reduction for $(b,check) (the default): \
         prune schedules that only reorder independent operations. The \
         reduced exploration reports the same distinct outcomes and \
         races as the exhaustive one, in far fewer runs."
  in
  let off =
    Arg.info [ "no-dpor" ]
      ~doc:
        "Disable partial-order reduction: try every enabled thread at \
         every scheduling point. Slower; useful as a soundness oracle."
  in
  Arg.(value & vflag true [ (true, on); (false, off) ])

let usage fmt = Fmt.kstr (fun m -> Fmt.epr "%s@." m; exit 2) fmt

(* A journal or corpus directory the engine refuses (damaged, foreign,
   another run's or another schema's) is a usage error, not a crash. *)
let refused_journal path f =
  match path with
  | None -> f ()
  | Some _ -> ( try f () with Invalid_argument msg -> usage "%s" msg)

let strategy_of name =
  match Conf.strategy_of_name name with
  | Some s -> s
  | None -> (
      match name with
      | "rnd" -> Conf.Random
      | _ -> usage "unknown strategy %S (random|queue|pct:D|db:D|pb:B)" name)

let resolve_jobs j =
  if j < 0 then usage "--jobs must be >= 0 (got %d)" j
  else if j = 0 then T11r_harness.Pool.default_jobs ()
  else j

(* One validating constructor behind every subcommand: strategy and
   desync-mode names parse (or exit 2) here, --jobs resolves here,
   --fault-p range-checks here — identically wherever the flag appears. *)
let common_term flags =
  let pick fl term default =
    if List.mem fl flags then term else Term.const default
  in
  let build strategy seed env_seed runs jobs deadline tick_budget journal
      fault_p fault_seed on_desync dpor =
    if runs < 1 then usage "--runs must be >= 1 (got %d)" runs;
    if deadline < 0.0 then usage "--deadline must be >= 0 (got %g)" deadline;
    if fault_p < 0.0 || fault_p > 1.0 then
      usage "--fault-p must be in [0,1] (got %g)" fault_p;
    (match tick_budget with
    | Some b when b < 1 -> usage "--tick-budget must be >= 1 (got %d)" b
    | _ -> ());
    {
      co_strategy = strategy_of strategy;
      co_strategy_name = strategy;
      co_seed = seed;
      co_env_seed = env_seed;
      co_runs = runs;
      co_jobs = resolve_jobs jobs;
      co_deadline = deadline;
      co_tick_budget = tick_budget;
      co_journal = journal;
      co_fault_p = fault_p;
      co_fault_seed = fault_seed;
      co_on_desync =
        (match Conf.desync_mode_of_name on_desync with
        | Some m -> m
        | None -> usage "unknown desync mode %S (abort|diagnose|resync)" on_desync);
      co_dpor = dpor;
    }
  in
  Term.(
    const build
    $ pick Strategy strategy_row "random"
    $ pick Seed seed_row 1
    $ pick Env_seed env_seed_row 42
    $ pick Runs runs_row 100
    $ pick Jobs jobs_row 1
    $ pick Deadline deadline_row 0.0
    $ pick Tick_budget tick_budget_row None
    $ pick Journal journal_row None
    $ pick Fault_p fault_p_row 0.0
    $ pick Fault_seed fault_seed_row 1
    $ pick On_desync on_desync_row "abort"
    $ pick Dpor dpor_row true)

(* ---- configuration construction ------------------------------------ *)

let lookup_workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> usage "unknown workload %S; try `list'" name

(* Every configuration the CLI hands to the interpreter goes through
   the builder API and then [Conf.validate] — a flag combination the
   library rejects is a usage error, not a crash mid-run. *)
let validated conf =
  match Conf.validate conf with
  | Ok c -> c
  | Error msg -> usage "invalid configuration: %s" msg

let base_conf ~tool ~strategy =
  match tool with
  | "native" -> Conf.native
  | "tsan11" -> Conf.tsan11
  | "rr" -> Conf.rr_model
  | "tsan11+rr" -> Conf.tsan11_rr
  | "tsan11rec" -> Conf.tsan11rec ~strategy ()
  | _ -> usage "unknown tool %S" tool

let prepare ~w ~conf ~seed ~env_seed ?(fault_p = 0.0) ?(fault_seed = 1) ~mode () =
  let conf = Conf.with_mode conf mode in
  let conf = Conf.with_policy conf w.Workloads.w_policy in
  let conf =
    Conf.with_seeds conf (Int64.of_int seed) (Int64.of_int (seed + 7919))
  in
  let conf = validated conf in
  let faults =
    if fault_p > 0.0 then
      T11r_env.Fault.uniform ~seed:(Int64.of_int fault_seed) ~p:fault_p ()
    else T11r_env.Fault.none
  in
  let world = World.create ~seed:(Int64.of_int env_seed) ~faults () in
  let build = w.Workloads.w_instance world in
  (conf, world, build)

let report ?(replay = false) (r : Interp.result) =
  Fmt.pr "outcome:   %a@." Interp.pp_outcome r.outcome;
  Fmt.pr "makespan:  %.3f ms (simulated)@."
    (float_of_int r.makespan_us /. 1000.0);
  Fmt.pr "ticks:     %d critical sections@." r.ticks;
  Fmt.pr "metrics:   %a@." T11r_obs.Metrics.pp r.metrics;
  Fmt.pr "races:     %d distinct report(s)@." r.race_count;
  List.iter (fun rep -> Fmt.pr "  %a@." T11r_race.Report.pp rep) r.races;
  List.iter
    (fun c -> Fmt.pr "  %a@." T11r_race.Lockorder.pp_cycle c)
    r.lock_cycles;
  if replay then begin
    match divergence r with
    | None -> Fmt.pr "replay:    faithful (no divergence)@."
    | Some msg -> Fmt.pr "replay:    DIVERGED: %s@." msg
  end;
  if r.desync_count > 0 then
    Fmt.pr "desyncs:   %d divergence(s) survived@." r.desync_count;
  List.iter (fun d -> Fmt.pr "%a@." Interp.pp_divergence d) r.divergences;
  (match r.demo with
  | Some d -> Fmt.pr "demo:      %a@." Demo.pp d
  | None -> ());
  if String.length r.output > 0 then
    Fmt.pr "---- program output ----@.%s@." r.output

(* ---- subcommands --------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.t) -> Fmt.pr "%-18s %s@." w.w_name w.w_desc)
      Workloads.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ const ())

let run_cmd =
  let run name tool co tsan_style =
    let w = lookup_workload name in
    let conf, world, build =
      prepare ~w
        ~conf:(base_conf ~tool ~strategy:co.co_strategy)
        ~seed:co.co_seed ~env_seed:co.co_env_seed ~fault_p:co.co_fault_p
        ~fault_seed:co.co_fault_seed ~mode:Conf.Free ()
    in
    let r = Interp.run ~world conf (build ()) in
    if tsan_style then begin
      List.iter
        (fun race ->
          print_string
            (T11r_race.Reportfmt.race ~thread_names:r.thread_names race))
        r.races;
      List.iter
        (fun c ->
          print_string
            (T11r_race.Reportfmt.lock_cycle ~thread_names:r.thread_names c))
        r.lock_cycles;
      let s =
        T11r_race.Reportfmt.summary ~races:r.races ~cycles:r.lock_cycles
      in
      if s <> "" then print_endline s
    end;
    report r;
    exit (exit_of r)
  in
  let tsan_flag =
    Arg.(
      value & flag
      & info [ "tsan" ] ~doc:"Print ThreadSanitizer-style warning blocks.")
  in
  Cmd.v
    (Cmd.info "run" ~exits:outcome_exits
       ~doc:"Run a workload once under a tool configuration")
    Term.(
      const run $ workload_arg $ tool_arg
      $ common_term [ Strategy; Seed; Env_seed; Fault_p; Fault_seed ]
      $ tsan_flag)

(* A seed-derived pseudo-random guided prefix: recording under the
   guided strategy is what captures the DECISIONS metadata `predict'
   consumes, and a randomised prefix diversifies the schedules a batch
   of recordings explores (beyond the prefix the strategy follows
   index 0 deterministically). *)
let guided_prefix_of_seed = Predictor.recording_prefix

let record_cmd =
  let run name co demo guided =
    let w = lookup_workload name in
    let strategy =
      if guided then
        Conf.Guided
          { prefix = guided_prefix_of_seed co.co_seed; observed = ref [] }
      else co.co_strategy
    in
    let conf, world, build =
      prepare ~w
        ~conf:(base_conf ~tool:"tsan11rec" ~strategy)
        ~seed:co.co_seed ~env_seed:co.co_env_seed ~fault_p:co.co_fault_p
        ~fault_seed:co.co_fault_seed ~mode:(Conf.Record demo) ()
    in
    let r = Interp.run ~world conf (build ()) in
    report r;
    if co.co_fault_p > 0.0 then
      Fmt.pr "faults:    %d injected@." (World.faults_injected world);
    Fmt.pr "recorded demo in %s@." demo;
    if guided then
      Fmt.pr "decisions: %d step(s) captured — analyse with `predict --demo %s'@."
        (Array.length r.decisions) demo;
    exit (exit_of r)
  in
  let guided_flag =
    Arg.(
      value & flag
      & info [ "guided" ]
          ~doc:
            "Record under the guided strategy with a seed-derived schedule \
             prefix. The recording then carries per-decision metadata \
             (DECISIONS) enabling offline predictive race analysis \
             ($(b,predict)).")
  in
  Cmd.v
    (Cmd.info "record" ~exits:outcome_exits
       ~doc:"Record a demo of one execution")
    Term.(
      const run $ workload_arg
      $ common_term [ Strategy; Seed; Env_seed; Fault_p; Fault_seed ]
      $ demo_arg $ guided_flag)

let replay_cmd =
  let run name co demo salvage =
    let w = lookup_workload name in
    let replay demo =
      let conf, world, build =
        prepare ~w ~conf:(Conf.tsan11rec ()) ~seed:0 ~env_seed:co.co_env_seed
          ~mode:(Conf.Replay demo) ()
      in
      let conf = Conf.with_on_desync conf co.co_on_desync in
      Interp.run ~world conf (build ())
    in
    (* The replay's own load is the integrity check: only a demo it
       finds corrupt is salvaged, into <dir>.salvaged, and replayed
       from there. *)
    let r =
      match replay demo with
      | { Interp.outcome = Interp.Corrupt_demo msg; _ } when salvage -> (
          Fmt.epr "demo corrupt: %s@." msg;
          match Demo.salvage ~dir:demo with
          | Error c ->
              Fmt.epr "cannot salvage: %s@." (Demo.corruption_to_string c);
              exit 3
          | Ok (d, rep) ->
              let out = demo ^ ".salvaged" in
              T11r_util.Tmp.rm_rf out;
              Demo.save d ~dir:out;
              List.iter
                (fun (f, n) ->
                  if n > 0 then
                    Fmt.epr "  %s: dropped %d damaged line(s)@." f n)
                rep.Demo.sv_dropped;
              Fmt.epr "salvaged %d-tick prefix -> %s@." d.Demo.meta.ticks out;
              replay out)
      | r -> r
    in
    report ~replay:true r;
    exit (exit_of r)
  in
  let salvage_flag =
    Arg.(
      value & flag
      & info [ "salvage" ]
          ~doc:
            "If the demo fails its integrity check (truncated or damaged \
             files), recover the longest intact prefix into \
             $(i,DIR).salvaged and replay that — usually enough to reach \
             the recorded bug.")
  in
  Cmd.v
    (Cmd.info "replay" ~exits:outcome_exits
       ~doc:"Replay a recorded demo under its META's strategy and seeds \
             (checks for desync)")
    Term.(
      const run $ workload_arg
      $ common_term [ Env_seed; On_desync ]
      $ demo_arg $ salvage_flag)

(* hunt: the classic blind campaign, or — with --guided — the
   coverage-guided loop breeding candidates from a corpus. *)

let guided_flag =
  Arg.(
    value & flag
    & info [ "guided" ]
        ~doc:
          "Coverage-guided hunting: collect a per-run schedule-coverage \
           fingerprint, keep the seeds that reached new coverage in a \
           corpus, and breed each round's candidates from it. $(b,--runs) \
           becomes the total run budget (rounds of $(b,--batch) runs); \
           results are bit-identical at every $(b,--jobs).")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "With $(b,--guided): persist the corpus and per-round run \
           journals in $(docv). Re-running with the same directory resumes \
           a killed hunt and reproduces the uninterrupted digest. Without \
           $(b,--guided) this option is refused (exit status 2).")

let batch_arg =
  Arg.(
    value & opt int 32
    & info [ "batch" ] ~docv:"N"
        ~doc:"With $(b,--guided): candidates bred and run per round.")

let hunt_cmd =
  let run name co guided corpus batch =
    install_sigint ();
    let w = lookup_workload name in
    let base =
      validated
        (Conf.with_policy
           (base_conf ~tool:"tsan11rec" ~strategy:co.co_strategy)
           w.Workloads.w_policy)
    in
    (* The hunt's historical seed discipline, expressed as a campaign
       spec: scheduler seed i, environment seed env_seed + i, fault
       seed i — run i is a pure function of i, so the hunt shards. *)
    let spec =
      {
        Campaign.label = name;
        conf =
          (fun i ->
            Conf.with_seeds base (Int64.of_int i) (Int64.of_int (i + 7919)));
        instance =
          (fun i ->
            let world =
              Campaign.recycled_world ~seed:(Int64.of_int (co.co_env_seed + i))
            in
            if co.co_fault_p > 0.0 then
              World.set_faults world
                (T11r_env.Fault.uniform ~seed:(Int64.of_int i) ~p:co.co_fault_p ());
            let build = w.Workloads.w_instance world in
            (world, build ()));
      }
    in
    if guided then begin
      (* A guided hunt journals into its corpus directory, never into a
         campaign journal: refuse the flag rather than ignore it. *)
      if co.co_journal <> None then
        usage
          "--resume/--journal does not apply to --guided: a guided hunt \
           journals and resumes through --corpus DIR";
      if batch < 1 then usage "--batch must be >= 1 (got %d)" batch;
      let rounds = max 1 ((co.co_runs + batch - 1) / batch) in
      let g =
        refused_journal corpus (fun () ->
            Guided.hunt spec ~rounds ~batch ~jobs:co.co_jobs ?corpus_dir:corpus
              ~deadline_s:co.co_deadline ?tick_budget:co.co_tick_budget ~cancel
              ())
      in
      Fmt.pr "%a" Guided.pp g;
      if g.Guided.g_interrupted then begin
        (match corpus with
        | Some dir ->
            Fmt.pr "INTERRUPTED; resume with --guided --corpus %s@." dir
        | None ->
            Fmt.pr
              "INTERRUPTED (no corpus directory — progress lost; use \
               --corpus DIR next time)@.");
        exit 130
      end;
      Fmt.pr "digest:    %s@." (Guided.digest g);
      exit
        (if g.Guided.g_racy > 0 || Outcome.count g.Guided.g_outcomes "crashed" > 0
         then 1
         else 0)
    end;
    (* The corpus is the guided hunt's: refuse it rather than ignore it. *)
    if corpus <> None then
      usage
        "--corpus DIR applies only to --guided: a plain hunt journals and \
         resumes through --journal/--resume";
    let c =
      refused_journal co.co_journal (fun () ->
          Campaign.run spec ~n:co.co_runs ~jobs:co.co_jobs ~first:1
            ~deadline_s:co.co_deadline ?tick_budget:co.co_tick_budget
            ?journal:co.co_journal ~cancel [])
    in
    (* Run i is what [run]/[record] execute for --seed i and
       --env-seed env_seed + i (and, with faults, --fault-seed i). *)
    let reproduce verb i =
      Fmt.pr "reproduce with: %s %s -s %s --seed %d --env-seed %d%s@." verb
        name co.co_strategy_name i (co.co_env_seed + i)
        (if co.co_fault_p > 0.0 then
           Printf.sprintf " --fault-p %g --fault-seed %d" co.co_fault_p i
         else "")
    in
    Fmt.pr "%a" Campaign.pp c;
    (match c.Campaign.sightings with
    | s :: _ -> reproduce "run" s.Campaign.s_first
    | [] -> ());
    (match c.Campaign.crashes with
    | (i, _) :: _ -> reproduce "record" i
    | [] -> ());
    exit_if_interrupted co.co_journal;
    Fmt.pr "digest:    %s@." (Campaign.digest c);
    exit (if c.Campaign.racy_runs > 0 || c.Campaign.crashes <> [] then 1 else 0)
  in
  Cmd.v
    (Cmd.info "hunt" ~exits:campaign_exits
       ~doc:"Controlled concurrency testing: many seeds, race/crash counts")
    Term.(
      const run $ workload_arg
      $ common_term
          [
            Strategy; Runs; Env_seed; Fault_p; Jobs; Deadline; Tick_budget;
            Journal;
          ]
      $ guided_flag $ corpus_arg $ batch_arg)

let check_cmd =
  let run name max_runs co =
    if max_runs < 1 then usage "--max-runs must be >= 1 (got %d)" max_runs;
    install_sigint ();
    let w = lookup_workload name in
    let build () =
      (* Systematic exploration is closed-world: setup runs against a
         throwaway world; workloads that need live endpoints fail as
         unsupported, exactly as before. *)
      w.Workloads.w_instance (World.create ~seed:0L ()) ()
    in
    let r =
      refused_journal co.co_journal (fun () ->
          T11r_harness.Systematic.explore ~max_runs ~dpor:co.co_dpor
            ~deadline_s:co.co_deadline ?tick_budget:co.co_tick_budget
            ?journal:co.co_journal ~cancel ~build ())
    in
    Fmt.pr "%a" T11r_harness.Systematic.pp r;
    exit_if_interrupted co.co_journal;
    exit
      (if r.racy_schedules > 0 || r.deadlock_schedules > 0 || r.crash_schedules > 0
       then 1
       else 0)
  in
  let max_runs =
    Arg.(
      value & opt int 2000
      & info [ "max-runs" ] ~docv:"N" ~doc:"Schedule budget for the DFS.")
  in
  Cmd.v
    (Cmd.info "check" ~exits:campaign_exits
       ~doc:
         "Bounded systematic exploration (stateless model checking) of a \
          closed workload.")
    Term.(
      const run $ workload_arg $ max_runs
      $ common_term [ Journal; Deadline; Tick_budget; Dpor ])

let icb_cmd =
  let run name max_bound corpus co =
    let w = lookup_workload name in
    let corpus =
      match corpus with
      | None -> None
      | Some dir -> (
          match refused_journal corpus (fun () -> Guided.load_corpus dir) with
          | Some c ->
              Fmt.pr "seeding from corpus %s (%d seed(s))@." dir
                (T11r_harness.Corpus.size c);
              Some c
          | None ->
              Fmt.epr "no readable corpus snapshots in %s; searching blind@." dir;
              None)
    in
    let r =
      match
        T11r_harness.Minimize.find_bug ~max_bound ~deadline_s:co.co_deadline
          ?tick_budget:co.co_tick_budget ?corpus
          ~build:(fun () -> w.Workloads.w_instance (World.create ~seed:0L ()) ())
          ()
      with
      | r -> r
      | exception Invalid_argument msg -> usage "%s" msg
    in
    Fmt.pr "%a@." T11r_harness.Minimize.pp r;
    exit (match r with T11r_harness.Minimize.Found _ -> 1 | _ -> 0)
  in
  let max_bound =
    Arg.(
      value & opt int 4
      & info [ "max-bound" ] ~docv:"B" ~doc:"Largest preemption bound to try.")
  in
  let corpus_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Seed the search from a guided-hunt corpus directory: its \
             proven seed pairs are tried first at every bound.")
  in
  Cmd.v
    (Cmd.info "icb"
       ~doc:
         "Iterative context bounding: find the smallest preemption bound \
          that exposes a failure")
    Term.(
      const run $ workload_arg $ max_bound $ corpus_opt
      $ common_term [ Deadline; Tick_budget ])

let trace_cmd =
  let run name co demo diff out capacity =
    let w = lookup_workload name in
    if diff && demo = None then
      usage "--diff needs a recording: pass --demo DIR";
    let mode =
      match demo with Some d -> Conf.Replay d | None -> Conf.Free
    in
    let conf, world, build =
      prepare ~w
        ~conf:(base_conf ~tool:"tsan11rec" ~strategy:co.co_strategy)
        ~seed:co.co_seed ~env_seed:co.co_env_seed ~mode ()
    in
    let conf = Conf.with_trace conf ~capacity in
    (* --diff: survive divergences (counting them) so the report covers
       the whole run, not just the prefix before the first mismatch. *)
    let conf =
      if diff then Conf.with_on_desync conf Conf.Resync else conf
    in
    let conf = validated conf in
    let r = Interp.run ~world conf (build ()) in
    let json =
      T11r_obs.Chrome.export ~thread_names:r.Interp.thread_names
        ~events:r.Interp.events ()
    in
    let oc = open_out out in
    output_string oc json;
    close_out oc;
    report ~replay:(demo <> None) r;
    Fmt.pr "events:    %d captured%s -> %s (load in Perfetto or chrome://tracing)@."
      (List.length r.Interp.events)
      (if r.Interp.events_dropped > 0 then
         Fmt.str " (%d older dropped: ring full, raise --capacity)"
           r.Interp.events_dropped
       else "")
      out;
    exit (exit_of r)
  in
  let demo_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "demo"; "d" ] ~docv:"DIR"
          ~doc:
            "Replay this recorded demo instead of a live run, under the \
             strategy its META names.")
  in
  let diff_flag =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "With --demo: continue through divergences (resync) and print a \
             divergence report comparing the replay against the recording.")
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace-event JSON.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 65536
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Event ring-buffer capacity (oldest events drop beyond it).")
  in
  Cmd.v
    (Cmd.info "trace" ~exits:outcome_exits
       ~doc:
         "Run (or replay) a workload with event tracing and export a \
          Perfetto-loadable Chrome trace")
    Term.(
      const run $ workload_arg
      $ common_term [ Strategy; Seed; Env_seed ]
      $ demo_opt $ diff_flag $ out_arg $ capacity_arg)

(* predict: offline predictive race analysis — sound HB relaxation plus
   lockset filtering over recorded decision metadata, with optional
   witness verification. The soundness contract is visible in the exit
   discipline: only pairs a guided replay actually confirmed are
   surfaced as races (exit 1); May pairs and refuted Must pairs are
   always labelled "not a race" and never affect the exit code. *)
let predict_cmd =
  let run wl_opt co demo journal verify corpus attempts =
    if attempts < 1 then usage "--attempts must be >= 1 (got %d)" attempts;
    (* A journal's runs merge into one analysis; a demo is one run,
       verified under its recorded seeds. *)
    let app, recorded_seeds, analysis =
      match journal with
      | Some path ->
          let inputs =
            try Predictor.inputs_of_journal path
            with Invalid_argument msg -> usage "%s" msg
          in
          if inputs = [] then begin
            Fmt.epr
              "no journaled run carries decision metadata — run the campaign \
               under a guided-strategy configuration to capture it@.";
            exit 3
          end;
          Fmt.pr "runs:      %d journaled run(s) carry decision metadata@."
            (List.length inputs);
          ( wl_opt,
            None,
            Predict.merge (List.map Predict.analyze inputs) )
      | None -> (
          let d =
            try Demo.load ~dir:demo
            with Demo.Corrupt c ->
              Fmt.epr "corrupt demo: %s@." (Demo.corruption_to_string c);
              exit 3
          in
          match Predictor.input_of_demo d with
          | Error msg ->
              Fmt.epr "%s: %s@." demo msg;
              exit 3
          | Ok input ->
              let m = d.Demo.meta in
              ( Some (Option.value wl_opt ~default:m.Demo.app),
                Some (m.Demo.seed1, m.Demo.seed2),
                Predict.analyze input ))
    in
    Fmt.pr "%a@." Predict.pp analysis;
    Fmt.pr "digest:    %s@." (Predict.digest analysis);
    if verify then begin
      let app =
        match app with
        | Some n -> n
        | None -> usage "predict --journal --verify needs the WORKLOAD argument"
      in
      let w = lookup_workload app in
      let base =
        validated (Conf.with_policy (Conf.tsan11rec ()) w.Workloads.w_policy)
      in
      (* Every verification attempt rebuilds the same deterministic
         world the recording ran in (--env-seed), so the report is a
         pure function of (analysis, seeds) — byte-identical at every
         --jobs. *)
      let instance () =
        let world = World.create ~seed:(Int64.of_int co.co_env_seed) () in
        let build = w.Workloads.w_instance world in
        (world, build ())
      in
      let rep =
        Predictor.verify ~jobs:co.co_jobs ~attempts ?recorded_seeds
          ~base_conf:base ~instance analysis
      in
      Fmt.pr "%a@." Predictor.pp rep;
      (match corpus with
      | Some dir ->
          let c0 =
            refused_journal corpus (fun () -> Guided.load_corpus dir)
            |> Option.value ~default:Corpus.empty
          in
          let c, added = Predictor.admit c0 rep in
          if added > 0 then refused_journal corpus (fun () -> Guided.save_corpus dir c);
          Fmt.pr
            "corpus:    %d witness(es) admitted to %s (hunt --guided and icb \
             will seed from them)@."
            added dir
      | None -> ());
      exit (if rep.Predictor.r_confirmed > 0 then 1 else 0)
    end;
    exit 0
  in
  let wl_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workload to verify against (defaults to the demo's recorded \
             app; required with $(b,--journal --verify)).")
  in
  let pjournal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Analyse every decision-carrying run of a campaign journal \
             instead of a single demo, deduplicating predicted pairs \
             across runs in run-index order.")
  in
  let verify_flag =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Execute each Must pair's witness schedule under the guided \
             strategy (adaptive prefix repair, recorded seeds first, then \
             a deterministic seed sweep). Confirmed pairs are reported as \
             races (exit 1); refuted ones never are.")
  in
  let pcorpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "With $(b,--verify): admit confirmed witness schedules \
             (guided prefix + seeds + coverage) into the guided corpus in \
             $(docv), where $(b,hunt --guided) and $(b,icb) pick them up.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 48
      & info [ "attempts" ] ~docv:"N"
          ~doc:"With $(b,--verify): execution budget per predicted pair.")
  in
  let exits =
    [
      Cmd.Exit.info 0
        ~doc:"analysis (and verification, if requested) found no confirmed race.";
      Cmd.Exit.info 1 ~doc:"at least one predicted race was confirmed by replay.";
      Cmd.Exit.info 3
        ~doc:
          "the demo is corrupt, carries no decision metadata, or the \
           journal holds none.";
    ]
    @ defaults_sans_ok
  in
  Cmd.v
    (Cmd.info "predict" ~exits
       ~doc:
         "Predict races offline from recorded decision metadata (sound \
          HB-relaxation + lockset), optionally verifying each prediction \
          with a guided witness replay")
    Term.(
      const run $ wl_opt
      $ common_term [ Env_seed; Jobs ]
      $ demo_arg $ pjournal_arg $ verify_flag $ pcorpus_arg $ attempts_arg)

let demo_info_cmd =
  let run dir =
    match Demo.load ~dir with
    | d ->
        Fmt.pr "%a@." Demo.pp d;
        Fmt.pr "  strategy:      %s@." d.meta.strategy;
        Fmt.pr "  seeds:         %Ld %Ld@." d.meta.seed1 d.meta.seed2;
        Fmt.pr "  syscall bytes: %d@." (Demo.syscall_bytes d);
        Fmt.pr "  total bytes:   %d@." (Demo.size_bytes d);
        Fmt.pr "  integrity:     verified (MANIFEST + per-file checksums)@.";
        (* Decision metadata: present only on guided-strategy
           recordings, and the precondition for `predict'. *)
        (match Predictor.input_of_demo d with
        | Error msg -> Fmt.pr "  decisions:     %s@." msg
        | Ok input ->
            let kinds = Hashtbl.create 8 in
            Array.iter
              (fun (d : Decision.t) ->
                let k =
                  match d.d_foot with
                  | F_local -> "local"
                  | F_atomic _ -> "atomic"
                  | F_fence -> "fence"
                  | F_sync _ -> "sync"
                  | F_spawn _ -> "spawn"
                  | F_join _ -> "join"
                  | F_syscall _ -> "syscall"
                  | F_global -> "global"
                in
                Hashtbl.replace kinds k
                  (1 + Option.value (Hashtbl.find_opt kinds k) ~default:0))
              input.Predict.steps;
            let ks =
              Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
              |> List.sort compare
              |> List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v)
              |> String.concat " "
            in
            Fmt.pr
              "  decisions:     %d step(s), %d access(es), %d observed \
               race(s) — predict-ready (%s)@."
              (Array.length input.Predict.steps)
              (Array.length input.Predict.accs)
              (List.length input.Predict.observed)
              ks)
    | exception Demo.Corrupt c ->
        Fmt.epr "corrupt demo: %s@." (Demo.corruption_to_string c);
        Fmt.epr "(replay --salvage can recover the intact prefix)@.";
        exit 3
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Demo directory")
  in
  let exits =
    Cmd.Exit.info 3 ~doc:"the demo directory is corrupt or unreadable."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "demo-info" ~exits
       ~doc:"Summarise and integrity-check a recorded demo")
    Term.(const run $ dir)

let () =
  let doc = "sparse record and replay with controlled scheduling" in
  let info = Cmd.info "tsan11rec" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; record_cmd; replay_cmd; hunt_cmd;
            check_cmd; icb_cmd; trace_cmd; predict_cmd; demo_info_cmd;
          ]))
