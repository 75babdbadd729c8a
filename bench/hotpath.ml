(* Hot-path microbenchmarks: per-operation cost (ns and allocated
   minor-heap words) of the clock / store-window / detector
   representations, plus whole-run campaign throughput on fig1 and
   mcs-lock. Writes machine-readable BENCH_hotpath.json so the perf
   trajectory is tracked PR over PR, and *fails* (exit 1) if any
   per-op allocation exceeds its committed words/op budget — words
   per op is machine-independent, so the budget is CI-enforceable
   where wall-clock is not.

     dune exec bench/main.exe -- ops [--smoke] [--jobs N]

   The baseline numbers below were measured on the tree as of the
   previous PR (before the allocation-free hot-path work), same
   machine and method, and are committed so every later run reports
   its speedup against the same fixed reference. *)

module Conf = Tsan11rec.Conf
module Campaign = T11r_harness.Campaign
module Atomics = T11r_mem.Atomics
module Memord = T11r_mem.Memord
module Tstate = T11r_mem.Tstate
module Detector = T11r_race.Detector
module Coverage = T11r_race.Coverage
module Trace = T11r_obs.Trace

(* ------------------------------------------------------------------ *)
(* Baseline: the pre-optimisation tree (PR 2 head).                     *)

(* op -> (ns/op, words/op) *)
let baseline_ops =
  [
    ("store_relaxed", (145.7, 29.0));
    ("store_release", (125.6, 29.0));
    ("load_relaxed", (115.4, 14.0));
    ("load_acquire", (118.0, 14.0));
    ("rmw_acq_rel", (237.2, 43.0));
    ("fence_seq_cst", (164.6, 23.0));
    ("det_read", (40.5, 2.0));
    ("det_write", (24.5, 17.0));
  ]

(* campaign label -> single-run throughput (runs/s, jobs=1) *)
let baseline_runs = [ ("fig1", 65_148.0); ("mcs-lock", 58_458.0) ]

(* Committed words/op budgets: CI fails when exceeded. These are set
   with ~2x slack over the optimised steady-state numbers so noise
   and minor drift pass, but a representation regression (say, a
   reintroduced per-op array copy) trips them. *)
let budgets =
  [
    ("store_relaxed", 2);
    ("store_release", 4);
    ("load_relaxed", 2);
    ("load_acquire", 2);
    ("rmw_acq_rel", 6);
    ("fence_seq_cst", 10);
    ("det_read", 1);
    ("det_write", 1);
    (* Run-context recycling: ctx_reset is an empty program on a
       recycled arena + world — the per-run setup floor. *)
    ("ctx_reset", 600);
    (* Tracing: disabled must be free (the interpreter threads a trace
       through every run, so this is the budget that keeps observability
       off the hot path); enabled writes into preallocated rings. *)
    ("trace_emit_disabled", 0);
    ("trace_emit_enabled", 0);
    (* Coverage fingerprinting: disabled must be free (one branch, no
       hash computed) — the guard pattern below is exactly what the
       interpreter compiles at every mark site; enabled sets bits in a
       preallocated bitmap. *)
    ("cov_mark_disabled", 0);
    ("cov_mark_enabled", 0);
    (* Predictive analysis: run_decisions_off pins the zero-cost claim
       — a fig1 run on a recycled arena with decision capture off
       (Random strategy) must allocate no more than it did before the
       capture machinery existed (the plain-run floor); run_decisions_on
       is the same run under Guided with capture live, whose budget
       bounds the metadata cost; predict_analyze is the offline pass
       itself on that recording's input. *)
    ("run_decisions_off", 3_000);
    ("run_decisions_on", 4_500);
    ("predict_analyze", 4_000);
    (* Demo durability: whole-recording operations, not per-op costs.
       The generous budgets catch algorithmic regressions (an O(n^2)
       re-render, CRC over a string copy per line), not byte drift. *)
    ("demo_save", 8_000);
    ("demo_save_nofsync", 8_000);
    ("demo_load", 8_000);
  ]

(* ------------------------------------------------------------------ *)

let measure ~iters f =
  for _ = 1 to 2_000 do
    f ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  ( (t1 -. t0) *. 1e9 /. float_of_int iters,
    (w1 -. w0) /. float_of_int iters )

(* Like [measure] but for file-set operations: a handful of warmup
   iterations instead of 2000 (each call costs syscalls, and durable
   saves cost fsyncs). *)
let measure_io ~iters f =
  for _ = 1 to 8 do
    f ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  ( (t1 -. t0) *. 1e9 /. float_of_int iters,
    (w1 -. w0) /. float_of_int iters )

type op_row = {
  op : string;
  ns : float;
  words : float;
  budget : int;
  within : bool;
}

(* One writer and one (unsynchronised) reader over a single location,
   the steady state every campaign spends its time in. Fresh state per
   benchmark so floors/window contents do not leak across rows. *)
let op_benches ~iters =
  let bench name f =
    let ns, words = measure ~iters f in
    let budget = List.assoc name budgets in
    { op = name; ns; words; budget; within = words <= float_of_int budget }
  in
  let fresh () =
    let mem = Atomics.create ~max_history:8 () in
    let loc = Atomics.fresh_loc mem ~name:"bench" ~init:0 in
    let writer = Tstate.create ~tid:0 in
    let reader = Tstate.create ~tid:1 in
    (mem, loc, writer, reader)
  in
  let first = fun _n -> 0 in
  [
    (let mem, loc, writer, _ = fresh () in
     bench "store_relaxed" (fun () ->
         Atomics.store mem loc writer Memord.Relaxed 1));
    (let mem, loc, writer, _ = fresh () in
     bench "store_release" (fun () ->
         Atomics.store mem loc writer Memord.Release 1));
    (let mem, loc, writer, reader = fresh () in
     Atomics.store mem loc writer Memord.Relaxed 1;
     bench "load_relaxed" (fun () ->
         ignore (Atomics.load mem loc reader Memord.Relaxed ~choose:first)));
    (let mem, loc, writer, reader = fresh () in
     Atomics.store mem loc writer Memord.Release 1;
     bench "load_acquire" (fun () ->
         ignore (Atomics.load mem loc reader Memord.Acquire ~choose:first)));
    (let mem, loc, writer, _ = fresh () in
     bench "rmw_acq_rel" (fun () ->
         ignore (Atomics.rmw mem loc writer Memord.Acq_rel (fun v -> v + 1))));
    (let mem, _, writer, _ = fresh () in
     bench "fence_seq_cst" (fun () -> Atomics.fence mem writer Memord.Seq_cst));
    (let det = Detector.create () in
     let var = Detector.fresh_var det ~name:"bench" in
     let st = Tstate.create ~tid:0 in
     Detector.write det var ~st;
     bench "det_read" (fun () -> Detector.read det var ~st));
    (let det = Detector.create () in
     let var = Detector.fresh_var det ~name:"bench" in
     let st = Tstate.create ~tid:0 in
     bench "det_write" (fun () -> Detector.write det var ~st));
    (let tr = Trace.disabled in
     bench "trace_emit_disabled" (fun () ->
         Trace.emit tr Trace.Op ~tick:1 ~tid:0 ~label:"bench" ~ts:10 ~dur:2));
    (let tr = Trace.create ~capacity:4096 () in
     bench "trace_emit_enabled" (fun () ->
         Trace.emit tr Trace.Op ~tick:1 ~tid:0 ~label:"bench" ~ts:10 ~dur:2));
    (let cov = Coverage.disabled in
     bench "cov_mark_disabled" (fun () ->
         if Coverage.enabled cov then
           Coverage.mark cov (Coverage.site_edge ~tid:1 ~obj:2)));
    (let cov = Coverage.create () in
     bench "cov_mark_enabled" (fun () ->
         Coverage.mark cov (Coverage.site_edge ~tid:1 ~obj:2)));
  ]
  @
  (* Whole-run rows: each iteration is a full interpreter run (µs, not
     ns), so they get a fraction of the per-op iteration count. *)
  let bench_run name f =
    let ns, words = measure ~iters:(max 2_000 (iters / 40)) f in
    let budget = List.assoc name budgets in
    { op = name; ns; words; budget; within = words <= float_of_int budget }
  in
  let run_conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ()) 3L 5L in
  [
    (let arena = Tsan11rec.Interp.create_arena () in
     let world = T11r_env.World.create ~seed:1L () in
     let empty = { T11r_vm.Api.pname = "empty"; main = (fun () -> ()) } in
     bench_run "ctx_reset" (fun () ->
         T11r_env.World.reset world ~seed:1L;
         ignore (Tsan11rec.Interp.run ~world ~arena run_conf empty)));
    (let arena = Tsan11rec.Interp.create_arena () in
     let world = T11r_env.World.create ~seed:1L () in
     let build = T11r_litmus.Registry.fig1.build in
     bench_run "run_decisions_off" (fun () ->
         T11r_env.World.reset world ~seed:1L;
         ignore (Tsan11rec.Interp.run ~world ~arena run_conf (build ()))));
    (let arena = Tsan11rec.Interp.create_arena () in
     let world = T11r_env.World.create ~seed:1L () in
     let build = T11r_litmus.Registry.fig1.build in
     let guided_conf =
       Conf.make
         ~base:(Conf.tsan11rec ())
         ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] })
         ~seeds:(3L, 5L) ()
     in
     bench_run "run_decisions_on" (fun () ->
         T11r_env.World.reset world ~seed:1L;
         ignore (Tsan11rec.Interp.run ~world ~arena guided_conf (build ()))));
    (let world = T11r_env.World.create ~seed:1L () in
     let guided_conf =
       Conf.make
         ~base:(Conf.tsan11rec ())
         ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] })
         ~seeds:(3L, 5L) ()
     in
     let r =
       Tsan11rec.Interp.run ~world guided_conf
         (T11r_litmus.Registry.fig1.build ())
     in
     let input = Tsan11rec.Interp.to_predict_input r in
     bench_run "predict_analyze" (fun () ->
         ignore (T11r_race.Predict.analyze input)));
  ]

(* Demo durability: cost of a crash-atomic save (fresh sibling dir +
   fsync + rename), the same save without the fsyncs, and a verifying
   load (CRC trailer + MANIFEST check per file) — measured on a real
   fig1 recording. *)
let demo_benches ~smoke =
  let iters = if smoke then 40 else 400 in
  let bench name ~iters f =
    let ns, words = measure_io ~iters f in
    let budget = List.assoc name budgets in
    { op = name; ns; words; budget; within = words <= float_of_int budget }
  in
  let base = T11r_util.Tmp.fresh_dir ~prefix:"t11r" () in
  let world = T11r_env.World.create ~seed:1L () in
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Random
         ~mode:(Conf.Record (Filename.concat base "rec"))
         ())
      1L 2L
  in
  let r =
    Tsan11rec.Interp.run ~world conf (T11r_litmus.Registry.fig1.build ())
  in
  let d = Option.get r.Tsan11rec.Interp.demo in
  let target = Filename.concat base "bench-demo" in
  Tsan11rec.Demo.save d ~dir:target;
  let rows =
    [
      bench "demo_save" ~iters:(max 10 (iters / 4)) (fun () ->
          Tsan11rec.Demo.save d ~dir:target);
      bench "demo_save_nofsync" ~iters (fun () ->
          Tsan11rec.Demo.save ~durable:false d ~dir:target);
      bench "demo_load" ~iters (fun () ->
          ignore (Tsan11rec.Demo.load ~dir:target));
    ]
  in
  T11r_util.Tmp.rm_rf base;
  rows

(* ------------------------------------------------------------------ *)

type run_row = {
  label : string;
  runs : int;
  runs_per_s : float;
  base_runs_per_s : float;
  speedup : float;
  jobs_identical : bool;
  setup_fresh_ns : float;  (* per-run ctx creation (no arena) *)
  setup_reset_ns : float;  (* per-run ctx reset on a recycled arena *)
}

(* Per-run setup honesty: the time an empty program costs with a fresh
   context per run versus an in-place reset on a recycled arena +
   world. Workload-independent, measured once and stamped on every
   run row. *)
let setup_ns ~smoke =
  let iters = if smoke then 2_000 else 20_000 in
  let conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ()) 3L 5L in
  let empty = { T11r_vm.Api.pname = "empty"; main = (fun () -> ()) } in
  let fresh_ns, _ =
    measure ~iters (fun () ->
        let world = T11r_env.World.create ~seed:1L () in
        ignore (Tsan11rec.Interp.run ~world conf empty))
  in
  let arena = Tsan11rec.Interp.create_arena () in
  let world = T11r_env.World.create ~seed:1L () in
  let reset_ns, _ =
    measure ~iters (fun () ->
        T11r_env.World.reset world ~seed:1L;
        ignore (Tsan11rec.Interp.run ~world ~arena conf empty))
  in
  (fresh_ns, reset_ns)

let campaign_bench ~smoke ~par_jobs ~setup (entry : T11r_litmus.Registry.entry)
    ~n =
  let n = if smoke then max 50 (n / 10) else n in
  let spec =
    Campaign.spec ~label:entry.T11r_litmus.Registry.name
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      entry.T11r_litmus.Registry.build
  in
  (* Best-of-3 (1 in smoke mode): whole-campaign wall clock on a shared
     machine is noisy and every repeat produces the identical
     aggregate, so the fastest repeat is the least-interfered
     measurement of the same computation. *)
  let seq = Campaign.run spec ~n ~jobs:1 [] in
  let seq =
    if smoke then seq
    else
      List.fold_left
        (fun best _ ->
          let r = Campaign.run spec ~n ~jobs:1 [] in
          if Campaign.runs_per_sec r > Campaign.runs_per_sec best then r
          else best)
        seq [ (); () ]
  in
  (* The acceptance bar also wants the aggregate unchanged at every
     worker count; check a few besides 1. *)
  let jobs_identical =
    List.for_all
      (fun j -> Campaign.equal seq (Campaign.run spec ~n ~jobs:j []))
      (List.sort_uniq compare [ 2; 3; par_jobs ])
  in
  let base =
    match List.assoc_opt spec.Campaign.label baseline_runs with
    | Some r -> r
    | None -> 0.0
  in
  let rps = Campaign.runs_per_sec seq in
  let setup_fresh_ns, setup_reset_ns = setup in
  {
    label = spec.Campaign.label;
    runs = n;
    runs_per_s = rps;
    base_runs_per_s = base;
    speedup = (if base > 0.0 then rps /. base else 0.0);
    jobs_identical;
    setup_fresh_ns;
    setup_reset_ns;
  }

(* ------------------------------------------------------------------ *)

let json_of_ops rows =
  String.concat ",\n"
    (List.map
       (fun r ->
         let bns, bw =
           match List.assoc_opt r.op baseline_ops with
           | Some (ns, w) -> (ns, w)
           | None -> (0.0, 0.0)
         in
         Printf.sprintf
           "    {\"op\": \"%s\", \"ns_per_op\": %.1f, \"words_per_op\": %.2f, \
            \"budget_words\": %d, \"within_budget\": %b, \
            \"baseline_ns_per_op\": %.1f, \"baseline_words_per_op\": %.2f}"
           r.op r.ns r.words r.budget r.within bns bw)
       rows)

let json_of_runs rows =
  String.concat ",\n"
    (List.map
       (fun r ->
         Printf.sprintf
           "    {\"label\": \"%s\", \"runs\": %d, \"runs_per_s\": %.1f, \
            \"baseline_runs_per_s\": %.1f, \"speedup_vs_baseline\": %.3f, \
            \"aggregates_identical_across_jobs\": %b, \
            \"setup_ns_per_run\": {\"fresh_ctx\": %.0f, \"reset_ctx\": %.0f}}"
           r.label r.runs r.runs_per_s r.base_runs_per_s r.speedup
           r.jobs_identical r.setup_fresh_ns r.setup_reset_ns)
       rows)

let run ~smoke ~jobs =
  let par_jobs = if jobs > 1 then jobs else 4 in
  let iters = if smoke then 200_000 else 2_000_000 in
  let ops = op_benches ~iters @ demo_benches ~smoke in
  let t = T11r_util.Table.create ~title:"Per-operation hot-path cost"
      ~headers:[ "op"; "ns/op"; "words/op"; "budget"; "ok?"; "baseline ns" ]
  in
  List.iter
    (fun r ->
      let bns =
        match List.assoc_opt r.op baseline_ops with
        | Some (ns, _) -> Printf.sprintf "%.0f" ns
        | None -> "-"
      in
      T11r_util.Table.add_row t
        [
          r.op;
          Printf.sprintf "%.1f" r.ns;
          Printf.sprintf "%.2f" r.words;
          string_of_int r.budget;
          (if r.within then "yes" else "OVER");
          bns;
        ])
    ops;
  T11r_util.Table.print t;
  let setup = setup_ns ~smoke in
  let fig1 =
    campaign_bench ~smoke ~par_jobs ~setup T11r_litmus.Registry.fig1 ~n:20_000
  in
  let mcs =
    campaign_bench ~smoke ~par_jobs ~setup
      (Option.get (T11r_litmus.Registry.find "mcs-lock"))
      ~n:4_000
  in
  let runs = [ fig1; mcs ] in
  let t2 =
    T11r_util.Table.create ~title:"Single-run campaign throughput (jobs=1)"
      ~headers:[ "campaign"; "runs"; "runs/s"; "baseline"; "speedup"; "jobs ok?" ]
  in
  List.iter
    (fun r ->
      T11r_util.Table.add_row t2
        [
          r.label;
          string_of_int r.runs;
          Printf.sprintf "%.0f" r.runs_per_s;
          Printf.sprintf "%.0f" r.base_runs_per_s;
          Printf.sprintf "%.2fx" r.speedup;
          (if r.jobs_identical then "yes" else "NO");
        ])
    runs;
  T11r_util.Table.print t2;
  let json =
    Printf.sprintf
      "{\n\
      \  \"schema\": \"tsan11rec/hotpath-bench/v1\",\n\
      \  \"smoke\": %b,\n\
      \  \"iters_per_op\": %d,\n\
      \  \"ops\": [\n%s\n  ],\n\
      \  \"runs\": [\n%s\n  ]\n}\n"
      smoke iters (json_of_ops ops) (json_of_runs runs)
  in
  let oc = open_out "BENCH_hotpath.json" in
  output_string oc json;
  close_out oc;
  Fmt.pr "wrote BENCH_hotpath.json@.";
  let over = List.filter (fun r -> not r.within) ops in
  if over <> [] then begin
    List.iter
      (fun r ->
        Fmt.epr "ops: %s allocates %.2f words/op, budget %d@." r.op r.words
          r.budget)
      over;
    exit 1
  end
