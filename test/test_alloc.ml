(* Allocation budgets for the hot paths: minor-heap words per call,
   read with [Gc.minor_words] around a warmed-up loop. Words per call
   do not depend on the machine, so a representation regression (a
   reintroduced per-op clock copy, an allocation on a disabled trace or
   coverage path, an O(n^2) demo re-render) fails here on any host.
   Nonzero budgets leave at least 2x slack over the measured steady
   state; the zero budgets are exact.
   Timing is not asserted: the benchmark's atomics.*, detector.*,
   interp.* and demo.* probes report it. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module World = T11r_env.World
module Atomics = T11r_mem.Atomics
module Memord = T11r_mem.Memord
module Tstate = T11r_mem.Tstate
module Detector = T11r_race.Detector
module Coverage = T11r_race.Coverage
module Trace = T11r_obs.Trace

(* Loop shapes, as (warm-up calls, measured calls). A whole run costs
   microseconds, so it gets fewer calls than a single operation; a
   demo file-set operation costs syscalls (and fsyncs when durable),
   so it gets a handful of warm-up calls. *)
let per_op = (2_000, 200_000)
let per_run = (2_000, 5_000)
let per_io iters = (8, iters)

let words_per_call (warmup, iters) f =
  for _ = 1 to warmup do
    f ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* One row: [with_op k] builds fresh state, passes the measured call to
   [k], and cleans up after it. *)
type row = {
  op : string;
  budget : int;
  loop : int * int;
  with_op : ((unit -> unit) -> unit) -> unit;
}

(* One writer and one unsynchronised reader over a single location:
   the steady state every campaign spends its time in. *)
let fresh_loc () =
  let mem = Atomics.create ~max_history:8 () in
  let loc = Atomics.fresh_loc mem ~name:"bench" ~init:0 in
  (mem, loc, Tstate.create ~tid:0, Tstate.create ~tid:1)

let choose_first _ = 0

let atomics_rows =
  [
    { op = "store_relaxed"; budget = 2; loop = per_op;
      with_op =
        (fun k ->
          let mem, loc, writer, _ = fresh_loc () in
          k (fun () -> Atomics.store mem loc writer Memord.Relaxed 1)) };
    { op = "store_release"; budget = 4; loop = per_op;
      with_op =
        (fun k ->
          let mem, loc, writer, _ = fresh_loc () in
          k (fun () -> Atomics.store mem loc writer Memord.Release 1)) };
    { op = "load_relaxed"; budget = 2; loop = per_op;
      with_op =
        (fun k ->
          let mem, loc, writer, reader = fresh_loc () in
          Atomics.store mem loc writer Memord.Relaxed 1;
          k (fun () ->
              ignore
                (Atomics.load mem loc reader Memord.Relaxed
                   ~choose:choose_first))) };
    { op = "load_acquire"; budget = 2; loop = per_op;
      with_op =
        (fun k ->
          let mem, loc, writer, reader = fresh_loc () in
          Atomics.store mem loc writer Memord.Release 1;
          k (fun () ->
              ignore
                (Atomics.load mem loc reader Memord.Acquire
                   ~choose:choose_first))) };
    { op = "rmw_acq_rel"; budget = 6; loop = per_op;
      with_op =
        (fun k ->
          let mem, loc, writer, _ = fresh_loc () in
          k (fun () ->
              ignore
                (Atomics.rmw mem loc writer Memord.Acq_rel (fun v -> v + 1))))
    };
    { op = "fence_seq_cst"; budget = 10; loop = per_op;
      with_op =
        (fun k ->
          let mem, _, writer, _ = fresh_loc () in
          k (fun () -> Atomics.fence mem writer Memord.Seq_cst)) };
  ]

let detector_rows =
  let fresh_var () =
    let det = Detector.create () in
    (det, Detector.fresh_var det ~name:"bench", Tstate.create ~tid:0)
  in
  [
    { op = "det_read"; budget = 1; loop = per_op;
      with_op =
        (fun k ->
          let det, var, st = fresh_var () in
          Detector.write det var ~st;
          k (fun () -> Detector.read det var ~st)) };
    { op = "det_write"; budget = 1; loop = per_op;
      with_op =
        (fun k ->
          let det, var, st = fresh_var () in
          k (fun () -> Detector.write det var ~st)) };
  ]

(* Tracing and coverage must be free when off: the interpreter threads
   both through every run. The disabled coverage row is the guard the
   interpreter compiles at every mark site. When on, both write into
   preallocated storage. *)
let observability_rows =
  let emit tr () =
    Trace.emit tr Trace.Op ~tick:1 ~tid:0 ~label:"bench" ~ts:10 ~dur:2
  in
  [
    { op = "trace_emit_disabled"; budget = 0; loop = per_op;
      with_op = (fun k -> k (emit Trace.disabled)) };
    { op = "trace_emit_enabled"; budget = 0; loop = per_op;
      with_op = (fun k -> k (emit (Trace.create ~capacity:4096 ()))) };
    { op = "cov_mark_disabled"; budget = 0; loop = per_op;
      with_op =
        (fun k ->
          let cov = Coverage.disabled in
          k (fun () ->
              if Coverage.enabled cov then
                Coverage.mark cov (Coverage.site_edge ~tid:1 ~obj:2))) };
    { op = "cov_mark_enabled"; budget = 0; loop = per_op;
      with_op =
        (fun k ->
          let cov = Coverage.create () in
          k (fun () -> Coverage.mark cov (Coverage.site_edge ~tid:1 ~obj:2))) };
  ]

(* Whole runs on a recycled arena and world. ctx_reset is the per-run
   setup floor (an empty program). run_decisions_off is a fig1 run with
   decision capture off (Random strategy): the plain-run floor.
   run_decisions_on is the same run under Guided with capture live, so
   its budget bounds the metadata cost. predict_analyze is the offline
   pass over that recording's input. *)
let run_conf = Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ()) 3L 5L

let guided_conf () =
  Conf.make ~base:(Conf.tsan11rec ())
    ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] })
    ~seeds:(3L, 5L) ()

let recycled conf build k =
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  k (fun () ->
      World.reset world ~seed:1L;
      ignore (Interp.run ~world ~arena conf (build ())))

let fig1 = T11r_litmus.Registry.fig1.build

let run_rows =
  [
    { op = "ctx_reset"; budget = 600; loop = per_run;
      with_op =
        recycled run_conf (fun () ->
            { T11r_vm.Api.pname = "empty"; main = (fun () -> ()) }) };
    { op = "run_decisions_off"; budget = 3_000; loop = per_run;
      with_op = recycled run_conf fig1 };
    { op = "run_decisions_on"; budget = 4_500; loop = per_run;
      with_op = (fun k -> recycled (guided_conf ()) fig1 k) };
    { op = "predict_analyze"; budget = 4_000; loop = per_run;
      with_op =
        (fun k ->
          let world = World.create ~seed:1L () in
          let r = Interp.run ~world (guided_conf ()) (fig1 ()) in
          let input = Interp.to_predict_input r in
          k (fun () -> ignore (T11r_race.Predict.analyze input))) };
  ]

(* Coverage summary arithmetic on full 512-byte bitmaps, as a guided
   hunt does it after every run: the campaign's union, the corpus'
   admission count, the run's bit count. Only [union] may allocate, and
   only its result (a 512-byte string: 64 words, a padding word and a
   header). [is_empty] reads an all-zero bitmap, its longest scan.
   run_coverage_on is run_decisions_off with coverage marking on. *)
let summary_of sites =
  let cov = Coverage.create () in
  List.iter (fun obj -> Coverage.mark cov (Coverage.site_edge ~tid:1 ~obj)) sites;
  Coverage.summarize cov

let cov_a = summary_of (List.init 40 Fun.id)
let cov_b = summary_of (List.init 40 (fun i -> i + 20))

let coverage_rows =
  [
    { op = "cov_popcount"; budget = 0; loop = per_op;
      with_op = (fun k -> k (fun () -> ignore (Coverage.popcount cov_a))) };
    { op = "cov_is_empty"; budget = 0; loop = per_op;
      with_op =
        (fun k ->
          let zeros = summary_of [] in
          k (fun () -> ignore (Coverage.is_empty zeros))) };
    { op = "cov_new_bits"; budget = 0; loop = per_op;
      with_op =
        (fun k -> k (fun () -> ignore (Coverage.new_bits ~base:cov_a cov_b))) };
    { op = "cov_union"; budget = 66; loop = per_op;
      with_op = (fun k -> k (fun () -> ignore (Coverage.union cov_a cov_b))) };
    { op = "run_coverage_on"; budget = 3_000; loop = per_run;
      with_op = recycled (Conf.with_coverage run_conf true) fig1 };
  ]

(* Demo durability on a real recording: a crash-atomic save (fresh
   sibling dir, fsync, rename), the same save without fsyncs, and a
   verifying load (CRC trailer and MANIFEST check per file). The fig1
   demo is a few hundred bytes; httpd's (queue strategy) is ~73 KB,
   where rendering and parsing dominate. *)
let with_demo record f k =
  let base = T11r_util.Tmp.fresh_dir ~prefix:"t11r" () in
  let r = record (Conf.Record (Filename.concat base "rec")) in
  let d = Option.get r.Interp.demo in
  let dir = Filename.concat base "demo" in
  Demo.save d ~dir;
  Fun.protect
    ~finally:(fun () -> T11r_util.Tmp.rm_rf base)
    (fun () -> k (f d dir))

let fig1_demo =
  with_demo (fun mode ->
      Interp.run ~world:(World.create ~seed:1L ())
        (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Random ~mode ()) 1L 2L)
        (fig1 ()))

let httpd_demo =
  with_demo (fun mode ->
      let w = Option.get (T11r_harness.Workloads.find "httpd") in
      let world = World.create ~seed:5L () in
      Interp.run ~world
        (Conf.with_policy
           (Conf.with_seeds (Conf.tsan11rec ~strategy:Conf.Queue ~mode ()) 11L 13L)
           w.w_policy)
        (w.w_instance world ()))

let demo_rows =
  [
    { op = "demo_save"; budget = 8_000; loop = per_io 10;
      with_op = fig1_demo (fun d dir () -> Demo.save d ~dir) };
    { op = "demo_save_nofsync"; budget = 8_000; loop = per_io 40;
      with_op = fig1_demo (fun d dir () -> Demo.save ~durable:false d ~dir) };
    { op = "demo_load"; budget = 8_000; loop = per_io 40;
      with_op = fig1_demo (fun _ dir () -> ignore (Demo.load ~dir)) };
  ]

(* Render once into one buffer, checksum once, read each file once:
   a Printf call per field or a second pass over the lines shows up
   here as hundreds of thousands of words. *)
let httpd_demo_rows =
  [
    { op = "demo_save_nofsync_httpd"; budget = 56_000; loop = per_io 20;
      with_op = httpd_demo (fun d dir () -> Demo.save ~durable:false d ~dir) };
    { op = "demo_load_httpd"; budget = 890_000; loop = per_io 20;
      with_op = httpd_demo (fun _ dir () -> ignore (Demo.load ~dir)) };
  ]

(* The scheduler draws two or three times per tick, so a draw must not
   box its 64 bits. *)
let prng_rows =
  [
    { op = "prng_int"; budget = 0; loop = per_op;
      with_op =
        (fun k ->
          let rng = T11r_util.Prng.create ~seed1:3L ~seed2:5L in
          k (fun () -> ignore (T11r_util.Prng.int rng 7))) };
  ]

let test_row r () =
  r.with_op (fun f ->
      let words = words_per_call r.loop f in
      if words > float_of_int r.budget then
        Alcotest.failf "%s allocates %.2f words per call, budget %d" r.op words
          r.budget)

(* The scheduler tick, measured per tick: a random ms-queue run (about
   1,900 ticks) on a recycled arena and world, where per-tick cost
   swamps the per-run setup. Same seeds every call, so every call runs
   the same ticks. *)
let tick_budget = 104

let test_run_random_ms_queue () =
  let build = (Option.get (T11r_litmus.Registry.find "ms-queue")).build in
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  let run () =
    World.reset world ~seed:1L;
    (Interp.run ~world ~arena run_conf (build ())).Interp.ticks
  in
  let ticks = run () in
  let words =
    words_per_call (20, 100) (fun () -> ignore (run ())) /. float_of_int ticks
  in
  if words > float_of_int tick_budget then
    Alcotest.failf "run_random_ms_queue allocates %.2f words per tick, budget %d"
      words tick_budget

let () =
  Alcotest.run "alloc"
    [
      ( "budget",
        List.map
          (fun r ->
            Alcotest.test_case
              (Printf.sprintf "%s <= %d words" r.op r.budget)
              `Quick (test_row r))
          (atomics_rows @ detector_rows @ observability_rows @ run_rows
         @ demo_rows @ coverage_rows @ httpd_demo_rows @ prng_rows)
        @ [
            Alcotest.test_case
              (Printf.sprintf "run_random_ms_queue <= %d words per tick"
                 tick_budget)
              `Quick test_run_random_ms_queue;
          ] );
    ]
