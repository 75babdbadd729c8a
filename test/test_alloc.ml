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
   setup floor (an empty program): 79 words, 256 when the run context,
   its closures and the main thread's fiber handler were built per run
   and a reseed boxed its SplitMix64 state. run_decisions_off is a fig1
   run with decision capture off (Random strategy): the plain-run
   floor. run_decisions_on is the same run under Guided with capture
   live, so its budget bounds the metadata cost: 379 words, 418 while
   Guided consed each tick's fan-out onto its [observed] log, 635 when
   each tick consed its decision. predict_analyze is the
   offline pass over that recording's input. *)
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
    { op = "ctx_reset"; budget = 158; loop = per_run;
      with_op =
        recycled run_conf (fun () ->
            { T11r_vm.Api.pname = "empty"; main = (fun () -> ()) }) };
    { op = "run_decisions_off"; budget = 3_000; loop = per_run;
      with_op = recycled run_conf fig1 };
    { op = "run_decisions_on"; budget = 836; loop = per_run;
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
   sibling dir, write, one fsync pass, rename), the same save without
   fsyncs, and a verifying load (CRC trailer and MANIFEST check per
   file). The fig1 demo is a few hundred bytes; httpd's (queue
   strategy) is ~73 KB, where rendering and parsing dominate. Measured
   on fig1: a save 599 words, one without fsync 576, a load 1,138
   (the save read 1,057 and 1,034 when each file went through an
   out_channel, its frame through tuples and lists and its CRCs
   through [Printf]). *)
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
    { op = "demo_save"; budget = 1_200; loop = per_io 10;
      with_op = fig1_demo (fun d dir () -> Demo.save d ~dir) };
    { op = "demo_save_nofsync"; budget = 1_200; loop = per_io 40;
      with_op = fig1_demo (fun d dir () -> Demo.save ~durable:false d ~dir) };
    { op = "demo_load"; budget = 2_300; loop = per_io 40;
      with_op = fig1_demo (fun _ dir () -> ignore (Demo.load ~dir)) };
  ]

(* Render once into one buffer, checksum it in place, read each file
   once and parse it in place: a Printf call per field, an encoded
   string per SYSCALL entry, a list of the file's lines or a substring
   per field shows up here as tens of thousands of words. Measured:
   a save 1,232 words (27,539 with a Buffer, an RLE string per entry
   and a copy of each payload), a load 60,624 (442,034 with numbered
   line lists and split fields), most of it the loaded demo itself.
   With each file written on its own descriptor from the one framed
   buffer and each CRC written in place, a save reads 674 words
   (budget 1,400, was 2,500). *)
let httpd_demo_rows =
  [
    { op = "demo_save_nofsync_httpd"; budget = 1_400; loop = per_io 20;
      with_op = httpd_demo (fun d dir () -> Demo.save ~durable:false d ~dir) };
    { op = "demo_load_httpd"; budget = 122_000; loop = per_io 20;
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

(* Reseeding a PRNG, which every run does for its scheduler and its
   world: the SplitMix64 expansion keeps its state unboxed. *)
let prng_reseed_row =
  { op = "prng_reseed"; budget = 0; loop = per_op;
    with_op =
      (fun k ->
        let rng = T11r_util.Prng.create ~seed1:3L ~seed2:5L in
        k (fun () -> T11r_util.Prng.reseed rng ~seed1:7L ~seed2:11L)) }

(* The empty program as a hunt runs it: a recycled arena, a fresh
   world. Measured at 232 words, 409 before the run context was
   recycled. *)
let empty_run_row =
  { op = "empty_run"; budget = 464; loop = per_run;
    with_op =
      (fun k ->
        let arena = Interp.create_arena () in
        let empty = { T11r_vm.Api.pname = "empty"; main = ignore } in
        k (fun () ->
            ignore (Interp.run ~world:(World.create ~seed:1L ()) ~arena run_conf empty))) }

let test_row r () =
  r.with_op (fun f ->
      let words = words_per_call r.loop f in
      Printf.printf "%s: %.2f words per call\n" r.op words;
      if words > float_of_int r.budget then
        Alcotest.failf "%s allocates %.2f words per call, budget %d" r.op words
          r.budget)

(* The scheduler tick, measured per tick: a random ms-queue run (about
   1,900 ticks) on a recycled arena and world, where per-tick cost
   swamps the per-run setup. Same seeds every call, so every call runs
   the same ticks. Measured at 37.2 words a tick. *)
let tick_budget = 74

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
  Printf.printf "run_random_ms_queue: %.2f words per tick\n" words;
  if words > float_of_int tick_budget then
    Alcotest.failf "run_random_ms_queue allocates %.2f words per tick, budget %d"
      words tick_budget

(* An invisible op inside a running program: one run making [n] times
   three invisible calls (a [Var] read, a [Var] write, a [work])
   between two visible fences, minus the same run with [n] = 0, per
   call. Invisible calls run inline on the fiber, so only the request
   blocks are left to allocate: 2 + 3 + 2 words, 2.33 per call, exactly
   what the steady state measures. An effect round trip per call was
   21.33. *)
let invisible_budget = 4

let test_invisible_op () =
  let program n () =
    T11r_vm.Api.program ~name:"invisible" (fun () ->
        let open T11r_vm.Api in
        let v = Var.create 0 in
        Atomic.fence Memord.Seq_cst;
        for _ = 1 to n do
          Var.set v (Var.get v + 1);
          work 1
        done;
        Atomic.fence Memord.Seq_cst)
  in
  let per_run n =
    let words = ref 0. in
    recycled run_conf (program n) (fun f -> words := words_per_call (20, 200) f);
    !words
  in
  let n = 1_000 in
  let words = (per_run n -. per_run 0) /. float_of_int (3 * n) in
  if words > float_of_int invisible_budget then
    Alcotest.failf "invisible_op allocates %.2f words per op, budget %d" words
      invisible_budget

(* The marginal words of [op] in a running program: a one-thread run
   making [k] calls of it, less the same run making none, over [k],
   against [budget] words per call ([per] names the call). *)
let test_marginal name ~per budget k op () =
  let program k () =
    T11r_vm.Api.program ~name:"ticks" (fun () ->
        let a = T11r_vm.Api.Atomic.create ~name:"a" 0 in
        for _ = 1 to k do
          op a
        done)
  in
  let per_run k =
    let words = ref 0. in
    recycled run_conf (program k) (fun f -> words := words_per_call (20, 500) f);
    !words
  in
  let words = (per_run k -. per_run 0) /. float_of_int k in
  Printf.printf "%s: %.2f words per %s\n" name words per;
  if words > float_of_int budget then
    Alcotest.failf "%s allocates %.2f words per %s, budget %d" name words per
      budget

(* A visible op's tick: a relaxed load, measured at 19 words, of
   which 13 are the effect round trip's floor (the request, [Op],
   [effc]'s closure and [Some], the continuation, the [P] block). *)
let visible_op_budget = 38

let test_visible_op =
  test_marginal "visible_op" ~per:"tick" visible_op_budget 64 (fun a ->
      ignore (T11r_vm.Api.Atomic.load ~mo:Memord.Relaxed a))

(* A spawn tick and a join tick of a named thread that returns at
   once, per pair: measured at 46 words, 94 when the thread's fiber
   handler was built per spawn and the fork and the join each built a
   vector-clock snapshot. *)
let spawn_join_budget = 92

let test_spawn_join =
  test_marginal "spawn_join" ~per:"pair" spawn_join_budget 16 (fun _ ->
      T11r_vm.Api.Thread.join (T11r_vm.Api.Thread.spawn ~name:"c" ignore))

(* The offline pass over the input `record ms-queue --guided --seed 1'
   writes: 1,357 steps and 241 accesses, from which the analysis builds
   10,800 Must pairs. Measured at 641,138 words a call, most of it the
   pair list's sort; 1.47M before the monomorphic comparators and the
   per-access sharing of reports, positions and witness lists. *)
let ms_queue_input () =
  let wl = Option.get (T11r_harness.Workloads.find "ms-queue") in
  let base =
    Conf.with_policy (Conf.tsan11rec ()) wl.T11r_harness.Workloads.w_policy
  in
  let conf =
    Conf.make ~base ~mode:Conf.Free
      ~strategy:
        (Conf.Guided
           { prefix = T11r_harness.Predictor.recording_prefix 1;
             observed = ref [] })
      ~seeds:(1L, 7920L) ()
  in
  let world = World.create ~seed:42L () in
  let r = Interp.run ~world conf (wl.T11r_harness.Workloads.w_instance world ()) in
  Interp.to_predict_input r

let predict_ms_queue_row =
  { op = "predict_analyze_ms_queue"; budget = 1_283_000; loop = (2, 10);
    with_op =
      (fun k ->
        let input = ms_queue_input () in
        k (fun () -> ignore (T11r_race.Predict.analyze input))) }

(* The digest of that analysis, in words allocated straight into the
   major heap ([Gc.counters]' major less promoted): blocks too big for
   the minor heap, which [words_per_call] does not see. Marshalling the
   whole analysis without sharing built a 15.8 MB string here
   (1,978,430 words); the streamed digest marshals one pair at a time,
   and each distinct witness once a pass, and measures 0. *)
let predict_digest_major_budget = 131_072 (* 1 MB *)

let test_predict_digest_major () =
  let a = T11r_race.Predict.analyze (ms_queue_input ()) in
  Gc.minor ();
  let _, p0, m0 = Gc.counters () in
  ignore (T11r_race.Predict.digest a);
  let _, p1, m1 = Gc.counters () in
  let direct = m1 -. m0 -. (p1 -. p0) in
  Printf.printf "predict_digest_ms_queue: %.0f words direct to the major heap\n" direct;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= %d" direct predict_digest_major_budget)
    true
    (direct <= float_of_int predict_digest_major_budget)

(* A result's schedule: one int per tick, plus the record and the
   code array's header, beside the run's label table (a few labels,
   shared with the program). The (tick, tid, label) list it replaced
   cost 7 words a tick: a cons and a 3-tuple. *)
let schedule_overhead = 4

let test_schedule_ms_queue () =
  let build = (Option.get (T11r_litmus.Registry.find "ms-queue")).build in
  let r = Interp.run ~world:(World.create ~seed:1L ()) run_conf (build ()) in
  let sch = r.Interp.trace in
  let words =
    Obj.reachable_words (Obj.repr sch) - Obj.reachable_words (Obj.repr sch.Interp.labels)
  in
  Printf.printf "schedule_ms_queue: %d words for %d ticks, table %d words\n" words
    r.Interp.ticks
    (Obj.reachable_words (Obj.repr sch.Interp.labels));
  Alcotest.(check bool)
    (Printf.sprintf "%d words <= %d ticks + %d" words r.Interp.ticks
       schedule_overhead)
    true
    (words <= r.Interp.ticks + schedule_overhead)

(* What a 60-run random ms-queue campaign report keeps live after a
   full major collection: one schedule array and one result per run.
   The list traces kept about 6.5 MB; the int codes keep about 1.0. *)
let campaign_live_budget = 1_572_864 (* 1.5 MB *)

let test_campaign_ms_queue_live () =
  let spec =
    T11r_harness.Workloads.spec_of
      (Option.get (T11r_harness.Workloads.find "ms-queue"))
  in
  let campaign n = T11r_harness.Campaign.run spec ~n ~jobs:1 [] in
  (* the domain's arena and world are made before the reading *)
  ignore (campaign 1);
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let r = campaign 60 in
  Gc.full_major ();
  let bytes = ((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8) in
  Printf.printf "campaign_ms_queue_live: %d bytes for %d runs\n" bytes
    (Array.length (Sys.opaque_identity r).T11r_harness.Campaign.results);
  Alcotest.(check bool)
    (Printf.sprintf "%d bytes <= %d" bytes campaign_live_budget)
    true
    (bytes <= campaign_live_budget)

(* [Campaign.aggregate] over runs that repeat one racy result, per
   run: the fold counts a run whose outcome and races it has seen
   without allocating, so the 2 words a run measured are the report's
   two run-indexed arrays (the makespans and the results). The fold
   that built a metrics record, a sighting tuple and a closure per run
   read 31. *)
let aggregate_budget = 4

let test_aggregate_repeat () =
  let spec =
    T11r_harness.Workloads.spec_of
      (Option.get (T11r_harness.Workloads.find "mcs-lock"))
  in
  let r =
    List.find
      (fun (r : Interp.result) -> r.Interp.races <> [])
      (Array.to_list (T11r_harness.Campaign.run spec ~n:50 ~jobs:1 []).results)
  in
  let words n =
    let pairs = Array.init n (fun i -> (i, r)) in
    let aggregate () =
      T11r_harness.Campaign.aggregate ~label:"x" ~n ~first:0 ~jobs:1 ~wall_s:0. pairs
    in
    ignore (aggregate ());
    Gc.minor ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (aggregate ()));
    Gc.minor_words () -. w0
  in
  let per_run = (words 2_000 -. words 1_000) /. 1_000. in
  Printf.printf "aggregate_repeat: %.2f words per run\n" per_run;
  if per_run > float_of_int aggregate_budget then
    Alcotest.failf "aggregate_repeat allocates %.2f words per run, budget %d"
      per_run aggregate_budget

(* [Campaign.aggregate] over coverage-carrying runs (fig1 with
   coverage on, 64 results cycled), per run: every run's summary is
   ORed into one accumulator, so a run costs what aggregate_repeat's
   does, measured at 2 words. A fold that allocates a fresh union per
   run reads about 65 more words a run (the 512-byte bitmap and its
   header). *)
let aggregate_coverage_budget = 4

let test_aggregate_coverage () =
  let spec =
    T11r_harness.Workloads.spec_of
      (Option.get (T11r_harness.Workloads.find "fig1"))
  in
  let spec =
    {
      spec with
      T11r_harness.Campaign.conf =
        (fun i -> Conf.with_coverage (spec.T11r_harness.Campaign.conf i) true);
    }
  in
  let results = (T11r_harness.Campaign.run spec ~n:64 ~jobs:1 []).results in
  Array.iter
    (fun (r : Interp.result) ->
      if Coverage.is_empty r.Interp.coverage then
        Alcotest.fail "aggregate_coverage: a run without coverage")
    results;
  let words n =
    let pairs = Array.init n (fun i -> (i, results.(i mod Array.length results))) in
    let aggregate () =
      T11r_harness.Campaign.aggregate ~label:"x" ~n ~first:0 ~jobs:1 ~wall_s:0. pairs
    in
    ignore (aggregate ());
    Gc.minor ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (aggregate ()));
    Gc.minor_words () -. w0
  in
  let per_run = (words 2_000 -. words 1_000) /. 1_000. in
  Printf.printf "aggregate_coverage: %.2f words per run\n" per_run;
  if per_run > float_of_int aggregate_coverage_budget then
    Alcotest.failf "aggregate_coverage allocates %.2f words per run, budget %d"
      per_run aggregate_coverage_budget

(* The capture-on twin of visible_op: the same one-thread relaxed-load
   loop under Guided, per tick, a configuration per run as the explorer
   builds one per schedule. Measured at 20 words: visible_op's 19 and
   the tick's slot in the run's decision array. The capture logs ints
   in the arena and finds a recurring decision's record in its memo;
   it was 36 words when each tick consed a fresh record, a list cell
   and a footprint, and 23 while Guided also consed each tick's
   fan-out onto its [observed] log. *)
let guided_tick_budget = 40

let guided_run_conf () =
  Conf.make ~base:(Conf.tsan11rec ())
    ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] })
    ~seeds:(3L, 5L) ()

let test_guided_tick () =
  let program k () =
    T11r_vm.Api.program ~name:"ticks" (fun () ->
        let a = T11r_vm.Api.Atomic.create ~name:"a" 0 in
        for _ = 1 to k do
          ignore (T11r_vm.Api.Atomic.load ~mo:Memord.Relaxed a)
        done)
  in
  let per_run k =
    let arena = Interp.create_arena () in
    let world = World.create ~seed:1L () in
    words_per_call (20, 500) (fun () ->
        World.reset world ~seed:1L;
        ignore (Interp.run ~world ~arena (guided_run_conf ()) (program k ())))
  in
  let k = 64 in
  let words = (per_run k -. per_run 0) /. float_of_int k in
  Printf.printf "guided_tick: %.2f words per tick\n" words;
  if words > float_of_int guided_tick_budget then
    Alcotest.failf "guided_tick allocates %.2f words per tick, budget %d" words
      guided_tick_budget

(* A spawn tick of an unnamed thread that returns at once: the
   generated name is [string_of_int] and one concatenation, measured at
   32.5 words a spawn, about 4 more than a named one; [Printf.sprintf]
   cost about 48. *)
let spawn_unnamed_budget = 65

let test_spawn_unnamed =
  test_marginal "spawn_unnamed" ~per:"spawn" spawn_unnamed_budget 16 (fun _ ->
      ignore (T11r_vm.Api.Thread.spawn ignore))

(* The explorer's own words per schedule: [Systematic.explore] on fig1
   less the runs it executes, each of the prefixes its journal lists
   through [Campaign.run_one] under the configuration the explorer
   builds. Measured at 25.5 words, most of it the fresh schedule's
   prefix array; over perfbench check's exhausting set the same
   difference read 276 words when each analysed event built a clock
   and race lists, each descent a frame record and a filtered sleep
   list, and the aggregate hashed every result's outcome key, and 20
   after. *)
let dpor_schedule_budget = 51

let test_dpor_schedule () =
  let build = T11r_litmus.Registry.fig1.build in
  let seeds = (11L, 13L) and world_seed = 7L in
  let explore ?journal () =
    T11r_harness.Systematic.explore ~max_runs:10_000 ~seeds ~world_seed ?journal
      ~build ()
  in
  let journal = Filename.temp_file "t11r_dpor" ".jsonl" in
  Sys.remove journal;
  let runs = (explore ~journal ()).T11r_harness.Systematic.runs in
  let prefixes =
    List.filter_map
      (fun (e : T11r_util.Journal.entry) ->
        if e.kind <> "sys" then None
        else
          let prefix, (_ : Interp.result) = Marshal.from_string e.payload 0 in
          Some prefix)
      (fst (T11r_util.Journal.read journal))
  in
  Sys.remove journal;
  let base =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] }) ())
      (fst seeds) (snd seeds)
  in
  let run_prefixes () =
    List.iter
      (fun prefix ->
        let conf =
          { base with Conf.sched = Conf.Controlled (Conf.Guided { prefix; observed = ref [] }) }
        in
        ignore
          (T11r_harness.Campaign.run_one ~deadline_s:0. ~tick_budget:None conf
             (fun () ->
               (T11r_harness.Campaign.recycled_world ~seed:world_seed, build ()))))
      prefixes
  in
  let per_schedule f = words_per_call (2, 20) f /. float_of_int runs in
  let explorer = per_schedule (fun () -> ignore (explore ())) in
  let own = explorer -. per_schedule run_prefixes in
  Printf.printf "dpor_schedule: %.2f words per schedule (%d schedules, %d prefixes)\n"
    own runs (List.length prefixes);
  Alcotest.(check int) "one journalled prefix per schedule" runs (List.length prefixes);
  if own > float_of_int dpor_schedule_budget then
    Alcotest.failf "dpor_schedule allocates %.2f words per schedule, budget %d" own
      dpor_schedule_budget

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
            Alcotest.test_case
              (Printf.sprintf "invisible_op <= %d words" invisible_budget)
              `Quick test_invisible_op;
            Alcotest.test_case
              (Printf.sprintf "%s <= %d words" predict_ms_queue_row.op
                 predict_ms_queue_row.budget)
              `Quick (test_row predict_ms_queue_row);
            Alcotest.test_case
              (Printf.sprintf "predict_digest_ms_queue <= %d major words"
                 predict_digest_major_budget)
              `Quick test_predict_digest_major;
            Alcotest.test_case
              (Printf.sprintf "schedule_ms_queue <= 1 word per tick + %d"
                 schedule_overhead)
              `Quick test_schedule_ms_queue;
            Alcotest.test_case
              (Printf.sprintf "campaign_ms_queue_live <= %d bytes"
                 campaign_live_budget)
              `Quick test_campaign_ms_queue_live;
          ]
        @ List.map
            (fun r ->
              Alcotest.test_case
                (Printf.sprintf "%s <= %d words" r.op r.budget)
                `Quick (test_row r))
            [ prng_reseed_row; empty_run_row ]
        @ [
            Alcotest.test_case
              (Printf.sprintf "visible_op <= %d words per tick" visible_op_budget)
              `Quick test_visible_op;
            Alcotest.test_case
              (Printf.sprintf "spawn_join <= %d words per pair" spawn_join_budget)
              `Quick test_spawn_join;
            Alcotest.test_case
              (Printf.sprintf "aggregate_repeat <= %d words per run" aggregate_budget)
              `Quick test_aggregate_repeat;
            Alcotest.test_case
              (Printf.sprintf "guided_tick <= %d words per tick" guided_tick_budget)
              `Quick test_guided_tick;
            Alcotest.test_case
              (Printf.sprintf "spawn_unnamed <= %d words per spawn" spawn_unnamed_budget)
              `Quick test_spawn_unnamed;
            Alcotest.test_case
              (Printf.sprintf "dpor_schedule <= %d words per schedule"
                 dpor_schedule_budget)
              `Quick test_dpor_schedule;
            Alcotest.test_case
              (Printf.sprintf "aggregate_coverage <= %d words per run"
                 aggregate_coverage_budget)
              `Quick test_aggregate_coverage;
          ] );
    ]
