(* The per-layer probes of the traced pass. Every probe calls a module's
   public functions from outside, inside a span on that module's lane.
   The probe inputs are fixed (they do not follow the workload seed), so
   every traced run reports the same metric names with comparable values
   whatever workload it traces. *)

open Common
module Campaign = T11r_harness.Campaign
module Systematic = T11r_harness.Systematic
module Guided = T11r_harness.Guided
module Corpus = T11r_harness.Corpus
module Predictor = T11r_harness.Predictor
module Predict = T11r_race.Predict
module Detector = T11r_race.Detector
module Atomics = T11r_mem.Atomics
module Memord = T11r_mem.Memord
module Tstate = T11r_mem.Tstate
module Demo = Tsan11rec.Demo

let metrics : (string * float * string) list ref = ref []
let add unit name v = metrics := (name, v, unit) :: !metrics
let seed = Work.default_seed

(* ns and minor-heap words per call of [f]. *)
let per_op ~iters f =
  for _ = 1 to 1000 do
    f ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let (), t =
    timed (fun () ->
        for _ = 1 to iters do
          f ()
        done)
  in
  let w1 = Gc.minor_words () in
  (t *. 1e9 /. float_of_int iters, (w1 -. w0) /. float_of_int iters)

(* Seconds per call of [f i], over at least [min_n] calls and [min_s]
   host seconds. *)
let per_call ?(min_n = 10) ?(min_s = 0.03) f =
  let rec go i t0 =
    f i;
    let i = i + 1 in
    let dt = now () -. t0 in
    if i >= min_n && dt >= min_s then dt /. float_of_int i else go i t0
  in
  go 0 (now ())

(* ---- Atomics / Tstate and Detector: direct calls on one location ---- *)

let memory () =
  let iters = 400_000 in
  let fresh () =
    let mem = Atomics.create ~max_history:8 () in
    let loc = Atomics.fresh_loc mem ~name:"bench" ~init:0 in
    (mem, loc, Tstate.create ~tid:0, Tstate.create ~tid:1)
  in
  let first _ = 0 in
  let op name f =
    let mem, loc, writer, reader = fresh () in
    Atomics.store mem loc writer Memord.Release 1;
    let ns, words = Span.with_ "atomics" name (fun () -> per_op ~iters (f mem loc writer reader)) in
    add "ns" ("atomics." ^ name ^ "_ns") ns;
    words
  in
  let words =
    [
      op "store" (fun mem loc w _ () -> Atomics.store mem loc w Memord.Release 1);
      op "load" (fun mem loc _ r () -> ignore (Atomics.load mem loc r Memord.Acquire ~choose:first));
      op "rmw" (fun mem loc w _ () -> ignore (Atomics.rmw mem loc w Memord.Acq_rel succ));
      op "fence" (fun mem _ w _ () -> Atomics.fence mem w Memord.Seq_cst);
    ]
  in
  add "words" "atomics.words_per_op" (sum words /. 4.0);
  let det name f =
    let d = Detector.create () in
    let var = Detector.fresh_var d ~name:"bench" in
    let st = Tstate.create ~tid:0 in
    Detector.write d var ~st;
    let ns, _ = Span.with_ "detector" name (fun () -> per_op ~iters (fun () -> f d var st)) in
    add "ns" ("detector." ^ name ^ "_ns") ns
  in
  det "read" (fun d var st -> Detector.read d var ~st);
  det "write" (fun d var st -> Detector.write d var ~st)

(* ---- Interp ladder: the same runs with one layer added per step ---- *)

let guided_strategy () = Conf.Guided { prefix = [||]; observed = ref [] }

let ladder =
  let rnd = Conf.tsan11rec ~strategy:Conf.Random () in
  let coverage = Conf.with_coverage rnd true in
  [
    ("native", fun () -> Conf.native);
    ("tsan11", fun () -> Conf.tsan11);
    ("nodetect", fun () -> Conf.with_race_detection rnd false);
    ("rnd", fun () -> rnd);
    ("coverage", fun () -> coverage);
    ("trace", fun () -> Conf.with_trace coverage ~capacity:65536);
    ("guided", fun () -> Conf.with_strategy rnd (guided_strategy ()));
  ]

(* One run of [build] on a recycled arena and world, seeds from [i]. *)
let recycled () =
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  fun conf build i ->
    World.reset world ~seed:(Int64.of_int i);
    Interp.run ~world ~arena
      (Conf.with_seeds conf (Int64.of_int i) (Int64.of_int (i + 7919)))
      (build ())

let guided_us = Hashtbl.create 4

let interp () =
  let run = recycled () in
  let empty () = { T11r_vm.Api.pname = "empty"; main = (fun () -> ()) } in
  let rnd = Conf.tsan11rec ~strategy:Conf.Random () in
  let s =
    Span.with_ "interp" "empty program" (fun () ->
        per_call ~min_n:20_000 (fun i -> ignore (run rnd empty i)))
  in
  add "us" "interp.empty_us" (s *. 1e6);
  List.iter
    (fun (b, n) ->
      let build = (entry b).Registry.build in
      List.iter
        (fun (step, conf) ->
          let s =
            Span.with_ "interp" (Printf.sprintf "ladder %s %s" step b) (fun () ->
                per_call ~min_n:n (fun i -> ignore (run (conf ()) build i)))
          in
          if step = "guided" then Hashtbl.replace guided_us b (s *. 1e6);
          add "us" (Printf.sprintf "interp.%s_us.%s" step b) (s *. 1e6);
          if step = "rnd" then begin
            let ticks =
              median
                (List.init 10 (fun i -> float_of_int (run rnd build i).Interp.ticks))
            in
            add "ticks" ("interp.ticks_per_run." ^ b) ticks;
            add "ns" ("interp.ns_per_tick." ^ b) (s *. 1e9 /. ticks)
          end)
        ladder)
    [ ("fig1", 2000); ("ms-queue", 30) ]

(* Snapshot capture and resume run in a separate program (snap.exe next
   to this one), so this benchmark still builds if the snapshot API goes.
   Without it, forking costs a fresh run. *)
let snapshots () =
  let guided = Hashtbl.find guided_us "ms-queue" in
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "snap.exe" in
  let parsed =
    if not (Sys.file_exists exe) then None
    else
      Span.with_ "interp" "snapshot probe" (fun () ->
          let ic = Unix.open_process_args_in exe [| exe |] in
          let lines = In_channel.input_all ic in
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 -> (
              try Scanf.sscanf lines " %f %f" (fun c r -> Some (c, r))
              with _ -> None)
          | _ -> None)
  in
  let capture, resume = Option.value parsed ~default:(guided, guided) in
  add "us" "interp.capture_us.ms-queue" capture;
  add "us" "interp.resume_us.ms-queue" resume;
  add "x" "interp.resume_speedup.ms-queue" (guided /. resume)

(* ---- Campaign / Pool / GC against a direct loop of the same runs ---- *)

let direct_loop (s : Campaign.spec) n =
  let arena = Campaign.domain_arena () in
  for i = 0 to n - 1 do
    let world, prog = s.Campaign.instance i in
    ignore (Interp.run ~world ~arena (s.Campaign.conf i) prog)
  done

let campaign ~dir =
  List.iter
    (fun (b, n) ->
      let s = Work.hunt_spec ~seed b in
      let per_run t = t *. 1e6 /. float_of_int n in
      let t_direct =
        Span.with_ "interp" ("direct loop " ^ b) (fun () ->
            median_time 3 (fun () -> direct_loop s n))
      in
      let gc0 = Gc.quick_stat () in
      let r = Campaign.run s ~n ~jobs:1 [] in
      let gc1 = Gc.quick_stat () in
      let t_c1 =
        Span.with_ "campaign" ("Campaign.run j1 " ^ b) (fun () ->
            median_time 3 (fun () -> ignore (Campaign.run s ~n ~jobs:1 [])))
      in
      let t_c2 =
        Span.with_ "pool" ("Campaign.run j2 " ^ b) (fun () ->
            median_time 3 (fun () -> ignore (Campaign.run s ~n ~jobs:2 [])))
      in
      let journal = Filename.concat dir ("journal-" ^ b) in
      let t_cj =
        Span.with_ "campaign" ("Campaign.run journal " ^ b) (fun () ->
            median_time 3
              ~before:(fun () -> T11r_util.Tmp.rm_rf journal)
              (fun () -> ignore (Campaign.run s ~n ~jobs:1 ~journal [])))
      in
      let m = r.Campaign.metrics in
      let pr x = float_of_int x /. float_of_int n in
      add "us" ("campaign.fold_us_per_run." ^ b) (per_run (t_c1 -. t_direct));
      add "us" ("campaign.journal_us_per_run." ^ b) (per_run (t_cj -. t_c1));
      add "x" ("pool.speedup_j2." ^ b) (t_c1 /. t_c2);
      add "words" ("gc.minor_words_per_run." ^ b) ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int n);
      add "words" ("gc.promoted_words_per_run." ^ b)
        ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int n);
      add "count" ("gc.major_collections." ^ b)
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      (* fig1 and mcs-lock never fill the store window. *)
      if b = "ms-queue" then
        add "count" ("atomics.evictions_per_run." ^ b) (pr m.T11r_obs.Metrics.m_evictions);
      add "count" ("atomics.stale_reads_per_run." ^ b) (pr m.T11r_obs.Metrics.m_stale_reads);
      add "count" ("detector.checks_per_run." ^ b) (pr m.T11r_obs.Metrics.m_det_checks))
    [ ("fig1", 4000); ("mcs-lock", 4000); ("ms-queue", 60) ]

(* ---- World, Demo and record mode ---- *)

let world () =
  let w = World.create ~seed:1L () in
  let s =
    Span.with_ "world" "World.reset" (fun () ->
        per_call ~min_n:20_000 (fun i -> World.reset w ~seed:(Int64.of_int i)))
  in
  add "us" "world.reset_us" (s *. 1e6);
  let httpd = workload "httpd" in
  let s =
    Span.with_ "world" "World.create httpd" (fun () ->
        per_call ~min_n:200 (fun i ->
            let w = World.create ~seed:(Int64.of_int i) () in
            ignore (httpd.Workloads.w_instance w ())))
  in
  add "us" "world.setup_us.httpd" (s *. 1e6)

let demo ~dir =
  List.iter
    (fun app ->
      let w = workload app in
      let policy = w.Workloads.w_policy in
      let rec_dir = Filename.concat dir ("rec-" ^ app) in
      let conf mode =
        Conf.with_seeds
          (Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Queue ~mode ()) policy)
          5L 7924L
      in
      let run mode =
        let world = World.create ~seed:5L () in
        Interp.run ~world (conf mode) (w.Workloads.w_instance world ())
      in
      let ms = 1e3 in
      let t_rec =
        Span.with_ "interp" ("record " ^ app) (fun () ->
            median_time 7 (fun () -> ignore (run (Conf.Record rec_dir))))
      in
      let free = run Conf.Free in
      let t_free =
        Span.with_ "interp" ("free " ^ app) (fun () ->
            median_time 7 (fun () -> ignore (run Conf.Free)))
      in
      let t_rep =
        Span.with_ "interp" ("replay " ^ app) (fun () ->
            median_time 7 (fun () ->
                let world = World.create ~seed:11L () in
                ignore
                  (Interp.run ~world
                     (Conf.with_policy
                        (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay rec_dir) ())
                        policy)
                     (w.Workloads.w_instance world ()))))
      in
      let d = Demo.load ~dir:rec_dir in
      let target = Filename.concat dir ("save-" ^ app) in
      let t_save =
        Span.with_ "demo" ("Demo.save " ^ app) (fun () ->
            median_time 5 (fun () -> Demo.save d ~dir:target))
      in
      let t_nofsync =
        Span.with_ "demo" ("Demo.save nofsync " ^ app) (fun () ->
            median_time 9 (fun () -> Demo.save ~durable:false d ~dir:target))
      in
      let t_load =
        Span.with_ "demo" ("Demo.load " ^ app) (fun () ->
            median_time 9 (fun () -> ignore (Demo.load ~dir:target)))
      in
      add "ms" ("demo.save_ms." ^ app) (t_save *. ms);
      add "ms" ("demo.save_nofsync_ms." ^ app) (t_nofsync *. ms);
      add "ms" ("demo.load_ms." ^ app) (t_load *. ms);
      add "B" ("demo.bytes." ^ app) (float_of_int (Demo.size_bytes d));
      if app = "httpd" then
        add "B" ("demo.syscall_bytes." ^ app) (float_of_int (Demo.syscall_bytes d));
      add "ms" ("interp.record_delta_ms." ^ app) ((t_rec -. t_free) *. ms);
      add "ms" ("interp.replay_ms." ^ app) (t_rep *. ms);
      add "count" ("detector.checks_per_run." ^ app)
        (float_of_int free.Interp.metrics.T11r_obs.Metrics.m_det_checks))
    [ "httpd"; "pbzip" ]

(* ---- Systematic ---- *)

let systematic () =
  List.iter
    (fun b ->
      let r = Work.explore ~seed ~jobs:1 b in
      add "runs" ("systematic.runs." ^ b) (float_of_int r.Systematic.runs))
    Work.exhausting;
  let r, t = timed (fun () -> Work.explore ~seed ~max_runs:10 ~jobs:1 "ms-queue") in
  let ms_per_run = t *. 1e3 /. float_of_int r.Systematic.runs in
  add "ms" "systematic.ms_per_run.ms-queue" ms_per_run;
  add "ms" "systematic.self_ms_per_run.ms-queue"
    (ms_per_run -. (Hashtbl.find guided_us "ms-queue" /. 1e3));
  List.iter
    (fun b ->
      let naive = Work.explore ~seed ~dpor:false ~jobs:1 b in
      let dpor = Work.explore ~seed ~jobs:1 b in
      add "x" ("systematic.dpor_reduction." ^ b)
        (float_of_int naive.Systematic.runs /. float_of_int dpor.Systematic.runs))
    [ "fig1"; "dekker-fences" ]

(* ---- Guided / Corpus ---- *)

let guided () =
  let rounds = ref 0 and wall = ref 0.0 in
  List.iter
    (fun b ->
      let spec = Work.guided_spec b in
      let firsts =
        List.init 16 (fun k ->
            let g, t =
              timed (fun () ->
                  Span.with_ "guided" (Printf.sprintf "Guided.hunt %s salt %d" b k) (fun () ->
                      Guided.hunt spec ~salt:(Work.salt ~seed (k + 1)) ~stop_on_race:true ()))
            in
            rounds := !rounds + g.Guided.g_rounds_done;
            wall := !wall +. t;
            float_of_int (Work.first_race g))
      in
      add "runs" ("guided.runs_to_first_race." ^ b) (median firsts))
    Work.predict_benches;
  add "ms" "guided.ms_per_round" (!wall *. 1e3 /. float_of_int !rounds);
  let g =
    Span.with_ "guided" "Guided.hunt fig1 full budget" (fun () ->
        Guided.hunt (Work.guided_spec "fig1") ~salt:1L ())
  in
  let c = g.Guided.g_corpus in
  add "count" "guided.corpus_size" (float_of_int (Corpus.size c));
  add "bits" "guided.cov_bits" (float_of_int (Corpus.total_bits c));
  match Corpus.entries c with
  | [] -> failwith "guided probe: empty corpus"
  | e :: _ ->
      let s =
        Span.with_ "corpus" "Corpus.consider" (fun () ->
            per_call ~min_n:20_000 (fun i ->
                ignore
                  (Corpus.consider c ~strategy:e.Corpus.e_strategy
                     ~seed1:e.Corpus.e_seed1 ~seed2:e.Corpus.e_seed2 ~round:i
                     e.Corpus.e_cov)))
      in
      add "us" "corpus.consider_us" (s *. 1e6);
      let prng = T11r_util.Prng.create ~seed1:1L ~seed2:2L in
      let s =
        Span.with_ "corpus" "Corpus.mutate" (fun () ->
            per_call ~min_n:20_000 (fun _ -> ignore (Corpus.mutate e prng)))
      in
      add "us" "corpus.mutate_us" (s *. 1e6)

(* ---- Predict / Predictor ---- *)

let predict () =
  List.iter
    (fun b ->
      let r = Work.recording ~seed b in
      let world, prog = r.Work.rec_instance () in
      let run = Interp.run ~world (r.Work.rec_conf ()) prog in
      let input = Interp.to_predict_input run in
      let a = Predict.analyze input in
      let t_an =
        Span.with_ "predict" ("Predict.analyze " ^ b) (fun () ->
            median_time 3 (fun () -> ignore (Predict.analyze input)))
      in
      let rep, t_ver =
        timed (fun () ->
            Span.with_ "predictor" ("Predictor.verify " ^ b) (fun () ->
                Predictor.verify
                  ~recorded_seeds:(Int64.of_int r.Work.rec_seed, Int64.of_int (r.Work.rec_seed + 7919))
                  ~instance:r.Work.rec_instance (Work.cap_musts a)))
      in
      add "ms" ("predict.analyze_ms." ^ b) (t_an *. 1e3);
      add "count" ("predict.must_pairs." ^ b) (float_of_int a.Predict.n_must);
      add "runs" ("predictor.verify_runs." ^ b) (float_of_int rep.Predictor.r_runs);
      add "count" ("predictor.refuted." ^ b) (float_of_int rep.Predictor.r_refuted);
      if b = "ms-queue" then add "ms" "predictor.verify_ms.ms-queue" (t_ver *. 1e3))
    (Work.predict_benches @ [ "ms-queue" ])

(* Per-run interpreter cost behind a span's [inner] key ("random:b",
   "guided:b" or "coverage:b"), from runs the benchmark makes directly. *)
let direct_cache = Hashtbl.create 16

let direct_s ~seed key =
  match Hashtbl.find_opt direct_cache key with
  | Some s -> s
  | None ->
      let kind, b =
        match String.index_opt key ':' with
        | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
        | None -> invalid_arg key
      in
      let s =
        Span.with_ "interp" ("direct runs " ^ key) (fun () ->
            if kind = "random" then
              let spec = Work.hunt_spec ~seed b in
              let arena = Campaign.domain_arena () in
              per_call (fun i ->
                  let world, prog = spec.Campaign.instance i in
                  ignore (Interp.run ~world ~arena (spec.Campaign.conf i) prog))
            else
              let rnd = Conf.tsan11rec ~strategy:Conf.Random () in
              let conf () =
                if kind = "coverage" then Conf.with_coverage rnd true
                else Conf.with_strategy rnd (guided_strategy ())
              in
              let build = (entry b).Registry.build in
              let arena = Campaign.domain_arena () in
              per_call (fun i ->
                  let world = World.create ~seed:(Int64.of_int i) () in
                  ignore
                    (Interp.run ~world ~arena
                       (Conf.with_seeds (conf ()) (Int64.of_int i) (Int64.of_int (i + 7919)))
                       (build ()))))
      in
      Hashtbl.replace direct_cache key s;
      s

let run ~dir =
  metrics := [];
  memory ();
  interp ();
  snapshots ();
  campaign ~dir;
  world ();
  demo ~dir;
  systematic ();
  guided ();
  predict ();
  List.rev !metrics
