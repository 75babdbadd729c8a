(* Differential tests: the optimised hot-path representations in lib/
   (normalised clocks + Vclock.Mut, ring-buffer store windows, packed
   detector shadow words) against the straightforward pre-optimisation
   implementations preserved in ref_model.ml. Random operation
   sequences must produce identical observables in both models:

   - Vclock: identical components and identical order/equality verdicts;
   - Vclock.Mut: in-place updates match the immutable reference fold;
   - Atomics: identical loaded values, candidate sets (size and
     contents — the candidate count also fixes the PRNG draw bound, a
     record/replay invariant), newest value, history length, and final
     per-thread clocks and fence accumulators;
   - Detector: identical race reports in identical order;
   - Coverage: identical counts, identical union bytes, and a width
     mismatch raising exactly where the byte-wise reference raises; the
     collector's incremental count equal to a scan of its bits;
   - Demo codec: byte-identical saved directories, equal sizes, and
     equal load results (the same value, or a [Corrupt] naming the same
     file, line and reason) on intact and damaged directories;
   - Campaign aggregate: an equal report with an equal digest and equal
     derived supervision, on real campaigns at jobs 1, 2 and 3 (crashes,
     quarantines, timeouts, cancellation and journal resume included)
     and on synthetic traces built to tell a schedule key that is not
     exact from one that is. *)

module Vc = T11r_util.Vclock
module Ts = T11r_mem.Tstate
module At = T11r_mem.Atomics
module Det = T11r_race.Detector
module Memord = T11r_mem.Memord
module Cov = T11r_race.Coverage
module Demo = Tsan11rec.Demo
module R = Ref_model

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vclock *)

type vop =
  | Vset of int * int * int
  | Vtick of int * int
  | Vjoin of int * int

let show_vop = function
  | Vset (s, t, v) -> Printf.sprintf "set %d %d %d" s t v
  | Vtick (s, t) -> Printf.sprintf "tick %d %d" s t
  | Vjoin (a, b) -> Printf.sprintf "join %d %d" a b

let n_slots = 3

let vop_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map3
             (fun s t v -> Vset (s, t, v))
             (int_range 0 (n_slots - 1))
             (int_range 0 5) (int_range 0 6);
           map2 (fun s t -> Vtick (s, t)) (int_range 0 (n_slots - 1))
             (int_range 0 5);
           map2 (fun a b -> Vjoin (a, b)) (int_range 0 (n_slots - 1))
             (int_range 0 (n_slots - 1));
         ]))

let prop_vclock_diff =
  QCheck.Test.make ~name:"vclock ops match reference" ~count:500
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map show_vop l))
       vop_gen) (fun ops ->
      let opt = Array.make n_slots Vc.empty in
      let rf = Array.make n_slots R.Vclock.empty in
      List.for_all
        (fun op ->
          (match op with
          | Vset (s, t, v) ->
              opt.(s) <- Vc.set opt.(s) t v;
              rf.(s) <- R.Vclock.set rf.(s) t v
          | Vtick (s, t) ->
              opt.(s) <- Vc.tick opt.(s) t;
              rf.(s) <- R.Vclock.tick rf.(s) t
          | Vjoin (a, b) ->
              opt.(a) <- Vc.join opt.(a) opt.(b);
              rf.(a) <- R.Vclock.join rf.(a) rf.(b));
          (* every slot agrees on components and on every verdict *)
          let ok_slot i =
            Vc.to_list opt.(i) = R.Vclock.to_list rf.(i)
            && Vc.size opt.(i) = R.Vclock.size rf.(i)
            && Vc.is_empty opt.(i) = (R.Vclock.to_list rf.(i) = [])
            && List.for_all
                 (fun t ->
                   Vc.get opt.(i) t = R.Vclock.get rf.(i) t
                   && Vc.leq_epoch ~tid:t
                        ~epoch:(R.Vclock.get rf.(i) t)
                        opt.(i))
                 [ 0; 1; 2; 3; 4; 5; 6 ]
          in
          let ok_pair i j =
            Vc.leq opt.(i) opt.(j) = R.Vclock.leq rf.(i) rf.(j)
            && Vc.equal opt.(i) opt.(j) = R.Vclock.equal rf.(i) rf.(j)
            && Vc.lt opt.(i) opt.(j) = R.Vclock.lt rf.(i) rf.(j)
            && Vc.concurrent opt.(i) opt.(j)
               = R.Vclock.concurrent rf.(i) rf.(j)
          in
          let all = [ 0; 1; 2 ] in
          List.for_all ok_slot all
          && List.for_all (fun i -> List.for_all (ok_pair i) all) all)
        ops)

type mop = Mset of int * int | Mincr of int | Mjoin of int list

let show_mop = function
  | Mset (t, v) -> Printf.sprintf "set %d %d" t v
  | Mincr t -> Printf.sprintf "incr %d" t
  | Mjoin l ->
      Printf.sprintf "join [%s]" (String.concat ";" (List.map string_of_int l))

let mop_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map2 (fun t v -> Mset (t, v)) (int_range 0 6) (int_range 0 6);
           map (fun t -> Mincr t) (int_range 0 6);
           map (fun l -> Mjoin l) (list_size (int_range 0 5) (int_range 0 6));
         ]))

let prop_mut_diff =
  QCheck.Test.make ~name:"Vclock.Mut matches immutable reference" ~count:500
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map show_mop l))
       mop_gen) (fun ops ->
      let m = Vc.Mut.create () in
      let rf = ref R.Vclock.empty in
      List.for_all
        (fun op ->
          (match op with
          | Mset (t, v) ->
              Vc.Mut.set m t v;
              rf := R.Vclock.set !rf t v
          | Mincr t ->
              Vc.Mut.incr m t;
              rf := R.Vclock.tick !rf t
          | Mjoin l ->
              ignore (Vc.Mut.join_imm m (Vc.of_list l));
              rf := R.Vclock.join !rf (R.Vclock.of_list l));
          Vc.to_list (Vc.Mut.snapshot m) = R.Vclock.to_list !rf
          && List.for_all
               (fun t -> Vc.Mut.get m t = R.Vclock.get !rf t)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ])
        ops)

(* ------------------------------------------------------------------ *)
(* Atomics *)

type aop =
  | Store of int * int (* loc, value *)
  | Load of int (* loc *)
  | Rmw of int
  | Cas of int * int (* loc, expected *)
  | Fence

type astep = { a_tid : int; a_sel : int; a_mo : int; a_op : aop }

let mos = [| Memord.Relaxed; Consume; Acquire; Release; Acq_rel; Seq_cst |]

let show_astep s =
  let op =
    match s.a_op with
    | Store (l, v) -> Printf.sprintf "store l%d %d" l v
    | Load l -> Printf.sprintf "load l%d" l
    | Rmw l -> Printf.sprintf "rmw l%d" l
    | Cas (l, e) -> Printf.sprintf "cas l%d exp:%d" l e
    | Fence -> "fence"
  in
  Printf.sprintf "t%d sel:%d mo:%d %s" s.a_tid s.a_sel s.a_mo op

let astep_gen =
  QCheck.Gen.(
    let* a_tid = int_range 0 2 in
    let* a_sel = int_range 0 7 in
    let* a_mo = int_range 0 5 in
    let* a_op =
      oneof
        [
          map2 (fun l v -> Store (l, v)) (int_range 0 1) (int_range 1 9);
          map (fun l -> Load l) (int_range 0 1);
          map (fun l -> Rmw l) (int_range 0 1);
          map2 (fun l e -> Cas (l, e)) (int_range 0 1) (int_range 0 9);
          return Fence;
        ]
    in
    return { a_tid; a_sel; a_mo; a_op })

let aops_gen =
  QCheck.Gen.(
    pair (int_range 1 8) (* max_history *)
      (list_size (int_range 1 50) astep_gen))

let show_aops (h, steps) =
  Printf.sprintf "hist:%d [%s]" h (String.concat "; " (List.map show_astep steps))

(* Run a step list in the optimised model, logging every observable
   (loaded values, choose bounds, candidate sets, newest values,
   history lengths, final clocks) as a flat int list. *)
let run_opt (max_history, steps) =
  let obs = ref [] in
  let push x = obs := x :: !obs in
  let mem = At.create ~max_history () in
  let locs =
    [| At.fresh_loc mem ~name:"x" ~init:0; At.fresh_loc mem ~name:"y" ~init:0 |]
  in
  let sts = Array.init 3 (fun tid -> Ts.create ~tid) in
  List.iter
    (fun s ->
      let st = sts.(s.a_tid) in
      let mo = mos.(s.a_mo) in
      let choose n =
        push n;
        s.a_sel mod n
      in
      (match s.a_op with
      | Store (l, v) -> At.store mem locs.(l) st mo v
      | Load l -> push (At.load mem locs.(l) st mo ~choose)
      | Rmw l -> push (At.rmw mem locs.(l) st mo (fun v -> v + 3))
      | Cas (l, e) ->
          let ok, v =
            At.cas mem locs.(l) st ~success:mo ~failure:Memord.Relaxed
              ~expected:e ~desired:(e + 1) ~choose
          in
          push (if ok then 1 else 0);
          push v
      | Fence -> At.fence mem st mo);
      Array.iter
        (fun l ->
          push (At.newest_value mem l);
          push (At.history_length mem l);
          Array.iter
            (fun st ->
              List.iter push (At.candidates mem l st Memord.Relaxed);
              push (-1);
              List.iter push (At.candidates mem l st Memord.Seq_cst);
              push (-2))
            sts)
        locs)
    steps;
  Array.iter
    (fun st ->
      List.iter push (Vc.to_list (Ts.clock st));
      push (-3);
      List.iter push (Vc.to_list st.Ts.acq_pending);
      push (-4);
      List.iter push (Vc.to_list st.Ts.rel_fence);
      push (-5);
      push (Ts.epoch st))
    sts;
  List.rev !obs

(* Same, reference model. Keep the observable order in lock step with
   [run_opt]. *)
let run_ref (max_history, steps) =
  let obs = ref [] in
  let push x = obs := x :: !obs in
  let mem = R.Atomics.create ~max_history () in
  let locs =
    [|
      R.Atomics.fresh_loc mem ~name:"x" ~init:0;
      R.Atomics.fresh_loc mem ~name:"y" ~init:0;
    |]
  in
  let sts = Array.init 3 (fun tid -> R.Tstate.create ~tid) in
  List.iter
    (fun s ->
      let st = sts.(s.a_tid) in
      let mo = mos.(s.a_mo) in
      let choose n =
        push n;
        s.a_sel mod n
      in
      (match s.a_op with
      | Store (l, v) -> R.Atomics.store mem locs.(l) st mo v
      | Load l -> push (R.Atomics.load mem locs.(l) st mo ~choose)
      | Rmw l -> push (R.Atomics.rmw mem locs.(l) st mo (fun v -> v + 3))
      | Cas (l, e) ->
          let ok, v =
            R.Atomics.cas mem locs.(l) st ~success:mo ~failure:Memord.Relaxed
              ~expected:e ~desired:(e + 1) ~choose
          in
          push (if ok then 1 else 0);
          push v
      | Fence -> R.Atomics.fence mem st mo);
      Array.iter
        (fun l ->
          push (R.Atomics.newest_value mem l);
          push (R.Atomics.history_length mem l);
          Array.iter
            (fun st ->
              List.iter push (R.Atomics.candidates mem l st Memord.Relaxed);
              push (-1);
              List.iter push (R.Atomics.candidates mem l st Memord.Seq_cst);
              push (-2))
            sts)
        locs)
    steps;
  Array.iter
    (fun st ->
      List.iter push (R.Vclock.to_list st.R.Tstate.clock);
      push (-3);
      List.iter push (R.Vclock.to_list st.R.Tstate.acq_pending);
      push (-4);
      List.iter push (R.Vclock.to_list st.R.Tstate.rel_fence);
      push (-5);
      push (R.Tstate.epoch st))
    sts;
  List.rev !obs

let prop_atomics_diff =
  QCheck.Test.make ~name:"atomics ops match reference" ~count:400
    (QCheck.make ~print:show_aops aops_gen) (fun ops ->
      run_opt ops = run_ref ops)

(* ------------------------------------------------------------------ *)
(* Detector *)

type dop = Dread of int | Dwrite of int | Dsync of int | Dtick

type dstep = { d_tid : int; d_op : dop }

let show_dstep s =
  match s.d_op with
  | Dread v -> Printf.sprintf "t%d read v%d" s.d_tid v
  | Dwrite v -> Printf.sprintf "t%d write v%d" s.d_tid v
  | Dsync src -> Printf.sprintf "t%d acquires t%d" s.d_tid src
  | Dtick -> Printf.sprintf "t%d tick" s.d_tid

let dstep_gen =
  QCheck.Gen.(
    let* d_tid = int_range 0 2 in
    let* d_op =
      oneof
        [
          map (fun v -> Dread v) (int_range 0 1);
          map (fun v -> Dwrite v) (int_range 0 1);
          map (fun src -> Dsync src) (int_range 0 2);
          return Dtick;
        ]
    in
    return { d_tid; d_op })

let dops_gen = QCheck.Gen.(list_size (int_range 1 60) dstep_gen)

let prop_detector_diff =
  QCheck.Test.make ~name:"detector reports match reference" ~count:500
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_dstep l))
       dops_gen) (fun ops ->
      let det = Det.create () in
      let vars =
        [| Det.fresh_var det ~name:"u"; Det.fresh_var det ~name:"v" |]
      in
      let sts = Array.init 3 (fun tid -> Ts.create ~tid) in
      let rdet = R.Detector.create () in
      let rvars =
        [|
          R.Detector.fresh_var rdet ~name:"u";
          R.Detector.fresh_var rdet ~name:"v";
        |]
      in
      let rsts = Array.init 3 (fun tid -> R.Tstate.create ~tid) in
      List.for_all
        (fun s ->
          (match s.d_op with
          | Dread v ->
              Det.read det vars.(v) ~st:sts.(s.d_tid);
              R.Detector.read rdet rvars.(v) ~st:rsts.(s.d_tid)
          | Dwrite v ->
              Det.write det vars.(v) ~st:sts.(s.d_tid);
              R.Detector.write rdet rvars.(v) ~st:rsts.(s.d_tid)
          | Dsync src ->
              Ts.acquire sts.(s.d_tid) (Ts.clock sts.(src));
              R.Tstate.acquire rsts.(s.d_tid) rsts.(src).R.Tstate.clock
          | Dtick ->
              Ts.tick sts.(s.d_tid);
              R.Tstate.tick rsts.(s.d_tid));
          Det.reports det = R.Detector.reports rdet
          && Det.report_count det = List.length (R.Detector.reports rdet)
          && Det.racy det = (R.Detector.reports rdet <> []))
        ops)

(* ------------------------------------------------------------------ *)
(* Coverage summaries *)

(* Widths 0 and 512 (the real bitmap), odd widths on both sides of a
   whole word, and contents from all-zero to dense. *)
let width_gen =
  QCheck.Gen.(
    frequency
      [ (1, return 0); (3, return 512); (3, int_range 1 23); (1, int_range 505 519) ])

let summary_of_width w =
  QCheck.Gen.(
    let bytes gen = string_size ~gen (return w) in
    if w = 0 then return ""
    else
      frequency
        [
          (1, return (String.make w '\000'));
          ( 2,
            map2
              (fun i b ->
                String.init w (fun j ->
                    if j = i then Char.chr (1 lsl b) else '\000'))
              (int_bound (w - 1)) (int_bound 7) );
          ( 2,
            bytes
              (frequency
                 [ (12, return '\000'); (1, map Char.chr (int_range 1 255)) ]) );
          (2, bytes char);
          (1, return (String.make w '\255'));
        ])

(* A pair of summaries, usually of one width, sometimes of two. *)
let summary_pair_gen =
  QCheck.Gen.(
    width_gen >>= fun wa ->
    frequency [ (3, return wa); (1, width_gen) ] >>= fun wb ->
    pair (summary_of_width wa) (summary_of_width wb))

let show_summary s =
  Printf.sprintf "<%d bytes, %d bits: %s>" (String.length s) (R.Coverage.popcount s)
    (String.concat ""
       (List.init (min 16 (String.length s)) (fun i ->
            Printf.sprintf "%02x" (Char.code s.[i]))))

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let prop_coverage_diff =
  QCheck.Test.make ~name:"coverage summaries match reference" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> show_summary a ^ " " ^ show_summary b)
       summary_pair_gen) (fun (a, b) ->
      let agree f g = outcome f = outcome g in
      Cov.popcount a = R.Coverage.popcount a
      && Cov.is_empty a = R.Coverage.is_empty a
      && Cov.is_empty b = R.Coverage.is_empty b
      && agree (fun () -> Cov.union a b) (fun () -> R.Coverage.union a b)
      && agree (fun () -> Cov.union b a) (fun () -> R.Coverage.union b a)
      && agree
           (fun () -> Cov.new_bits ~base:a b)
           (fun () -> R.Coverage.new_bits ~base:a b)
      && agree
           (fun () -> Cov.new_bits ~base:b a)
           (fun () -> R.Coverage.new_bits ~base:b a))

(* The collector's incremental bit count against a scan of its summary,
   after every step of a random mark/reset sequence. Site hashes are
   drawn from a small range so marks often hit bits already set. *)
let prop_coverage_count =
  QCheck.Test.make ~name:"coverage count = popcount of summary" ~count:500
    QCheck.(list_of_size Gen.(int_range 1 300) (option (int_bound 6000)))
    (fun ops ->
      let cov = Cov.create () in
      List.for_all
        (fun op ->
          (match op with Some h -> Cov.mark cov h | None -> Cov.reset cov);
          Cov.count cov = R.Coverage.popcount (Cov.summarize cov))
        ops
      && Cov.count Cov.disabled = 0)

(* ------------------------------------------------------------------ *)
(* Demo codec *)

let demo_int =
  QCheck.Gen.(
    frequency
      [
        (4, small_signed_int);
        (1, oneofl [ 0; -1; max_int; min_int; max_int - 1; min_int + 1 ]);
        (2, int);
      ])

let demo_int64 =
  QCheck.Gen.(
    frequency
      [
        (2, map Int64.of_int small_signed_int);
        (1, oneofl [ 0L; -1L; Int64.max_int; Int64.min_int ]);
        (2, ui64);
      ])

(* Bytes that stress both the RLE and the escaping: long runs, and the
   characters a demo line must escape. *)
let demo_char =
  QCheck.Gen.(
    frequency
      [ (3, printable); (1, oneofl [ '\n'; ' '; '%'; '\r'; '\000'; '\001' ]);
        (1, map Char.chr (int_range 128 255)) ])

let demo_data =
  QCheck.Gen.(
    map
      (fun chunks -> Bytes.of_string (String.concat "" chunks))
      (list_size (int_bound 5)
         (frequency
            [
              (2, string_size ~gen:demo_char (int_bound 12));
              (1, map2 (fun n c -> String.make n c) (int_range 1 600) demo_char);
            ])))

(* Mostly well-formed tokens; now and then a value no line may carry
   raw, so the reference and the rewrite must fail alike on it. *)
let demo_token good =
  QCheck.Gen.(
    frequency
      [ (40, oneofl good); (1, oneofl [ ""; "a b"; "a\nb"; "#crc"; "100%" ]) ])

let demo_gen =
  QCheck.Gen.(
    let list_of g = list_size (frequency [ (1, return 0); (4, int_bound 12) ]) g in
    let meta =
      map
        (fun ((app, strategy, digest), (seed1, seed2, ticks)) ->
          { Demo.app; strategy; seed1; seed2; ticks; output_digest = digest })
        (pair
           (triple (string_size ~gen:demo_char (int_bound 10))
              (demo_token [ "queue"; "random"; "pct:3"; "guided" ])
              (demo_token [ "d41d8cd98f00b204e9800998ecf8427e"; "-" ]))
           (triple demo_int64 demo_int64 demo_int))
    in
    (* Tick lists with repeats, so the QUEUE runs get long. *)
    let next_ticks =
      map List.concat
        (list_of
           (map2 (fun n t -> List.init n (fun i -> t + i)) (int_range 1 40) demo_int))
    in
    let queue =
      opt
        (map2
           (fun first_ticks next_ticks -> { Demo.first_ticks; next_ticks })
           (list_of (pair demo_int demo_int))
           next_ticks)
    in
    let signal =
      map3 (fun s_tid s_tick s_signo -> { Demo.s_tid; s_tick; s_signo }) demo_int demo_int
        demo_int
    in
    let syscall =
      map
        (fun ((sc_tick, sc_tid, sc_label), (sc_ret, sc_errno, sc_elapsed), sc_data) ->
          { Demo.sc_tick; sc_tid; sc_label; sc_ret; sc_errno; sc_elapsed; sc_data })
        (triple
           (triple demo_int demo_int (demo_token [ "read"; "write"; "recv"; "time" ]))
           (triple demo_int demo_int demo_int) demo_data)
    in
    let async =
      map2
        (fun a_tick woken ->
          let a_kind =
            match woken with None -> Demo.Reschedule | Some t -> Demo.Signal_wakeup t
          in
          { Demo.a_tick; a_kind })
        demo_int (opt demo_int)
    in
    let extra =
      map3
        (fun (k, swap) trace decisions ->
          let files = [ ("TRACE", trace); ("DECISIONS", decisions) ] in
          List.filteri (fun i _ -> i < k) (if swap then List.rev files else files))
        (pair (int_bound 2) bool)
        (list_of (demo_token [ "1 0 store"; "2 1 load x"; "3 0 fence" ]))
        (list_of (demo_token [ "S 0 0 L - E0 D0"; "A 0 0 0 0 1 v" ]))
    in
    map
      (fun ((meta, queue, signals), (syscalls, asyncs, extra)) ->
        ({ Demo.meta; queue; signals; syscalls; asyncs }, extra))
      (pair (triple meta queue (list_of signal))
         (triple (list_of syscall) (list_of async) extra)))

let show_demo (d, extra) =
  Printf.sprintf "%s; %d queue ticks; extra %s"
    (Format.asprintf "%a" Demo.pp d)
    (match d.Demo.queue with Some q -> List.length q.Demo.next_ticks | None -> -1)
    (String.concat "," (List.map fst extra))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let dir_contents dir =
  List.map
    (fun f -> (f, read_file (Filename.concat dir f)))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let with_base f =
  T11r_util.Tmp.with_dir ~prefix:"t11r-demo-diff" (fun base ->
      let ours = Filename.concat base "ours" and theirs = Filename.concat base "ref" in
      Unix.mkdir theirs 0o755;
      f ~ours ~theirs)

let load_outcome load =
  match load () with
  | v -> Ok v
  | exception Demo.Corrupt c -> Error (Demo.corruption_to_string c)
  | exception e -> Error ("stray " ^ Printexc.to_string e)

(* Both loaders, and both read_aux on every extra file, on one
   directory. *)
let same_loads dir extra =
  load_outcome (fun () -> Demo.load ~dir)
  = load_outcome (fun () -> R.Demo_codec.load ~dir)
  && List.for_all
       (fun (name, _) ->
         load_outcome (fun () -> Demo.read_aux ~dir name)
         = load_outcome (fun () -> R.Demo_codec.read_aux ~dir name))
       extra

let prop_demo_save_diff =
  QCheck.Test.make ~name:"demo saves the reference bytes" ~count:300
    (QCheck.make ~print:show_demo demo_gen) (fun (d, extra) ->
      with_base (fun ~ours ~theirs ->
          Demo.save ~durable:false ~extra d ~dir:ours;
          R.Demo_codec.save ~extra d ~dir:theirs;
          dir_contents ours = dir_contents theirs
          && Demo.size_bytes d = R.Demo_codec.size_bytes d
          && Demo.syscall_bytes d = R.Demo_codec.syscall_bytes d
          && same_loads ours extra))

(* The damage fuzz_demo_hardening (test_record.ml) does, plus trailers
   and the MANIFEST stripped the way older builds wrote demos. *)
type damage =
  | Truncate of int
  | Flip of int * int
  | Garbage of int * string
  | Delete_line of int
  | Delete_file
  | Strip_trailer of bool  (* and the payload's final newline *)
  | Delete_manifest
  | Legacy

let show_damage = function
  | Truncate i -> Printf.sprintf "truncate at %d" i
  | Flip (i, b) -> Printf.sprintf "flip bit %d of byte %d" b i
  | Garbage (i, s) -> Printf.sprintf "garbage %S at %d" s i
  | Delete_line i -> Printf.sprintf "delete line %d" i
  | Delete_file -> "delete file"
  | Strip_trailer nl ->
      if nl then "strip trailer and final newline" else "strip trailer"
  | Delete_manifest -> "delete MANIFEST"
  | Legacy -> "strip every trailer and the MANIFEST"

let damage_gen =
  QCheck.Gen.(
    let pos = int_bound 100_000 in
    oneof
      [
        map (fun i -> Truncate i) pos;
        map2 (fun i b -> Flip (i, b)) pos (int_bound 7);
        map2 (fun i s -> Garbage (i, s)) pos (string_size (int_range 1 24));
        map (fun i -> Delete_line i) pos;
        return Delete_file;
        map (fun nl -> Strip_trailer nl) bool;
        return Delete_manifest;
        return Legacy;
      ])

let strip_trailer ?(newline = false) path =
  let s = read_file path in
  match List.rev (String.split_on_char '\n' s) with
  | "" :: last :: rest when String.starts_with ~prefix:"#crc" last ->
      let rest = if newline then rest else "" :: rest in
      write_file path (String.concat "\n" (List.rev rest))
  | _ -> ()

let apply_damage dir file damage =
  let path = Filename.concat dir file in
  let s = read_file path in
  let n = String.length s in
  let at i = if n = 0 then 0 else i mod n in
  match damage with
  | Truncate i -> write_file path (String.sub s 0 (at i))
  | Flip (i, bit) ->
      if n > 0 then begin
        let b = Bytes.of_string s in
        Bytes.set b (at i) (Char.chr (Char.code (Bytes.get b (at i)) lxor (1 lsl bit)));
        write_file path (Bytes.to_string b)
      end
  | Garbage (i, junk) ->
      let cut = at i in
      write_file path (String.sub s 0 cut ^ "\n" ^ junk ^ "\n" ^ String.sub s cut (n - cut))
  | Delete_line i ->
      let lines = String.split_on_char '\n' s in
      let i = i mod List.length lines in
      write_file path (String.concat "\n" (List.filteri (fun j _ -> j <> i) lines))
  | Delete_file -> Sys.remove path
  | Strip_trailer newline -> strip_trailer ~newline path
  | Delete_manifest -> Sys.remove (Filename.concat dir "MANIFEST")
  | Legacy ->
      Array.iter (fun f -> strip_trailer (Filename.concat dir f)) (Sys.readdir dir);
      Sys.remove (Filename.concat dir "MANIFEST")

let prop_demo_load_diff =
  QCheck.Test.make ~name:"demo loads damaged directories like the reference"
    ~count:600
    (QCheck.make
       ~print:(fun (d, i, damage) ->
         Printf.sprintf "%s; file #%d: %s" (show_demo d) i (show_damage damage))
       QCheck.Gen.(triple demo_gen (int_bound 7) damage_gen))
    (fun ((d, extra), i, damage) ->
      with_base (fun ~ours:_ ~theirs ->
          R.Demo_codec.save ~extra d ~dir:theirs;
          let files = List.sort compare (Array.to_list (Sys.readdir theirs)) in
          apply_damage theirs (List.nth files (i mod List.length files)) damage;
          same_loads theirs extra))

(* ------------------------------------------------------------------ *)
(* Campaign aggregate *)

module Campaign = T11r_harness.Campaign
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World

(* [c] against the reference fold of [pairs] (the runs [c] holds, as
   its observer saw them), and [Campaign.aggregate] of the same pairs
   against both. The reference derives the same supervision fields, so
   [c]'s own supervision is its input. *)
let check_aggregate name (c : Campaign.report) pairs =
  let supervision = c.Campaign.supervision in
  let theirs =
    R.Campaign_aggregate.aggregate ~label:c.Campaign.label ~n:c.Campaign.n
      ~first:c.Campaign.first ~jobs:c.Campaign.jobs ~wall_s:c.Campaign.wall_s
      ~supervision pairs
  in
  let ours =
    Campaign.aggregate ~label:c.Campaign.label ~n:c.Campaign.n
      ~first:c.Campaign.first ~jobs:c.Campaign.jobs ~wall_s:c.Campaign.wall_s
      ~supervision pairs
  in
  List.iter
    (fun (what, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s equal to the reference" name what)
        true (Campaign.equal r theirs);
      Alcotest.(check string)
        (Printf.sprintf "%s: %s digest" name what)
        (Campaign.digest theirs) (Campaign.digest r);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s supervision" name what)
        true
        (r.Campaign.supervision = theirs.Campaign.supervision))
    [ ("campaign", c); ("aggregate", ours) ]

(* Campaign.run of [spec] with an observer keeping (index, result). *)
let run_pairs ?journal ?cancel ?deadline_s ~jobs ~n spec =
  let seen = ref [] in
  let c =
    Campaign.run spec ~n ~jobs ?journal ?cancel ?deadline_s
      [ Campaign.observer (fun i r -> seen := (i, r) :: !seen) ]
  in
  (c, Array.of_list (List.rev !seen))

let each_jobs f = List.iter f [ 1; 2; 3 ]

let hunt_spec name =
  let w = Option.get (T11r_harness.Workloads.find name) in
  Campaign.spec_io ~label:name
    ~base_conf:
      (Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Random ())
         w.T11r_harness.Workloads.w_policy)
    (fun _ world -> w.T11r_harness.Workloads.w_instance world)

let test_aggregate_hunts () =
  List.iter
    (fun (name, n) ->
      let spec = hunt_spec name in
      each_jobs (fun jobs ->
          let c, pairs = run_pairs ~jobs ~n spec in
          check_aggregate (Printf.sprintf "%s x%d j%d" name n jobs) c pairs))
    [ ("fig1", 2000); ("mcs-lock", 300); ("ms-queue", 20) ]

(* httpd under a per-run fault plan, with builds that raise: [Exit]
   is quarantined as [Crashed (-1, _)], [Failure] is an app error. *)
let test_aggregate_faults_and_crashes () =
  let cfg =
    { T11r_apps.Httpd.default_config with queries = 12; clients = 2; workers = 2 }
  in
  let spec =
    Campaign.spec_io ~label:"httpd+faults+crashes"
      ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
      (fun i world ->
        World.set_faults world
          (T11r_env.Fault.uniform ~seed:(Int64.of_int ((i * 31) + 5)) ~p:0.05 ());
        T11r_apps.Httpd.setup_world cfg world;
        fun () ->
          if i mod 7 = 3 then raise Exit
          else if i mod 11 = 5 then failwith "build"
          else T11r_apps.Httpd.program ~cfg ())
  in
  each_jobs (fun jobs ->
      let c, pairs = run_pairs ~jobs ~n:24 spec in
      Alcotest.(check bool) "some runs quarantined" true
        (c.Campaign.supervision.Campaign.sup_quarantined <> []);
      check_aggregate (Printf.sprintf "httpd j%d" jobs) c pairs)

let busy_spec =
  Campaign.spec ~label:"busy"
    ~base_conf:(Conf.tsan11rec ~strategy:Conf.Random ())
    (fun () ->
      T11r_vm.Api.program ~name:"busy" (fun () ->
          let a = T11r_vm.Api.Atomic.create 0 in
          for _ = 1 to 300 do
            ignore (T11r_vm.Api.Atomic.fetch_add a 1)
          done))

let test_aggregate_timeouts () =
  each_jobs (fun jobs ->
      let c, pairs = run_pairs ~jobs ~n:6 ~deadline_s:1e-9 busy_spec in
      Alcotest.(check int) "every run timed out" 6
        c.Campaign.supervision.Campaign.sup_timeouts;
      check_aggregate (Printf.sprintf "timeouts j%d" jobs) c pairs)

(* Stop claiming runs once [k] have started. *)
let counting spec k =
  let started = Atomic.make 0 in
  ( {
      spec with
      Campaign.instance =
        (fun i ->
          Atomic.incr started;
          spec.Campaign.instance i);
    },
    fun () -> Atomic.get started >= k )

let test_aggregate_cancelled () =
  let spec = hunt_spec "fig1" in
  each_jobs (fun jobs ->
      let spec, cancel = counting spec 9 in
      let c, pairs = run_pairs ~jobs ~n:50 ~cancel spec in
      Alcotest.(check bool) "partial" true
        c.Campaign.supervision.Campaign.sup_interrupted;
      check_aggregate (Printf.sprintf "cancelled j%d" jobs) c pairs)

let test_aggregate_resumed () =
  let spec = hunt_spec "mcs-lock" in
  each_jobs (fun jobs ->
      let journal = Filename.temp_file "t11r_aggj" ".jsonl" in
      Sys.remove journal;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
        (fun () ->
          let partial, cancel = counting spec 11 in
          ignore (run_pairs ~jobs ~n:40 ~journal ~cancel partial);
          let c, pairs = run_pairs ~jobs ~n:40 ~journal spec in
          Alcotest.(check bool) "runs came from the journal" true
            (c.Campaign.supervision.Campaign.sup_resumed > 0);
          check_aggregate (Printf.sprintf "resumed j%d" jobs) c pairs))

(* Synthetic runs: only the trace varies. *)
let run_with_trace trace =
  { (Interp.result_of_outcome Interp.Completed) with Interp.trace }

let synthetic traces =
  Array.of_list (List.mapi (fun i t -> (i, run_with_trace t)) traces)

(* The count a set of (tid, label) lists gives. *)
let naive_distinct traces =
  List.length
    (List.sort_uniq compare
       (List.map (List.map (fun (_, tid, label) -> (tid, label))) traces))

let check_distinct name traces =
  let pairs = synthetic traces in
  let n = Array.length pairs in
  let r = Campaign.aggregate ~label:name ~n ~first:0 ~jobs:1 ~wall_s:0. pairs in
  Alcotest.(check int) (name ^ ": distinct schedules") (naive_distinct traces)
    r.Campaign.distinct_schedules;
  let theirs =
    R.Campaign_aggregate.aggregate ~label:name ~n ~first:0 ~jobs:1 ~wall_s:0.
      pairs
  in
  Alcotest.(check string) (name ^ ": digest") (Campaign.digest theirs)
    (Campaign.digest r)

let test_schedule_key_exact () =
  let base = [ (0, 1, "a_load"); (1, 2, "a_store"); (2, 1, "a_cas") ] in
  let set i x l = List.mapi (fun j y -> if j = i then x else y) l in
  (* a label equal in content but not physically *)
  let copy s = Bytes.to_string (Bytes.of_string s) in
  List.iter
    (fun (name, traces) -> check_distinct name traces)
    [
      ("one tid differs", [ base; set 1 (1, 3, "a_store") base ]);
      ("one label differs", [ base; set 2 (2, 1, "a_rmw") base ]);
      ( "labels of equal length, first and last byte",
        [ base; set 1 (1, 2, "a_stxre") base; set 1 (1, 2, "axxxxxe") base ] );
      ( "tids >= 128",
        [
          base;
          set 0 (0, 129, "a_load") base;
          set 0 (0, 257, "a_load") base;
          set 0 (0, 128, "a_load") base;
          set 0 (0, 0, "a_load") base;
        ] );
      ( "ticks ignored, labels compared by content",
        [
          base;
          List.map (fun (t, tid, l) -> (t + 5, tid, copy l)) base;
          [];
          [];
        ] );
      ("prefix", [ base; List.tl base; [ List.hd base ] ]);
    ]

(* Random traces over a small alphabet whose labels collide on length,
   first and last byte. *)
let prop_schedule_count =
  let labels = [| "ab"; "axb"; "ayb"; "ba"; "a"; "" |] in
  let entry = QCheck.Gen.(pair (int_bound 300) (int_bound 5)) in
  QCheck.Test.make ~name:"distinct schedules = naive count = reference"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 40) (list_size (int_bound 4) entry)))
    (fun traces ->
      let traces =
        List.map
          (List.mapi (fun i (tid, l) -> (i, tid mod 3 * 128 + tid, labels.(l))))
          traces
      in
      let pairs = synthetic traces in
      let n = Array.length pairs in
      let r = Campaign.aggregate ~label:"q" ~n ~first:0 ~jobs:1 ~wall_s:0. pairs in
      let theirs =
        R.Campaign_aggregate.aggregate ~label:"q" ~n ~first:0 ~jobs:1 ~wall_s:0.
          pairs
      in
      r.Campaign.distinct_schedules = naive_distinct traces
      && Campaign.digest r = Campaign.digest theirs)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "diff"
    [
      ( "vclock",
        [ qtest prop_vclock_diff; qtest prop_mut_diff ] );
      ( "atomics", [ qtest prop_atomics_diff ] );
      ( "detector", [ qtest prop_detector_diff ] );
      ( "coverage", [ qtest prop_coverage_diff; qtest prop_coverage_count ] );
      ( "demo", [ qtest prop_demo_save_diff; qtest prop_demo_load_diff ] );
      ( "campaign",
        [
          Alcotest.test_case "fig1, mcs-lock, ms-queue hunts" `Quick
            test_aggregate_hunts;
          Alcotest.test_case "httpd faults and crashing builds" `Quick
            test_aggregate_faults_and_crashes;
          Alcotest.test_case "deadline timeouts" `Quick test_aggregate_timeouts;
          Alcotest.test_case "cancelled campaign" `Quick test_aggregate_cancelled;
          Alcotest.test_case "journal resume" `Quick test_aggregate_resumed;
          Alcotest.test_case "schedule key is exact" `Quick
            test_schedule_key_exact;
          qtest prop_schedule_count;
        ] );
    ]
