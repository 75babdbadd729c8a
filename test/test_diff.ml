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
   - CRC-32: the sliced kernel equals the byte-at-a-time reference on
     every sub-range of random strings, from any starting checksum;
   - Demo codec: byte-identical saved directories, equal sizes, and
     equal load results (the same value, or a [Corrupt] naming the same
     file, line and reason) on intact and damaged directories;
   - DECISIONS and the journal frame: the same decoded input, and the
     same entries and dropped-line count, as the string-codec readers;
   - Campaign aggregate: an equal report with an equal digest and equal
     derived supervision, on real campaigns at jobs 1, 2 and 3 (crashes,
     quarantines, timeouts, cancellation and journal resume included)
     and on synthetic traces built to tell a schedule key that is not
     exact from one that is; [Campaign.same_result] equal to
     [compare r c = 0] on golden results, their unshared copies and
     one-field perturbations of them;
   - Schedule: a result's streamed digest equals the Marshal digest of
     the same result in its old layout (the trace a (tick, tid, label)
     list), on every golden workload and on random schedules; the list
     rendered from the codes equals a recording's TRACE file;
   - Outcome tally: the histogram of random outcome sequences (every
     constructor, repeats, the empty sequence) equals the string-keyed
     [Hashtbl] fold sorted by key, and its linear merge equals the
     [Hashtbl] merge it replaced;
   - Policy: [Policy.should_record] equals the [List.mem] version over
     every syscall kind and descriptor class, under the default, games
     and with-proc policies and random ones;
   - Inttbl: the same operations on an [Inttbl] and a generic [Hashtbl]
     give the same lookups and the same iteration order. *)

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
(* CRC-32 *)

let test_crc_check_value () =
  (* The catalogue's check value for CRC-32/ISO-HDLC (zlib's). *)
  List.iter
    (fun (name, crc) ->
      Alcotest.(check string) name "CBF43926" (T11r_util.Crc.to_hex crc))
    [
      ("sliced", T11r_util.Crc.string "123456789");
      ("reference", R.Crc32.string "123456789");
    ]

(* Every (pos, len) of strings up to 40 bytes: lengths 0-17 cover the
   byte-at-a-time head and tail around each block size, and every
   offset an unaligned start. *)
let prop_crc_diff =
  QCheck.Test.make ~name:"crc update = byte-at-a-time reference" ~count:200
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 40) Gen.char)
        (map (fun c -> c land 0xFFFFFFFF) int))
    (fun (s, init) ->
      let n = String.length s in
      let ok = ref true in
      for pos = 0 to n do
        for len = 0 to n - pos do
          if T11r_util.Crc.update init s pos len <> R.Crc32.update init s pos len
          then ok := false
        done
      done;
      !ok)

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
        { Demo.meta; queue; signals; syscalls; asyncs; extra })
      (pair (triple meta queue (list_of signal))
         (triple (list_of syscall) (list_of async) extra)))

let show_demo d =
  Printf.sprintf "%s; %d queue ticks; extra %s"
    (Format.asprintf "%a" Demo.pp d)
    (match d.Demo.queue with Some q -> List.length q.Demo.next_ticks | None -> -1)
    (String.concat "," (List.map fst d.Demo.extra))

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

(* Both loaders on one directory. *)
let same_loads dir =
  load_outcome (fun () -> Demo.load ~dir)
  = load_outcome (fun () -> R.Demo_codec.load ~dir)

let prop_demo_save_diff =
  QCheck.Test.make ~name:"demo saves the reference bytes" ~count:300
    (QCheck.make ~print:show_demo demo_gen) (fun d ->
      with_base (fun ~ours ~theirs ->
          Demo.save ~durable:false d ~dir:ours;
          R.Demo_codec.save d ~dir:theirs;
          dir_contents ours = dir_contents theirs
          && Demo.size_bytes d = R.Demo_codec.size_bytes d
          && Demo.syscall_bytes d = R.Demo_codec.syscall_bytes d
          && same_loads ours))

(* The damage fuzz_demo_hardening (test_record.ml) does, plus trailers
   and the MANIFEST stripped the way older builds wrote demos, which
   both loaders refuse. *)
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
    (fun (d, i, damage) ->
      with_base (fun ~ours:_ ~theirs ->
          R.Demo_codec.save d ~dir:theirs;
          let files = List.sort compare (Array.to_list (Sys.readdir theirs)) in
          apply_damage theirs (List.nth files (i mod List.length files)) damage;
          same_loads theirs
          &&
          match damage with
          | Strip_trailer _ | Delete_manifest | Legacy ->
              Result.is_error (load_outcome (fun () -> Demo.load ~dir:theirs))
          | _ -> true))

(* Edits to the fields of one or two payload lines, in one or two
   files, resealed: every trailer and the MANIFEST are recomputed, so
   only the parsers can object; with two bad fields on a line, or two
   bad files, both loaders must blame the same one. The tokens are
   fields a parser must read as [Ref_model.Text]'s [int_field] and
   [decode_bytes (unescape _)] do, or refuse with their reason. *)
let field_tokens =
  [ "x"; "-"; "+5"; "0x1F"; "1_000"; "007"; "-0"; "99999999999999999999";
    "4611686018427387903"; "-4611686018427387904"; "4611686018427387904";
    "123456789012345678"; "-123456789012345678"; "%"; "%4"; "%ZZ"; "%zz";
    "%-"; "%-%-"; "%00%00"; "%00%03"; "%00%05%41"; "%01%05ab"; "%01%02%41";
    "%01%02%4"; "%01%02%4g"; "%02%01x"; "%01%01%0a"; "%00%00A"; "%01%00";
    "%00%01A"; "%01%03abc"; "%01%03ab"; "%05%01a"; "%01"; "A"; "%01%01%";
    "resched"; "sigwake"; "first"; "t"; "queue"; "#crc"; ""; "a b" ]

let edit_fields path i edits =
  (* every line but the trailer *)
  let lines = Array.of_list (Ref_model.Text.read_lines path) in
  let n = Array.length lines - 1 in
  if n > 0 then begin
    let i = i mod n in
    let fs = Array.of_list (String.split_on_char ' ' lines.(i)) in
    List.iter (fun (k, tok) -> fs.(k mod Array.length fs) <- tok) edits;
    lines.(i) <- String.concat " " (Array.to_list fs);
    write_file path
      (String.concat "" (List.map (fun l -> l ^ "\n") (Array.to_list lines)))
  end

let show_edit (file, i, edits) =
  Printf.sprintf "%s line %d: %s" file i
    (String.concat "; "
       (List.map (fun (k, tok) -> Printf.sprintf "field %d := %S" k tok) edits))

let prop_demo_parse_diff =
  QCheck.Test.make ~name:"demo parses resealed field edits like the reference"
    ~count:500
    (QCheck.make
       ~print:(fun (d, edits) ->
         Printf.sprintf "%s; %s" (show_demo d)
           (String.concat "; " (List.map show_edit edits)))
       QCheck.Gen.(
         let file =
           frequency
             [ (3, return "SYSCALL");
               (1, oneofl [ "META"; "QUEUE"; "SIGNAL"; "ASYNC" ]) ]
         in
         (* field 6 is SYSCALL's data *)
         let field = frequency [ (2, return 6); (3, int_bound 7) ] in
         pair demo_gen
           (list_size (int_range 1 2)
              (triple file (int_bound 100_000)
                 (list_size (int_range 1 3) (pair field (oneofl field_tokens)))))))
    (fun (d, edits) ->
      with_base (fun ~ours:_ ~theirs ->
          R.Demo_codec.save d ~dir:theirs;
          List.iter
            (fun (file, i, fields) ->
              let path = Filename.concat theirs file in
              if Sys.file_exists path then edit_fields path i fields)
            edits;
          Demo.reseal ~dir:theirs;
          same_loads theirs))

(* ------------------------------------------------------------------ *)
(* DECISIONS and the journal frame *)

module Predict = T11r_race.Predict
module Decision = T11r_race.Decision

let decisions_input_gen =
  QCheck.Gen.(
    let small = frequency [ (6, int_bound 4); (1, int_range (-2) 40) ] in
    let name = demo_token [ "nax"; "x"; "a b"; "100%"; "a\nb" ] in
    let foot =
      oneof
        [
          oneofl Decision.[ F_local; F_fence; F_global ];
          map2 (fun id k -> Decision.F_atomic (id, k)) small
            (oneofl Decision.[ Acc_read; Acc_write; Acc_update ]);
          map2 (fun a b -> Decision.F_sync (a, b)) small small;
          map (fun c -> Decision.F_spawn c) small;
          map (fun c -> Decision.F_join c) small;
          map (fun c -> Decision.F_syscall c) small;
        ]
    in
    let lock =
      oneof
        [
          return Decision.L_none;
          map (fun i -> Decision.L_acquire i) small;
          map (fun i -> Decision.L_release i) small;
          map (fun i -> Decision.L_blocked i) small;
        ]
    in
    let step =
      map3
        (fun (d_tid, others) (d_foot, d_lock) (d_draws, d_rand) ->
          let d_enabled =
            Array.of_list (List.sort_uniq compare (d_tid :: others))
          in
          { Decision.d_tid; d_enabled; d_foot; d_draws; d_rand; d_lock })
        (pair small (list_size (int_bound 3) small))
        (pair foot lock) (pair small bool)
    in
    let acc =
      map3
        (fun (a_tick, a_tid, a_pos) (a_var, a_write) a_name ->
          { Decision.a_tick; a_tid; a_pos; a_var; a_write; a_name })
        (triple small small small) (pair small bool) name
    in
    let race =
      map3
        (fun kind (first_tid, second_tid) var ->
          { T11r_race.Report.var; kind; first_tid; second_tid })
        (oneofl T11r_race.Report.[ Write_write; Write_read; Read_write ])
        (pair small small) name
    in
    map3
      (fun steps accs observed ->
        { Predict.steps = Array.of_list steps; accs = Array.of_list accs; observed })
      (list_size (int_bound 6) step)
      (list_size (int_bound 4) acc)
      (list_size (int_bound 2) race))

(* One edit to a DECISIONS line: a field replaced, added or dropped. *)
type line_edit = Set_field of int * string | Add_field of string | Drop_field of int

let decisions_tokens =
  [ "0"; "1"; "2"; "E0,1,2"; "E1,2"; "D3"; "A0.r"; "A2.u"; "Y0.-1"; "P2"; "J1";
    "W0"; "L"; "a0"; "r1"; "b2"; "ww"; "wr"; "rw"; "v"; "nax";
    "E"; "E1,,2"; "E0"; "E0,1"; "E,1"; "E-1"; "E0x1"; "D-1"; "D"; "D0"; "A1.x";
    "A1."; "A.r"; "A1.rx"; "Y1"; "Y1.2"; "Y.2"; "Y1.2.3"; "P-1"; "P"; "J0";
    "W1_0"; "Lx"; "F"; "G"; "-"; "a1"; "r-1"; "b"; "x1"; "%ZZ"; "%-"; "%-%-";
    "%4"; "a%20b"; "0x1F"; "1_000"; "+1"; "-0"; "007"; "99999999999999999999";
    "0"; "1"; "-1"; "S"; "A"; "R"; "ww"; "xx"; "" ]

let apply_line_edit line = function
  | Set_field (k, tok) ->
      let fs = Array.of_list (String.split_on_char ' ' line) in
      fs.(k mod Array.length fs) <- tok;
      String.concat " " (Array.to_list fs)
  | Add_field tok -> line ^ " " ^ tok
  | Drop_field k ->
      let fs = String.split_on_char ' ' line in
      String.concat " " (List.filteri (fun j _ -> j <> k mod List.length fs) fs)

let show_line_edit = function
  | Set_field (k, tok) -> Printf.sprintf "field %d := %S" k tok
  | Add_field tok -> Printf.sprintf "add %S" tok
  | Drop_field k -> Printf.sprintf "drop field %d" k

let prop_decisions_diff =
  QCheck.Test.make ~name:"DECISIONS decode field edits like the reference"
    ~count:1000
    (QCheck.make
       ~print:(fun (inp, i, edits) ->
         Printf.sprintf "%s\nline %d: %s"
           (String.concat "\n" (Predict.encode_input inp))
           i
           (String.concat "; " (List.map show_line_edit edits)))
       QCheck.Gen.(
         let edit =
           frequency
             [
               (6, map2 (fun k t -> Set_field (k, t)) (int_bound 7) (oneofl decisions_tokens));
               (1, map (fun t -> Add_field t) (oneofl decisions_tokens));
               (1, map (fun k -> Drop_field k) (int_bound 7));
             ]
         in
         triple decisions_input_gen (int_bound 1000) (list_size (int_range 1 2) edit)))
    (fun (inp, i, edits) ->
      let lines = Array.of_list (Predict.encode_input inp) in
      let n = Array.length lines in
      if n > 0 then
        lines.(i mod n) <- List.fold_left apply_line_edit lines.(i mod n) edits;
      let lines = Array.to_list lines in
      Predict.decode_input lines = R.Decisions.decode_input lines)

(* Damage to a rendered journal: whole-file cuts and bit flips, a byte
   of an entry's kind, checksum or payload overwritten, and
   whitespace-only lines. *)
type jdamage =
  | J_truncate of int
  | J_flip of int * int
  | J_edit of string * int * int * char  (* field, entry, offset, byte *)
  | J_blank of int * string  (* before line i *)

let show_jdamage = function
  | J_truncate i -> Printf.sprintf "truncate at %d" i
  | J_flip (i, b) -> Printf.sprintf "flip bit %d of byte %d" b i
  | J_edit (f, j, o, c) -> Printf.sprintf "entry %d %s byte %d := %C" j f o c
  | J_blank (i, w) -> Printf.sprintf "blank %S before line %d" w i

let jdamage_gen =
  QCheck.Gen.(
    let pos = int_bound 100_000 in
    oneof
      [
        map (fun i -> J_truncate i) pos;
        map2 (fun i b -> J_flip (i, b)) pos (int_bound 7);
        map3
          (fun f (j, o) c -> J_edit (f, j, o, c))
          (oneofl [ "\"kind\":\""; "\"crc\":\""; "\"payload\":\"" ])
          (pair small_nat small_nat)
          (oneofl [ '"'; ','; ':'; '%'; '\\'; '{'; '}'; ' '; '\n'; '\t'; 'A'; 'z';
                    '0'; 'F'; '-'; '_'; '\000'; '\255' ]);
        map2 (fun i w -> J_blank (i, w)) pos
          (oneofl [ ""; " "; "\t"; "\r"; " \012 "; "  \t\r" ]);
      ])

let find_from s i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go i

let apply_jdamage s = function
  | J_truncate i -> String.sub s 0 (if s = "" then 0 else i mod String.length s)
  | J_flip (i, bit) ->
      if s = "" then s
      else begin
        let b = Bytes.of_string s and i = i mod String.length s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Bytes.to_string b
      end
  | J_edit (field, j, o, c) -> (
      let lines = String.split_on_char '\n' s in
      let j = j mod List.length lines in
      let line = List.nth lines j in
      match find_from line 0 field with
      | None -> s
      | Some at ->
          let start = at + String.length field in
          let room = String.length line - start in
          if room <= 0 then s
          else begin
            let b = Bytes.of_string line in
            Bytes.set b (start + (o mod room)) c;
            String.concat "\n"
              (List.mapi (fun k l -> if k = j then Bytes.to_string b else l) lines)
          end)
  | J_blank (i, w) ->
      let lines = String.split_on_char '\n' s in
      let i = i mod (List.length lines + 1) in
      String.concat "\n"
        (List.concat (List.mapi (fun k l -> if k = i then [ w; l ] else [ l ]) lines)
        @ if i = List.length lines then [ w ] else [])

let journal_entry_gen =
  QCheck.Gen.(
    pair
      (oneofl [ "run"; "hdr"; "a-b_C9" ])
      (string_size ~gen:(frequency [ (3, printable); (1, oneofl [ '"'; '%'; '\\'; '\n'; ' ' ]);
                                     (1, char) ])
         (int_bound 40)))

let prop_journal_diff =
  QCheck.Test.make ~name:"journal reads damaged files like the reference"
    ~count:500
    (QCheck.make
       ~print:(fun (entries, damage) ->
         Printf.sprintf "%s; %s"
           (String.concat ", "
              (List.map (fun (k, p) -> Printf.sprintf "%s:%S" k p) entries))
           (String.concat "; " (List.map show_jdamage damage)))
       QCheck.Gen.(
         pair (list_size (int_bound 5) journal_entry_gen)
           (list_size (int_bound 2) jdamage_gen)))
    (fun (entries, damage) ->
      T11r_util.Tmp.with_dir ~prefix:"t11r-journal-diff" (fun base ->
          let path = Filename.concat base "j.jsonl" in
          let w = T11r_util.Journal.create path in
          List.iter
            (fun (kind, payload) -> T11r_util.Journal.append w { kind; payload })
            entries;
          T11r_util.Journal.close w;
          write_file path (List.fold_left apply_jdamage (read_file path) damage);
          T11r_util.Journal.read path = R.Journal_frame.read path))

(* ------------------------------------------------------------------ *)
(* Campaign aggregate *)

(* The replay cursor's QUEUE against the old Hashtbl scan, on random
   traces: the same encoding, and at every tick the same thread
   expected, also when another thread runs instead (a Resync fallback,
   which takes over the next tick the expected thread would have had)
   and past the end of the recording. *)
let prop_queue_cursor_diff =
  QCheck.Test.make ~name:"QUEUE cursor = Hashtbl scan, under resync" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 0 3))
        (list_of_size Gen.(0 -- 50) (option (int_range 0 4))))
    (fun (trace, runs) ->
      (* thread t runs no earlier than tick t: the t spawns that made it
         come first *)
      let tids = Array.of_list (List.mapi min trace) in
      let n = Array.length tids in
      let q = Demo.queue_of_trace tids n in
      let meta =
        {
          Demo.app = "q";
          strategy = "queue";
          seed1 = 1L;
          seed2 = 2L;
          ticks = n;
          output_digest = "";
        }
      in
      let c =
        Demo.cursor
          { Demo.meta; queue = Some q; signals = []; syscalls = []; asyncs = []; extra = [] }
      in
      let r = R.Queue_replay.start q in
      q = R.Queue_replay.encode tids n
      && List.for_all Fun.id
           (List.mapi
              (fun tick run ->
                let expected = Demo.scheduled c tick in
                let ran =
                  match run with Some tid -> tid | None -> max 0 expected
                in
                let same = expected = R.Queue_replay.scheduled r tick in
                Demo.leave c ran;
                R.Queue_replay.leave r ran;
                same)
              runs))

module Campaign = T11r_harness.Campaign
module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World

(* [c] against the reference fold of [pairs] (the runs [c] holds, as
   its observer saw them), and [Campaign.aggregate] of the same pairs
   against both; the streamed digest against the whole Marshal
   string's. The reference derives the same supervision fields, so
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
      Alcotest.(check string)
        (Printf.sprintf "%s: %s digest = whole Marshal string's" name what)
        (R.Marshal_digest.campaign r) (Campaign.digest r);
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

(* Synthetic runs: only the trace varies; its ticks are dropped. *)
let run_with_trace trace =
  {
    (Interp.result_of_outcome Interp.Completed) with
    Interp.trace =
      Interp.schedule_of_list (List.map (fun (_, tid, l) -> (tid, l)) trace);
  }

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
      ( "a label repeated in one trace, once as a copy",
        [ base @ base; base @ List.map (fun (t, tid, l) -> (t, tid, copy l)) base ] );
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

(* Campaign coverage is one accumulator ORed in place; it must give the
   bytes and the [Invalid_argument] of the left fold of [Coverage.union]
   it replaced, and of the byte-at-a-time reference fold. The
   sequences mix the empty summary, all-zero bitmaps (of the run's
   width and of others: while no summary is non-empty, the last one
   wins), single bits, dense maps and a width mismatch. *)
let coverage_seq_gen =
  QCheck.Gen.(
    let empties w =
      list_size (int_range 0 6)
        (frequency
           [ (1, return ""); (2, return (String.make w '\000'));
             (1, map (fun v -> String.make v '\000') (int_range 1 600)) ])
    in
    width_gen >>= fun w ->
    frequency
      [
        (1, empties w);
        ( 3,
          list_size (int_range 0 12)
            (frequency
               [
                 (1, return "");
                 (6, summary_of_width w);
                 (1, width_gen >>= summary_of_width);
               ]) );
      ])

let exn_outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let prop_aggregate_coverage =
  QCheck.Test.make ~name:"aggregate coverage = left fold of union" ~count:2000
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map show_summary l))
       coverage_seq_gen) (fun summaries ->
      let pairs =
        Array.of_list
          (List.mapi
             (fun i s ->
               ( i,
                 { (Interp.result_of_outcome Interp.Completed) with
                   Interp.coverage = s } ))
             summaries)
      in
      let n = Array.length pairs in
      let ours =
        exn_outcome (fun () ->
            (Campaign.aggregate ~label:"cov" ~n ~first:0 ~jobs:1 ~wall_s:0. pairs)
              .Campaign.coverage)
      in
      ours = exn_outcome (fun () -> List.fold_left Cov.union Cov.empty summaries)
      && ours
         = exn_outcome (fun () ->
               List.fold_left R.Coverage.union Cov.empty summaries))

(* ------------------------------------------------------------------ *)
(* The schedule as int codes, against the (tick, tid, label) list it
   replaced: [Interp.result_digest] streams a result's bytes in the old
   layout, so it must equal the digest of the old record
   ([Ref_model.Legacy_result]) marshalled whole. *)

module Workloads = T11r_harness.Workloads

let pairs_of (r : Interp.result) =
  List.map (fun (_, tid, l) -> (tid, l)) (Interp.trace_list r)

let check_legacy what (r : Interp.result) =
  Alcotest.(check string)
    (what ^ ": streamed digest = old layout's Marshal digest")
    (R.Legacy_result.digest r) (Interp.result_digest r);
  Alcotest.(check bool)
    (what ^ ": the list rebuilds the schedule")
    true
    (Interp.schedule_of_list (pairs_of r) = r.Interp.trace)

(* Every golden workload under every golden configuration, once. *)
let test_legacy_digest_golden () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (cname, conf) ->
          check_legacy
            (w.Workloads.w_name ^ "/" ^ cname)
            (Golden.run_workload w ~world_seed:7L (Conf.with_seeds conf 3L 4L)))
        (Golden.configs ()))
    Workloads.all

(* A debug_trace recording's TRACE file is the list, line for line. *)
let test_trace_list_is_trace_file () =
  List.iter
    (fun (w : Workloads.t) ->
      T11r_util.Tmp.with_dir ~prefix:"schedule" (fun dir ->
          let conf =
            {
              (Conf.tsan11rec ~strategy:Conf.Random ~mode:(Conf.Record dir) ())
              with
              Conf.debug_trace = true;
            }
          in
          let r =
            Golden.run_workload w ~world_seed:5L (Conf.with_seeds conf 11L 13L)
          in
          let name = w.Workloads.w_name in
          let lines = List.assoc "TRACE" (Demo.load ~dir).Demo.extra in
          Alcotest.(check (list string))
            (name ^ ": trace_list = TRACE")
            lines
            (List.map
               (fun (tick, tid, l) -> Printf.sprintf "%d %d %s" tick tid l)
               (Interp.trace_list r));
          check_legacy (name ^ " recorded") r))
    Workloads.all

(* Random schedules: tids and ticks across Marshal's int widths (a
   schedule of 2^30 ticks is not built; [Mdigest.int]'s own test covers
   those widths), and labels that are constants, built per tick
   ([sig_entry:n], [syscall:*]: equal but not physically) or of the
   string-code boundary lengths. *)
let prop_legacy_digest =
  let open QCheck.Gen in
  let label =
    oneof
      [
        oneofl [ "a_load"; "a_store"; "mutex_lock"; ""; String.make 31 'l';
                 String.make 32 'l'; String.make 255 'l'; String.make 256 'l' ];
        map (fun n -> Printf.sprintf "sig_entry:%d" n) (int_bound 12);
        map (fun k -> "syscall:" ^ k) (oneofl [ "read"; "write"; "poll" ]);
      ]
  in
  let tid =
    oneof
      [
        int_bound 5;
        oneofl [ 63; 64; 127; 128; 32767; 32768; (1 lsl 30) - 1; 1 lsl 30;
                 1 lsl 31; max_int lsr 16 ];
      ]
  in
  let len =
    frequency
      [ (12, int_bound 200); (4, oneofl [ 64; 65; 128; 129 ]); (1, int_range 32767 32800) ]
  in
  QCheck.Test.make ~name:"result_digest = old layout's Marshal digest" ~count:120
    (QCheck.make
       ~print:(fun (entries, out) ->
         Printf.sprintf "%d ticks, output %S" (List.length entries) out)
       (pair (len >>= fun n -> list_repeat n (pair tid label)) (string_size (int_bound 40))))
    (fun (entries, output) ->
      let r =
        {
          (Interp.result_of_outcome Interp.Completed) with
          Interp.trace = Interp.schedule_of_list entries;
          ticks = List.length entries;
          output;
        }
      in
      Interp.result_digest r = R.Legacy_result.digest r
      && pairs_of r = entries)

let test_schedule_refusals () =
  let refused what l =
    Alcotest.(check bool) what true
      (try
         ignore (Interp.schedule_of_list l);
         false
       with Invalid_argument _ -> true)
  in
  refused "a tid past max_int lsr 16" [ (0, "a"); ((max_int lsr 16) + 1, "a") ];
  refused "a negative tid" [ (-1, "a") ];
  refused "65,537 labels" (List.init 65537 (fun i -> (0, string_of_int i)));
  let s = Interp.schedule_of_list (List.init 65536 (fun i -> (1, string_of_int i))) in
  Alcotest.(check int) "65,536 labels fit" 65536 (Array.length s.Interp.labels);
  Alcotest.(check string) "the last one" "65535" s.Interp.labels.(65535)

(* ------------------------------------------------------------------ *)
(* [Campaign.same_result], field by field, against [compare r c = 0],
   the polymorphic comparison it replaced. *)

(* Equal to [r], sharing nothing with it. *)
let unshared (r : Interp.result) : Interp.result =
  Marshal.from_string (Marshal.to_string r [ Marshal.No_sharing ]) 0

let agrees a b = Campaign.same_result a b = (compare a b = 0)

(* Every golden workload under every golden configuration, at two seed
   pairs, and a recording of each workload (a result with a demo). *)
let golden_results =
  lazy
    (List.map
       (fun (w : Workloads.t) ->
         let runs =
           List.concat_map
             (fun (_, conf) ->
               List.map
                 (fun (s1, s2) ->
                   Golden.run_workload w ~world_seed:7L (Conf.with_seeds conf s1 s2))
                 [ (3L, 4L); (5L, 6L) ])
             (Golden.configs ())
         in
         let recorded =
           T11r_util.Tmp.with_dir ~prefix:"same_result" (fun dir ->
               Golden.run_workload w ~world_seed:7L
                 (Conf.with_seeds
                    (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
                    3L 4L))
         in
         (w.Workloads.w_name, recorded :: runs))
       Workloads.all)

let test_same_result_golden () =
  List.iter
    (fun (name, rs) ->
      let copies = List.map unshared rs in
      List.iter2
        (fun a a' ->
          Alcotest.(check bool) (name ^ ": equal to its copy") true
            (Campaign.same_result a a');
          List.iter
            (fun b ->
              if not (agrees a b) then
                Alcotest.failf "%s: same_result disagrees with compare" name)
            copies)
        rs copies)
    (Lazy.force golden_results)

(* [r] with field [k] (declaration order) taken from [src]. *)
let with_field k (r : Interp.result) (src : Interp.result) : Interp.result =
  match k with
  | 0 -> { r with outcome = src.outcome }
  | 1 -> { r with makespan_us = src.makespan_us }
  | 2 -> { r with ticks = src.ticks }
  | 3 -> { r with races = src.races }
  | 4 -> { r with race_count = src.race_count }
  | 5 -> { r with lock_cycles = src.lock_cycles }
  | 6 -> { r with trace_divergence = src.trace_divergence }
  | 7 -> { r with output = src.output }
  | 8 -> { r with soft_desync = src.soft_desync }
  | 9 -> { r with demo = src.demo }
  | 10 -> { r with trace = src.trace }
  | 11 -> { r with thread_names = src.thread_names }
  | 12 -> { r with rng_draws = src.rng_draws }
  | 13 -> { r with desync_count = src.desync_count }
  | 14 -> { r with divergences = src.divergences }
  | 15 -> { r with metrics = src.metrics }
  | 16 -> { r with events = src.events }
  | 17 -> { r with events_dropped = src.events_dropped }
  | 18 -> { r with coverage = src.coverage }
  | 19 -> { r with decisions = src.decisions }
  | _ -> { r with accesses = src.accesses }

(* [r] with field [k] replaced by a value made from the bits of [i]:
   each bit sets one part of it (an int, a string, a constructor), so
   two [i] one bit apart give values that differ in one part only. *)
let variant k i (r : Interp.result) : Interp.result =
  let bit b = (i lsr b) land 1 in
  let str b = if bit b = 0 then "x" else "y" in
  let src = Interp.result_of_outcome Interp.Completed in
  let src =
    match k with
    | 0 ->
        let outcome =
          match i land 7 with
          | 0 -> Interp.Completed
          | 1 -> Deadlock [ bit 3; 2 ]
          | 2 -> Crashed (bit 3, str 4)
          | 3 -> Hard_desync (str 3)
          | 4 -> Unsupported_app (str 3)
          | 5 -> App_error (str 3)
          | 6 -> Corrupt_demo (str 3)
          | _ -> if bit 3 = 0 then Tick_limit else Timeout
        in
        { src with outcome }
    | 3 ->
        let kind : T11r_race.Report.kind =
          match bit 1 + (2 * bit 2) with 0 -> Write_write | 1 -> Write_read | _ -> Read_write
        in
        { src with
          races =
            { T11r_race.Report.var = str 0; kind; first_tid = bit 3; second_tid = bit 4 }
            :: (if bit 5 = 0 then [] else r.races) }
    | 5 ->
        { src with
          lock_cycles =
            [ [ { T11r_race.Lockorder.from_lock = str 0; to_lock = str 1; witness_tid = bit 2 } ] ] }
    | 6 -> { src with trace_divergence = (if bit 0 = 0 then None else Some (str 1)) }
    | 7 -> { src with output = r.output ^ str 0 }
    | 8 -> { src with soft_desync = bit 0 = 1 }
    | 9 ->
        let recorded = List.hd (snd (List.hd (Lazy.force golden_results))) in
        { src with demo = (if bit 0 = 0 then None else recorded.demo) }
    | 10 ->
        let l = List.map (fun (_, tid, label) -> (tid, label)) (Interp.trace_list r) in
        { src with trace = Interp.schedule_of_list (l @ [ (bit 0, str 1) ]) }
    | 11 -> { src with thread_names = (bit 0, str 1) :: r.thread_names }
    | 14 ->
        { src with
          divergences =
            [ { Interp.div_tick = bit 0; div_tid = bit 1; div_site = str 2;
                div_expected = str 3; div_actual = str 4;
                div_trail = [ (bit 5, bit 6, str 7) ] } ] }
    | 15 ->
        let m = r.metrics in
        { src with
          metrics =
            { T11r_obs.Metrics.m_ticks = m.m_ticks + bit 0;
              m_waits = m.m_waits + bit 1;
              m_preemptions = m.m_preemptions + bit 2;
              m_evictions = m.m_evictions + bit 3;
              m_stale_reads = m.m_stale_reads + bit 4;
              m_det_checks = m.m_det_checks + bit 5;
              m_desyncs = m.m_desyncs + bit 6;
              m_timeouts = m.m_timeouts + bit 7;
              m_retries = m.m_retries + bit 8;
              m_salvages = m.m_salvages + bit 9;
              m_cov_bits = m.m_cov_bits + bit 10;
              m_corpus_adds = m.m_corpus_adds + bit 11;
              m_energy = m.m_energy + bit 12;
              m_predicted = m.m_predicted + bit 13;
              m_pred_verified = m.m_pred_verified + bit 14;
              m_pred_refuted = m.m_pred_refuted + bit 15 } }
    | 16 ->
        let ev_kind : T11r_obs.Trace.kind =
          match i land 7 with
          | 0 -> Sched | 1 -> Op | 2 -> Stale_read | 3 -> Fault | 4 -> Race | _ -> Desync
        in
        { src with
          events =
            { T11r_obs.Trace.ev_kind; ev_tick = bit 3; ev_tid = bit 4; ev_label = str 5;
              ev_ts = bit 6; ev_dur = bit 7 }
            :: r.events }
    | 18 -> { src with coverage = r.coverage ^ str 0 }
    | 19 ->
        let d_foot : Decision.footprint =
          match (i lsr 2) land 7 with
          | 0 -> F_local
          | 1 -> F_atomic (bit 5, if bit 6 = 0 then Acc_read else Acc_write)
          | 2 -> F_fence
          | 3 -> F_sync (bit 5, bit 6)
          | 4 -> F_spawn (bit 5)
          | 5 -> F_join (bit 5)
          | 6 -> F_syscall (bit 5)
          | _ -> F_global
        in
        let d_lock : Decision.lock_event =
          match (i lsr 7) land 3 with
          | 0 -> L_none
          | 1 -> L_acquire (bit 9)
          | 2 -> L_release (bit 9)
          | _ -> L_blocked (bit 9)
        in
        { src with
          decisions =
            Array.append r.decisions
              [| { Decision.d_tid = bit 0; d_enabled = [| bit 1; 2 |]; d_foot;
                   d_draws = bit 10; d_rand = bit 11 = 1; d_lock } |] }
    | 20 ->
        { src with
          accesses =
            Array.append r.accesses
              [| { Decision.a_tick = bit 0; a_tid = bit 1; a_pos = bit 2; a_var = bit 3;
                   a_write = bit 4 = 1; a_name = str 5 } |] }
    | _ ->
        (* the int fields *)
        { src with
          makespan_us = r.makespan_us + bit 0;
          ticks = r.ticks + bit 0;
          race_count = r.race_count + bit 0;
          rng_draws = r.rng_draws + bit 0;
          desync_count = r.desync_count + bit 0;
          events_dropped = r.events_dropped + bit 0 }
  in
  with_field k r src

(* One field of a golden result replaced: the pair compared is the
   result and the result with that field taken from another golden
   result, or two variants of the field one bit apart. *)
let prop_same_result =
  let pool = lazy (Array.of_list (List.concat_map snd (Lazy.force golden_results))) in
  QCheck.Test.make ~name:"same_result = (compare = 0), one field perturbed" ~count:3000
    QCheck.(quad small_nat (int_bound 20) (int_bound 0xFFFF) (int_bound 16))
    (fun (a, k, i, b) ->
      let pool = Lazy.force pool in
      let r = pool.(a mod Array.length pool) in
      let r1, r2 =
        if b = 16 then (r, with_field k r pool.(i mod Array.length pool))
        else (variant k i r, variant k (i lxor (1 lsl b)) r)
      in
      agrees r1 r2 && agrees r1 (unshared r2) && agrees (unshared r1) r2)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Decision capture: the arena logs, the shared footprints, enabled
   sets and lock events and the memo of recurring decisions, against
   the list-built capture ([Ref_model.Capture]) fed by the interpreter's
   tap. One arena runs every golden workload under Guided at several
   prefixes, so later runs read decisions the memo kept from earlier
   ones, of the same workload and of others. *)

let test_capture_golden () =
  let arena = Interp.create_arena () in
  let prefixes =
    [ T11r_harness.Predictor.recording_prefix 1; [||]; [| 1 |]; [| 0; 1; 1; 2 |] ]
  in
  List.iter
    (fun (w : Workloads.t) ->
      List.iteri
        (fun i prefix ->
          let what = Printf.sprintf "%s, prefix %d" w.Workloads.w_name i in
          let world = World.create ~seed:43L () in
          let conf =
            Conf.with_max_ticks
              (Conf.with_policy
                 (Conf.with_seeds
                    (Conf.tsan11rec
                       ~strategy:(Conf.Guided { prefix; observed = ref [] })
                       ())
                    1L 7920L)
                 w.Workloads.w_policy)
              Golden.tick_budget
          in
          let r, decisions, accesses =
            R.Capture.run arena (fun () ->
                Interp.run ~world ~arena conf (w.Workloads.w_instance world ()))
          in
          Alcotest.(check int) (what ^ ": decisions") (Array.length decisions)
            (Array.length r.Interp.decisions);
          Array.iteri
            (fun k d ->
              if d <> r.Interp.decisions.(k) then
                Alcotest.failf "%s: decision %d differs from the reference" what k)
            decisions;
          Alcotest.(check int) (what ^ ": accesses") (Array.length accesses)
            (Array.length r.Interp.accesses);
          Array.iteri
            (fun k a ->
              if a <> r.Interp.accesses.(k) then
                Alcotest.failf "%s: access %d differs from the reference" what k)
            accesses)
        prefixes)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Outcome tally: the one histogram every engine counts with, against
   the string-keyed [Hashtbl] fold sorted by key, and its merge against
   the [Hashtbl] merge the guided hunt used. *)

module Outcome = T11r_harness.Outcome

let outcome_gen =
  QCheck.Gen.(
    let msg = oneofl [ ""; "boom"; "x" ] in
    oneof
      [
        return Interp.Completed;
        map (fun l -> Interp.Deadlock l) (list_size (int_range 0 3) small_nat);
        map2 (fun t m -> Interp.Crashed (t, m)) (int_range (-1) 4) msg;
        map (fun m -> Interp.Hard_desync m) msg;
        map (fun m -> Interp.Unsupported_app m) msg;
        map (fun m -> Interp.App_error m) msg;
        return Interp.Tick_limit;
        return Interp.Timeout;
        map (fun m -> Interp.Corrupt_demo m) msg;
      ])

let tally outcomes =
  let t = Outcome.tally () in
  List.iter (Outcome.add t) outcomes;
  Outcome.histogram t

let prop_outcome_tally =
  QCheck.Test.make ~name:"tally and merge = the Hashtbl folds" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) ->
         let keys l = String.concat " " (List.map R.Outcome_tally.key l) in
         keys a ^ " | " ^ keys b)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 40) outcome_gen)
           (list_size (int_range 0 40) outcome_gen)))
    (fun (a, b) ->
      let ha = tally a and hb = tally b in
      let ra = R.Outcome_tally.histogram a and rb = R.Outcome_tally.histogram b in
      List.for_all (fun o -> Outcome.key o = R.Outcome_tally.key o) (a @ b)
      && ha = ra && hb = rb
      && Outcome.merge ha hb = R.Outcome_tally.merge_outcomes ra rb
      && Outcome.merge ha hb = R.Outcome_tally.histogram (a @ b)
      && List.for_all
           (fun (k, v) -> Outcome.count ha k = v)
           ra
      && Outcome.count ha "no-such-key" = 0)

(* ------------------------------------------------------------------ *)
(* Policy.should_record *)

module Policy = Tsan11rec.Policy
module Syscall = T11r_vm.Syscall

let all_kinds : Syscall.kind list =
  [ Read; Write; Recv; Send; Recvmsg; Sendmsg; Poll; Select; Epoll_wait;
    Accept; Accept4; Bind; Clock_gettime; Ioctl; Open_; Close; Pipe ]

let all_fd_classes : Policy.fd_class list =
  [ `Sock; `File; `Pipe; `Listen; `Gpu; `Stdout; `Unknown ]

let policy_gen =
  QCheck.Gen.(
    let random =
      map
        (fun (kinds, (file_rw, ioctl, clock)) ->
          {
            Policy.default with
            name = "random";
            record_kinds = List.filter_map Fun.id kinds;
            record_file_rw = file_rw;
            ignore_ioctl = ioctl;
            record_clock = clock;
          })
        (pair
           (flatten_l
              (List.map (fun k -> map (fun b -> if b then Some k else None) bool) all_kinds))
           (triple bool bool bool))
    in
    frequency
      [ (1, return Policy.default); (1, return Policy.games);
        (1, return Policy.with_proc); (5, random) ])

let prop_should_record =
  QCheck.Test.make ~name:"should_record = the List.mem version" ~count:500
    (QCheck.make
       ~print:(fun (p : Policy.t) ->
         Printf.sprintf "%s [%s] file_rw=%b ignore_ioctl=%b clock=%b" p.name
           (String.concat " " (List.map Syscall.kind_to_string p.record_kinds))
           p.record_file_rw p.ignore_ioctl p.record_clock)
       policy_gen)
    (fun p ->
      List.for_all
        (fun kind ->
          let r = Syscall.request kind in
          List.for_all
            (fun fd_class ->
              Policy.should_record p ~fd_class r
              = R.Policy_record.should_record p ~fd_class r)
            all_fd_classes)
        all_kinds)

(* ------------------------------------------------------------------ *)
(* Inttbl *)

module Inttbl = T11r_util.Inttbl

type top = Treplace of int * int | Tremove of int | Tclear

let prop_inttbl =
  QCheck.Test.make ~name:"Inttbl = Hashtbl: lookups and iteration order" ~count:500
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (function
                | Treplace (k, v) -> Printf.sprintf "replace %d %d" k v
                | Tremove k -> Printf.sprintf "remove %d" k
                | Tclear -> "clear")
              ops))
       QCheck.Gen.(
         let key = frequency [ (4, int_range (-8) 64); (1, int) ] in
         list_size (int_range 0 200)
           (frequency
              [ (8, map2 (fun k v -> Treplace (k, v)) key small_nat);
                (3, map (fun k -> Tremove k) key); (1, return Tclear) ])))
    (fun ops ->
      let a = Inttbl.create 8 and b = Hashtbl.create 8 in
      List.iter
        (function
          | Treplace (k, v) -> Inttbl.replace a k v; Hashtbl.replace b k v
          | Tremove k -> Inttbl.remove a k; Hashtbl.remove b k
          | Tclear -> Inttbl.clear a; Hashtbl.clear b)
        ops;
      let listed fold t = fold (fun k v acc -> (k, v) :: acc) t [] in
      listed Inttbl.fold a = listed Hashtbl.fold b
      && List.for_all
           (function
             | Treplace (k, _) | Tremove k ->
                 Inttbl.find_opt a k = Hashtbl.find_opt b k
             | Tclear -> true)
           ops)

let () =
  Alcotest.run "diff"
    [
      ( "vclock",
        [ qtest prop_vclock_diff; qtest prop_mut_diff ] );
      ( "atomics", [ qtest prop_atomics_diff ] );
      ( "detector", [ qtest prop_detector_diff ] );
      ( "coverage", [ qtest prop_coverage_diff; qtest prop_coverage_count ] );
      ( "crc",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          qtest prop_crc_diff;
        ] );
      ( "demo",
        [
          qtest prop_demo_save_diff;
          qtest prop_demo_load_diff;
          qtest prop_demo_parse_diff;
          qtest prop_queue_cursor_diff;
        ] );
      ( "text",
        [ qtest prop_decisions_diff; qtest prop_journal_diff ] );
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
          qtest prop_aggregate_coverage;
          Alcotest.test_case "same_result = compare, golden results" `Quick
            test_same_result_golden;
          qtest prop_same_result;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "golden workloads: old layout digest" `Quick
            test_legacy_digest_golden;
          Alcotest.test_case "trace_list = TRACE file" `Quick
            test_trace_list_is_trace_file;
          Alcotest.test_case "codes that do not fit are refused" `Quick
            test_schedule_refusals;
          qtest prop_legacy_digest;
        ] );
      ( "capture",
        [
          Alcotest.test_case "golden workloads: arena logs = list-built" `Quick
            test_capture_golden;
        ] );
      ("outcome", [ qtest prop_outcome_tally ]);
      ("policy", [ qtest prop_should_record ]);
      ("inttbl", [ qtest prop_inttbl ]);
    ]
