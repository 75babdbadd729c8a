(* The REFERENCE model for the differential tests: the straightforward
   pre-optimisation implementations of Vclock, Tstate, Atomics and
   Detector, copied verbatim from lib/ before the allocation-free
   representation rewrite (always-normalised clocks, mutable thread
   clocks, ring-buffer store windows, packed detector shadow words).

   test_diff.ml drives random operation sequences through both this
   model and the optimised lib/ implementations and asserts identical
   observable behaviour. Keep this file dumb and obviously correct —
   its value is that it never shares representation tricks with the
   code under test.

   [Dpor] is the O(path) race analysis DPOR ran before the incremental
   happens-before index ([T11r_race.Hb]); test_systematic.ml compares
   the two event by event.

   [Coverage] is the byte-at-a-time summary arithmetic (popcount,
   emptiness, union, admission count) that the word-at-a-time kernels
   of [T11r_race.Coverage] replaced; test_diff.ml compares them on
   random summaries of every width.

   [Predictor] is witness verification as it ran before Must pairs were
   grouped into (report, witnesses) classes: every pair executes its
   own witnesses. test_predict.ml asserts the grouped
   [T11r_harness.Predictor.verify] returns the same report.

   [Campaign_aggregate] is the campaign report fold as it was before
   the one-pass aggregate: per-field list passes over the results and
   a distinct-schedule set hashed through [Hashtbl.hash] per label.
   test_diff.ml requires [T11r_harness.Campaign.aggregate] to give an
   equal report with an equal digest. *)

module Memord = T11r_mem.Memord
module Report = T11r_race.Report

module Vclock = struct
  type t = int array

  let empty = [||]

  let normalise a =
    let n = ref (Array.length a) in
    while !n > 0 && a.(!n - 1) = 0 do
      decr n
    done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let get c tid = if tid < Array.length c then c.(tid) else 0

  let set c tid v =
    let n = max (Array.length c) (tid + 1) in
    let a = Array.make n 0 in
    Array.blit c 0 a 0 (Array.length c);
    a.(tid) <- v;
    normalise a

  let tick c tid = set c tid (get c tid + 1)

  let join a b =
    let n = max (Array.length a) (Array.length b) in
    normalise (Array.init n (fun i -> max (get a i) (get b i)))

  let leq a b =
    let ok = ref true in
    for i = 0 to Array.length a - 1 do
      if a.(i) > get b i then ok := false
    done;
    !ok

  let equal a b = normalise a = normalise b
  let lt a b = leq a b && not (equal a b)
  let concurrent a b = (not (leq a b)) && not (leq b a)
  let size c = Array.length (normalise c)
  let to_list c = Array.to_list (normalise c)
  let of_list l = normalise (Array.of_list l)
end

module Tstate = struct
  type t = {
    tid : int;
    mutable clock : Vclock.t;
    mutable acq_pending : Vclock.t;
    mutable rel_fence : Vclock.t;
  }

  let create ~tid =
    {
      tid;
      clock = Vclock.tick Vclock.empty tid;
      acq_pending = Vclock.empty;
      rel_fence = Vclock.empty;
    }

  let epoch t = Vclock.get t.clock t.tid
  let tick t = t.clock <- Vclock.tick t.clock t.tid
  let acquire t c = t.clock <- Vclock.join t.clock c

  let fork ~parent ~tid =
    let child =
      {
        tid;
        clock = Vclock.tick (Vclock.join parent.clock Vclock.empty) tid;
        acq_pending = Vclock.empty;
        rel_fence = Vclock.empty;
      }
    in
    tick parent;
    child
end

module Atomics = struct
  type store = {
    value : int;
    s_tid : int;
    epoch : int;
    rel_clock : Vclock.t;
    mutable index : int;
  }

  type loc = {
    id : int;
    name : string;
    mutable stores : store array;
    mutable base : int;
    mutable floors : (int, int) Hashtbl.t;
    mutable last_sc : int;
  }

  type t = {
    max_history : int;
    mutable next_loc : int;
    mutable sc_clock : Vclock.t;
  }

  let create ?(max_history = 8) () =
    if max_history < 1 then invalid_arg "Atomics.create: max_history < 1";
    { max_history; next_loc = 0; sc_clock = Vclock.empty }

  let fresh_loc t ~name ~init =
    let id = t.next_loc in
    t.next_loc <- id + 1;
    {
      id;
      name;
      stores =
        [|
          { value = init; s_tid = -1; epoch = 0; rel_clock = Vclock.empty; index = 0 };
        |];
      base = 0;
      floors = Hashtbl.create 4;
      last_sc = -1;
    }

  let newest l = l.stores.(Array.length l.stores - 1)
  let newest_index l = l.base + Array.length l.stores - 1

  let floor_of l tid =
    match Hashtbl.find_opt l.floors tid with Some i -> i | None -> 0

  let raise_floor l tid idx =
    if idx > floor_of l tid then Hashtbl.replace l.floors tid idx

  let append t l s =
    let n = Array.length l.stores in
    s.index <- l.base + n;
    if n >= t.max_history then begin
      let drop = n - t.max_history + 1 in
      l.stores <- Array.append (Array.sub l.stores drop (n - drop)) [| s |];
      l.base <- l.base + drop
    end
    else l.stores <- Array.append l.stores [| s |]

  let admissible_floor l (st : Tstate.t) mo =
    let coherence = floor_of l st.tid in
    let hb = ref l.base in
    (let n = Array.length l.stores in
     let found = ref false in
     let i = ref (n - 1) in
     while (not !found) && !i >= 0 do
       let s = l.stores.(!i) in
       if s.s_tid >= 0 && s.epoch <= Vclock.get st.clock s.s_tid then begin
         hb := l.base + !i;
         found := true
       end
       else if s.s_tid < 0 then found := true
       else decr i
    done);
    let sc = if Memord.is_seq_cst mo then l.last_sc else -1 in
    max l.base (max coherence (max !hb sc))

  let candidate_stores l st mo =
    let lo = admissible_floor l st mo in
    let hi = newest_index l in
    List.init (hi - lo + 1) (fun i -> l.stores.(lo - l.base + i))

  let candidates _t l st mo =
    List.map (fun s -> s.value) (candidate_stores l st mo)

  let read_sync (st : Tstate.t) mo s =
    if not (Vclock.equal s.rel_clock Vclock.empty) then begin
      if Memord.is_acquire mo then Tstate.acquire st s.rel_clock
      else st.acq_pending <- Vclock.join st.acq_pending s.rel_clock
    end

  let load _t l (st : Tstate.t) mo ~choose =
    let cands = candidate_stores l st mo in
    let n = List.length cands in
    let k = choose n in
    if k < 0 || k >= n then invalid_arg "Atomics.load: choose out of range";
    let s = List.nth cands k in
    raise_floor l st.tid s.index;
    read_sync st mo s;
    Tstate.tick st;
    s.value

  let release_clock_for (st : Tstate.t) mo =
    if Memord.is_release mo then st.clock
    else if not (Vclock.equal st.rel_fence Vclock.empty) then st.rel_fence
    else Vclock.empty

  let store t l (st : Tstate.t) mo v =
    let s =
      {
        value = v;
        s_tid = st.tid;
        epoch = Tstate.epoch st;
        rel_clock = release_clock_for st mo;
        index = 0;
      }
    in
    append t l s;
    raise_floor l st.tid s.index;
    if Memord.is_seq_cst mo then l.last_sc <- s.index;
    Tstate.tick st

  let rmw t l (st : Tstate.t) mo f =
    let old_s = newest l in
    let old = old_s.value in
    read_sync st mo old_s;
    let own = release_clock_for st mo in
    let rel = Vclock.join own old_s.rel_clock in
    let s =
      { value = f old; s_tid = st.tid; epoch = Tstate.epoch st; rel_clock = rel; index = 0 }
    in
    append t l s;
    raise_floor l st.tid s.index;
    if Memord.is_seq_cst mo then l.last_sc <- s.index;
    Tstate.tick st;
    old

  let cas t l st ~success ~failure ~expected ~desired ~choose =
    let tail = newest l in
    if tail.value = expected then begin
      let old = rmw t l st success (fun _ -> desired) in
      (true, old)
    end
    else begin
      let v = load t l st failure ~choose in
      (false, v)
    end

  let fence t (st : Tstate.t) (mo : Memord.t) =
    (match mo with
    | Relaxed -> ()
    | Consume | Acquire ->
        Tstate.acquire st st.acq_pending;
        st.acq_pending <- Vclock.empty
    | Release -> st.rel_fence <- st.clock
    | Acq_rel ->
        Tstate.acquire st st.acq_pending;
        st.acq_pending <- Vclock.empty;
        st.rel_fence <- st.clock
    | Seq_cst ->
        Tstate.acquire st st.acq_pending;
        st.acq_pending <- Vclock.empty;
        Tstate.acquire st t.sc_clock;
        st.rel_fence <- st.clock;
        t.sc_clock <- Vclock.join t.sc_clock st.clock);
    Tstate.tick st

  let newest_value _t l = (newest l).value
  let history_length _t l = Array.length l.stores
end

module Detector = struct
  type var = {
    id : int;
    name : string;
    mutable last_write : (int * int) option;
    mutable reads : Vclock.t;
  }

  type t = {
    mutable next_var : int;
    mutable reports_rev : Report.t list;
    seen : (string * Report.kind * int * int, unit) Hashtbl.t;
  }

  let create () = { next_var = 0; reports_rev = []; seen = Hashtbl.create 16 }

  let fresh_var t ~name =
    let id = t.next_var in
    t.next_var <- id + 1;
    { id; name; last_write = None; reads = Vclock.empty }

  let emit t (r : Report.t) =
    let key = (r.var, r.kind, r.first_tid, r.second_tid) in
    if not (Hashtbl.mem t.seen key) then begin
      Hashtbl.replace t.seen key ();
      t.reports_rev <- r :: t.reports_rev
    end

  let write_unordered (st : Tstate.t) = function
    | None -> None
    | Some (wtid, wepoch) ->
        if wtid <> st.tid && wepoch > Vclock.get st.clock wtid then Some wtid
        else None

  let read t v ~(st : Tstate.t) =
    (match write_unordered st v.last_write with
    | Some wtid ->
        emit t
          { var = v.name; kind = Write_read; first_tid = wtid; second_tid = st.tid }
    | None -> ());
    v.reads <- Vclock.set v.reads st.tid (Tstate.epoch st)

  let write t v ~(st : Tstate.t) =
    (match write_unordered st v.last_write with
    | Some wtid ->
        emit t
          { var = v.name; kind = Write_write; first_tid = wtid; second_tid = st.tid }
    | None -> ());
    List.iteri
      (fun rtid repoch ->
        if repoch > 0 && rtid <> st.tid && repoch > Vclock.get st.clock rtid
        then
          emit t
            { var = v.name; kind = Read_write; first_tid = rtid; second_tid = st.tid })
      (Vclock.to_list v.reads);
    v.last_write <- Some (st.tid, Tstate.epoch st);
    v.reads <- Vclock.empty

  let reports t = List.rev t.reports_rev
end

module Dpor = struct
  open T11r_race.Decision

  let dep (a : T11r_race.Decision.t) (b : T11r_race.Decision.t) =
    let foot =
      match (a.d_foot, b.d_foot) with
      | (F_global | F_syscall _), _ | _, (F_global | F_syscall _) -> true
      | F_local, _ | _, F_local -> false
      | F_atomic (l1, k1), F_atomic (l2, k2) ->
          l1 = l2 && not (k1 = Acc_read && k2 = Acc_read)
      | F_atomic _, F_fence | F_fence, F_atomic _ | F_fence, F_fence -> true
      | F_sync (x1, x2), F_sync (y1, y2) ->
          x1 = y1 || x1 = y2 || (x2 >= 0 && (x2 = y1 || x2 = y2))
      | F_spawn _, F_spawn _ -> true
      | F_spawn t, F_join u | F_join u, F_spawn t -> t = u
      | F_join t, F_join u -> t = u
      | _, _ -> false
    in
    a.d_tid = b.d_tid
    || foot
    || (match a.d_foot with
       | F_spawn t | F_join t -> t = b.d_tid
       | _ -> false)
    || (match b.d_foot with
       | F_spawn t | F_join t -> t = a.d_tid
       | _ -> false)
    || (a.d_rand && b.d_draws > 0)
    || (b.d_rand && a.d_draws > 0)

  let clk_get c q = if q < Array.length c then c.(q) else 0

  let clk_join dst src =
    let n = Array.length src in
    let dst =
      if Array.length dst >= n then dst
      else begin
        let d = Array.make n 0 in
        Array.blit dst 0 d 0 (Array.length dst);
        d
      end
    in
    for q = 0 to n - 1 do
      if src.(q) > dst.(q) then dst.(q) <- src.(q)
    done;
    dst

  let clk_bump dst q v =
    let dst =
      if q < Array.length dst then dst
      else begin
        let d = Array.make (q + 1) 0 in
        Array.blit dst 0 d 0 (Array.length dst);
        d
      end
    in
    if v > dst.(q) then dst.(q) <- v;
    dst

  (* One event of the path: the decision taken at the node, the node's
     enabled set, and the decision's clock. *)
  type frame = { ev : T11r_race.Decision.t; enabled : int array; clk : int array }

  (* Analyse [e] against [path] (positions 0 .. k-1): e's clock, and
     each reversible race i in ascending order with the candidate
     initials the backtrack addition takes the least of (all of node
     i's enabled threads when empty). *)
  let analyse (path : frame array) (e : T11r_race.Decision.t) =
    let k = Array.length path in
    let clk = ref [||] in
    let dep_w = Array.make k false in
    for m = 0 to k - 1 do
      let em = path.(m).ev in
      if dep em e then begin
        dep_w.(m) <- true;
        clk := clk_join !clk path.(m).clk;
        clk := clk_bump !clk em.d_tid (m + 1)
      end
    done;
    let hb m = clk_get !clk path.(m).ev.d_tid > m in
    let blk = ref [||] in
    for m = 0 to k - 1 do
      if hb m then blk := clk_join !blk path.(m).clk
    done;
    let races = ref [] in
    for i = 0 to k - 1 do
      let ei = path.(i).ev in
      if dep_w.(i) && ei.d_tid <> e.d_tid && clk_get !blk ei.d_tid <= i then begin
        let enabled_at tid = Array.exists (( = ) tid) path.(i).enabled in
        let cand = ref [] in
        for m = i + 1 to k - 1 do
          if hb m then
            let em = path.(m).ev in
            if enabled_at em.d_tid && not (List.mem em.d_tid !cand) then
              cand := em.d_tid :: !cand
        done;
        if enabled_at e.d_tid && not (List.mem e.d_tid !cand) then
          cand := e.d_tid :: !cand;
        races := (i, !cand) :: !races
      end
    done;
    (!clk, List.rev !races)
end

module Coverage = struct
  let popcount_char =
    let tbl = Array.make 256 0 in
    for i = 1 to 255 do
      tbl.(i) <- tbl.(i lsr 1) + (i land 1)
    done;
    fun c -> tbl.(Char.code c)

  let popcount s =
    let acc = ref 0 in
    String.iter (fun c -> acc := !acc + popcount_char c) s;
    !acc

  let is_empty s = String.length s = 0 || String.for_all (fun c -> c = '\000') s

  let union a b =
    if is_empty a then b
    else if is_empty b then a
    else begin
      if String.length a <> String.length b then
        invalid_arg "Coverage.union: summaries of different widths";
      String.init (String.length a) (fun i ->
          Char.chr (Char.code a.[i] lor Char.code b.[i]))
    end

  let new_bits ~base s =
    if is_empty s then 0
    else if is_empty base then popcount s
    else begin
      if String.length base <> String.length s then
        invalid_arg "Coverage.new_bits: summaries of different widths";
      let acc = ref 0 in
      for i = 0 to String.length s - 1 do
        acc :=
          !acc
          + popcount_char
              (Char.chr (Char.code s.[i] land lnot (Char.code base.[i]) land 0xff))
      done;
      !acc
    end
end

module Predictor = struct
  module Conf = Tsan11rec.Conf
  module Interp = Tsan11rec.Interp
  module Predict = T11r_race.Predict
  module Decision = T11r_race.Decision
  module P = T11r_harness.Predictor

  let splitmix_next (state : int64 ref) : int64 =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let seed_sweep ~recorded_seeds ~extra =
    let base =
      match recorded_seeds with
      | Some (s1, s2) -> Int64.logxor s1 (Int64.mul s2 0x9E3779B97F4A7C15L)
      | None -> 0x5DEECE66DL
    in
    let derived =
      List.init extra (fun i ->
          let st = ref (Int64.add base (Int64.of_int (i + 1))) in
          let s1 = splitmix_next st in
          let s2 = splitmix_next st in
          (s1, s2))
    in
    match recorded_seeds with Some p -> p :: derived | None -> derived

  let attempt ~instance ~base ~prefix s1 s2 =
    let world, program = instance () in
    let conf =
      Conf.make ~base ~mode:Conf.Free
        ~strategy:(Conf.Guided { prefix; observed = ref [] })
        ~seeds:(s1, s2) ~coverage:true ()
    in
    Interp.run ~world ~arena:(T11r_harness.Campaign.domain_arena ()) conf
      program

  let sighted (pair : Predict.pair) (r : Interp.result) =
    List.find_opt
      (fun race -> Report.equal (Report.norm race) pair.Predict.p_report)
      r.Interp.races

  let first_mismatch (w : Predict.witness) (ds : Decision.t array) =
    let n = min (Array.length w.Predict.w_tids) (Array.length ds) in
    let rec go k =
      if k >= n then None
      else if ds.(k).Decision.d_tid <> w.Predict.w_tids.(k) then Some k
      else go (k + 1)
    in
    go 0

  let repair (w : Predict.witness) (ds : Decision.t array) (prefix : int array)
      k =
    match Decision.index_of w.Predict.w_tids.(k) ds.(k).Decision.d_enabled with
    | exception Not_found -> None
    | idx ->
        let n = max (Array.length prefix) (k + 1) in
        let p = Array.make n 0 in
        Array.blit prefix 0 p 0 (Array.length prefix);
        for j = 0 to k - 1 do
          p.(j) <-
            Decision.index_of ds.(j).Decision.d_tid ds.(j).Decision.d_enabled
        done;
        p.(k) <- idx;
        Some p

  let verify_pair ~instance ~base ~seeds ~budget (pair : Predict.pair) =
    let runs = ref 0 in
    let found = ref None in
    let try_cell (w : Predict.witness) (s1, s2) =
      let prefix = ref w.Predict.w_prefix in
      let repairs = ref (min (Array.length w.Predict.w_tids + 4) 8) in
      let live = ref true in
      while !live && !found = None && !runs < budget do
        let r = attempt ~instance ~base ~prefix:!prefix s1 s2 in
        incr runs;
        match sighted pair r with
        | Some race ->
            found :=
              Some
                (P.Confirmed
                   {
                     c_seed1 = s1;
                     c_seed2 = s2;
                     c_prefix = Decision.normalize_prefix !prefix;
                     c_runs = !runs;
                     c_race = Report.norm race;
                     c_cov = r.Interp.coverage;
                   })
        | None -> (
            if !repairs <= 0 then live := false
            else begin
              decr repairs;
              match first_mismatch w r.Interp.decisions with
              | None -> live := false
              | Some k -> (
                  match repair w r.Interp.decisions !prefix k with
                  | None -> live := false
                  | Some p -> prefix := p)
            end)
      done
    in
    List.iter
      (fun s ->
        List.iter
          (fun w -> if !found = None then try_cell w s)
          pair.Predict.p_witnesses)
      seeds;
    match !found with Some v -> v | None -> P.Refuted !runs

  (* One [verify_pair] per Must pair, sequentially; every attempt
     charged is an attempt executed. *)
  let verify ?(attempts = 48) ?(extra_seeds = 24) ?recorded_seeds
      ?(base_conf = Conf.tsan11rec ()) ~instance (analysis : Predict.t) =
    let seeds = seed_sweep ~recorded_seeds ~extra:extra_seeds in
    let verified =
      List.filter_map
        (fun (p : Predict.pair) ->
          if p.Predict.p_confidence <> Predict.Must then None
          else
            Some
              {
                P.v_pair = p;
                v_verdict =
                  verify_pair ~instance ~base:base_conf ~seeds ~budget:attempts
                    p;
              })
        analysis.Predict.pairs
    in
    let confirmed =
      List.length
        (List.filter
           (fun v ->
             match v.P.v_verdict with P.Confirmed _ -> true | _ -> false)
           verified)
    in
    let refuted = List.length verified - confirmed in
    let runs =
      List.fold_left
        (fun acc v ->
          acc
          + match v.P.v_verdict with P.Confirmed c -> c.c_runs | P.Refuted n -> n)
        0 verified
    in
    {
      P.r_analysis = analysis;
      r_verified = verified;
      r_confirmed = confirmed;
      r_refuted = refuted;
      r_runs = runs;
      r_executed = runs;
    }
end

(* The demo codec as it was before the one-pass rewrite: one
   [Printf.sprintf] per line, a save that joins and checksums every
   file twice (trailer, MANIFEST), and a loader that reads each file
   once for the MANIFEST and again to parse it. Parsing and errors are
   [Tsan11rec.Demo]'s own types, so test_diff.ml compares saved bytes,
   sizes and load outcomes directly. *)
module Demo_codec = struct
  open T11r_util
  open Tsan11rec.Demo

  let corrupt file line fmt =
    Printf.ksprintf
      (fun reason -> raise (Corrupt { c_file = file; c_line = line; c_reason = reason }))
      fmt

  let format_version = 1

  let render_meta m =
    [
      Printf.sprintf "format %d" format_version;
      "app " ^ Codec.escape m.app;
      "strategy " ^ m.strategy;
      Printf.sprintf "seed1 %Ld" m.seed1;
      Printf.sprintf "seed2 %Ld" m.seed2;
      Printf.sprintf "ticks %d" m.ticks;
      "output_digest " ^ m.output_digest;
    ]

  let render_queue q =
    let marker = [ "queue" ] in
    let firsts =
      List.map (fun (tid, tick) -> Printf.sprintf "first %d %d" tid tick) q.first_ticks
    in
    let deltas =
      let prev = ref 0 in
      List.map
        (fun t ->
          let d = t - !prev in
          prev := t;
          d)
        q.next_ticks
    in
    let pairs = Rle.encode deltas in
    let ticks = List.map (fun (v, n) -> Printf.sprintf "t %d %d" v n) pairs in
    marker @ firsts @ ticks

  let render_signals ss =
    List.map (fun s -> Printf.sprintf "%d %d %d" s.s_tid s.s_tick s.s_signo) ss

  let render_syscalls scs =
    List.map
      (fun s ->
        Printf.sprintf "%d %d %s %d %d %d %s" s.sc_tick s.sc_tid s.sc_label
          s.sc_ret s.sc_errno s.sc_elapsed
          (Codec.escape (Rle.encode_bytes s.sc_data)))
      scs

  let render_asyncs es =
    List.map
      (fun e ->
        match e.a_kind with
        | Reschedule -> Printf.sprintf "%d resched" e.a_tick
        | Signal_wakeup tid -> Printf.sprintf "%d sigwake %d" e.a_tick tid)
      es

  let manifest_name = "MANIFEST"
  let trailer_tag = "#crc"
  let is_trailer l = String.length l >= 4 && String.sub l 0 4 = trailer_tag

  let text_of_lines lines =
    let b = Buffer.create 256 in
    List.iter
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      lines;
    Buffer.contents b

  let trailer_of lines =
    Printf.sprintf "%s %s %d" trailer_tag
      (Crc.to_hex (Crc.string (text_of_lines lines)))
      (List.length lines)

  let write_framed path lines =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          (lines @ [ trailer_of lines ]))

  let payload_files ?(extra = []) t =
    (("META", render_meta t.meta)
    :: (match t.queue with Some q -> [ ("QUEUE", render_queue q) ] | None -> []))
    @ [
        ("SIGNAL", render_signals t.signals);
        ("SYSCALL", render_syscalls t.syscalls);
        ("ASYNC", render_asyncs t.asyncs);
      ]
    @ extra

  let manifest_lines files =
    List.map
      (fun (name, lines) ->
        let text = text_of_lines lines in
        Printf.sprintf "file %s %d %s" name (String.length text)
          (Crc.to_hex (Crc.string text)))
      files

  (* Writes straight into [dir], which must exist: the oracle's bytes,
     not its crash atomicity, are what the tests compare. *)
  let save ?extra t ~dir =
    let files = payload_files ?extra t in
    List.iter
      (fun (name, lines) -> write_framed (Filename.concat dir name) lines)
      files;
    write_framed (Filename.concat dir manifest_name) (manifest_lines files)

  let parse_trailer ~file ~line l =
    match Codec.fields l with
    | [ tag; hex; count ] when tag = trailer_tag -> (
        match (Crc.of_hex hex, int_of_string_opt count) with
        | Some crc, Some n when n >= 0 -> (crc, n)
        | _ -> corrupt file line "malformed trailer %S" l)
    | _ -> corrupt file line "malformed trailer %S" l

  let read_framed ~dir name =
    let numbered =
      List.mapi (fun i l -> (i + 1, l)) (Codec.read_lines (Filename.concat dir name))
    in
    let check_no_stray payload =
      List.iter
        (fun (ln, l) -> if is_trailer l then corrupt name ln "misplaced trailer")
        payload
    in
    match List.rev numbered with
    | (ln, last) :: rev_payload when is_trailer last ->
        let crc, count = parse_trailer ~file:name ~line:ln last in
        let payload = List.rev rev_payload in
        check_no_stray payload;
        let got = List.length payload in
        if got <> count then
          corrupt name ln "%d payload lines but trailer says %d (truncated?)" got
            count;
        if Crc.string (text_of_lines (List.map snd payload)) <> crc then
          corrupt name ln "payload does not match trailer checksum";
        payload
    | _ ->
        check_no_stray numbered;
        numbered

  let verify_manifest ~dir =
    if Sys.file_exists (Filename.concat dir manifest_name) then
      List.iter
        (fun (ln, line) ->
          match Codec.fields line with
          | [ "file"; name; size; crc_hex ] -> (
              if Filename.basename name <> name then
                corrupt manifest_name ln "bad file name %S" name;
              match (int_of_string_opt size, Crc.of_hex crc_hex) with
              | Some size, Some crc ->
                  if not (Sys.file_exists (Filename.concat dir name)) then
                    corrupt name 0 "listed in MANIFEST but missing";
                  let payload = read_framed ~dir name in
                  let text = text_of_lines (List.map snd payload) in
                  if String.length text <> size then
                    corrupt name 0
                      "%d payload bytes but MANIFEST says %d (truncated?)"
                      (String.length text) size;
                  if Crc.string text <> crc then
                    corrupt name 0 "payload does not match MANIFEST checksum"
              | _ -> corrupt manifest_name ln "bad MANIFEST line %S" line)
          | [] -> ()
          | _ -> corrupt manifest_name ln "bad MANIFEST line %S" line)
        (read_framed ~dir manifest_name)

  let guard ~file ~line f =
    try f () with
    | Corrupt _ as e -> raise e
    | Invalid_argument m | Failure m -> corrupt file line "%s" m

  let parse_meta numbered =
    let file = "META" in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (ln, line) ->
        match Codec.fields line with
        | key :: rest -> Hashtbl.replace tbl key (ln, String.concat " " rest)
        | [] -> ())
      numbered;
    let get k =
      match Hashtbl.find_opt tbl k with
      | Some lv -> lv
      | None -> corrupt file 0 "missing key %s" k
    in
    let conv k f =
      let ln, v = get k in
      guard ~file ~line:ln (fun () -> f v)
    in
    (match Hashtbl.find_opt tbl "format" with
    | None -> ()
    | Some (ln, v) ->
        if int_of_string_opt v <> Some format_version then
          corrupt file ln "unsupported demo format version %S (this build reads %d)"
            v format_version);
    {
      app = conv "app" Codec.unescape;
      strategy = snd (get "strategy");
      seed1 = conv "seed1" Codec.int64_field;
      seed2 = conv "seed2" Codec.int64_field;
      ticks = conv "ticks" Codec.int_field;
      output_digest = snd (get "output_digest");
    }

  let queue_run_length ~file ~line n =
    if n <= 0 then corrupt file line "non-positive QUEUE run length %d" n;
    if n > 10_000_000 then corrupt file line "absurd QUEUE run length %d" n;
    n

  let parse_queue numbered =
    let firsts = ref [] and runs = ref [] in
    List.iter
      (fun (ln, text) ->
        guard ~file:"QUEUE" ~line:ln (fun () ->
            match Codec.fields text with
            | [ "queue" ] | [] -> ()
            | [ "first"; tid; tick ] ->
                firsts := (Codec.int_field tid, Codec.int_field tick) :: !firsts
            | [ "t"; v; n ] ->
                let n = queue_run_length ~file:"QUEUE" ~line:ln (Codec.int_field n) in
                runs := (Codec.int_field v, n) :: !runs
            | _ -> corrupt "QUEUE" ln "bad QUEUE line %S" text))
      numbered;
    let prev = ref 0 in
    {
      first_ticks = List.rev !firsts;
      next_ticks =
        List.map
          (fun d ->
            prev := !prev + d;
            !prev)
          (Rle.decode (List.rev !runs));
    }

  let parse_lines file parse numbered =
    List.filter_map
      (fun (ln, text) -> guard ~file ~line:ln (fun () -> parse ln text))
      numbered

  let parse_signals =
    parse_lines "SIGNAL" (fun ln text ->
        match Codec.fields text with
        | [ tid; tick; signo ] ->
            Some
              {
                s_tid = Codec.int_field tid;
                s_tick = Codec.int_field tick;
                s_signo = Codec.int_field signo;
              }
        | [] -> None
        | _ -> corrupt "SIGNAL" ln "bad SIGNAL line %S" text)

  let parse_syscalls =
    parse_lines "SYSCALL" (fun ln text ->
        match Codec.fields text with
        | [ tick; tid; label; ret; errno; elapsed; data ] ->
            Some
              {
                sc_tick = Codec.int_field tick;
                sc_tid = Codec.int_field tid;
                sc_label = label;
                sc_ret = Codec.int_field ret;
                sc_errno = Codec.int_field errno;
                sc_elapsed = Codec.int_field elapsed;
                sc_data = Rle.decode_bytes (Codec.unescape data);
              }
        | [] -> None
        | _ -> corrupt "SYSCALL" ln "bad SYSCALL line %S" text)

  let parse_asyncs =
    parse_lines "ASYNC" (fun ln text ->
        match Codec.fields text with
        | [ tick; "resched" ] ->
            Some { a_tick = Codec.int_field tick; a_kind = Reschedule }
        | [ tick; "sigwake"; tid ] ->
            Some
              {
                a_tick = Codec.int_field tick;
                a_kind = Signal_wakeup (Codec.int_field tid);
              }
        | [] -> None
        | _ -> corrupt "ASYNC" ln "bad ASYNC line %S" text)

  let load ~dir =
    try
      if not (Sys.file_exists (Filename.concat dir "META")) then
        raise
          (Corrupt { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir });
      verify_manifest ~dir;
      let meta = parse_meta (read_framed ~dir "META") in
      let queue_lines = read_framed ~dir "QUEUE" in
      {
        meta;
        queue = (if queue_lines = [] then None else Some (parse_queue queue_lines));
        signals = parse_signals (read_framed ~dir "SIGNAL");
        syscalls = parse_syscalls (read_framed ~dir "SYSCALL");
        asyncs = parse_asyncs (read_framed ~dir "ASYNC");
      }
    with
    | Corrupt _ as e -> raise e
    | Invalid_argument m | Failure m | Sys_error m ->
        raise (Corrupt { c_file = dir; c_line = 0; c_reason = m })
    | Unix.Unix_error (e, fn, arg) ->
        raise
          (Corrupt
             {
               c_file = dir;
               c_line = 0;
               c_reason = Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e);
             })

  let read_aux ~dir name = List.map snd (read_framed ~dir name)

  let lines_size ls = List.fold_left (fun acc l -> acc + String.length l + 1) 0 ls

  let size_bytes t =
    lines_size (render_meta t.meta)
    + (match t.queue with Some q -> lines_size (render_queue q) | None -> 0)
    + lines_size (render_signals t.signals)
    + lines_size (render_syscalls t.syscalls)
    + lines_size (render_asyncs t.asyncs)

  let syscall_bytes t = lines_size (render_syscalls t.syscalls)
end

(* The campaign aggregate before the one-pass rewrite, verbatim but
   for the module paths, with the list statistics it called. *)
module Campaign_aggregate = struct
  open T11r_harness.Campaign

  module Stats = struct
    include T11r_util.Stats

    let mean xs =
      match xs with
      | [] -> invalid_arg "Stats.mean: empty"
      | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

    let sd xs =
      match xs with
      | [] | [ _ ] -> 0.0
      | _ ->
          let m = mean xs in
          let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
          sqrt (ss /. float_of_int (List.length xs - 1))

    let summarize xs =
      match xs with
      | [] -> invalid_arg "Stats.summarize: empty"
      | _ ->
          let m = mean xs in
          let s = sd xs in
          {
            n = List.length xs;
            mean = m;
            sd = s;
            cv = (if m = 0.0 then 0.0 else s /. m);
            min = List.fold_left min infinity xs;
            max = List.fold_left max neg_infinity xs;
          }

    let rate bs =
      match bs with
      | [] -> 0.0
      | _ ->
          let t = List.length (List.filter Fun.id bs) in
          100.0 *. float_of_int t /. float_of_int (List.length bs)
  end

  module Interp = Tsan11rec.Interp
  module Outcome = T11r_harness.Outcome

  let no_supervision =
    {
      sup_resumed = 0;
      sup_quarantined = [];
      sup_timeouts = 0;
      sup_journal_dropped = 0;
      sup_interrupted = false;
      sup_done = 0;
    }

  module Schedules = Hashtbl.Make (struct
    type t = (int * int * string) list

    let rec equal a b =
      match (a, b) with
      | [], [] -> true
      | (_, t1, l1) :: a, (_, t2, l2) :: b ->
          t1 = t2 && String.equal l1 l2 && equal a b
      | _ -> false

    let hash trace =
      Hashtbl.hash
        (List.fold_left
           (fun h (_, tid, label) -> (h * 65599) + (tid * 31) + Hashtbl.hash label)
           0 trace)
  end)

  let compare_sighting a b =
    match compare b.s_count a.s_count with
    | 0 -> (
        match compare a.s_first b.s_first with
        | 0 -> Report.compare a.s_race b.s_race
        | c -> c)
    | c -> c

  let mean_or_zero = function [] -> 0.0 | xs -> Stats.mean xs

  let summarize_or_zero = function
    | [] -> { Stats.n = 0; mean = 0.0; sd = 0.0; cv = 0.0; min = 0.0; max = 0.0 }
    | xs -> Stats.summarize xs

  let aggregate ~label ~n ~first ~jobs ~wall_s ?(supervision = no_supervision)
      pairs =
    let results = Array.map snd pairs in
    let in_order f = Array.to_list (Array.map f results) in
    let outcomes = Hashtbl.create 8 in
    let schedules = Schedules.create 64 in
    let sightings : (Report.t, int * int) Hashtbl.t = Hashtbl.create 16 in
    let crashes = ref [] in
    let quarantined = ref [] in
    let timeouts = ref 0 in
    Array.iter
      (fun ((i : int), (r : Interp.result)) ->
        let key = Outcome.key r.Interp.outcome in
        Hashtbl.replace outcomes key
          (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes key));
        Schedules.replace schedules r.Interp.trace ();
        List.iter
          (fun race ->
            let race = Report.norm race in
            match Hashtbl.find_opt sightings race with
            | Some (f0, c) -> Hashtbl.replace sightings race (f0, c + 1)
            | None -> Hashtbl.replace sightings race (i, 1))
          r.Interp.races;
        match r.Interp.outcome with
        | Interp.Crashed (tid, msg) ->
            crashes := (i, msg) :: !crashes;
            if tid = -1 then quarantined := (i, msg) :: !quarantined
        | Interp.Timeout -> incr timeouts
        | _ -> ())
      pairs;
    let supervision =
      {
        supervision with
        sup_done = Array.length pairs;
        sup_interrupted = Array.length pairs < n;
        sup_quarantined = List.rev !quarantined;
        sup_timeouts = !timeouts;
      }
    in
    {
      label;
      n;
      first;
      jobs;
      wall_s;
      results;
      time_ms =
        summarize_or_zero
          (in_order (fun r -> float_of_int r.Interp.makespan_us /. 1000.0));
      race_rate = Stats.rate (in_order (fun r -> r.Interp.race_count > 0));
      mean_reports =
        mean_or_zero (in_order (fun r -> float_of_int r.Interp.race_count));
      mean_ticks =
        mean_or_zero (in_order (fun r -> float_of_int r.Interp.ticks));
      completed =
        Array.fold_left
          (fun acc r -> if Interp.completed r then acc + 1 else acc)
          0 results;
      racy_runs =
        Array.fold_left
          (fun acc (r : Interp.result) ->
            if r.Interp.race_count > 0 then acc + 1 else acc)
          0 results;
      distinct_schedules = Schedules.length schedules;
      outcomes =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []);
      sightings =
        Hashtbl.fold
          (fun race (s_first, s_count) acc ->
            { s_race = race; s_first; s_count } :: acc)
          sightings []
        |> List.sort compare_sighting;
      crashes = List.rev !crashes;
      metrics =
        Array.fold_left
          (fun acc (r : Interp.result) ->
            T11r_obs.Metrics.add acc r.Interp.metrics)
          T11r_obs.Metrics.zero results;
      coverage =
        Array.fold_left
          (fun acc (r : Interp.result) ->
            T11r_race.Coverage.union acc r.Interp.coverage)
          T11r_race.Coverage.empty results;
      supervision;
    }
end
