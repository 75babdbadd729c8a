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

   [Predict_order] is the pair order [T11r_race.Predict] sorted with
   before [Report.compare] and [Predict.compare_pair] became field by
   field: polymorphic compare on the report and on tuples of the
   positions. test_predict.ml requires the same sign and the same
   sorted lists.

   [Marshal_digest] is how the result digests were computed before
   [T11r_util.Mdigest] streamed them: the whole unshared Marshal string,
   hashed at once. test_util.ml, test_predict.ml and test_diff.ml
   require the streamed digests to equal it.

   [Campaign_aggregate] is the campaign report fold as it was before
   the one-pass aggregate: per-field list passes over the results and
   a distinct-schedule set hashed through [Hashtbl.hash] per label.
   test_diff.ml requires [T11r_harness.Campaign.aggregate] to give an
   equal report with an equal digest.

   [Crc32] is the byte-at-a-time CRC-32 the demo and journal framing
   used before the table-sliced kernel of [T11r_util.Crc];
   [Demo_codec] checksums with it, so a wrong kernel cannot move both
   sides of the demo comparisons together.

   [Text] is the string codec the text formats were read with before
   [T11r_util.Codec] became a slice reader; [Demo_codec] reads with
   it, and [Decisions] and [Journal_frame] keep the DECISIONS and
   journal readers written on it, which test_diff.ml compares with
   [T11r_race.Predict.decode_input] and [T11r_util.Journal.read].

   [Capture] is decision capture as the interpreter did it before its
   arena logs: one fresh record, footprint and lock event consed per
   tick (the footprint read off the parked request as
   [footprint_of_next] read it), one access record consed per logged
   access, and the lists reversed into arrays when the run ends. It
   builds them from an [Interp] tap; test_diff.ml requires them to
   equal the result's [decisions] and [accesses].

   [Outcome_tally] is how the engines counted outcomes before
   [T11r_harness.Outcome] kept one tally for all of them: each key (a
   match on the constructor) folded into a string-keyed [Hashtbl] and
   listed sorted by key, and the guided hunt's merge of two histograms
   through a [Hashtbl]. test_diff.ml compares both on random outcome
   sequences.

   [Policy_record] is [Tsan11rec.Policy.should_record] as it was before
   it tested the kind by physical equality: the polymorphic [List.mem]
   over the policy's kinds. test_diff.ml compares the two over every
   kind, descriptor class and policy. *)

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

(* The order of [Predict.t.pairs] as it was written before the
   monomorphic comparators: [Stdlib.compare] on the report record, then
   on a (first, second, var) tuple built per comparison. *)
module Predict_order = struct
  module Predict = T11r_race.Predict

  let compare_pair (p : Predict.pair) (q : Predict.pair) =
    let c = Stdlib.compare p.Predict.p_report q.Predict.p_report in
    if c <> 0 then c
    else
      Stdlib.compare
        (p.Predict.p_first, p.Predict.p_second, p.Predict.p_var)
        (q.Predict.p_first, q.Predict.p_second, q.Predict.p_var)
end

(* [Tsan11rec.Interp.result] as it was before the schedule became an
   int array: the same 21 fields, field 10 the [(tick, tid, label)]
   list. [of_result] rebuilds it from a result, with the demo dropped,
   and [digest] is the MD5 of its unshared Marshal bytes: what
   [Interp.result_digest] must give. *)
module Legacy_result = struct
  module Interp = Tsan11rec.Interp

  type t = {
    outcome : Interp.outcome;
    makespan_us : int;
    ticks : int;
    races : T11r_race.Report.t list;
    race_count : int;
    lock_cycles : T11r_race.Lockorder.cycle list;
    trace_divergence : string option;
    output : string;
    soft_desync : bool;
    demo : Tsan11rec.Demo.t option;
    trace : (int * int * string) list;
    thread_names : (int * string) list;
    rng_draws : int;
    desync_count : int;
    divergences : Interp.divergence list;
    metrics : T11r_obs.Metrics.t;
    events : T11r_obs.Trace.event list;
    events_dropped : int;
    coverage : T11r_race.Coverage.summary;
    decisions : T11r_race.Decision.t array;
    accesses : T11r_race.Decision.acc array;
  }

  let of_result (r : Interp.result) =
    {
      outcome = r.Interp.outcome;
      makespan_us = r.Interp.makespan_us;
      ticks = r.Interp.ticks;
      races = r.Interp.races;
      race_count = r.Interp.race_count;
      lock_cycles = r.Interp.lock_cycles;
      trace_divergence = r.Interp.trace_divergence;
      output = r.Interp.output;
      soft_desync = r.Interp.soft_desync;
      demo = None;
      trace = Interp.trace_list r;
      thread_names = r.Interp.thread_names;
      rng_draws = r.Interp.rng_draws;
      desync_count = r.Interp.desync_count;
      divergences = r.Interp.divergences;
      metrics = r.Interp.metrics;
      events = r.Interp.events;
      events_dropped = r.Interp.events_dropped;
      coverage = r.Interp.coverage;
      decisions = r.Interp.decisions;
      accesses = r.Interp.accesses;
    }

  let digest r =
    Digest.to_hex
      (Digest.string (Marshal.to_string (of_result r) [ Marshal.No_sharing ]))
end

(* The result digests as [Predict], [Campaign], [Guided] and [Corpus]
   computed them before [T11r_util.Mdigest] streamed them: MD5 of the
   whole unshared Marshal string, with [Campaign.digest]'s fingerprint
   as it was built then, on results in their old layout. *)
module Marshal_digest = struct
  module Campaign = T11r_harness.Campaign
  module Interp = Tsan11rec.Interp

  let of_value v =
    Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

  let campaign (r : Campaign.report) =
    of_value
      ( ( r.Campaign.label,
          r.Campaign.n,
          r.Campaign.first,
          Array.fold_right
            (fun x acc -> Legacy_result.of_result x :: acc)
            r.Campaign.results [] ),
        ( r.Campaign.time_ms,
          r.Campaign.race_rate,
          r.Campaign.mean_reports,
          r.Campaign.mean_ticks,
          r.Campaign.completed,
          r.Campaign.racy_runs,
          r.Campaign.distinct_schedules,
          r.Campaign.outcomes,
          r.Campaign.sightings,
          r.Campaign.crashes,
          r.Campaign.metrics,
          r.Campaign.coverage ) )
end

(* QUEUE as the interpreter built and replayed it before the replay
   cursor: the encoder's backward pass over a [Hashtbl], and a replay
   table from tid to next tick, searched with [Hashtbl.fold] for the
   tick's thread and updated from the tick list as each thread leaves
   its critical section. *)
module Queue_replay = struct
  open Tsan11rec.Demo

  let encode tids n =
    let next : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let next_ticks = ref [] in
    for i = n - 1 downto 0 do
      let tid = tids.(i) in
      next_ticks :=
        Option.value ~default:(-1) (Hashtbl.find_opt next tid) :: !next_ticks;
      Hashtbl.replace next tid i
    done;
    let first_ticks =
      Hashtbl.fold (fun tid tick acc -> (tid, tick) :: acc) next []
      |> List.sort compare
    in
    { first_ticks; next_ticks = !next_ticks }

  type t = { next : (int, int) Hashtbl.t; mutable rest : int list }

  let start q =
    let next = Hashtbl.create 8 in
    List.iter (fun (tid, tick) -> Hashtbl.replace next tid tick) q.first_ticks;
    { next; rest = q.next_ticks }

  let scheduled t tick =
    Hashtbl.fold (fun tid next acc -> if next = tick then tid else acc) t.next (-1)

  let leave t tid =
    match t.rest with
    | [] -> Hashtbl.remove t.next tid
    | next :: rest ->
        t.rest <- rest;
        if next < 0 then Hashtbl.remove t.next tid
        else Hashtbl.replace t.next tid next
end

(* The string codec the text formats were read with before
   [T11r_util.Codec] became a slice reader: the demo files, DECISIONS
   and the journal frame each split a line into a list of substrings
   and converted each one. Its [Invalid_argument] texts are the reasons
   a [Demo.Corrupt] gives, so the slice reader must raise the same
   ones. [write_lines], [rle_encode] and [rle_decode] have no user in
   the library: the reference QUEUE encoder and the tests use them. *)
module Text = struct
  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> invalid_arg "Codec.unescape: bad hex digit"

  let unescape s =
    if s = "%-" then ""
    else begin
      let buf = Buffer.create (String.length s) in
      let i = ref 0 in
      let n = String.length s in
      while !i < n do
        if s.[!i] = '%' then begin
          if !i + 2 >= n then invalid_arg "Codec.unescape: truncated escape";
          Buffer.add_char buf
            (Char.chr ((hex_val s.[!i + 1] lsl 4) lor hex_val s.[!i + 2]));
          i := !i + 3
        end
        else begin
          Buffer.add_char buf s.[!i];
          incr i
        end
      done;
      Buffer.contents buf
    end

  let fields line =
    String.split_on_char ' ' line |> List.filter (fun f -> f <> "")

  let int_field f =
    match int_of_string_opt f with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Codec.int_field: %S" f)

  let int64_field f =
    match Int64.of_string_opt f with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Codec.int64_field: %S" f)

  (* Cut at each '\n', with no empty line after a final one. *)
  let lines s =
    let n = String.length s in
    let rec go pos acc =
      if pos >= n then List.rev acc
      else
        let stop = Option.value (String.index_from_opt s pos '\n') ~default:n in
        go (stop + 1) (String.sub s pos (stop - pos) :: acc)
    in
    go 0 []

  let read_lines path = lines (T11r_util.Codec.read_file path)

  let write_lines path lines =
    T11r_util.Codec.mkdir_p (Filename.dirname path);
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines)

  (* QUEUE's run-length code (paper §4.2): [(value, run length)]. *)
  let rle_encode xs =
    let rec go acc = function
      | [] -> List.rev acc
      | x :: rest -> (
          match acc with
          | (v, n) :: tl when v = x -> go ((v, n + 1) :: tl) rest
          | _ -> go ((x, 1) :: acc) rest)
    in
    go [] xs

  let rle_decode pairs =
    List.concat_map
      (fun (v, n) ->
        if n <= 0 then invalid_arg "Rle.decode: non-positive run length";
        List.init n (fun _ -> v))
      pairs

  let decode_bytes s =
    let open T11r_util.Rle in
    let n = String.length s in
    let buf = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + 1 >= n then invalid_arg "Rle.decode_bytes: truncated chunk header";
      let marker = s.[!i] in
      let len = Char.code s.[!i + 1] in
      if len = 0 then invalid_arg "Rle.decode_bytes: zero-length chunk";
      if marker = run_marker then begin
        if !i + 2 >= n then invalid_arg "Rle.decode_bytes: truncated run";
        let c = s.[!i + 2] in
        for _ = 1 to len do
          Buffer.add_char buf c
        done;
        i := !i + 3
      end
      else if marker = lit_marker then begin
        if !i + 2 + len > n then invalid_arg "Rle.decode_bytes: truncated literal";
        Buffer.add_substring buf s (!i + 2) len;
        i := !i + 2 + len
      end
      else invalid_arg "Rle.decode_bytes: bad chunk marker"
    done;
    Buffer.to_bytes buf
end

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), one table
   lookup per byte. *)
module Crc32 = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
             else c := !c lsr 1
           done;
           !c))

  let update crc s pos len =
    let t = Lazy.force table in
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c := t.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let string s = update 0 s 0 (String.length s)
end

(* The byte RLE as one string: [T11r_util.Rle.chunks] collected into
   a buffer, and its length counted without one. The demo writer
   emits the chunks escaped in place and needs neither; [Demo_codec]
   writes SYSCALL data through [encode_bytes], and test_util.ml checks
   both against [Rle.decode_into]. *)
module Rle_bytes = struct
  open T11r_util

  let encode_bytes b =
    let buf = Buffer.create ((Bytes.length b / 2) + 8) in
    Rle.chunks b
      ~run:(fun c len ->
        Buffer.add_char buf Rle.run_marker;
        Buffer.add_char buf (Char.chr len);
        Buffer.add_char buf c)
      ~lit:(fun b start len ->
        Buffer.add_char buf Rle.lit_marker;
        Buffer.add_char buf (Char.chr len);
        Buffer.add_subbytes buf b start len);
    Buffer.contents buf

  let encoded_size b =
    let size = ref 0 in
    Rle.chunks b
      ~run:(fun _ _ -> size := !size + 3)
      ~lit:(fun _ _ len -> size := !size + 2 + len);
    !size
end

(* The demo codec as it was before the one-pass rewrite: one
   [Printf.sprintf] per line, a save that joins and checksums every
   file twice (trailer, MANIFEST), and a loader that reads each file
   once for the MANIFEST and again to parse it. It takes the current
   framing rule: the MANIFEST, every listed file's trailer and META's
   [format] line are required, and the listed files beyond the paper's
   come back in [extra]. Parsing and errors are [Tsan11rec.Demo]'s own
   types, so test_diff.ml compares saved bytes, sizes and load outcomes
   directly. *)
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
    let pairs = Text.rle_encode deltas in
    let ticks = List.map (fun (v, n) -> Printf.sprintf "t %d %d" v n) pairs in
    marker @ firsts @ ticks

  let render_signals ss =
    List.map (fun s -> Printf.sprintf "%d %d %d" s.s_tid s.s_tick s.s_signo) ss

  let render_syscalls scs =
    List.map
      (fun s ->
        Printf.sprintf "%d %d %s %d %d %d %s" s.sc_tick s.sc_tid s.sc_label
          s.sc_ret s.sc_errno s.sc_elapsed
          (Codec.escape (Rle_bytes.encode_bytes s.sc_data)))
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
      (Crc.to_hex (Crc32.string (text_of_lines lines)))
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

  let payload_files t =
    (("META", render_meta t.meta)
    :: (match t.queue with Some q -> [ ("QUEUE", render_queue q) ] | None -> []))
    @ [
        ("SIGNAL", render_signals t.signals);
        ("SYSCALL", render_syscalls t.syscalls);
        ("ASYNC", render_asyncs t.asyncs);
      ]
    @ t.extra

  let manifest_lines files =
    List.map
      (fun (name, lines) ->
        let text = text_of_lines lines in
        Printf.sprintf "file %s %d %s" name (String.length text)
          (Crc.to_hex (Crc32.string text)))
      files

  (* Writes straight into [dir], which must exist: the oracle's bytes,
     not its crash atomicity, are what the tests compare. *)
  let save t ~dir =
    let files = payload_files t in
    List.iter
      (fun (name, lines) -> write_framed (Filename.concat dir name) lines)
      files;
    write_framed (Filename.concat dir manifest_name) (manifest_lines files)

  let parse_trailer ~file ~line l =
    match Text.fields l with
    | [ tag; hex; count ] when tag = trailer_tag -> (
        match (Crc.of_hex hex, int_of_string_opt count) with
        | Some crc, Some n when n >= 0 -> (crc, n)
        | _ -> corrupt file line "malformed trailer %S" l)
    | _ -> corrupt file line "malformed trailer %S" l

  let read_framed ~dir name =
    let numbered =
      List.mapi (fun i l -> (i + 1, l)) (Text.read_lines (Filename.concat dir name))
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
        if Crc32.string (text_of_lines (List.map snd payload)) <> crc then
          corrupt name ln "payload does not match trailer checksum";
        payload
    | _ -> corrupt name 0 "no %s trailer (truncated?)" trailer_tag

  let read_manifest ~dir =
    if not (Sys.file_exists (Filename.concat dir manifest_name)) then
      corrupt manifest_name 0 "no %s in %s" manifest_name dir;
    List.filter_map
      (fun (ln, line) ->
        match Text.fields line with
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
                if Crc32.string text <> crc then
                  corrupt name 0 "payload does not match MANIFEST checksum";
                Some (name, payload)
            | _ -> corrupt manifest_name ln "bad MANIFEST line %S" line)
        | [] -> None
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
        match Text.fields line with
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
    (let ln, v = get "format" in
     if int_of_string_opt v <> Some format_version then
       corrupt file ln "unsupported demo format version %S (this build reads %d)"
         v format_version);
    {
      app = conv "app" Text.unescape;
      strategy = snd (get "strategy");
      seed1 = conv "seed1" Text.int64_field;
      seed2 = conv "seed2" Text.int64_field;
      ticks = conv "ticks" Text.int_field;
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
            match Text.fields text with
            | [ "queue" ] | [] -> ()
            | [ "first"; tid; tick ] ->
                firsts := (Text.int_field tid, Text.int_field tick) :: !firsts
            | [ "t"; v; n ] ->
                let n = queue_run_length ~file:"QUEUE" ~line:ln (Text.int_field n) in
                runs := (Text.int_field v, n) :: !runs
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
          (Text.rle_decode (List.rev !runs));
    }

  let parse_lines file parse numbered =
    List.filter_map
      (fun (ln, text) -> guard ~file ~line:ln (fun () -> parse ln text))
      numbered

  let parse_signals =
    parse_lines "SIGNAL" (fun ln text ->
        match Text.fields text with
        | [ tid; tick; signo ] ->
            Some
              {
                s_tid = Text.int_field tid;
                s_tick = Text.int_field tick;
                s_signo = Text.int_field signo;
              }
        | [] -> None
        | _ -> corrupt "SIGNAL" ln "bad SIGNAL line %S" text)

  let parse_syscalls =
    parse_lines "SYSCALL" (fun ln text ->
        match Text.fields text with
        | [ tick; tid; label; ret; errno; elapsed; data ] ->
            Some
              {
                sc_tick = Text.int_field tick;
                sc_tid = Text.int_field tid;
                sc_label = label;
                sc_ret = Text.int_field ret;
                sc_errno = Text.int_field errno;
                sc_elapsed = Text.int_field elapsed;
                sc_data = Text.decode_bytes (Text.unescape data);
              }
        | [] -> None
        | _ -> corrupt "SYSCALL" ln "bad SYSCALL line %S" text)

  let parse_asyncs =
    parse_lines "ASYNC" (fun ln text ->
        match Text.fields text with
        | [ tick; "resched" ] ->
            Some { a_tick = Text.int_field tick; a_kind = Reschedule }
        | [ tick; "sigwake"; tid ] ->
            Some
              {
                a_tick = Text.int_field tick;
                a_kind = Signal_wakeup (Text.int_field tid);
              }
        | [] -> None
        | _ -> corrupt "ASYNC" ln "bad ASYNC line %S" text)

  let load ~dir =
    try
      if not (Sys.file_exists (Filename.concat dir "META")) then
        raise
          (Corrupt { c_file = "META"; c_line = 0; c_reason = "no META in " ^ dir });
      let files = read_manifest ~dir in
      let listed name =
        match List.assoc_opt name files with
        | Some payload -> payload
        | None -> corrupt name 0 "not listed in MANIFEST"
      in
      let paper = [ "META"; "QUEUE"; "SIGNAL"; "SYSCALL"; "ASYNC" ] in
      {
        meta = parse_meta (listed "META");
        queue = Option.map parse_queue (List.assoc_opt "QUEUE" files);
        signals = parse_signals (listed "SIGNAL");
        syscalls = parse_syscalls (listed "SYSCALL");
        asyncs = parse_asyncs (listed "ASYNC");
        extra =
          List.filter_map
            (fun (name, payload) ->
              if List.mem name paper then None
              else Some (name, List.map snd payload))
            files;
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
        Schedules.replace schedules (Interp.trace_list r) ();
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
          (fun acc (r : Interp.result) -> Coverage.union acc r.Interp.coverage)
          "" results;
      supervision;
    }
end

(* DECISIONS as [T11r_race.Predict.decode_input] read it before the
   slice reader: [Text.fields] per line, a substring per number. It
   accepts exactly the lines [encode_input] writes: an integer reads
   back only as [string_of_int] writes it, a flag is 0 or 1, and a
   footprint's tag and atomic kind are one letter each. *)
module Decisions = struct
  open T11r_race.Decision
  open T11r_race.Predict

  exception Bad

  (* Only what [string_of_int] writes reads back. *)
  let dec_int s =
    match int_of_string_opt s with
    | Some v when String.equal (string_of_int v) s -> v
    | _ -> raise Bad

  let dec_bit = function "0" -> false | "1" -> true | _ -> raise Bad

  let dec_foot s =
    let num from upto = dec_int (String.sub s from (upto - from)) in
    let rest () = num 1 (String.length s) in
    match s with
    | "" -> raise Bad
    | "L" -> F_local
    | "F" -> F_fence
    | "G" -> F_global
    | _ -> (
        match s.[0] with
        | 'A' -> (
            match String.index_opt s '.' with
            | Some d when d + 2 = String.length s ->
                let id = num 1 d in
                let k =
                  match s.[d + 1] with
                  | 'r' -> Acc_read
                  | 'w' -> Acc_write
                  | 'u' -> Acc_update
                  | _ -> raise Bad
                in
                F_atomic (id, k)
            | _ -> raise Bad)
        | 'Y' -> (
            match String.index_opt s '.' with
            | Some d -> F_sync (num 1 d, num (d + 1) (String.length s))
            | None -> raise Bad)
        | 'P' -> F_spawn (rest ())
        | 'J' -> F_join (rest ())
        | 'W' -> F_syscall (rest ())
        | _ -> raise Bad)

  let dec_lock s =
    if s = "-" then L_none
    else if s = "" then raise Bad
    else
      let id = dec_int (String.sub s 1 (String.length s - 1)) in
      match s.[0] with
      | 'a' -> L_acquire id
      | 'r' -> L_release id
      | 'b' -> L_blocked id
      | _ -> raise Bad

  let dec_kind = function
    | "ww" -> Report.Write_write
    | "wr" -> Report.Write_read
    | "rw" -> Report.Read_write
    | _ -> raise Bad

  let dec_name s = try Text.unescape s with Invalid_argument _ -> raise Bad

  let dec_tagged tag s =
    if s <> "" && s.[0] = tag then String.sub s 1 (String.length s - 1)
    else raise Bad

  let dec_csv conv s =
    if s = "" then [] else List.map conv (String.split_on_char ',' s)

  let decode_input lines =
    let steps = ref [] and accs = ref [] and obs = ref [] in
    try
      List.iter
        (fun line ->
          match Text.fields line with
          | [] -> ()
          | [ "S"; tid; rand; foot; lock; en; draws ] ->
              let enabled = Array.of_list (dec_csv dec_int (dec_tagged 'E' en)) in
              let d =
                {
                  d_tid = dec_int tid;
                  d_enabled = enabled;
                  d_foot = dec_foot foot;
                  d_draws = dec_int (dec_tagged 'D' draws);
                  d_rand = dec_bit rand;
                  d_lock = dec_lock lock;
                }
              in
              if d.d_tid < 0 || not (Array.mem d.d_tid enabled) then raise Bad;
              (match d.d_foot with
              | F_spawn c | F_join c -> if c < 0 then raise Bad
              | _ -> ());
              steps := d :: !steps
          | [ "A"; tick; tid; pos; var; w; name ] ->
              let a =
                {
                  a_tick = dec_int tick;
                  a_tid = dec_int tid;
                  a_pos = dec_int pos;
                  a_var = dec_int var;
                  a_write = dec_bit w;
                  a_name = dec_name name;
                }
              in
              if a.a_tid < 0 || a.a_pos < 0 then raise Bad;
              accs := a :: !accs
          | [ "R"; kind; t1; t2; var ] ->
              obs :=
                {
                  Report.var = dec_name var;
                  kind = dec_kind kind;
                  first_tid = dec_int t1;
                  second_tid = dec_int t2;
                }
                :: !obs
          | _ -> raise Bad)
        lines;
      Some
        {
          steps = Array.of_list (List.rev !steps);
          accs = Array.of_list (List.rev !accs);
          observed = List.rev !obs;
        }
    with Bad -> None
end

(* The journal frame as [T11r_util.Journal.read] parsed it before the
   slice reader: [String.split_on_char] over the file, then a
   substring per quoted field. Its checksum runs through [Crc32]. *)
module Journal_frame = struct
  open T11r_util

  let valid_kind k =
    k <> ""
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true | _ -> false)
         k

  let starts_with ~prefix s pos =
    let n = String.length prefix in
    String.length s - pos >= n && String.sub s pos n = prefix

  let parse_line line =
    let p0 = "{\"v\":1,\"crc\":\"" in
    let p1 = "\",\"kind\":\"" in
    let p2 = "\",\"payload\":\"" in
    let p3 = "\"}" in
    if not (starts_with ~prefix:p0 line 0) then None
    else
      let crc_start = String.length p0 in
      let crc_end = crc_start + 8 in
      if not (starts_with ~prefix:p1 line crc_end) then None
      else
        let kind_start = crc_end + String.length p1 in
        match String.index_from_opt line kind_start '"' with
        | None -> None
        | Some kq ->
            if not (starts_with ~prefix:p2 line kq) then None
            else
              let pay_start = kq + String.length p2 in
              let pay_end = String.length line - String.length p3 in
              if pay_end < pay_start || not (starts_with ~prefix:p3 line pay_end)
              then None
              else
                let crc_hex = String.sub line crc_start 8 in
                let kind = String.sub line kind_start (kq - kind_start) in
                let escaped = String.sub line pay_start (pay_end - pay_start) in
                if not (valid_kind kind) then None
                else
                  match Crc.of_hex crc_hex with
                  | None -> None
                  | Some crc ->
                      if Crc32.string (kind ^ ":" ^ escaped) <> crc then None
                      else (
                        match Text.unescape escaped with
                        | payload -> Some { Journal.kind; payload }
                        | exception Invalid_argument _ -> None)

  let read path =
    let dropped = ref 0 in
    let entries =
      List.filter_map
        (fun line ->
          if String.trim line = "" then None
          else
            match parse_line line with
            | Some e -> Some e
            | None ->
                incr dropped;
                None)
        (String.split_on_char '\n' (Codec.read_file path))
    in
    (entries, !dropped)
end

(* ------------------------------------------------------------------ *)

module Capture = struct
  module Api = T11r_vm.Api
  module Decision = T11r_race.Decision
  module Interp = Tsan11rec.Interp

  type t = {
    mutable decisions : Decision.t list;  (* reversed *)
    mutable accesses : Decision.acc list;  (* reversed *)
  }

  let footprint ~next_tid (op : Interp.tap_op) : Decision.footprint =
    match op with
    | Interp.Tap_signal -> F_global
    | Interp.Tap_none -> F_local
    | Interp.Tap_req r -> (
        match r with
        | Api.A_load (a, _) ->
            F_atomic (T11r_mem.Atomics.loc_id a.Api.a_loc, Acc_read)
        | Api.A_store (a, _, _) ->
            F_atomic (T11r_mem.Atomics.loc_id a.Api.a_loc, Acc_write)
        | Api.A_rmw (a, _, _) ->
            F_atomic (T11r_mem.Atomics.loc_id a.Api.a_loc, Acc_update)
        | Api.A_cas (a, _, _, _, _) ->
            F_atomic (T11r_mem.Atomics.loc_id a.Api.a_loc, Acc_update)
        | Api.Fence _ -> F_fence
        | Api.Mutex_lock m | Api.Mutex_trylock m | Api.Mutex_unlock m ->
            F_sync (m.Api.mu_id, -1)
        | Api.Rw_rdlock l | Api.Rw_wrlock l | Api.Rw_tryrdlock l
        | Api.Rw_trywrlock l | Api.Rw_unlock l ->
            F_sync (l.Api.rw_id, -1)
        | Api.Cond_wait (c, m, timeout) -> (
            match timeout with
            | Some _ -> F_global
            | None -> F_sync (c.Api.cv_id, m.Api.mu_id))
        | Api.Cond_signal c | Api.Cond_broadcast c -> F_sync (c.Api.cv_id, -1)
        | Api.Spawn _ -> F_spawn next_tid
        | Api.Join target -> F_join target
        | Api.Syscall req -> F_syscall (T11r_vm.Syscall.footprint_id req)
        | Api.Set_signal_handler _ | Api.Raise_sync _ -> F_global
        | _ -> F_local)

  let lock code : Decision.lock_event =
    match code land 3 with
    | 0 -> L_none
    | 1 -> L_acquire (code asr 2)
    | 2 -> L_release (code asr 2)
    | _ -> L_blocked (code asr 2)

  let tap t =
    {
      Interp.on_decision =
        (fun ~tid ~enabled ~op ~next_tid ~draws ~rand ~lock:code ->
          t.decisions <-
            {
              Decision.d_tid = tid;
              d_enabled = Array.copy enabled;
              d_foot = footprint ~next_tid op;
              d_draws = draws;
              d_rand = rand;
              d_lock = lock code;
            }
            :: t.decisions);
      on_access =
        (fun ~tick ~tid ~pos ~var ~write ~name ->
          t.accesses <-
            {
              Decision.a_tick = tick;
              a_tid = tid;
              a_pos = pos;
              a_var = var;
              a_write = write;
              a_name = name;
            }
            :: t.accesses);
    }

  (* [run arena f]: [f ()] with the tap on [arena], and the decisions
     and accesses the reference built from it. *)
  let run arena f =
    let t = { decisions = []; accesses = [] } in
    Interp.set_tap arena (Some (tap t));
    let r =
      Fun.protect ~finally:(fun () -> Interp.set_tap arena None) f
    in
    (r, Array.of_list (List.rev t.decisions), Array.of_list (List.rev t.accesses))
end

(* ------------------------------------------------------------------ *)

module Outcome_tally = struct
  module Interp = Tsan11rec.Interp

  let key (o : Interp.outcome) =
    match o with
    | Interp.Completed -> "completed"
    | Interp.Deadlock _ -> "deadlock"
    | Interp.Crashed _ -> "crashed"
    | Interp.Hard_desync _ -> "hard-desync"
    | Interp.Unsupported_app _ -> "unsupported"
    | Interp.App_error _ -> "app-error"
    | Interp.Tick_limit -> "tick-limit"
    | Interp.Timeout -> "timeout"
    | Interp.Corrupt_demo _ -> "corrupt-demo"

  let histogram outcomes =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun o ->
        let k = key o in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      outcomes;
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let merge_outcomes a b =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      (a @ b);
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
end

module Policy_record = struct
  module Policy = Tsan11rec.Policy

  let should_record (t : Policy.t) ~(fd_class : Policy.fd_class)
      (r : T11r_vm.Syscall.request) =
    match (r.kind, fd_class) with
    | _, `Stdout -> false
    | Ioctl, _ when t.ignore_ioctl -> false
    | Clock_gettime, _ -> t.record_clock
    | (Read | Write), `File -> t.record_file_rw && List.mem r.kind t.record_kinds
    | _ -> List.mem r.kind t.record_kinds
end
