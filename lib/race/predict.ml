(* Offline predictive race analysis. See the .mli for the model; the
   short version: replay one recorded run symbolically, build two
   happens-before approximations over its events (the *hard* order no
   reordering can break, and the *relaxed* order every feasible
   reordering must respect), intersect with per-access locksets, and
   classify every conflicting non-atomic access pair as impossible /
   May / Must — constructing, for each Must pair, a concrete witness
   schedule a guided replay can attempt.

   Clock representation: an event's happens-before past is an int
   array indexed by thread, where [c.(t) = p] means positions
   [0 .. p-1] of thread [t] are covered. "Position p of thread t" is
   the program point after t's p-th visible op (position 0 = before
   the first one); non-atomic accesses carry their position directly
   ([acc.a_pos]). An access (t, p) is covered by clock [c] iff
   [c.(t) >= p + 1]; *event* p of thread t is covered iff
   [c.(t) >= p]. *)

open Decision
module Mdigest = T11r_util.Mdigest

type input = {
  steps : Decision.t array;
  accs : acc array;
  observed : Report.t list;
}

type confidence = Must | May

type witness = { w_tids : int array; w_prefix : int array }

type pair = {
  p_report : Report.t;
  p_var : int;
  p_first : int * int;
  p_second : int * int;
  p_confidence : confidence;
  p_observed : bool;
  p_witnesses : witness list;
}

type t = {
  pairs : pair list;
  n_must : int;
  n_may : int;
  n_observed : int;
  n_vars : int;
  n_lock_excluded : int;
}

let recorded_prefix inp =
  normalize_prefix (Array.map (fun d -> index_of d.d_tid d.d_enabled) inp.steps)

(* [Stdlib.compare] on (report, first, second, var), key by key and in
   place: no tuple is built and no polymorphic compare runs. Pairs of
   one analysis share their report when it is equal, so the first key
   usually ends at [==]. *)
let compare_pair p q =
  match Report.compare p.p_report q.p_report with
  | 0 -> (
      let t1, k1 = p.p_first and u1, l1 = q.p_first in
      match Int.compare t1 u1 with
      | 0 -> (
          match Int.compare k1 l1 with
          | 0 -> (
              let t2, k2 = p.p_second and u2, l2 = q.p_second in
              match Int.compare t2 u2 with
              | 0 -> (
                  match Int.compare k2 l2 with
                  | 0 -> Int.compare p.p_var q.p_var
                  | c -> c)
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let of_pairs pairs ~n_vars ~n_lock_excluded =
  let pairs = List.sort compare_pair pairs in
  let count f = List.fold_left (fun n p -> if f p then n + 1 else n) 0 pairs in
  {
    pairs;
    n_must = count (fun p -> p.p_confidence = Must);
    n_may = count (fun p -> p.p_confidence = May);
    n_observed = count (fun p -> p.p_observed);
    n_vars;
    n_lock_excluded;
  }

(* ---- analysis ------------------------------------------------------ *)

(* The serialization witness, last in every Must pair's list: an empty
   guided prefix runs the lowest enabled tid to completion, so each
   thread executes against the full store history of its predecessors
   — including conditional branches the recording never took, which no
   static event plan can anticipate. The empty plan also disables
   adaptive repair: it is swept as-is per seed. *)
let serial_w = { w_tids = [||]; w_prefix = [||] }

let analyze (inp : input) : t =
  let nsteps = Array.length inp.steps in
  let nthreads =
    let m = ref 0 in
    Array.iter
      (fun s ->
        if s.d_tid > !m then m := s.d_tid;
        Array.iter (fun t -> if t > !m then m := t) s.d_enabled;
        match s.d_foot with
        | F_spawn c | F_join c -> if c > !m then m := c
        | _ -> ())
      inp.steps;
    Array.iter (fun a -> if a.a_tid > !m then m := a.a_tid) inp.accs;
    !m + 1
  in
  (* Per-thread event index: evs.(t).(k-1) = step index of t's k-th
     visible op. *)
  let ev_rev = Array.make nthreads [] in
  Array.iteri (fun i s -> ev_rev.(s.d_tid) <- i :: ev_rev.(s.d_tid)) inp.steps;
  let evs = Array.map (fun l -> Array.of_list (List.rev l)) ev_rev in
  let n_events t = Array.length evs.(t) in
  (* An id is a lock id iff it ever participates in a lock transition;
     other sync ids (condvars) carry real ordering and stay chained. *)
  let lock_ids = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      match s.d_lock with
      | L_none -> ()
      | L_acquire id | L_release id | L_blocked id ->
          Hashtbl.replace lock_ids id ())
    inp.steps;
  let is_lock_id id = Hashtbl.mem lock_ids id in

  (* -- clock pass: past.(i) = the past of event i in one order -- *)
  let join dst src =
    Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src
  in
  let jopt dst = function Some src -> join dst src | None -> () in
  (* Sync ids that chain in the relaxed order: condvars, not locks. *)
  let chained id1 id2 =
    List.filter (fun id -> id >= 0 && not (is_lock_id id)) [ id1; id2 ]
  in
  (* The hard order has program order, spawn and join edges; [relaxed]
     adds the fence, world, non-lock sync and forced reads-from chains.
     Returns every event's past and every thread's start clock. *)
  let clock_pass ~relaxed =
    let past = Array.make nsteps [||] in
    let start = Array.init nthreads (fun _ -> Array.make nthreads 0) in
    let cur = Array.init nthreads (fun _ -> Array.make nthreads 0) in
    let kdone = Array.make nthreads 0 in
    (* spawn points are chained: tids are assigned in spawn order, so no
       reordering may swap two spawns — a hard edge. *)
    let spawn = ref None and fence = ref None and world = ref None in
    let chain : (int, int array) Hashtbl.t = Hashtbl.create 16 in
    let last_w : (int, int array) Hashtbl.t = Hashtbl.create 16 in
    for i = 0 to nsteps - 1 do
      let s = inp.steps.(i) in
      let t = s.d_tid in
      let k = kdone.(t) + 1 in
      let c = Array.copy cur.(t) in
      (match s.d_foot with
      | F_spawn _ -> jopt c !spawn
      | F_join tgt ->
          join c cur.(tgt);
          (* the join also covers the target's trailing accesses *)
          let full = n_events tgt + 1 in
          if c.(tgt) < full then c.(tgt) <- full
      | _ when not relaxed -> ()
      | F_fence -> jopt c !fence
      | F_syscall _ | F_global ->
          (* world-coupled ops share the world PRNG stream: reordering
             them would change every later result, so witness schedules
             keep their order. *)
          jopt c !world
      | F_sync (id1, id2) ->
          List.iter
            (fun id -> jopt c (Hashtbl.find_opt chain id))
            (chained id1 id2)
      | F_atomic (loc, ak) ->
          (* A load whose bounded store window offered >= 2 admissible
             stores (d_rand) could have read something else: that
             reads-from edge is scheduler-induced and is dropped. A
             forced load, and every write/update (modification order),
             keeps its edge to the previous write. *)
          let forced =
            match ak with
            | Acc_read -> not s.d_rand
            | Acc_write | Acc_update -> true
          in
          if forced then jopt c (Hashtbl.find_opt last_w loc)
      | F_local -> ());
      c.(t) <- k;
      past.(i) <- c;
      cur.(t) <- c;
      kdone.(t) <- k;
      match s.d_foot with
      | F_spawn child ->
          start.(child) <- c;
          cur.(child) <- c;
          spawn := Some c
      | _ when not relaxed -> ()
      | F_atomic (loc, (Acc_write | Acc_update)) ->
          Hashtbl.replace last_w loc c
      | F_fence -> fence := Some c
      | F_syscall _ | F_global -> world := Some c
      | F_sync (id1, id2) ->
          List.iter (fun id -> Hashtbl.replace chain id c) (chained id1 id2)
      | F_local | F_atomic (_, Acc_read) | F_join _ -> ()
    done;
    (past, start)
  in
  let hard, start_h = clock_pass ~relaxed:false in
  let rel, start_r = clock_pass ~relaxed:true in

  (* -- lockset pass: locks held during the accesses at (t, k) -- *)
  let ls_after = Array.init nthreads (fun t -> Array.make (n_events t + 1) []) in
  let held = Array.make nthreads [] in
  let kdone = Array.make nthreads 0 in
  for i = 0 to nsteps - 1 do
    let s = inp.steps.(i) in
    let t = s.d_tid in
    let k = kdone.(t) + 1 in
    (match s.d_lock with
    | L_acquire id -> held.(t) <- id :: held.(t)
    | L_release id ->
        let rec drop = function
          | [] -> []
          | x :: tl -> if x = id then tl else x :: drop tl
        in
        held.(t) <- drop held.(t)
    | L_none | L_blocked _ -> ());
    ls_after.(t).(k) <- List.sort Int.compare held.(t);
    kdone.(t) <- k
  done;
  let lockset a = ls_after.(a.a_tid).(Int.min a.a_pos (n_events a.a_tid)) in
  let rec inter_nonempty (l1 : int list) (l2 : int list) =
    (* both sorted ascending *)
    match (l1, l2) with
    | [], _ | _, [] -> false
    | x :: t1, y :: t2 ->
        if x = y then true
        else if x < y then inter_nonempty t1 l2
        else inter_nonempty l1 t2
  in

  (* -- access grouping: dedup (tid, pos, var, write), group by var -- *)
  let seen = Hashtbl.create 64 in
  let vars_order = ref [] in
  let var_accs : (int, acc list ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun a ->
      let key = (a.a_tid, a.a_pos, a.a_var, a.a_write) in
      if not (Hashtbl.mem seen key) then (
        Hashtbl.add seen key ();
        match Hashtbl.find_opt var_accs a.a_var with
        | Some l -> l := a :: !l
        | None ->
            vars_order := a.a_var :: !vars_order;
            Hashtbl.add var_accs a.a_var (ref [ a ])))
    inp.accs;
  let vars_order = List.rev !vars_order in
  let n_vars = List.length vars_order in

  let past (clocks : int array array) start a =
    let ne = n_events a.a_tid in
    if a.a_pos = 0 || ne = 0 then start.(a.a_tid)
    else clocks.(evs.(a.a_tid).(Int.min a.a_pos ne - 1))
  in
  let covers c a = c.(a.a_tid) >= a.a_pos + 1 in

  (* -- witnesses -- *)
  let preserve_w =
    lazy
      {
        w_tids = Array.map (fun s -> s.d_tid) inp.steps;
        w_prefix = recorded_prefix inp;
      }
  in
  let spawn_tick_of =
    let tbl = Hashtbl.create 8 in
    Array.iteri
      (fun i s ->
        match s.d_foot with
        | F_spawn c -> if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c i
        | _ -> ())
      inp.steps;
    fun tid -> Hashtbl.find_opt tbl tid
  in
  (* Best-effort index prefix realizing a tid plan: rank each planned
     tid among the threads spawned-and-unfinished at that point.
     Blocking is not modeled — the guided verifier repairs mismatches
     against the enabled sets it observes. *)
  let prefix_for_plan plan =
    let spawned = Array.make nthreads false in
    spawned.(0) <- true;
    let ndone = Array.make nthreads 0 in
    let idxs =
      List.map
        (fun e ->
          let t = inp.steps.(e).d_tid in
          let rank = ref 0 and found = ref false in
          for u = 0 to nthreads - 1 do
            if spawned.(u) && ndone.(u) < n_events u then
              if u < t then incr rank else if u = t then found := true
          done;
          ndone.(t) <- ndone.(t) + 1;
          (match inp.steps.(e).d_foot with
          | F_spawn c -> spawned.(c) <- true
          | _ -> ());
          if !found then !rank else 0)
        plan
    in
    normalize_prefix (Array.of_list idxs)
  in
  (* Reverse witness for (a before b in the recording): run everything
     outside a's forward relaxed cone first, up to and including b's
     anchor, then release the cone — so b's access executes before a's.
     Kept edges are respected by construction: the cone is exactly the
     set of events whose relaxed past contains a's anchor event. *)
  let reverse_witness a b =
    if a.a_pos = 0 then None (* fires at spawn; cannot be delayed *)
    else
      let t1 = a.a_tid and p1 = a.a_pos in
      let e1 = evs.(t1).(p1 - 1) in
      let anchor2 =
        if b.a_pos > 0 then Some evs.(b.a_tid).(b.a_pos - 1)
        else spawn_tick_of b.a_tid
      in
      match anchor2 with
      | None -> None
      | Some e2 ->
          let in_cone e = rel.(e).(t1) >= p1 in
          if e2 <= e1 || in_cone e2 then None
          else begin
            let kept = ref [] and delayed = ref [] in
            for e = e2 downto 0 do
              if in_cone e then begin
                (* a failed acquire need not recur once reordered *)
                match inp.steps.(e).d_lock with
                | L_blocked _ -> ()
                | _ -> delayed := e :: !delayed
              end
              else kept := e :: !kept
            done;
            let plan = !kept @ !delayed in
            Some
              {
                w_tids =
                  Array.of_list (List.map (fun e -> inp.steps.(e).d_tid) plan);
                w_prefix = prefix_for_plan plan;
              }
          end
  in

  (* -- pair classification -- *)
  let observed_norm = List.map Report.norm inp.observed in
  (* One normalized report, with its observed flag, per (name, kind,
     tids): slot (kind, first tid, second tid) before normalization,
     kept while the name stays the same. *)
  let reports = Array.make (3 * nthreads * nthreads) None in
  let report_of a b =
    let k = if a.a_write && b.a_write then 0 else if a.a_write then 1 else 2 in
    let slot = (((k * nthreads) + a.a_tid) * nthreads) + b.a_tid in
    match reports.(slot) with
    | Some ((rep, _) as hit) when String.equal rep.Report.var a.a_name -> hit
    | _ ->
        let kind =
          match k with
          | 0 -> Report.Write_write
          | 1 -> Report.Write_read
          | _ -> Report.Read_write
        in
        let rep =
          Report.norm
            {
              Report.var = a.a_name;
              kind;
              first_tid = a.a_tid;
              second_tid = b.a_tid;
            }
        in
        let hit = (rep, List.exists (Report.equal rep) observed_norm) in
        reports.(slot) <- Some hit;
        hit
  in
  (* Every Must pair without a reverse witness has the same list. *)
  let preserve_serial = lazy [ Lazy.force preserve_w; serial_w ] in
  let pairs = ref [] in
  let n_lock_excluded = ref 0 in
  List.iter
    (fun v ->
      let arr = Array.of_list (List.rev !(Hashtbl.find var_accs v)) in
      let at = Array.map (fun a -> (a.a_tid, a.a_pos)) arr in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let a = arr.(i) and b = arr.(j) in
          if a.a_tid <> b.a_tid && (a.a_write || b.a_write) then
            if inter_nonempty (lockset a) (lockset b) then
              incr n_lock_excluded
            else
              let pa_h = past hard start_h a and pb_h = past hard start_h b in
              if not (covers pb_h a || covers pa_h b) then begin
                let pa_r = past rel start_r a and pb_r = past rel start_r b in
                let rel_ordered = covers pb_r a || covers pa_r b in
                let rep, obs = report_of a b in
                (* an observed pair is Must even if our conservative
                   chains order it: the recording itself is the witness *)
                let conf =
                  if obs then Must else if rel_ordered then May else Must
                in
                let wits =
                  match conf with
                  | May -> []
                  | Must -> (
                      if obs then Lazy.force preserve_serial
                      else
                        match reverse_witness a b with
                        | Some w -> Lazy.force preserve_w :: w :: [ serial_w ]
                        | None -> Lazy.force preserve_serial)
                in
                pairs :=
                  {
                    p_report = rep;
                    p_var = v;
                    p_first = at.(i);
                    p_second = at.(j);
                    p_confidence = conf;
                    p_observed = obs;
                    p_witnesses = wits;
                  }
                  :: !pairs
              end
        done
      done)
    vars_order;
  of_pairs !pairs ~n_vars ~n_lock_excluded:!n_lock_excluded

(* ---- merging runs -------------------------------------------------- *)

let merge ts =
  let best = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt best p.p_report with
          | None -> Hashtbl.replace best p.p_report p
          | Some prev ->
              if
                (prev.p_confidence = May && p.p_confidence = Must)
                || ((not prev.p_observed) && p.p_observed)
              then Hashtbl.replace best p.p_report p)
        t.pairs)
    ts;
  of_pairs
    (Hashtbl.fold (fun _ p acc -> p :: acc) best [])
    ~n_vars:(List.fold_left (fun m t -> max m t.n_vars) 0 ts)
    ~n_lock_excluded:(List.fold_left (fun n t -> n + t.n_lock_excluded) 0 ts)

(* ---- digest / printing --------------------------------------------- *)

(* [t]'s unshared Marshal digest, streamed: each pair is marshalled
   without its witness list, and each physically distinct witness
   once a pass. Fields in declaration order. *)
let digest (t : t) =
  let witnesses = Mdigest.memo () in
  Mdigest.digest (fun s ->
      Mdigest.block s ~tag:0 ~size:6;
      Mdigest.list s List.iter
        (fun s p ->
          Mdigest.value_but_last s { p with p_witnesses = [] };
          Mdigest.list s List.iter
            (fun s w -> Mdigest.shared s witnesses Mdigest.value w)
            p.p_witnesses)
        t.pairs;
      Mdigest.value s t.n_must;
      Mdigest.value s t.n_may;
      Mdigest.value s t.n_observed;
      Mdigest.value s t.n_vars;
      Mdigest.value s t.n_lock_excluded)

let pp fmt (t : t) =
  Format.fprintf fmt
    "@[<v>%d predicted pair%s (%d must, %d may, %d observed) over %d location%s; %d lock-excluded"
    (List.length t.pairs)
    (if List.length t.pairs = 1 then "" else "s")
    t.n_must t.n_may t.n_observed t.n_vars
    (if t.n_vars = 1 then "" else "s")
    t.n_lock_excluded;
  List.iter
    (fun p ->
      Format.fprintf fmt "@,  %-4s %s T%d@%d vs T%d@%d — %a%s"
        (match p.p_confidence with Must -> "MUST" | May -> "MAY")
        (if p.p_observed then "[observed]" else
           Printf.sprintf "[%d witness%s]" (List.length p.p_witnesses)
             (if List.length p.p_witnesses = 1 then "" else "es"))
        (fst p.p_first) (snd p.p_first) (fst p.p_second) (snd p.p_second)
        Report.pp p.p_report
        "")
    t.pairs;
  Format.fprintf fmt "@]"

(* ---- serialization ------------------------------------------------- *)

(* One line per step ("S"), access ("A") and observed race ("R").
   Location names are written with [Codec.escape], so a name with a
   space or a newline stays one field of one line. They come last:
   older builds wrote them raw, spanning the rest of their line. *)

let enc_foot = function
  | F_local -> "L"
  | F_atomic (id, Acc_read) -> Printf.sprintf "A%d.r" id
  | F_atomic (id, Acc_write) -> Printf.sprintf "A%d.w" id
  | F_atomic (id, Acc_update) -> Printf.sprintf "A%d.u" id
  | F_fence -> "F"
  | F_sync (a, b) -> Printf.sprintf "Y%d.%d" a b
  | F_spawn c -> Printf.sprintf "P%d" c
  | F_join c -> Printf.sprintf "J%d" c
  | F_syscall id -> Printf.sprintf "W%d" id
  | F_global -> "G"

let enc_lock = function
  | L_none -> "-"
  | L_acquire id -> Printf.sprintf "a%d" id
  | L_release id -> Printf.sprintf "r%d" id
  | L_blocked id -> Printf.sprintf "b%d" id

let enc_kind = function
  | Report.Write_write -> "ww"
  | Report.Write_read -> "wr"
  | Report.Read_write -> "rw"

let encode_input inp =
  let csv a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  let step d =
    Printf.sprintf "S %d %d %s %s E%s D%d" d.d_tid
      (if d.d_rand then 1 else 0)
      (enc_foot d.d_foot) (enc_lock d.d_lock) (csv d.d_enabled) d.d_draws
  in
  let access a =
    Printf.sprintf "A %d %d %d %d %d %s" a.a_tick a.a_tid a.a_pos a.a_var
      (if a.a_write then 1 else 0)
      (T11r_util.Codec.escape a.a_name)
  in
  let race (r : Report.t) =
    Printf.sprintf "R %s %d %d %s" (enc_kind r.Report.kind) r.Report.first_tid
      r.Report.second_tid
      (T11r_util.Codec.escape r.Report.var)
  in
  List.map step (Array.to_list inp.steps)
  @ List.map access (Array.to_list inp.accs)
  @ List.map race inp.observed

exception Bad

module Codec = T11r_util.Codec

(* The decoders read a field, or part of one, [s.[a .. b-1]] of a
   DECISIONS line through [Codec], whose [Invalid_argument] rejects
   the file as [Bad] does. *)

(* An integer as [string_of_int] writes it: an optional '-', then
   digits with no leading zero, and no "-0". [Codec.int_at] also reads
   [int_of_string]'s other forms ("+0", "0x1F", "1_000"), which the
   demo reader keeps accepting. *)
let dec_int s a b =
  let d = if b > a && s.[a] = '-' then a + 1 else a in
  if d >= b || (s.[d] = '0' && (b > d + 1 || d > a)) then raise Bad;
  for i = d to b - 1 do
    if s.[i] < '0' || s.[i] > '9' then raise Bad
  done;
  Codec.int_at s a b

(* A 0 or 1 field. *)
let dec_bit s a b =
  if Codec.is_at s a b "1" then true
  else if Codec.is_at s a b "0" then false
  else raise Bad

let dec_foot s a b =
  let dot () =
    match String.index_from_opt s a '.' with Some d when d < b -> d | _ -> raise Bad
  in
  let tag_only f = if b = a + 1 then f else raise Bad in
  match s.[a] with
  | 'L' -> tag_only F_local
  | 'F' -> tag_only F_fence
  | 'G' -> tag_only F_global
  | 'A' ->
      let d = dot () in
      if d + 2 <> b then raise Bad;
      let id = dec_int s (a + 1) d in
      let k =
        match s.[d + 1] with
        | 'r' -> Acc_read
        | 'w' -> Acc_write
        | 'u' -> Acc_update
        | _ -> raise Bad
      in
      F_atomic (id, k)
  | 'Y' ->
      let d = dot () in
      F_sync (dec_int s (a + 1) d, dec_int s (d + 1) b)
  | 'P' -> F_spawn (dec_int s (a + 1) b)
  | 'J' -> F_join (dec_int s (a + 1) b)
  | 'W' -> F_syscall (dec_int s (a + 1) b)
  | _ -> raise Bad

let dec_lock s a b =
  if Codec.is_at s a b "-" then L_none
  else
    let id = dec_int s (a + 1) b in
    match s.[a] with
    | 'a' -> L_acquire id
    | 'r' -> L_release id
    | 'b' -> L_blocked id
    | _ -> raise Bad

(* The comma-separated integers [s.[a .. b-1]]. *)
let dec_csv s a b =
  let rec go a acc =
    let stop =
      match String.index_from_opt s a ',' with Some c when c < b -> c | _ -> b
    in
    let acc = dec_int s a stop :: acc in
    if stop < b then go (stop + 1) acc else Array.of_list (List.rev acc)
  in
  if a = b then [||] else go a []

let decode_input lines =
  let fld = Array.make 16 0 in
  let steps = ref [] and accs = ref [] and obs = ref [] in
  let decode s =
    let at k f = f s fld.(2 * k) fld.((2 * k) + 1) in
    let int k = at k dec_int and bit k = at k dec_bit in
    let name k = at k Codec.unescape_at in
    (* field [k] after its one-letter tag *)
    let tagged k tag f =
      if s.[fld.(2 * k)] <> tag then raise Bad;
      f s (fld.(2 * k) + 1) fld.((2 * k) + 1)
    in
    match Codec.fields s 0 (String.length s) fld with
    | 0 -> ()
    | 7 when Codec.field_is s fld 0 "S" ->
        let enabled = tagged 5 'E' dec_csv in
        let d =
          {
            d_tid = int 1;
            d_enabled = enabled;
            d_foot = at 3 dec_foot;
            d_draws = tagged 6 'D' dec_int;
            d_rand = bit 2;
            d_lock = at 4 dec_lock;
          }
        in
        (* the file comes from disk: a step must pick an enabled,
           non-negative tid and name non-negative spawn/join targets,
           or [analyze] would index out of its per-thread tables *)
        if d.d_tid < 0 || not (Array.mem d.d_tid enabled) then raise Bad;
        (match d.d_foot with
        | F_spawn c | F_join c -> if c < 0 then raise Bad
        | _ -> ());
        steps := d :: !steps
    | 7 when Codec.field_is s fld 0 "A" ->
        let a =
          {
            a_tick = int 1;
            a_tid = int 2;
            a_pos = int 3;
            a_var = int 4;
            a_write = bit 5;
            a_name = name 6;
          }
        in
        if a.a_tid < 0 || a.a_pos < 0 then raise Bad;
        accs := a :: !accs
    | 5 when Codec.field_is s fld 0 "R" ->
        let kind =
          if Codec.field_is s fld 1 "ww" then Report.Write_write
          else if Codec.field_is s fld 1 "wr" then Report.Write_read
          else if Codec.field_is s fld 1 "rw" then Report.Read_write
          else raise Bad
        in
        obs :=
          { Report.var = name 4; kind; first_tid = int 2; second_tid = int 3 }
          :: !obs
    | _ -> raise Bad
  in
  match List.iter decode lines with
  | () ->
      Some
        {
          steps = Array.of_list (List.rev !steps);
          accs = Array.of_list (List.rev !accs);
          observed = List.rev !obs;
        }
  | exception (Bad | Invalid_argument _) -> None
