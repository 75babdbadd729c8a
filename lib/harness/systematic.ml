module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Report = T11r_race.Report
module Decision = T11r_race.Decision
open Decision

type result = {
  runs : int;
  resumed_runs : int;
  complete : bool;
  racy_schedules : int;
  races : Report.t list;
  deadlock_schedules : int;
  crash_schedules : int;
  outcomes : (string * int) list;
  max_depth_seen : int;
}

(* Journal framing for resumable exploration: one header pinning the
   run parameters, then one "sys" entry per analyzed prefix carrying
   (prefix, observed counts, result-without-demo). Resume keys the
   cache on the prefix itself, so the worker count may differ between
   the original run and the resume — each prefix's result is a pure
   function of (prefix, seeds, world_seed). Results carry the
   per-decision DPOR metadata ({!Decision.t}), and entries are written
   in analysis order (identical at every [jobs]). Bump the schema
   whenever Interp.result changes layout. *)
let journal_schema = 4

type journal_header = {
  jh_schema : int;
  jh_world_seed : int64;
  jh_seed1 : int64;
  jh_seed2 : int64;
}

(* ------------------------------------------------------------------ *)
(* The dependence relation over captured decisions.

   Two decisions conflict iff swapping two adjacent occurrences could
   change behaviour: same thread (program order); same atomic location
   with at least one write; fences against atomics and each other (SC
   fences thread a global clock); lock/condvar/rwlock footprints
   sharing an object; spawns against spawns (tid allocation order) and
   against every op of the created thread; joins likewise; anything
   world-coupled (syscalls, signal plumbing, timed waits) against
   everything. The last two clauses pin the scheduler-PRNG stream: an
   op whose draw chose among >= 2 live alternatives ([d_rand]) must
   stay ordered against every other draw-consuming op, otherwise a
   reordering would hand it different random values. Forced
   single-option draws commute — they advance the stream by the same
   amount wherever they run. Over-approximation is sound: in the worst
   case DPOR degenerates to the exhaustive search. *)
let dep (a : Decision.t) (b : Decision.t) =
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

(* ------------------------------------------------------------------ *)
(* DFS frames. A frame is the node reached after [fr_depth] scheduling
   decisions; [fr_path] holds the guided indices that reach it and
   [fr_rd] the decision array of the maximal run currently being
   followed through it (the run whose realized path extends [fr_path]
   with index 0 forever). *)
type frame = {
  fr_depth : int;
  fr_path : int array;
  fr_enabled : int array; (* tids runnable here, ascending *)
  fr_rd : Decision.t array;
  mutable fr_backtrack : int list; (* tids to explore, insertion order *)
  mutable fr_done : int list; (* tids whose subtree is complete *)
  mutable fr_sleep : (int * Decision.t) list; (* sleep set *)
  mutable fr_cur : Decision.t option; (* transition being explored *)
  mutable fr_cur_clk : int array;
      (* vector clock of fr_cur over the current path: entry [q] is
         1 + the index of thread q's latest event that happens-before
         fr_cur (0 = none), so hb(event i -> fr_cur) iff
         clk.(tid_i) > i. Indexed by tid, grown on demand. *)
}

let clk_get c q = if q < Array.length c then c.(q) else 0

(* dst := join(dst, src), growing dst as needed. *)
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

let in_sleep sleep tid = List.exists (fun (t, _) -> t = tid) sleep

let explore ?(max_runs = 2000) ?(jobs = 1) ?(dpor = true) ?(deadline_s = 0.)
    ?tick_budget ?(world_seed = 7L) ?(seeds = (11L, 13L)) ?journal ?cancel
    ~build () =
  let s1, s2 = seeds in
  let cancelled = match cancel with Some c -> c | None -> fun () -> false in
  (* Pending executions by normalized prefix: journal-loaded entries
     plus speculative wave results, consumed (and removed) when the
     sequential analysis queries them. Only the supervising domain
     touches this table — workers return results by value. Keying on
     the normalized prefix makes following a run down its own path
     free and makes [runs] count distinct executions. *)
  let cache : (int array, Interp.result * int array) Hashtbl.t =
    Hashtbl.create 64
  in
  let from_journal : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  let jw =
    match journal with
    | None -> None
    | Some path ->
        let entries, _torn = T11r_util.Journal.read path in
        let had_header = ref false in
        List.iter
          (fun (e : T11r_util.Journal.entry) ->
            match e.T11r_util.Journal.kind with
            | "systematic" -> (
                had_header := true;
                match
                  (Marshal.from_string e.T11r_util.Journal.payload 0
                    : journal_header)
                with
                | jh ->
                    if
                      jh.jh_schema <> journal_schema
                      || (jh.jh_world_seed, jh.jh_seed1, jh.jh_seed2)
                         <> (world_seed, s1, s2)
                    then
                      invalid_arg
                        (Printf.sprintf
                           "Systematic.explore: journal %s was written with \
                            different seeds or schema"
                           path)
                | exception _ ->
                    invalid_arg
                      (Printf.sprintf
                         "Systematic.explore: journal %s: unreadable header"
                         path))
            | "sys" -> (
                match
                  (Marshal.from_string e.T11r_util.Journal.payload 0
                    : int array * int array * Interp.result)
                with
                | prefix, counts, r ->
                    let prefix = Decision.normalize_prefix prefix in
                    Hashtbl.replace cache prefix (r, counts);
                    Hashtbl.replace from_journal prefix ()
                | exception _ -> ())
            | _ -> ())
          entries;
        let w = T11r_util.Journal.create path in
        if not !had_header then
          T11r_util.Journal.append w
            {
              T11r_util.Journal.kind = "systematic";
              payload =
                Marshal.to_string
                  {
                    jh_schema = journal_schema;
                    jh_world_seed = world_seed;
                    jh_seed1 = s1;
                    jh_seed2 = s2;
                  }
                  [];
            };
        Some w
  in
  (* One prefix execution, on whatever domain the pool assigns. All
     supervisor state stays out of here: the worker returns the result
     by value and the supervising domain does every count, journal
     write and cache update itself. *)
  let exec_prefix prefix =
    let observed = ref [] in
    let conf =
      Conf.with_seeds
        (Conf.tsan11rec ~strategy:(Conf.Guided { prefix; observed }) ())
        s1 s2
    in
    let conf =
      if deadline_s > 0. then Conf.with_deadline_s conf deadline_s else conf
    in
    let conf =
      match tick_budget with
      | Some b -> Conf.with_max_ticks conf b
      | None -> conf
    in
    let r =
      Outcome.protect (fun () ->
          let world = Campaign.recycled_world ~seed:world_seed in
          let arena = Campaign.domain_arena () in
          Interp.run ~world ~arena conf (build ()))
    in
    (r, Array.of_list (List.rev !observed))
  in
  (* Aggregation — all on the supervising domain, in analysis order,
     so every counter and the result lists are identical at every
     [jobs] value. *)
  let runs = ref 0 in
  let resumed = ref 0 in
  let racy = ref 0 in
  let deadlocks = ref 0 in
  let crashes = ref 0 in
  let max_depth = ref 0 in
  let races = ref [] in
  let seen_races = Hashtbl.create 16 in
  let outcomes = Hashtbl.create 4 in
  let queried : (int array, unit) Hashtbl.t = Hashtbl.create 64 in
  let aggregate (r : Interp.result) (counts : int array) =
    incr runs;
    max_depth := max !max_depth (Array.length counts);
    if r.Interp.race_count > 0 then incr racy;
    List.iter
      (fun race ->
        if not (Hashtbl.mem seen_races race) then begin
          Hashtbl.replace seen_races race ();
          races := race :: !races
        end)
      r.Interp.races;
    (match r.Interp.outcome with
    | Interp.Deadlock _ -> incr deadlocks
    | Interp.Crashed _ -> incr crashes
    | _ -> ());
    let k = Outcome.key r.Interp.outcome in
    Hashtbl.replace outcomes k
      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes k))
  in
  let journal_entry prefix (r : Interp.result) counts =
    match jw with
    | None -> ()
    | Some w ->
        T11r_util.Journal.append w
          {
            T11r_util.Journal.kind = "sys";
            payload =
              Marshal.to_string
                (prefix, counts, { r with Interp.demo = None })
                [];
          }
  in
  (* The DFS stack (frames.(0 .. sp-1); frame i sits at depth i). *)
  let frames : frame option array ref = ref (Array.make 64 None) in
  let sp = ref 0 in
  let fget i =
    match !frames.(i) with Some f -> f | None -> assert false
  in
  let fpush f =
    if !sp >= Array.length !frames then begin
      let a = Array.make (2 * Array.length !frames) None in
      Array.blit !frames 0 a 0 !sp;
      frames := a
    end;
    !frames.(!sp) <- Some f;
    incr sp
  in
  (* Speculative pre-execution: when the analysis needs a prefix that
     is not cached, predict the prefixes it will need soon — pending
     backtrack children of the frames on the stack, deepest first —
     and run up to [jobs] of them in one pool wave. Only cache warmth
     depends on the predictions, never the analysis itself, which is
     what keeps every count and result bit-identical across [jobs]. *)
  let speculate n =
    let acc = ref [] in
    let count = ref 0 in
    let consider p =
      if
        !count < n
        && (not (Hashtbl.mem cache p))
        && (not (Hashtbl.mem queried p))
        && not (List.mem p !acc)
      then begin
        acc := p :: !acc;
        incr count
      end
    in
    (let i = ref (!sp - 1) in
     while !count < n && !i >= 0 do
       let f = fget !i in
       List.iter
         (fun q ->
           if
             (not (List.mem q f.fr_done))
             && (not (in_sleep f.fr_sleep q))
             && (match f.fr_cur with
                | Some e -> e.d_tid <> q
                | None -> true)
           then
             let idx = Decision.index_of q f.fr_enabled in
             if idx > 0 then
               consider (Array.append f.fr_path [| idx |]))
         f.fr_backtrack;
       decr i
     done);
    List.rev !acc
  in
  (* Query one normalized prefix: consume the cached result or execute
     a wave of [the prefix + speculation]. Counts the run, journals
     fresh executions (in analysis order) and aggregates — exactly
     once per distinct schedule. *)
  let query prefix =
    let r, counts =
      match Hashtbl.find_opt cache prefix with
      | Some rc ->
          Hashtbl.remove cache prefix;
          rc
      | None ->
          let wave = Array.of_list (prefix :: speculate (jobs - 1)) in
          let results =
            Pool.map ~jobs (Array.length wave) (fun i ->
                exec_prefix wave.(i))
          in
          for i = 1 to Array.length wave - 1 do
            Hashtbl.replace cache wave.(i) results.(i)
          done;
          results.(0)
    in
    Hashtbl.replace queried prefix ();
    if Hashtbl.mem from_journal prefix then incr resumed
    else journal_entry prefix r counts;
    aggregate r counts;
    (r, counts)
  in
  (* Reach the node after [depth] transitions of run [rd] with entry
     sleep set [sleep]; push a frame unless the node is terminal (the
     run ended) or sleep-blocked (every enabled thread is asleep — the
     subtree is Mazurkiewicz-redundant and is pruned whole). *)
  let push_node ~path ~depth ~rd ~sleep =
    if depth >= Array.length rd then false
    else begin
      let enabled = rd.(depth).d_enabled in
      let first_awake = ref (-1) in
      Array.iter
        (fun tid ->
          if !first_awake < 0 && not (in_sleep sleep tid) then
            first_awake := tid)
        enabled;
      if !first_awake < 0 then false
      else begin
        let backtrack =
          if dpor then [ !first_awake ] else Array.to_list enabled
        in
        fpush
          {
            fr_depth = depth;
            fr_path = path;
            fr_enabled = enabled;
            fr_rd = rd;
            fr_backtrack = backtrack;
            fr_done = [];
            fr_sleep = sleep;
            fr_cur = None;
            fr_cur_clk = [||];
          };
        true
      end
    end
  in
  (* Bootstrap: the all-zeros run. *)
  let r0, _c0 = query [||] in
  ignore
    (push_node ~path:[||] ~depth:0 ~rd:r0.Interp.decisions ~sleep:[]);
  while !sp > 0 && !runs < max_runs && not (cancelled ()) do
    let f = fget (!sp - 1) in
    let next_child =
      List.find_opt
        (fun q ->
          (not (List.mem q f.fr_done)) && not (in_sleep f.fr_sleep q))
        f.fr_backtrack
    in
    match next_child with
    | None ->
        (* Node exhausted: pop, complete the parent's current child. *)
        decr sp;
        !frames.(!sp) <- None;
        if !sp > 0 then begin
          let p = fget (!sp - 1) in
          match p.fr_cur with
          | Some e ->
              p.fr_done <- e.d_tid :: p.fr_done;
              if dpor then p.fr_sleep <- (e.d_tid, e) :: p.fr_sleep;
              p.fr_cur <- None
          | None -> assert false
        end
    | Some q ->
        let k = f.fr_depth in
        let idx = Decision.index_of q f.fr_enabled in
        let path' = Array.append f.fr_path [| idx |] in
        (* Index 0 continues the run already followed through this
           node — same normalized prefix, no new execution. A nonzero
           index is a fresh schedule: query it (cache, journal or
           wave). *)
        let rd' =
          if idx = 0 then f.fr_rd
          else
            let r, _ = query (Decision.normalize_prefix path') in
            r.Interp.decisions
        in
        if Array.length rd' <= k || rd'.(k).d_tid <> q then begin
          (* The run ended before this depth (supervision cut it
             short) or diverged — nothing to descend into. *)
          f.fr_done <- q :: f.fr_done;
          f.fr_cur <- None
        end
        else begin
          let e = rd'.(k) in
          let clk = ref [||] in
          if dpor then begin
            (* Race analysis for the new event e against the events of
               the current path (frames.(m).fr_cur, m < k). [dep_w]
               marks direct dependence with e; e's vector clock — the
               join of its dependence predecessors' clocks — gives the
               transitive happens-before in O(path * threads) instead
               of O(path^2). *)
            let dep_w = Array.make k false in
            for m = 0 to k - 1 do
              match (fget m).fr_cur with
              | Some em ->
                  if dep em e then begin
                    dep_w.(m) <- true;
                    clk := clk_join !clk (fget m).fr_cur_clk;
                    clk := clk_bump !clk em.d_tid (m + 1)
                  end
              | None -> assert false
            done;
            let hb m =
              match (fget m).fr_cur with
              | Some em -> clk_get !clk em.d_tid > m
              | None -> false
            in
            (* blocked(i): some intermediate event both inherits from i
               and feeds e, so the race is already mediated and not a
               choice. Such an m has hb(m -> e), making [blk] — the
               join of the clocks of e's happens-before past — exactly
               the "reachable through an intermediate" set. *)
            let blk = ref [||] in
            for m = 0 to k - 1 do
              if hb m then blk := clk_join !blk (fget m).fr_cur_clk
            done;
            for i = 0 to k - 1 do
              let fi = fget i in
              let ei = match fi.fr_cur with Some e -> e | None -> assert false in
              if
                dep_w.(i)
                && ei.d_tid <> e.d_tid
                && clk_get !blk ei.d_tid <= i
              then begin
                (* Reversible race: node i must also try the other
                   side. *)
                let enabled_at tid = Array.exists (( = ) tid) fi.fr_enabled in
                (* Initials of the reordered segment: threads whose
                   first contribution feeds e, plus e's own thread. *)
                let cand = ref [] in
                for m = i + 1 to k - 1 do
                  if hb m then
                    match (fget m).fr_cur with
                    | Some em ->
                        if
                          enabled_at em.d_tid
                          && not (List.mem em.d_tid !cand)
                        then cand := em.d_tid :: !cand
                    | None -> ()
                done;
                if
                  enabled_at e.d_tid
                  && not (List.mem e.d_tid !cand)
                then cand := e.d_tid :: !cand;
                let add tid =
                  if
                    (not (List.mem tid fi.fr_backtrack))
                    && not (List.mem tid fi.fr_done)
                  then fi.fr_backtrack <- fi.fr_backtrack @ [ tid ]
                in
                match !cand with
                | [] -> Array.iter add fi.fr_enabled
                | cs -> add (List.fold_left min max_int cs)
              end
            done
          end;
          f.fr_cur <- Some e;
          f.fr_cur_clk <- !clk;
          let sleep' =
            if dpor then
              List.filter (fun (_, d) -> not (dep d e)) f.fr_sleep
            else []
          in
          let pushed =
            push_node ~path:path' ~depth:(k + 1) ~rd:rd' ~sleep:sleep'
          in
          if not pushed then begin
            (* Terminal or sleep-blocked child: completes immediately. *)
            f.fr_done <- q :: f.fr_done;
            if dpor then f.fr_sleep <- (q, e) :: f.fr_sleep;
            f.fr_cur <- None
          end
        end
  done;
  (match jw with Some w -> T11r_util.Journal.close w | None -> ());
  {
    runs = !runs;
    resumed_runs = !resumed;
    complete = !sp = 0;
    racy_schedules = !racy;
    races = List.rev !races;
    deadlock_schedules = !deadlocks;
    crash_schedules = !crashes;
    outcomes = Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes [];
    max_depth_seen = !max_depth;
  }

let pp fmt r =
  Format.fprintf fmt
    "%d schedule(s) explored%s%s; %d racy, %d deadlocking, %d crashing; depth <= %d@."
    r.runs
    (if r.resumed_runs > 0 then
       Printf.sprintf " (%d resumed from journal)" r.resumed_runs
     else "")
    (if r.complete then " (schedule space exhausted)" else " (budget hit)")
    r.racy_schedules r.deadlock_schedules r.crash_schedules r.max_depth_seen;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "  outcome %-12s %d@." k v)
    (List.sort compare r.outcomes);
  List.iter (fun race -> Format.fprintf fmt "  %a@." Report.pp race) r.races
