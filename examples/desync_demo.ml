(* §4.4/§5.5: the limits of sparsity, and the knobs that move them.

   - htop-like reads /proc: the default policy leaves file reads
     unrecorded, so replay shows different numbers (soft desync);
     extending the policy fixes it.
   - sqlite-like branches on pointer values: memory layout is never
     recorded, so replay desynchronises; the rr model (which enforces
     layout) and the deterministic-allocator workaround both replay it
     faithfully.

   Run with: dune exec examples/desync_demo.exe *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Policy = Tsan11rec.Policy
module World = T11r_env.World
open T11r_apps

let describe label (r : Interp.result) =
  Fmt.pr "  %-28s %-12s %s@." label
    (Format.asprintf "%a" Interp.pp_outcome r.outcome)
    (match r.outcome with
    | Interp.Completed when r.soft_desync -> "SOFT DESYNC (output differs)"
    | Interp.Completed -> "synchronised"
    | Interp.Hard_desync _ -> "HARD DESYNC (constraint violated)"
    | _ -> "")

(* Every demo goes under one fresh directory, removed on exit, so
   concurrent runs never share a demo and a run leaves nothing behind. *)
let () =
  T11r_util.Tmp.with_dir ~prefix:"desync_demo" @@ fun root ->
  let tmp name = Filename.concat root name in
  Fmt.pr "== htop-like: /proc sampling and per-application policies ==@.";
  let htop policy =
    let dir = tmp "htop-demo" in
    let mk seed =
      let w = World.create ~seed () in
      Htop_like.setup_world w;
      w
    in
    let rc =
      Conf.with_policy
        (Conf.with_seeds
           (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
           1L 2L)
        policy
    in
    let r1 = Interp.run ~world:(mk 5L) rc (Htop_like.program ()) in
    let pc =
      Conf.with_policy
        (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) ())
        policy
    in
    let r2 = Interp.run ~world:(mk 60L) pc (Htop_like.program ()) in
    (r1, r2)
  in
  let r1, r2 = htop Policy.default in
  Fmt.pr "recorded samples: %s@." r1.output;
  Fmt.pr "replayed samples: %s@." r2.output;
  describe "default policy" r2;
  let _, r2' = htop Policy.with_proc in
  describe "policy extended to /proc" r2';

  Fmt.pr "@.== sqlite-like: memory-layout nondeterminism (§5.5) ==@.";
  let dir = tmp "sqlite-demo" in
  (* tsan11rec, sparse: layout is not recorded. *)
  let rc =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      1L 2L
  in
  let r1 =
    Interp.run ~world:(World.create ~seed:123L ()) rc (Sqlite_like.program ())
  in
  Fmt.pr "recorded walk: %s@." r1.output;
  let pc = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 =
    Interp.run ~world:(World.create ~seed:321L ()) pc (Sqlite_like.program ())
  in
  Fmt.pr "replayed walk: %s@." r2.output;
  describe "tsan11rec (sparse)" r2;

  (* The rr model enforces layout: its worlds allocate
     deterministically, so addresses coincide. *)
  let dir_rr = tmp "sqlite-rr-demo" in
  let r3 =
    Interp.run
      ~world:(World.create ~seed:123L ~deterministic_alloc:true ())
      (Conf.with_seeds (Conf.with_mode Conf.rr_model (Conf.Record dir_rr)) 1L 2L)
      (Sqlite_like.program ())
  in
  ignore r3;
  let r4 =
    Interp.run
      ~world:(World.create ~seed:321L ~deterministic_alloc:true ())
      (Conf.with_mode Conf.rr_model (Conf.Replay dir_rr))
      (Sqlite_like.program ())
  in
  describe "rr model (enforces layout)" r4;

  (* The application-side workaround: a deterministic allocator. *)
  let dir_da = tmp "sqlite-da-demo" in
  let mk seed = World.create ~seed ~deterministic_alloc:true () in
  let r5 =
    Interp.run ~world:(mk 123L)
      (Conf.with_seeds
         (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir_da) ())
         1L 2L)
      (Sqlite_like.program ())
  in
  ignore r5;
  let r6 =
    Interp.run ~world:(mk 321L)
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir_da) ())
      (Sqlite_like.program ())
  in
  describe "tsan11rec + deterministic alloc" r6;
  Fmt.pr
    "@.sparsity is a trade: what you refuse to record, you must either\n\
     not depend on, or pin down by other means.@."
