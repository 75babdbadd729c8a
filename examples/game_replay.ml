(* §5.4: recording and replaying games whose display traffic cannot be
   captured, and reproducing the historical Zandronum map-change bug.

   1. The games policy *ignores* ioctl: the display driver runs live in
      both record and replay (rr refuses these applications outright).
   2. We "play" multiplayer sessions while recording until the buggy
      client-server interaction fires, then replay the demo to get the
      crash back deterministically.

   Run with: dune exec examples/game_replay.exe *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Policy = Tsan11rec.Policy
module World = T11r_env.World
open T11r_apps

let games_conf ?mode strategy =
  Conf.with_policy (Conf.tsan11rec ~strategy ?mode ()) Policy.games

let () =
  Fmt.pr "== playability: QuakeSpasm vs Zandronum (Table 5 / §5.4) ==@.";
  let show name p conf =
    let r = Interp.run ~world:(World.create ~seed:3L ()) conf (Game.program ~p ()) in
    Fmt.pr "  %-11s %-18s %6.1f fps  %s@." name conf.Conf.name
      (Game.mean_fps r.output)
      (match r.outcome with
      | Interp.Completed ->
          if Game.playable r.output then "playable" else "UNPLAYABLE"
      | o -> Format.asprintf "%a" Interp.pp_outcome o)
  in
  let qs = Game.quakespasm ~frames:60 ~fps_cap:None () in
  let za = Game.zandronum ~frames:60 () in
  show "quakespasm" qs (Conf.with_seeds (games_conf Conf.Random) 1L 2L);
  show "quakespasm" qs (Conf.with_seeds (games_conf Conf.Queue) 1L 2L);
  show "zandronum" za (Conf.with_seeds (games_conf Conf.Random) 1L 2L);
  show "zandronum" za (Conf.with_seeds (games_conf Conf.Queue) 1L 2L);
  show "zandronum" za (Conf.with_seeds Conf.rr_model 1L 2L);

  Fmt.pr "@.== hunting the Zandronum map-change bug while recording ==@.";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "zandronum-demo" in
  let record session_seed =
    let world = World.create ~seed:session_seed () in
    let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
    let conf =
      Conf.with_seeds (games_conf ~mode:(Conf.Record dir) Conf.Queue) 5L 6L
    in
    Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ())
  in
  let rec hunt i =
    if i > 100 then failwith "bug never fired"
    else begin
      let r = record (Int64.of_int (i * 313)) in
      match r.Interp.outcome with
      | Interp.Crashed (_, msg) ->
          Fmt.pr "session %d crashed: %s@." i msg;
          (i, msg, r)
      | _ ->
          Fmt.pr "session %d: clean (%d packets applied)@." i
            (String.length r.output);
          hunt (i + 1)
    end
  in
  let _, msg, r1 = hunt 1 in
  Fmt.pr "demo: %a@." Tsan11rec.Demo.pp (Option.get r1.demo);

  Fmt.pr "@.== replaying the crashing session ==@.";
  let world = World.create ~seed:777L () in
  let fd = Zandronum_bug.setup_world Zandronum_bug.default_config world in
  let conf = games_conf ~mode:(Conf.Replay dir) Conf.Queue in
  let r2 = Interp.run ~world conf (Zandronum_bug.program ~server_fd:fd ()) in
  (match r2.Interp.outcome with
  | Interp.Crashed (_, msg2) ->
      assert (msg = msg2);
      Fmt.pr "replay reproduced the crash: %s@." msg2
  | o -> Fmt.pr "unexpected replay outcome: %a@." Interp.pp_outcome o);
  Fmt.pr "@.the bug can now be replayed as many times as debugging needs.@."
