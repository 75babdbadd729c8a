(* The paper's Figure 2 scenario end to end: a client that polls a
   server, processes requests under a mutex, and shuts down on SIGTERM.

   Demonstrates what the sparse demo captures: the thread interleaving
   (QUEUE), the poll/recv/send results (SYSCALL), the shutdown signal
   (SIGNAL) — and that replay then works "without having to connect to
   a real server" (§2): we replay against a server that sends garbage,
   and the session still comes out identical.

   Run with: dune exec examples/client_server.exe *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module World = T11r_env.World
module Fig2 = T11r_litmus.Fig2_client

let () =
  let cfg = { Fig2.default_config with requests = 8 } in

  Fmt.pr "== record: client connected to the real server ==@.";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fig2-demo" in
  let world = World.create ~seed:2024L () in
  let fd = Fig2.setup_world cfg world in
  let conf =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Record dir) ())
      11L 13L
  in
  let r1 = Interp.run ~world conf (Fig2.program ~cfg ~server_fd:fd ()) in
  Fmt.pr "outcome: %a@." Interp.pp_outcome r1.outcome;
  Fmt.pr "session: %s@." r1.output;
  let demo = Option.get r1.demo in
  Fmt.pr "demo: %a@." Demo.pp demo;
  Fmt.pr "  SIGNAL entries: %d (the SIGTERM that ended the session)@."
    (List.length demo.signals);
  Fmt.pr "  SYSCALL entries: %d (every poll/recv/send result)@."
    (List.length demo.syscalls);

  Fmt.pr "@.== replay: server now sends completely different data ==@.";
  (* A hostile world: the server sends garbage on a different schedule
     and no signal is ever delivered. Replay doesn't care: recorded
     syscalls are served from the demo, the signal is re-raised
     synchronously at its recorded tick. *)
  let world2 = World.create ~seed:666L () in
  let garbage_peer =
    {
      World.on_receive = (fun _ _ -> []);
      spontaneous =
        (fun _ i ->
          if i < 50 then Some (10, Bytes.of_string "GARBAGE") else None);
    }
  in
  let fd2 = World.connect world2 garbage_peer in
  let conf2 = Conf.tsan11rec ~strategy:Conf.Queue ~mode:(Conf.Replay dir) () in
  let r2 = Interp.run ~world:world2 conf2 (Fig2.program ~cfg ~server_fd:fd2 ()) in
  Fmt.pr "outcome: %a@." Interp.pp_outcome r2.outcome;
  Fmt.pr "session: %s@." r2.output;
  Fmt.pr "synchronised: %b@." (not r2.soft_desync);
  assert (r1.output = r2.output);
  Fmt.pr "@.replayed session is byte-identical to the recording.@."
