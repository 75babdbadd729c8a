(* Snapshot capture and resume on ms-queue, forked at half depth: prints
   the median host microseconds of a capturing run and of a resumed run,
   both under the guided strategy on a recycled arena and world. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  a.(Array.length a / 2)

let () =
  let build = (Option.get (T11r_litmus.Registry.find "ms-queue")).build in
  let arena = Interp.create_arena () in
  let world = World.create ~seed:1L () in
  let conf () =
    Conf.with_seeds
      (Conf.tsan11rec ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] }) ())
      3L 7922L
  in
  World.reset world ~seed:1L;
  let at = (Interp.run ~world ~arena (conf ()) (build ())).Interp.ticks / 2 in
  let time f =
    World.reset world ~seed:1L;
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, (Unix.gettimeofday () -. t0) *. 1e6)
  in
  let capture () = Interp.run_capturing ~world ~arena ~at (conf ()) (build ()) in
  let snap =
    match fst (time capture) with
    | _, Some s -> s
    | _, None -> failwith "ms-queue ended before the fork tick"
  in
  let capture_us = median (List.init 21 (fun _ -> snd (time capture))) in
  let resume_us =
    median
      (List.init 21 (fun _ ->
           snd (time (fun () -> Interp.run ~world ~arena ~resume:snap (conf ()) (build ())))))
  in
  Printf.printf "%.3f %.3f\n" capture_us resume_us
