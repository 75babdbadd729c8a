(* A miniature Table 1: run the CDSchecker litmus benchmarks under
   uncontrolled tsan11 and both tsan11rec strategies, and watch which
   bugs each scheduler can pry out (§5.1).

   Run with: dune exec examples/race_hunt.exe *)

module Conf = Tsan11rec.Conf
module Campaign = T11r_harness.Campaign
open T11r_util

let () =
  let n = 200 in
  let table =
    Table.create ~title:(Printf.sprintf "Race rate over %d runs" n)
      ~headers:[ "benchmark"; "tsan11"; "tsan11rec rnd"; "tsan11rec queue" ]
  in
  let configs =
    [
      Conf.tsan11;
      Conf.tsan11rec ~strategy:Conf.Random ();
      Conf.tsan11rec ~strategy:Conf.Queue ();
    ]
  in
  List.iter
    (fun (e : T11r_litmus.Registry.entry) ->
      let cells =
        List.map
          (fun conf ->
            let spec =
              Campaign.spec ~label:conf.Conf.name ~base_conf:conf e.build
            in
            let c = Campaign.run spec ~n [] in
            Printf.sprintf "%.1f%%" c.Campaign.race_rate)
          configs
      in
      Table.add_row table (e.name :: cells))
    T11r_litmus.Registry.all;
  Table.print table;
  print_endline
    "The random strategy exposes the barrier/rwlock/mcs/mpmc bugs that the\n\
     OS scheduler essentially never hits; chase-lev-deque needs the one\n\
     long owner-run schedule that arrival order produces and uniform\n\
     random almost never does; ms-queue races unconditionally."
