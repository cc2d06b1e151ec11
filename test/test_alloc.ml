(* Allocation gate for the routing baselines' hot paths.

   Short runs at the paper's Fig-5 shape (100 nodes on 2200 x 600 m, 30
   CBR flows, waypoint at pause 0) for DSR and OLSR, 8 s of simulated
   time at a fixed seed.  Minor words allocated per simulator event are
   exact for fixed code and seed, so a ceiling on them is a same-every-run
   gate: it trips when a per-packet list rebuild (DSR's path cache) or a
   per-recompute Set/Map rebuild (OLSR's routes and MPRs) creeps back in.

   Measured at this seed (OCaml 5.1, 64-bit):
     dsr   245.0 words/event (the list-based path cache: 803.5)
     olsr  256.4 words/event (the Set/Map routes and MPRs: 1,176.0)
   Each ceiling is about 1.5x the measured figure. *)

open Experiment

let fig5 protocol =
  Scenario.paper_100 protocol
  |> Scenario.with_flows 30
  |> Scenario.with_pause Sim.Time.zero
  |> Scenario.with_duration (Sim.Time.sec 8.)
  |> Scenario.with_seed 3

let words_per_event protocol =
  let sc = fig5 protocol in
  let before = Gc.minor_words () in
  let o = Runner.run sc in
  let words = Gc.minor_words () -. before in
  words /. float_of_int (max 1 o.Runner.events_processed)

let gate protocol ~ceiling () =
  let w = words_per_event protocol in
  if w > ceiling then
    Alcotest.failf "%.1f minor words/event, ceiling %.0f"
      w ceiling

let () =
  Alcotest.run "alloc"
    [
      ( "fig5 minor words per event",
        [
          Alcotest.test_case "dsr" `Quick (gate Scenario.dsr ~ceiling:370.);
          Alcotest.test_case "olsr" `Quick (gate Scenario.olsr ~ceiling:385.);
        ] );
    ]
