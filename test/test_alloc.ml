(* Allocation gates for the routing baselines' and the model checker's
   hot paths.

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

(* The model checker rebuilds its world for every replay, so a rebuild
   must stay off the major heap: anything allocated there directly (an
   array over 256 words) is marked by every later major cycle along with
   the growing memo.  [Explorer.digest fx p []] is one rebuild plus a
   digest.  A full collection before and after makes the window exact:
   it settles the counters of earlier work, and words promoted out of
   the window count in both [major_words] and [promoted_words], so the
   difference is the direct major allocation.

   Measured (OCaml 5.1, 64-bit): 0 words for both protocols.  Before
   the histogram rows and the small delivered-uid table: 11,266 (a flat
   7,168-cell latency histogram and a 4,096-bucket table). *)
let direct_major_words proto =
  let fx = Mcheck.Fixture.aodv_loop_3 in
  let direct () =
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let before = direct () in
  ignore (Mcheck.Explorer.digest fx proto []);
  Gc.full_major ();
  direct () -. before

let rebuild_gate proto () =
  let w = direct_major_words proto in
  if w > 256. then
    Alcotest.failf "%.0f words allocated directly on the major heap, ceiling 256"
      w

(* Minor words per replayed event over an exhaustive aodv-loop-3 search
   at bound 12 (52,859 replayed events).  Measured: 725.4.  Re-selecting
   the prelude in every rebuild (a sprintf and substrings per hold test)
   gave 1,077.0; the ceiling sits between the two. *)
let explore_words_per_replayed_event () =
  let before = Gc.minor_words () in
  let r =
    Mcheck.Explorer.explore ~max_steps:12 ~stop_at_first:false
      Mcheck.Fixture.aodv_loop_3 Mcheck.Explorer.Aodv
  in
  let words = Gc.minor_words () -. before in
  let w =
    words /. float_of_int (max 1 r.Mcheck.Explorer.stats.replayed_events)
  in
  if w > 1000. then
    Alcotest.failf "%.1f minor words/replayed event, ceiling 1000" w

let () =
  Alcotest.run "alloc"
    [
      ( "fig5 minor words per event",
        [
          Alcotest.test_case "dsr" `Quick (gate Scenario.dsr ~ceiling:370.);
          Alcotest.test_case "olsr" `Quick (gate Scenario.olsr ~ceiling:385.);
        ] );
      ( "mcheck",
        [
          Alcotest.test_case "aodv rebuild off the major heap" `Quick
            (rebuild_gate Mcheck.Explorer.Aodv);
          Alcotest.test_case "ldr rebuild off the major heap" `Quick
            (rebuild_gate Mcheck.Explorer.Ldr);
          Alcotest.test_case "minor words per replayed event" `Quick
            explore_words_per_replayed_event;
        ] );
    ]
