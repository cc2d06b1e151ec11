(* Scenario families under the LDR invariant monitor: random waypoint,
   Manhattan grid, RPGM groups, log-normal shadowing, churn (alone and
   with Manhattan motion) and partition-then-heal, 300 nodes for 20 s
   each.  Churn's crash-rebooted sequence numbers are the loop stressor
   of van Glabbeek et al. (arXiv:1512.08891); LDR must stay silent
   through every family. *)

open Experiment
module Time = Sim.Time

let nodes = 300
let duration = 20.

(* ~15,000 m^2/node (5:1 aspect) puts the mean decode-range degree
   around 13, comfortably above the continuum-percolation threshold, so
   the network is connected, delivery figures are meaningful, and the
   partition wall actually severs live paths (at sparse density the
   network is already fragmented and a wall through it changes
   nothing). *)
let area_per_node = 15_000.

let scale_families ~nodes ~duration =
  let height = sqrt (float_of_int nodes *. area_per_node /. 5.) in
  let terrain = Geom.Terrain.create ~width:(5. *. height) ~height in
  let base =
    {
      (Scenario.paper_50 Scenario.ldr) with
      Scenario.label = Printf.sprintf "scale-%dn" nodes;
      num_nodes = nodes;
      terrain;
      duration = Time.sec duration;
      net = { Net.Params.default with Net.Params.cs_range_m = 350. };
      traffic = { Traffic.default_config with Traffic.num_flows = 10 };
    }
  in
  let manhattan = Scenario.Manhattan { spacing = 200. } in
  let rpgm =
    Scenario.Rpgm { groups = Stdlib.max 2 (nodes / 50); radius = 100. }
  in
  let partition =
    {
      Scenario.part_at = Time.sec (duration /. 4.);
      part_heal = Time.sec (duration *. 3. /. 4.);
      part_x_frac = 0.5;
    }
  in
  [
    ("waypoint", base);
    ("manhattan", Scenario.with_mobility manhattan base);
    ("rpgm", Scenario.with_mobility rpgm base);
    ("waypoint+shadow",
     Scenario.with_shadowing (Some Scenario.default_shadowing) base);
    ("waypoint+churn",
     Scenario.with_churn (Some Scenario.default_churn) base);
    ("manhattan+churn",
     base
     |> Scenario.with_mobility manhattan
     |> Scenario.with_churn (Some Scenario.default_churn));
    ("partition-heal", Scenario.with_partition (Some partition) base);
  ]

let family_silent sc () =
  let o = Runner.run ~monitor:true sc in
  Alcotest.check Alcotest.int "invariant violations" 0
    o.Runner.invariant_violations;
  Alcotest.check Alcotest.bool "processed events" true
    (o.Runner.events_processed > 0)

let () =
  Alcotest.run "scale"
    [
      ( "families",
        List.map
          (fun (name, sc) ->
            Alcotest.test_case name `Slow (family_silent sc))
          (scale_families ~nodes ~duration) );
    ]
