(* Golden digests, checked in under fixtures/golden/.

   - Write path: one small, fixed LDR scenario is run with the JSONL
     trace, the pcap capture and the invariant monitor on; the MD5 of
     every file it writes is pinned.  Any change to the bytes a trace
     or capture holds shows up here, whichever writer produced it.
   - Outcomes: a corpus of six protocols x four scenario families; the
     MD5 of a canonical rendering of each run's full outcome (summary,
     event count, MAC counters, monitor verdict, every Metrics counter,
     byte count and drop reason) is pinned.  Floats print with %h, so a
     one-ULP drift changes the digest.  A refactor that shifts
     behaviour anywhere in the stack shows up as a digest change.
   - Lockfile: each golden file names exactly the runs the suite
     produces, so a line no run checks any more is flagged, not kept
     silently. *)

open Sim
open Experiment

let write_path_golden = "../fixtures/golden/write_path.md5"
let outcomes_golden = "../fixtures/golden/outcomes.md5"

let scenario =
  {
    Scenario.label = "golden-write-path";
    num_nodes = 20;
    terrain = Geom.Terrain.create ~width:800. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 1.;
    speed_max = 10.;
    pause = Time.sec 0.;
    duration = Time.sec 10.;
    traffic =
      {
        Traffic.num_flows = 5;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Time.sec 10.;
        startup_window = Time.sec 2.;
      };
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed = 11;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

(* "<md5 hex>  <name>" per line; blank lines and '#' comments ignored. *)
let load_golden path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> Alcotest.failf "malformed golden line: %S" line
           | Some i ->
               Some
                 ( String.trim
                     (String.sub line i (String.length line - i)),
                   String.sub line 0 i ))

(* Compare [(name, md5 hex)] pairs against a golden file.  Every
   mismatch is reported at once: the "<md5>  <name>" line the golden
   file would need, then the digest it holds. *)
let check_digests ~golden actual =
  let expected = load_golden golden in
  let bad =
    List.filter (fun (name, d) -> List.assoc_opt name expected <> Some d) actual
  in
  if bad <> [] then
    Alcotest.failf "%d of %d digests differ from %s:\n%s" (List.length bad)
      (List.length actual) golden
      (String.concat "\n"
         (List.map
            (fun (name, d) ->
              Printf.sprintf "%s  %s  (golden %s)" d name
                (Option.value ~default:"none" (List.assoc_opt name expected)))
            bad))

(* Digest and delete each file, then compare: no output is left
   behind. *)
let check_files files =
  check_digests ~golden:write_path_golden
    (List.map
       (fun (name, path) ->
         let d = Digest.to_hex (Digest.file path) in
         Sys.remove path;
         (name, d))
       files)

let trace_name = "ldr-classic.jsonl"
let pcap_name = "ldr-classic.pcap"

let classic () =
  let trace = Filename.temp_file "golden" ".jsonl" in
  let pcap = Filename.temp_file "golden" ".pcap" in
  let o = Runner.run ~monitor:true ~trace_out:trace ~pcap_out:pcap scenario in
  check_files [ (trace_name, trace); (pcap_name, pcap) ];
  Alcotest.(check int) "monitor silent" 0 o.Runner.invariant_violations

(* --- Outcome corpus --------------------------------------------------- *)

(* A small world in the shape of the paper's Fig-5 point: 24 nodes on
   1200 x 300 m for 15 s, four 4-pkt/s flows, waypoint at pause 0. *)
let world ~protocol =
  {
    Scenario.label = "golden-outcome";
    num_nodes = 24;
    terrain = Geom.Terrain.create ~width:1200. ~height:300.;
    placement = Scenario.Uniform;
    speed_min = 1.;
    speed_max = 10.;
    pause = Time.sec 0.;
    duration = Time.sec 15.;
    traffic =
      {
        Traffic.num_flows = 4;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Time.sec 15.;
        startup_window = Time.sec 2.;
      };
    protocol;
    net = Net.Params.default;
    seed = 5;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

let families =
  [
    ("fig5", Fun.id);
    ( "manhattan+churn",
      fun sc ->
        {
          sc with
          Scenario.mobility = Scenario.Manhattan { spacing = 150. };
          churn =
            Some
              {
                Scenario.churn_frac = 0.4;
                crash_frac = 0.5;
                down_min = Time.sec 3.;
                down_max = Time.sec 6.;
                churn_start = Time.sec 3.;
                churn_stop = Time.sec 10.;
              };
        } );
    ( "partition-heal",
      fun sc ->
        {
          sc with
          Scenario.partition =
            Some
              {
                Scenario.part_at = Time.sec 4.;
                part_heal = Time.sec 8.;
                part_x_frac = 0.5;
              };
        } );
    ( "shadowing",
      fun sc -> { sc with Scenario.shadowing = Some Scenario.default_shadowing }
    );
  ]

let protocols =
  [
    ("ldr", Scenario.ldr, true);
    ("aodv", Scenario.aodv, false);
    ("dsr", Scenario.dsr, false);
    ("olsr", Scenario.olsr, false);
    ("ldr-agg", Scenario.ldr_agg, true);
    ("aodv-agg", Scenario.aodv_agg, false);
  ]

(* The canonical rendering of everything a run decides, one field per
   line; floats in hex so no rounding hides a drift. *)
let render (o : Runner.outcome) =
  let m = o.Runner.metrics and s = o.Runner.summary in
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  let table name kvs =
    List.iter (fun (k, v) -> line "%s %s %d" name k v) kvs
  in
  line "summary %h %h %h %h %h %h %h %h" s.Metrics.s_delivery_ratio
    s.s_latency_ms s.s_network_load s.s_byte_load s.s_rreq_load s.s_rrep_init
    s.s_rrep_recv s.s_mean_dest_seqno;
  line "events %d" o.Runner.events_processed;
  line "transmissions %d" o.Runner.transmissions;
  line "mac_queue_drops %d" o.Runner.mac_queue_drops;
  line "mac_unicast_failures %d" o.Runner.mac_unicast_failures;
  line "invariant_violations %d" o.Runner.invariant_violations;
  line "originated %d" (Metrics.originated m);
  line "delivered %d" (Metrics.delivered m);
  line "duplicates %d" (Metrics.duplicates m);
  line "median_latency_ms %h" (Metrics.median_latency_ms m);
  line "p95_latency_ms %h" (Metrics.p95_latency_ms m);
  line "mean_hops %h" (Metrics.mean_hops m);
  table "control" (Metrics.control_by_kind m);
  table "control_bytes" (Metrics.control_bytes_by_kind m);
  table "drops" (Metrics.drops_by_reason m);
  line "loop_violations %d" (Metrics.loop_violations m);
  line "data_bytes %d" (Metrics.data_bytes m);
  line "ack_bytes %d" (Metrics.ack_bytes m);
  Buffer.contents b

(* The trailing "/k1" is part of every pinned name (an earlier corpus
   varied a count there); keeping it keeps the lines unchanged. *)
let outcome_name pname fname = Printf.sprintf "%s/%s/k1" pname fname

let outcome_digests (pname, protocol, monitor) =
  List.map
    (fun (fname, family) ->
      let name = outcome_name pname fname in
      let o = Runner.run ~monitor (family (world ~protocol)) in
      if monitor then
        Alcotest.(check int)
          (name ^ " monitor silent")
          0 o.Runner.invariant_violations;
      (name, Digest.to_hex (Digest.string (render o))))
    families

let outcomes proto () =
  check_digests ~golden:outcomes_golden (outcome_digests proto)

(* --- Lockfile names ----------------------------------------------------- *)

(* A golden file must name each run the suite checks exactly once, and
   nothing else: [check_digests] only looks up produced names, so a
   line no run produces would otherwise sit there unchecked. *)
let check_names ~golden produced =
  let held = List.map fst (load_golden golden) in
  let produced = List.sort_uniq String.compare produced in
  let stale = List.filter (fun n -> not (List.mem n produced)) held in
  let missing = List.filter (fun n -> not (List.mem n held)) produced in
  let dup =
    List.filter
      (fun n -> List.length (List.filter (String.equal n) held) > 1)
      produced
  in
  let show what names =
    List.map (fun n -> Printf.sprintf "  %s: %s" what n) names
  in
  if stale <> [] || missing <> [] || dup <> [] then
    Alcotest.failf "%s does not name exactly the runs the suite checks:\n%s"
      golden
      (String.concat "\n"
         (show "stale (no run produces it)" stale
         @ show "missing" missing
         @ show "duplicated" dup))

let lockfile_names () =
  check_names ~golden:write_path_golden [ trace_name; pcap_name ];
  check_names ~golden:outcomes_golden
    (List.concat_map
       (fun (pname, _, _) ->
         List.map (fun (fname, _) -> outcome_name pname fname) families)
       protocols)

let () =
  Alcotest.run "golden"
    [
      ( "write path",
        [
          Alcotest.test_case "classic trace and pcap" `Quick classic;
        ] );
      ( "outcomes",
        List.map
          (fun ((name, _, _) as p) ->
            Alcotest.test_case name `Quick (outcomes p))
          protocols );
      ( "lockfile",
        [ Alcotest.test_case "names match the runs" `Quick lockfile_names ] );
    ]
