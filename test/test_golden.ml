(* Golden byte digests of the write path.  One small, fixed LDR
   scenario is run with the JSONL trace, the pcap capture and the
   invariant monitor on, classic and at four shards; the MD5 of every
   file it writes must equal the digest checked in under
   fixtures/golden/.  Any change to the bytes a trace or capture holds
   shows up here, whichever writer produced it. *)

open Sim
open Experiment

let golden_path = "../fixtures/golden/write_path.md5"

let scenario ~shards =
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
    naive_channel = false;
    heap_scheduler = false;
    shards;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
    soa = false;
  }

(* "<md5 hex>  <name>" per line; blank lines and '#' comments ignored. *)
let load_golden () =
  In_channel.with_open_text golden_path In_channel.input_all
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

(* Digest and delete each file, then compare: a mismatch reports every
   actual digest, and no output is left behind. *)
let check_digests files =
  let golden = load_golden () in
  let actual =
    List.map
      (fun (name, path) ->
        let d = Digest.to_hex (Digest.file path) in
        Sys.remove path;
        (name, d))
      files
  in
  List.iter
    (fun (name, d) ->
      match List.assoc_opt name golden with
      | Some expected when expected = d -> ()
      | Some expected ->
          Alcotest.failf "%s: digest %s, golden %s" name d expected
      | None -> Alcotest.failf "%s: no golden digest (actual %s)" name d)
    actual

let classic () =
  let trace = Filename.temp_file "golden" ".jsonl" in
  let pcap = Filename.temp_file "golden" ".pcap" in
  let o =
    Runner.run ~monitor:true ~trace_out:trace ~pcap_out:pcap
      (scenario ~shards:1)
  in
  check_digests [ ("ldr-classic.jsonl", trace); ("ldr-classic.pcap", pcap) ];
  Alcotest.(check int) "monitor silent" 0 o.Runner.invariant_violations

let sharded () =
  let trace = Filename.temp_file "golden" ".jsonl" in
  let o = Runner.run ~monitor:true ~trace_out:trace (scenario ~shards:4) in
  check_digests [ ("ldr-shards4.jsonl", trace) ];
  Alcotest.(check int) "monitor silent" 0 o.Runner.invariant_violations

let () =
  Alcotest.run "golden"
    [
      ( "write path",
        [
          Alcotest.test_case "classic trace and pcap" `Quick classic;
          Alcotest.test_case "merged trace at 4 shards" `Quick sharded;
        ] );
    ]
