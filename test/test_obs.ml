(* Observability subsystem: event bus determinism, the continuous
   invariant monitor (clean runs and seeded corruption), and the JSONL
   round-trip through the trace analyzer. *)

open Sim

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Experiment

let scenario ?(seed = 7) ?(speed_max = 0.) ?(duration = 20.) ?(flows = 2)
    ?(nodes = 10) () =
  {
    Scenario.label = "obs-test";
    num_nodes = nodes;
    terrain = Geom.Terrain.create ~width:500. ~height:400.;
    placement = Scenario.Uniform;
    speed_min = (if speed_max > 0. then 1. else 0.);
    speed_max;
    pause = Time.sec 0.;
    duration = Time.sec duration;
    traffic =
      {
        Traffic.num_flows = flows;
        packets_per_sec = 4.;
        payload_bytes = 512;
        mean_flow_duration = Time.sec duration;
        startup_window = Time.sec 2.;
      };
    protocol = Scenario.ldr;
    net = Net.Params.default;
    seed;
    audit_loops = false;
    mobility = Scenario.Waypoint;
    shadowing = None;
    churn = None;
    partition = None;
  }

(* Sequence-number packing must preserve the lexicographic (stamp,
   counter) order — the monitor and the analyzer compare packed values
   only. *)
let seqnum_pack_order () =
  let open Packets in
  let cases =
    [
      (Seqnum.{ stamp = 0; counter = 0 }, Seqnum.{ stamp = 0; counter = 1 });
      (Seqnum.{ stamp = 0; counter = 999 }, Seqnum.{ stamp = 1; counter = 0 });
      (Seqnum.{ stamp = 3; counter = 7 }, Seqnum.{ stamp = 3; counter = 8 });
      ( Seqnum.{ stamp = 5; counter = 1 lsl 29 },
        Seqnum.{ stamp = 6; counter = 0 } );
    ]
  in
  List.iter
    (fun (lo, hi) ->
      checkb "pack preserves order" true (Seqnum.pack lo < Seqnum.pack hi);
      checkb "compare agrees" true Seqnum.(hi > lo))
    cases

(* The null-sink differential: attaching a sink that does nothing, or
   the JSONL writer streaming every event to disk, must not change the
   simulation at all — emission touches no RNG and no scheduling. *)
let null_sink_differential () =
  let plain = Runner.run (scenario ()) in
  let counted = ref 0 in
  let bus = Obs.Bus.create () in
  Obs.Bus.add_sink bus (fun _ -> incr counted);
  let sunk = Runner.run ~obs:bus (scenario ()) in
  let trace_file = Filename.temp_file "obs_null" ".jsonl" in
  let traced =
    Fun.protect
      ~finally:(fun () -> Sys.remove trace_file)
      (fun () -> Runner.run ~trace_out:trace_file (scenario ()))
  in
  List.iter
    (fun (name, o) ->
      checki (name ^ ": events processed equal")
        plain.Runner.events_processed o.Runner.events_processed;
      checki (name ^ ": transmissions equal") plain.Runner.transmissions
        o.Runner.transmissions;
      checki (name ^ ": delivered equal")
        (Metrics.delivered plain.Runner.metrics)
        (Metrics.delivered o.Runner.metrics))
    [ ("null sink", sunk); ("jsonl", traced) ];
  checkb "bus saw events" true (!counted > 100)

(* A healthy LDR run must never trip the monitor (Theorem 1). *)
let monitor_clean_run () =
  let outcome =
    Runner.run ~monitor:true (scenario ~speed_max:10. ~duration:30. ())
  in
  checki "no violations in clean run" 0 outcome.Runner.invariant_violations;
  checkb "delivered some" true (Metrics.delivered outcome.Runner.metrics > 0)

(* Seeded corruption: a forged newer-number RREP must trip the monitor
   at the offending write, and the analyzer must reconstruct the
   monitor's exact ring dump from the JSONL trace. *)
let monitor_catches_stale_seqno () =
  let trace_file = Filename.temp_file "obs_test" ".jsonl" in
  let injection = ref None in
  let first_viol = ref None in
  let window = ref [] in
  let viols = ref 0 in
  let outcome =
    Runner.run ~trace_out:trace_file
      ~prepare:(fun sim ->
        let m = Runner.attach_monitor ~quiet:true sim in
        Obs.Bus.add_sink sim.Runner.bus (fun ev ->
            if ev.Obs.Event.kind = Obs.Event.Violation && !first_viol = None
            then first_viol := Some (ev.Obs.Event.node, ev.Obs.Event.a));
        injection := Some (Fault.stale_seqno sim ~at:(Time.sec 10.));
        sim.Runner.cleanup <-
          (fun () ->
            viols := Obs.Monitor.violations m;
            window := Obs.Monitor.last_window m)
          :: sim.Runner.cleanup)
      (scenario ())
  in
  let inj = Option.get !injection in
  checkb "fault injected" true !(inj.Fault.injected);
  checkb "monitor fired" true (!viols >= 1);
  (* The injection record names the corrupted write: the first violation
     must be at the victim node, for the forged destination. *)
  (match !first_viol with
  | None -> Alcotest.fail "no violation event on the bus"
  | Some (node, dst) ->
      checki "violation at the injection victim" inj.Fault.victim node;
      checki "violation for the forged destination" inj.Fault.dst dst);
  checki "outcome reports violations" !viols
    outcome.Runner.invariant_violations;
  checkb "window non-empty" true (!window <> []);
  (match Obs.Reader.load trace_file with
  | Error e -> Alcotest.fail e
  | Ok t ->
      checki "trace records the violations" !viols (Obs.Reader.violations t);
      (match Obs.Reader.violation_window t (!viols - 1) with
      | None -> Alcotest.fail "violation window missing from trace"
      | Some (_line, lines) ->
          Alcotest.(check (list string))
            "analyzer window matches live ring dump" !window lines));
  Sys.remove trace_file

(* JSONL round-trip: every event written must come back, with labels
   re-interned so rendering matches the live pretty-printer. *)
let jsonl_roundtrip () =
  let trace_file = Filename.temp_file "obs_rt" ".jsonl" in
  let counted = ref 0 in
  let bus = Obs.Bus.create () in
  let oc = open_out trace_file in
  Obs.Bus.add_sink bus (Obs.Jsonl.sink bus oc);
  Obs.Bus.add_sink bus (fun _ -> incr counted);
  ignore (Runner.run ~obs:bus (scenario ~duration:10. ()));
  close_out oc;
  (match Obs.Reader.load trace_file with
  | Error e -> Alcotest.fail e
  | Ok t -> checki "all events round-trip" !counted (Obs.Reader.length t));
  Sys.remove trace_file

(* ---- JSONL writer against the Printf oracle --------------------------- *)

(* The rendering the sink must reproduce byte for byte. *)
let printf_line bus (ev : Obs.Event.t) =
  let b = Buffer.create 128 in
  Printf.bprintf b "{\"t\":%d,\"n\":%d,\"k\":\"%s\"" (ev.time :> int) ev.node
    (Obs.Event.kind_name ev.kind);
  if Obs.Event.has_label ev.kind && ev.a >= 0 then
    Printf.bprintf b ",\"s\":\"%s\"" (Obs.Bus.name bus ev.a);
  Printf.bprintf b ",\"a\":%d,\"b\":%d,\"c\":%d,\"d\":%d,\"e\":%d,\"f\":%d}\n"
    ev.a ev.b ev.c ev.d ev.e ev.f;
  Buffer.contents b

let all_kinds =
  Obs.Event.
    [
      Tx;
      Rx;
      Collision;
      Ifq_drop;
      Deliver;
      Data_drop;
      Link_failure;
      Proto;
      Table_write;
      Violation;
      Span;
    ]

let labels = [ "DATA"; "RREQ"; "no-route"; "buffer-timeout"; "rreq-retry" ]

let gen_field =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ 0; -1; min_int; max_int; min_int + 1; max_int - 1 ]);
        (3, int_range (-20) 20);
        (2, map (fun e -> 1 lsl e) (int_range 0 61));
        (2, int);
      ])

let gen_event =
  QCheck.Gen.(
    map
      (fun ((kind, time, node), (a, b, c), (d, e, f)) ->
        let ev = Obs.Event.make () in
        ev.kind <- kind;
        ev.time <- Time.unsafe_of_ns time;
        ev.node <- node;
        ev.a <- a;
        ev.b <- b;
        ev.c <- c;
        ev.d <- d;
        ev.e <- e;
        ev.f <- f;
        ev)
      (triple
         (triple (oneofl all_kinds) gen_field gen_field)
         (* Labelled kinds read [a] as an interned id: cover the ids in
            the table, one past it, and negative values. *)
         (triple
            (frequency
               [ (3, int_range (-2) (List.length labels)); (1, gen_field) ])
            gen_field gen_field)
         (triple gen_field gen_field gen_field)))

let pp_event (ev : Obs.Event.t) =
  Printf.sprintf "%s t=%d n=%d a=%d b=%d c=%d d=%d e=%d f=%d"
    (Obs.Event.kind_name ev.kind)
    (ev.time :> int)
    ev.node ev.a ev.b ev.c ev.d ev.e ev.f

let fields_read_back bus (ev : Obs.Event.t) line =
  let open Obs.Jsonl in
  match parse_line (String.sub line 0 (String.length line - 1)) with
  | None -> false
  | Some fields ->
      let int k v = List.assoc_opt k fields = Some (Int v) in
      int "t" (ev.time :> int)
      && int "n" ev.node
      && List.assoc_opt "k" fields = Some (Str (Obs.Event.kind_name ev.kind))
      && (if Obs.Event.has_label ev.kind && ev.a >= 0 then
            List.assoc_opt "s" fields = Some (Str (Obs.Bus.name bus ev.a))
          else not (List.mem_assoc "s" fields))
      && int "a" ev.a && int "b" ev.b && int "c" ev.c && int "d" ev.d
      && int "e" ev.e && int "f" ev.f

(* Every line the sink writes equals the Printf rendering, and
   [parse_line] reads every field of it back. *)
let jsonl_matches_printf =
  QCheck.Test.make ~name:"sink bytes equal the Printf rendering" ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map pp_event evs))
       QCheck.Gen.(list_size (int_range 1 20) gen_event))
    (fun evs ->
      let bus = Obs.Bus.create () in
      List.iter (fun l -> ignore (Obs.Bus.intern bus l)) labels;
      let path = Filename.temp_file "obs_oracle" ".jsonl" in
      let oc = open_out_bin path in
      let sink = Obs.Jsonl.sink bus oc in
      List.iter sink evs;
      close_out oc;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      let expected = List.map (printf_line bus) evs in
      written = String.concat "" expected
      && List.for_all2 (fields_read_back bus) evs expected)

(* ---- Sink files on a failed run ---------------------------------------- *)

exception Boom

(* An event that raises mid-run must not leave the trace or capture
   unflushed: both read back complete up to the failure. *)
let sinks_closed_on_raise () =
  let trace = Filename.temp_file "obs_raise" ".jsonl" in
  let pcap = Filename.temp_file "obs_raise" ".pcap" in
  let seen = ref 0 in
  let sent = ref 0 in
  (match
     Runner.run ~trace_out:trace ~pcap_out:pcap
       ~prepare:(fun sim ->
         Obs.Bus.add_sink sim.Runner.bus (fun _ -> incr seen);
         Net.Channel.add_transmit_hook sim.Runner.channel (fun _ _ ->
             incr sent);
         ignore (Engine.at sim.Runner.engine (Time.sec 1.) (fun () -> raise Boom)))
       (scenario ())
   with
  | _ -> Alcotest.fail "the raising event did not propagate"
  | exception Boom -> ());
  checkb "events before the failure" true (!seen > 0 && !sent > 0);
  (match Obs.Reader.load trace with
  | Error e -> Alcotest.fail e
  | Ok t ->
      checki "trace holds every event up to the failure" !seen
        (Obs.Reader.length t);
      let last = (Obs.Reader.events t).(Obs.Reader.length t - 1) in
      checkb "nothing traced after the failure" true
        Time.(last.Obs.Event.time <= sec 1.));
  (match Net.Pcap.load pcap with
  | Error e -> Alcotest.fail e
  | Ok records -> checki "capture holds every frame" !sent (List.length records));
  Sys.remove trace;
  Sys.remove pcap

(* The sampler emits one line per interval with valid flat JSON. *)
let sampler_emits () =
  let sample_file = Filename.temp_file "obs_sample" ".jsonl" in
  ignore
    (Runner.run ~sample:(Time.sec 2.) ~sample_out:sample_file
       (scenario ~duration:10. ()));
  let ic = open_in sample_file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove sample_file;
  (* 10 s run + 2 s drain sampled every 2 s from t=0. *)
  checkb "several samples" true (List.length !lines >= 5);
  List.iter
    (fun l ->
      match Obs.Jsonl.parse_line l with
      | None -> Alcotest.fail ("unparseable sample line: " ^ l)
      | Some fields ->
          checkb "has t" true (List.mem_assoc "t" fields);
          checkb "has pending" true (List.mem_assoc "pending" fields))
    !lines

let () =
  Alcotest.run "obs"
    [
      ( "bus",
        [
          Alcotest.test_case "seqnum pack order" `Quick seqnum_pack_order;
          Alcotest.test_case "null-sink differential" `Slow
            null_sink_differential;
          Alcotest.test_case "jsonl roundtrip" `Slow jsonl_roundtrip;
          QCheck_alcotest.to_alcotest jsonl_matches_printf;
          Alcotest.test_case "sinks closed on raise" `Quick
            sinks_closed_on_raise;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "clean run" `Slow monitor_clean_run;
          Alcotest.test_case "catches stale seqno" `Slow
            monitor_catches_stale_seqno;
        ] );
      ( "sampler",
        [ Alcotest.test_case "emits gauges" `Slow sampler_emits ] );
    ]
