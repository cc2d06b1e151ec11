(* The per-layer cost ledger of one traced iteration.

   Every layer is timed from outside the simulator, by wrapping the
   calls it makes into that layer's public functions: routing agents
   through [Runner.run ~prepare], the scheduler by recording its op
   trace through [~on_engine] and replaying it alone, the wire codec by
   replaying a bounded frame sample, the JSONL and pcap writers by
   timing the sinks the way [Runner.attach_trace]/[attach_pcap] attach
   them.  Nothing here changes what the simulation does: the traced
   run's outcome is checked equal to the untraced one's. *)

open Experiment

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let agent_kinds = [| "ldr"; "aodv"; "dsr"; "olsr" |]

let agent_kind (p : Scenario.protocol) =
  match p with
  | Scenario.Ldr _ -> Some 0
  | Aodv _ -> Some 1
  | Dsr _ -> Some 2
  | Olsr _ -> Some 3
  | Ldr_agg _ | Aodv_agg _ -> None

(* Retaining every transmitted frame multiplies the traced run's heap
   many times over and distorts the GC work being measured; a fixed
   reservoir keeps the codec replay representative at constant memory. *)
let sample_capacity = 2048

(* Drop reasons the four agents and their packet buffers can report in
   these workloads; anything else lands in "other". *)
let drop_reasons =
  [
    "no-route";
    "link-failure";
    "discovery-failed";
    "ttl-expired";
    "buffer-timeout";
    "buffer-evicted";
    "misrouted";
  ]

type t = {
  sums : (string, float) Hashtbl.t;  (** additive figures, by metric name *)
  hists : Stats.Hdr.t array;  (** per-call agent ns, by {!agent_kinds} *)
  mutable depth : int;
  mutable calls : int;
  mutable inclusive_ns : int;
  mutable tx : int;
  mutable rx : int;
  mutable collisions : int;
  mutable table_writes : int;
  mutable bus_events : int;
  mutable jsonl_ns : int;
  mutable pcap_ns : int;
  delivered_ids : (int, unit) Hashtbl.t;
  dropped_ids : (int, unit) Hashtbl.t;
  sample : Net.Frame.t option array;
  mutable sample_len : int;
  mutable frames_seen : int;
  rng : Random.State.t;
  mutable failures : string list;
}

let create ~seed =
  {
    sums = Hashtbl.create 64;
    hists = Array.map (fun _ -> Stats.Hdr.create ()) agent_kinds;
    depth = 0;
    calls = 0;
    inclusive_ns = 0;
    tx = 0;
    rx = 0;
    collisions = 0;
    table_writes = 0;
    bus_events = 0;
    jsonl_ns = 0;
    pcap_ns = 0;
    delivered_ids = Hashtbl.create 4096;
    dropped_ids = Hashtbl.create 256;
    sample = Array.make sample_capacity None;
    sample_len = 0;
    frames_seen = 0;
    rng = Random.State.make [| seed |];
    failures = [];
  }

let get l name = Option.value ~default:0. (Hashtbl.find_opt l.sums name)
let add l name v = Hashtbl.replace l.sums name (get l name +. v)
let add_int l name n = add l name (float_of_int n)
let raise_to l name v = if v > get l name then Hashtbl.replace l.sums name v
let fail l msg = l.failures <- msg :: l.failures

(* ---- routing: timed agent entry points ----------------------------- *)

(* Inclusive time counts only outermost calls, so a call nested inside
   another agent call (none today) is not counted twice.  Times include
   what the agent calls synchronously: [Mac.send], metrics hooks. *)
let enter l =
  l.depth <- l.depth + 1;
  now_ns ()

let leave l h t0 =
  let dt = now_ns () - t0 in
  l.depth <- l.depth - 1;
  l.calls <- l.calls + 1;
  Stats.Hdr.add h dt;
  if l.depth = 0 then l.inclusive_ns <- l.inclusive_ns + dt

let abandon l e =
  l.depth <- l.depth - 1;
  raise e

let wrap_agent l h (a : Routing.Agent.t) =
  {
    a with
    Routing.Agent.origin_data =
      (fun m ->
        let t0 = enter l in
        (try a.origin_data m with e -> abandon l e);
        leave l h t0);
    recv =
      (fun p ~from ->
        let t0 = enter l in
        (try a.recv p ~from with e -> abandon l e);
        leave l h t0);
    overheard =
      (fun p ~from ~dst ->
        let t0 = enter l in
        (try a.overheard p ~from ~dst with e -> abandon l e);
        leave l h t0);
    link_failure =
      (fun p ~next_hop ->
        let t0 = enter l in
        (try a.link_failure p ~next_hop with e -> abandon l e);
        leave l h t0);
  }

(* ---- net / obs: counting hooks ------------------------------------- *)

let packet_id ~flow ~seq = (flow lsl 31) lor seq

let count_event l (ev : Obs.Event.t) =
  l.bus_events <- l.bus_events + 1;
  match ev.Obs.Event.kind with
  | Obs.Event.Rx -> l.rx <- l.rx + 1
  | Collision -> l.collisions <- l.collisions + 1
  | Table_write -> l.table_writes <- l.table_writes + 1
  | Deliver ->
      Hashtbl.replace l.delivered_ids (packet_id ~flow:ev.a ~seq:ev.b) ()
  | Data_drop ->
      Hashtbl.replace l.dropped_ids (packet_id ~flow:ev.b ~seq:ev.c) ()
  | _ -> ()

let keep_frame l f =
  l.frames_seen <- l.frames_seen + 1;
  if l.sample_len < sample_capacity then begin
    l.sample.(l.sample_len) <- Some f;
    l.sample_len <- l.sample_len + 1
  end
  else
    let j = Random.State.int l.rng l.frames_seen in
    if j < sample_capacity then l.sample.(j) <- Some f

(* Install every probe on a built simulation ([Runner.run]'s [prepare]
   hook).  With [capture], the JSONL trace, the pcap writer and the
   invariant monitor are attached in the order [Runner.run] attaches
   them for [~trace_out ~pcap_out ~monitor:true], each writer timed. *)
let instrument l ~capture (sc : Scenario.t) (sim : Runner.sim) =
  (match capture with
  | None -> ()
  | Some (trace_path, pcap_path) ->
      let oc = open_out trace_path in
      let jsonl = Obs.Jsonl.sink sim.bus oc in
      Obs.Bus.add_sink sim.bus (fun ev ->
          let t0 = now_ns () in
          jsonl ev;
          l.jsonl_ns <- l.jsonl_ns + (now_ns () - t0));
      sim.cleanup <- (fun () -> close_out oc) :: sim.cleanup;
      let pcap = Net.Pcap.open_sink pcap_path in
      Net.Channel.add_transmit_hook sim.channel (fun _src frame ->
          let t0 = now_ns () in
          Net.Pcap.write pcap ~time:(Sim.Engine.now sim.engine) frame;
          l.pcap_ns <- l.pcap_ns + (now_ns () - t0));
      sim.cleanup <- (fun () -> Net.Pcap.close pcap) :: sim.cleanup);
  Net.Channel.add_transmit_hook sim.channel (fun _src frame ->
      l.tx <- l.tx + 1;
      keep_frame l frame);
  Obs.Bus.add_sink sim.bus (count_event l);
  (match agent_kind sc.protocol with
  | Some k ->
      let h = l.hists.(k) in
      Array.iteri (fun i a -> sim.agents.(i) <- wrap_agent l h a) sim.agents
  | None -> ());
  if capture <> None then ignore (Runner.attach_monitor sim)

(* ---- after each traced run ----------------------------------------- *)

let record_run l (sc : Scenario.t) (sim : Runner.sim) (o : Runner.outcome)
    ~tx_before ~sched_trace =
  let m = o.metrics in
  let fail_run what =
    fail l
      (Printf.sprintf "%s seed %d: %s"
         (Scenario.protocol_name sc.protocol)
         sc.seed what)
  in
  (* Scheduler: the run's exact op sequence, replayed alone. *)
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let fired = Sim.Engine.replay_trace ~scheduler:`Calendar sched_trace in
  let dt = now_ns () - t0 in
  add l "sim.sched_words" (Gc.minor_words () -. w0);
  add_int l "sim.sched_replay_ns" dt;
  add_int l "sim.sched_ops" (Sim.Engine.Trace.length sched_trace);
  add_int l "sim.events" o.events_processed;
  if fired <> o.events_processed then
    fail_run "scheduler replay fired a different event count";
  (* Net and geom. *)
  if l.tx - tx_before <> o.transmissions then
    fail_run "transmit hook missed frames";
  add_int l "net.ifq_drops" o.mac_queue_drops;
  add_int l "net.unicast_failures" o.mac_unicast_failures;
  let _cells, occupied, max_occupancy = Net.Channel.index_stats sim.channel in
  raise_to l "geom.cells_occupied" (float_of_int occupied);
  raise_to l "geom.max_occupancy" (float_of_int max_occupancy);
  (* Routing and experiment accounting. *)
  add_int l "routing.control_tx" (Metrics.control_transmissions m);
  List.iter
    (fun (kind, n) ->
      if String.starts_with ~prefix:"RREQ" kind then
        add_int l "routing.rreq_tx" n)
    (Metrics.control_by_kind m);
  List.iter
    (fun (reason, n) ->
      let name = if List.mem reason drop_reasons then reason else "other" in
      add_int l ("routing.drops." ^ name) n)
    (Metrics.drops_by_reason m);
  add_int l "traffic.originated" (Metrics.originated m);
  add_int l "experiment.delivered" (Metrics.delivered m);
  add_int l "obs.monitor_violations" o.invariant_violations;
  (* Per-packet conservation: the drop counters count every dropped
     copy (MAC retransmissions can duplicate a packet), so the check is
     on packet ids — each originated packet is delivered, dropped, or
     still in flight at the horizon. *)
  let accounted = Hashtbl.length l.delivered_ids in
  let dropped_only =
    Hashtbl.fold
      (fun id () n -> if Hashtbl.mem l.delivered_ids id then n else n + 1)
      l.dropped_ids 0
  in
  if accounted + dropped_only > Metrics.originated m then
    fail_run
      (Printf.sprintf
         "packet ids delivered (%d) + dropped (%d) > originated (%d)"
         accounted dropped_only (Metrics.originated m));
  if accounted <> Metrics.delivered m then
    fail_run "delivered ids differ from the delivered count";
  Hashtbl.reset l.delivered_ids;
  Hashtbl.reset l.dropped_ids

(* ---- wire: codec replay over the frame sample ---------------------- *)

let replay_rounds = 16

let replay_wire l =
  let frames = Array.init l.sample_len (fun i -> Option.get l.sample.(i)) in
  let n = Array.length frames in
  add_int l "wire.frames" n;
  if n > 0 then begin
    let families = Array.map Net.Frame.family frames in
    let encoded = Array.map Net.Frame.encode frames in
    Array.iteri
      (fun i f ->
        match
          Net.Frame.decode ~family:families.(i) ~ack_src:f.Net.Frame.src
            encoded.(i)
        with
        (* Lifetimes travel as whole milliseconds (lib/wire/wire.ml), so
           a relayed RREP's sub-millisecond residue does not survive the
           wire: the round trip is checked on the wire image. *)
        | Ok g when Bytes.equal (Net.Frame.encode g) encoded.(i) -> ()
        | Ok _ | Error _ ->
            add l "wire.decode_errors" 1.;
            fail l
              (Format.asprintf
                 "wire: encode (decode (encode f)) <> encode f for %a"
                 Net.Frame.pp f))
      frames;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to replay_rounds do
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (Net.Frame.encode frames.(i)))
      done
    done;
    let enc_ns = now_ns () - t0 and enc_words = Gc.minor_words () -. w0 in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to replay_rounds do
      for i = 0 to n - 1 do
        ignore
          (Sys.opaque_identity
             (Net.Frame.decode ~family:families.(i)
                ~ack_src:frames.(i).Net.Frame.src encoded.(i)))
      done
    done;
    let dec_ns = now_ns () - t0 and dec_words = Gc.minor_words () -. w0 in
    let per x = x /. float_of_int (replay_rounds * n) in
    add l "wire.encode_ns_per_frame" (per (float_of_int enc_ns));
    add l "wire.decode_ns_per_frame" (per (float_of_int dec_ns));
    add l "wire.encode_words_per_frame" (per enc_words);
    add l "wire.decode_words_per_frame" (per dec_words)
  end
