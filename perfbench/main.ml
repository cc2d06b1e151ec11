(* The simulator's benchmark: three workloads, end-to-end metrics from
   untraced iterations, per-layer metrics from one traced iteration.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  See perfbench/README.md for
   the workloads, the metrics and what each layer should move. *)

open Experiment

let now_ns = Ledger.now_ns

type size = Full | Tiny
type workload = Fig5 | Fig5_capture | Mcheck

let workloads =
  [ ("fig5", Fig5); ("fig5-capture", Fig5_capture); ("mcheck", Mcheck) ]

(* ---- inputs -------------------------------------------------------- *)

(* Each iteration pools several scenarios drawn from the seed: a single
   Fig-5 scenario's event count, allocation and heap swing with where its
   flows land, and pooling keeps a run's figures comparable across
   seeds. *)
let sub_seed seed k = 1 + (seed * 64) + k
let fig5_horizon = function Full -> 15. | Tiny -> 6.
let fig5_points = function Full -> 3 | Tiny -> 1
let capture_points = function Full -> 12 | Tiny -> 1
let mcheck_bound = function Full -> 18 | Tiny -> 8
let setup_reps = 8

(* The paper's Fig-5 point: 100 nodes on 2200 x 600 m, 30 CBR flows of
   4 pkt/s x 512 B, random waypoint up to 20 m/s, pause 0. *)
let fig5_scenario size proto ~seed =
  Scenario.paper_100 proto |> Scenario.with_flows 30
  |> Scenario.with_pause Sim.Time.zero
  |> Scenario.with_duration (Sim.Time.sec (fig5_horizon size))
  |> Scenario.with_seed seed

let scenarios size w ~seed =
  let points n f = List.concat (List.init n (fun k -> f (sub_seed seed k))) in
  match w with
  | Fig5 ->
      points (fig5_points size) (fun seed ->
          List.map
            (fun p -> fig5_scenario size p ~seed)
            [ Scenario.ldr; Scenario.aodv; Scenario.dsr; Scenario.olsr ])
  | Fig5_capture ->
      points (capture_points size) (fun seed ->
          [ fig5_scenario size Scenario.ldr ~seed ])
  | Mcheck -> []

(* ---- statistics ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b
let secs ns = float_of_int ns /. 1e9
let word_bytes = float_of_int (Sys.word_size / 8)

(* ---- one iteration ------------------------------------------------- *)

type iteration = {
  mutable setup_ns : int;
  mutable run_ns : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable events : int;
  mutable originated : int;
  mutable delivered : int;
  mutable control_tx : int;
  mutable per_run : (float * float * float) list;
      (** each run's (run ns per event, minor words per event, heap peak
          in words) *)
  mutable prints : string list;  (** outcome fingerprints, in run order *)
  mutable failures : string list;
}

let new_iteration () =
  {
    setup_ns = 0;
    run_ns = 0;
    minor_words = 0.;
    promoted_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    events = 0;
    originated = 0;
    delivered = 0;
    control_tx = 0;
    per_run = [];
    prints = [];
    failures = [];
  }

let fail it msg = it.failures <- msg :: it.failures

(* Runs [f] with the GC counters attributed to [it], and returns [f]'s
   result with the window's minor words and major-heap peak.  The heap
   is collected first, so the peak is this window's own, not the process
   lifetime's; it is sampled at the end of every major cycle and at exit.
   Checks run outside these windows. *)
let gc_window it f =
  Gc.full_major ();
  let peak = ref 0 in
  let sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !peak then peak := h
  in
  let alarm = Gc.create_alarm sample in
  let s0 = Gc.quick_stat () in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  let s1 = Gc.quick_stat () in
  sample ();
  let words = s1.Gc.minor_words -. s0.Gc.minor_words in
  it.minor_words <- it.minor_words +. words;
  it.promoted_words <-
    it.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  it.minor_gcs <-
    it.minor_gcs + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  it.major_gcs <-
    it.major_gcs + (s1.Gc.major_collections - s0.Gc.major_collections);
  (r, words, !peak)

let add_run it ~events ~run_ns ~words ~peak =
  let per x = x /. float_of_int (max 1 events) in
  it.events <- it.events + events;
  it.run_ns <- it.run_ns + run_ns;
  it.per_run <-
    (per (float_of_int run_ns), per words, float_of_int peak) :: it.per_run

let fingerprint v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let outcome_print (o : Runner.outcome) files =
  let m = o.metrics in
  fingerprint
    ( ( o.events_processed,
        o.transmissions,
        o.mac_queue_drops,
        o.mac_unicast_failures,
        o.invariant_violations ),
      o.summary,
      (Metrics.originated m, Metrics.delivered m, Metrics.duplicates m),
      (Metrics.control_by_kind m, Metrics.control_bytes m, Metrics.data_bytes m),
      (Metrics.drops_by_reason m, Metrics.loop_violations m),
      List.map Digest.file files )

(* The capture read back must agree, class by class, with what the
   run's metrics hook counted on the transmit path. *)
let pcap_failures path (o : Runner.outcome) =
  match Net.Pcap.load path with
  | Error e -> [ "pcap does not load: " ^ e ]
  | Ok records ->
      let m = o.metrics in
      let classes = Net.Pcap.class_counts records in
      let lookup k l = Option.value ~default:0 (List.assoc_opt k l) in
      let class_ok (cls, (n, bytes)) =
        match cls with
        | "ACK" -> bytes = Metrics.ack_bytes m
        | "DATA" ->
            n = Metrics.data_transmissions m && bytes = Metrics.data_bytes m
        | "UNDECODABLE" -> false
        | k ->
            n = lookup k (Metrics.control_by_kind m)
            && bytes = lookup k (Metrics.control_bytes_by_kind m)
      in
      let control =
        List.fold_left
          (fun acc (cls, (n, _)) ->
            if cls = "ACK" || cls = "DATA" then acc else acc + n)
          0 classes
      in
      List.filter_map
        (fun ((cls, _) as c) ->
          if class_ok c then None
          else Some ("pcap class " ^ cls ^ " disagrees with the run's counts"))
        classes
      @ (if List.length records <> o.transmissions then
           [ "pcap record count differs from the frames transmitted" ]
         else [])
      @
      if control <> Metrics.control_transmissions m then
        [ "pcap control frames differ from the run's control count" ]
      else []

(* Capture files live in a fresh directory inside the working directory,
   removed when the iteration ends. *)
let scratch_root = ".perfbench-tmp"

let with_scratch_dir f =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let dir = Filename.temp_dir ~temp_dir:scratch_root "iter" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir;
      if Sys.readdir scratch_root = [||] then Sys.rmdir scratch_root)
    (fun () -> f dir)

let run_scenario ?ledger ?capture_dir it i (sc : Scenario.t) =
  let cap =
    Option.map
      (fun dir ->
        let file ext = Filename.concat dir (Printf.sprintf "%d.%s" i ext) in
        (file "jsonl", file "pcap"))
      capture_dir
  in
  let files = match cap with Some (t, p) -> [ t; p ] | None -> [] in
  let started = ref 0 and sim = ref None and sched = ref None in
  let tx_before = match ledger with Some l -> l.Ledger.tx | None -> 0 in
  let (o, run_ns), words, peak =
    gc_window it (fun () ->
        let t0 = now_ns () in
        let o =
          match ledger with
          | None ->
              Runner.run ?trace_out:(Option.map fst cap)
                ?pcap_out:(Option.map snd cap)
                ?monitor:(Option.map (fun _ -> true) cap)
                ~prepare:(fun _ -> started := now_ns ())
                sc
          | Some l ->
              Runner.run
                ~on_engine:(fun e ->
                  sched := Some (Sim.Engine.record_trace e))
                ~prepare:(fun s ->
                  Ledger.instrument l ~capture:cap sc s;
                  sim := Some s;
                  started := now_ns ())
                sc
        in
        let t1 = now_ns () in
        it.setup_ns <- it.setup_ns + (!started - t0);
        (o, t1 - !started))
  in
  add_run it ~events:o.events_processed ~run_ns ~words ~peak;
  let m = o.metrics in
  it.originated <- it.originated + Metrics.originated m;
  it.delivered <- it.delivered + Metrics.delivered m;
  it.control_tx <- it.control_tx + Metrics.control_transmissions m;
  it.prints <- outcome_print o files :: it.prints;
  let check ok what =
    if not ok then
      fail it
        (Printf.sprintf "%s seed %d: %s"
           (Scenario.protocol_name sc.protocol)
           sc.seed what)
  in
  check (o.events_processed > 0) "no events";
  check (Metrics.delivered m > 0) "nothing delivered";
  check (Metrics.delivered m <= Metrics.originated m) "delivered > originated";
  check (Metrics.loop_violations m = 0) "loop violations";
  check (o.invariant_violations = 0) "invariant monitor violations";
  Option.iter
    (fun (_, pcap) -> List.iter (check false) (pcap_failures pcap o))
    cap;
  (match (ledger, !sim, !sched) with
  | Some l, Some s, Some tr ->
      Ledger.record_run l sc s o ~tx_before ~sched_trace:tr;
      Option.iter
        (fun (t, p) ->
          Ledger.add_int l "obs.jsonl_bytes" (Unix.stat t).Unix.st_size;
          Ledger.add_int l "obs.pcap_bytes" (Unix.stat p).Unix.st_size)
        cap
  | Some _, _, _ -> check false "traced run missed its hooks"
  | None, _, _ -> ());
  List.iter Sys.remove files

let run_scenarios ?ledger size w ~seed it =
  let scs = scenarios size w ~seed in
  match w with
  | Fig5_capture ->
      with_scratch_dir (fun dir ->
          List.iteri (run_scenario ?ledger ~capture_dir:dir it) scs)
  | Fig5 | Mcheck -> List.iteri (run_scenario ?ledger it) scs

let mcheck_iteration ?ledger size it =
  let open Mcheck in
  let fx = Fixture.aodv_loop_3 and max_steps = mcheck_bound size in
  (* Building both fixtures and running their prelude takes well under a
     millisecond, so it is timed over [setup_reps] repetitions (the first
     inside the GC window) and the median kept. *)
  let setup () =
    let t0 = now_ns () in
    ignore (Explorer.digest fx Explorer.Aodv []);
    ignore (Explorer.digest fx Explorer.Ldr []);
    float_of_int (now_ns () - t0)
  in
  let first, setup_words, setup_peak = gc_window it setup in
  let reps = first :: List.init (setup_reps - 1) (fun _ -> setup ()) in
  it.setup_ns <- it.setup_ns + int_of_float (median reps);
  let (aodv, minimized, ldr, (t0, t1, t2, t3)), run_words, run_peak =
    gc_window it (fun () ->
        let t0 = now_ns () in
        let aodv = Explorer.explore ~max_steps fx Explorer.Aodv in
        let t1 = now_ns () in
        let minimized =
          Option.map
            (Explorer.minimize ~max_steps fx Explorer.Aodv)
            aodv.Explorer.violation
        in
        let t2 = now_ns () in
        let ldr = Explorer.explore ~max_steps fx Explorer.Ldr in
        let t3 = now_ns () in
        (aodv, minimized, ldr, (t0, t1, t2, t3)))
  in
  let sa = aodv.Explorer.stats and sl = ldr.Explorer.stats in
  add_run it
    ~events:(sa.Explorer.replayed_events + sl.Explorer.replayed_events)
    ~run_ns:(t3 - t0)
    ~words:(setup_words +. run_words)
    ~peak:(max setup_peak run_peak);
  let check ok what = if not ok then fail it what in
  (match minimized with
  | Some { Explorer.v_kind = Explorer.Cycle _; v_trace } ->
      check
        (match Explorer.replay fx Explorer.Aodv v_trace with
        | Some (Explorer.Cycle _) -> true
        | _ -> false)
        "aodv: the minimized witness does not replay to a cycle"
  | Some _ -> check false "aodv: violation is not a routing cycle"
  | None -> check false "aodv: no loop found");
  check (ldr.Explorer.violation = None) "ldr: violation found";
  check sl.Explorer.complete "ldr: bounded space not fully explored";
  let witness (v : Explorer.violation) =
    (v.v_kind, List.length v.v_trace)
  in
  it.prints <- fingerprint (sa, sl, Option.map witness minimized) :: it.prints;
  Option.iter
    (fun l ->
      List.iter
        (fun (s : Explorer.stats) ->
          Ledger.add_int l "mcheck.states" s.states;
          Ledger.add_int l "mcheck.transitions" s.transitions;
          Ledger.add_int l "mcheck.replays" s.replays;
          Ledger.add_int l "mcheck.replayed_events" s.replayed_events;
          Ledger.add_int l "mcheck.state_merged" s.state_merged;
          Ledger.add_int l "mcheck.sleep_pruned" s.sleep_skipped)
        [ sa; sl ];
      Ledger.add_int l "mcheck.explore_ns" (t1 - t0 + (t3 - t2));
      Ledger.add_int l "mcheck.minimize_ns" (t2 - t1))
    ledger

let iteration ?ledger size w ~seed =
  let it = new_iteration () in
  (try
     match w with
     | Mcheck -> mcheck_iteration ?ledger size it
     | Fig5 | Fig5_capture -> run_scenarios ?ledger size w ~seed it
   with e -> fail it ("raised " ^ Printexc.to_string e));
  it

(* ---- metrics ------------------------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ns_per_event", "ns");
    ("minor_words_per_event", "words");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("sim.events", "count");
    ("sim.sched_ops", "count");
    ("sim.sched_ns_per_op", "ns");
    ("sim.sched_words_per_op", "words");
    ("sim.sched_replay_s", "s");
    ("net.tx", "count");
    ("net.rx", "count");
    ("net.collisions", "count");
    ("net.rx_per_tx", "ratio");
    ("net.collision_share", "ratio");
    ("net.ifq_drops", "count");
    ("net.unicast_failures", "count");
    ("net.residual_s", "s");
    ("geom.cells_occupied", "count");
    ("geom.max_occupancy", "count");
    ("routing.calls", "count");
    ("routing.inclusive_s", "s");
    ("routing.share", "ratio");
  ]
  @ List.concat_map
      (fun k ->
        [
          ("routing." ^ k ^ ".ns_per_call_p50", "ns");
          ("routing." ^ k ^ ".ns_per_call_p99", "ns");
        ])
      (Array.to_list Ledger.agent_kinds)
  @ [
      ("routing.table_writes", "count");
      ("routing.control_tx", "count");
      ("routing.rreq_tx", "count");
    ]
  @ List.map
      (fun r -> ("routing.drops." ^ r, "count"))
      (Ledger.drop_reasons @ [ "other" ])
  @ [
      ("wire.frames", "count");
      ("wire.encode_ns_per_frame", "ns");
      ("wire.decode_ns_per_frame", "ns");
      ("wire.encode_words_per_frame", "words");
      ("wire.decode_words_per_frame", "words");
      ("wire.decode_errors", "count");
      ("obs.bus_events", "count");
      ("obs.jsonl_sink_s", "s");
      ("obs.jsonl_bytes", "bytes");
      ("obs.pcap_write_s", "s");
      ("obs.pcap_bytes", "bytes");
      ("obs.monitor_violations", "count");
      ("mcheck.states", "count");
      ("mcheck.transitions", "count");
      ("mcheck.replays", "count");
      ("mcheck.replayed_events", "count");
      ("mcheck.replayed_events_per_state", "ratio");
      ("mcheck.state_merged", "count");
      ("mcheck.sleep_pruned", "count");
      ("mcheck.explore_s", "s");
      ("mcheck.minimize_s", "s");
      ("gc.minor_words", "Mwords");
      ("gc.minor_words_per_event", "words");
      ("gc.promoted_words_per_event", "words");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("traffic.originated", "count");
      ("experiment.delivered", "count");
      ("experiment.delivery_ratio", "ratio");
      ("experiment.network_load", "ratio");
      ("experiment.run_s", "s");
      ("trace.overhead", "ratio");
    ]

(* Per-event costs and heap peaks are averaged over an iteration's runs,
   so each run counts equally whatever its event count: on [fig5] a seed
   that gives DSR a larger share of the events would otherwise move a
   pooled ratio without anything getting faster or slower. *)
let end_to_end_values its =
  let med f = median (List.map f its) in
  let mean_run f it = mean (List.map f it.per_run) in
  [
    ("setup_s", med (fun it -> secs it.setup_ns));
    ("ns_per_event", med (mean_run (fun (ns, _, _) -> ns)));
    ("minor_words_per_event", med (mean_run (fun (_, w, _) -> w)));
    ("peak_heap_mb", med (mean_run (fun (_, _, p) -> p *. word_bytes /. 1e6)));
  ]

(* [plain] is the untraced iteration run just before the traced one in
   the same process: GC figures and the overhead ratio come from it. *)
let per_layer_values (l : Ledger.t) ~(plain : iteration) ~(traced : iteration)
    =
  let g = Ledger.get l in
  let run_s = secs traced.run_ns in
  let inclusive_s = secs l.inclusive_ns in
  let replay_s = g "sim.sched_replay_ns" /. 1e9 in
  let events = float_of_int plain.events in
  let fi = float_of_int in
  let quantiles k name =
    let h = l.hists.(k) in
    if Stats.Hdr.count h = 0 then []
    else
      [
        ("routing." ^ name ^ ".ns_per_call_p50", fi (Stats.Hdr.quantile h 0.5));
        ("routing." ^ name ^ ".ns_per_call_p99", fi (Stats.Hdr.quantile h 0.99));
      ]
  in
  let computed =
    [
      ( "sim.sched_ns_per_op",
        ratio (g "sim.sched_replay_ns") (g "sim.sched_ops") );
      ("sim.sched_words_per_op", ratio (g "sim.sched_words") (g "sim.sched_ops"));
      ("sim.sched_replay_s", replay_s);
      ("net.tx", fi l.tx);
      ("net.rx", fi l.rx);
      ("net.collisions", fi l.collisions);
      ("net.rx_per_tx", ratio (fi l.rx) (fi l.tx));
      ("net.collision_share", ratio (fi l.collisions) (fi (l.rx + l.collisions)));
      (* Only runs driven through [Runner] have a channel to attribute. *)
      ( "net.residual_s",
        if g "sim.sched_ops" = 0. then 0.
        else run_s -. inclusive_s -. replay_s );
      ("routing.calls", fi l.calls);
      ("routing.inclusive_s", inclusive_s);
      ("routing.share", ratio inclusive_s run_s);
      ("routing.table_writes", fi l.table_writes);
      ("obs.bus_events", fi l.bus_events);
      ("obs.jsonl_sink_s", secs l.jsonl_ns);
      ("obs.pcap_write_s", secs l.pcap_ns);
      ( "mcheck.replayed_events_per_state",
        ratio (g "mcheck.replayed_events") (g "mcheck.states") );
      ("mcheck.explore_s", g "mcheck.explore_ns" /. 1e9);
      ("mcheck.minimize_s", g "mcheck.minimize_ns" /. 1e9);
      ("gc.minor_words", plain.minor_words /. 1e6);
      ("gc.minor_words_per_event", ratio plain.minor_words events);
      ("gc.promoted_words_per_event", ratio plain.promoted_words events);
      ("gc.minor_collections", fi plain.minor_gcs);
      ("gc.major_collections", fi plain.major_gcs);
      ( "experiment.delivery_ratio",
        ratio (fi plain.delivered) (fi plain.originated) );
      ( "experiment.network_load",
        ratio (fi plain.control_tx) (fi plain.delivered) );
      ("experiment.run_s", secs plain.run_ns);
      ("trace.overhead", ratio run_s (secs plain.run_ns));
    ]
    @ List.concat (List.mapi quantiles (Array.to_list Ledger.agent_kinds))
  in
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:(g name) (List.assoc_opt name computed)))
    per_layer

(* ---- output -------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result its values units =
  let failed = List.length (List.filter (fun it -> it.failures <> []) its) in
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      (List.assoc name units)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (List.length its) failed
    (String.concat ", " (List.map metric values))

(* ---- command line -------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload fig5|fig5-capture|mcheck --seed N --seconds S \
     --trace 0|1 [--size full|tiny]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and size = ref Full in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := List.assoc_opt w workloads;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        go rest
    | "--seconds" :: n :: rest ->
        seconds := float_of_string_opt n;
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--size" :: "full" :: rest ->
        size := Full;
        go rest
    | "--size" :: "tiny" :: rest ->
        size := Tiny;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when s >= 0 && secs > 0. ->
      (w, s, secs, t, !size)
  | _ -> usage ()

let report_failures label it =
  List.iter
    (fun f -> Printf.eprintf "FAILED (%s): %s\n%!" label f)
    (List.rev it.failures)

let () =
  let w, seed, seconds, trace, size = parse_args () in
  if not trace then begin
    (* Repeat the iteration for the measuring window, at least twice:
       every repetition of the same inputs must reproduce the first. *)
    let start = now_ns () in
    let rec loop acc n =
      if n >= 2 && secs (now_ns () - start) >= seconds then List.rev acc
      else loop (iteration size w ~seed :: acc) (n + 1)
    in
    let its = loop [] 0 in
    let first = List.hd its in
    List.iteri
      (fun i it ->
        if it.prints <> first.prints then
          fail it "outcome differs from the first iteration's";
        report_failures (Printf.sprintf "iteration %d" i) it)
      its;
    print_result its (end_to_end_values its) end_to_end
  end
  else begin
    let plain = iteration size w ~seed in
    let ledger = Ledger.create ~seed in
    let traced = iteration ~ledger size w ~seed in
    Ledger.replay_wire ledger;
    List.iter (fail traced) ledger.Ledger.failures;
    if traced.prints <> plain.prints then
      fail traced "traced outcome differs from the untraced one";
    report_failures "untraced" plain;
    report_failures "traced" traced;
    print_result [ plain; traced ] (per_layer_values ledger ~plain ~traced)
      per_layer
  end
