(* Tests for the CBR workload generator. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let collect ?(seed = 1) ~config ~until () =
  let engine = Engine.create ~seed () in
  let rng = Rng.create seed in
  let packets = ref [] in
  Traffic.setup ~engine ~rng ~num_nodes:20 ~config ~until
    ~emit:(fun ~src msg -> packets := (src, msg, Engine.now engine) :: !packets);
  Engine.run engine;
  List.rev !packets

let base =
  {
    Traffic.num_flows = 5;
    packets_per_sec = 4.;
    payload_bytes = 512;
    mean_flow_duration = Time.sec 20.;
    startup_window = Time.sec 5.;
  }

let emits_packets () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  checkb "many packets" true (List.length pkts > 500);
  (* 5 slots x 4pps x ~55s in expectation: bounded above. *)
  checkb "not absurdly many" true (List.length pkts < 5 * 4 * 62)

let rate_is_respected () =
  (* Packets within a flow are spaced exactly 1/pps apart. *)
  let pkts = collect ~config:base ~until:(Time.sec 30.) () in
  let by_flow = Hashtbl.create 16 in
  List.iter
    (fun (_, msg, at) ->
      let k = msg.Data_msg.flow_id in
      Hashtbl.replace by_flow k
        (match Hashtbl.find_opt by_flow k with
        | None -> [ at ]
        | Some l -> at :: l))
    pkts;
  Hashtbl.iter
    (fun _ times ->
      let rec gaps = function
        | a :: (b :: _ as rest) ->
            let gap = Time.to_ms (Time.diff a b) in
            checkb "250ms spacing" true (abs_float (gap -. 250.) < 0.001);
            gaps rest
        | _ -> ()
      in
      gaps times)
    by_flow

let uids_unique () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (_, msg, _) ->
      let uid = Data_msg.uid msg in
      checkb "unique uid" false (Hashtbl.mem seen uid);
      Hashtbl.replace seen uid ())
    pkts

let src_dst_distinct () =
  let pkts = collect ~config:base ~until:(Time.sec 60.) () in
  List.iter
    (fun (src, msg, _) ->
      checkb "src matches emit" true (Node_id.equal src msg.Data_msg.src);
      checkb "src <> dst" false (Node_id.equal msg.Data_msg.src msg.Data_msg.dst))
    pkts

let flows_restart () =
  (* With a short mean duration, flow ids climb well past the slot
     count. *)
  let config = { base with Traffic.mean_flow_duration = Time.sec 3. } in
  let pkts = collect ~config ~until:(Time.sec 60.) () in
  let max_flow =
    List.fold_left (fun acc (_, m, _) -> Stdlib.max acc m.Data_msg.flow_id) 0 pkts
  in
  checkb "flows restarted" true (max_flow > 10)

let respects_until () =
  let pkts = collect ~config:base ~until:(Time.sec 10.) () in
  List.iter
    (fun (_, _, at) -> checkb "no emission after until" true Time.(at < Time.sec 10.))
    pkts

let deterministic_per_seed () =
  let a = collect ~seed:9 ~config:base ~until:(Time.sec 30.) () in
  let b = collect ~seed:9 ~config:base ~until:(Time.sec 30.) () in
  checki "same count" (List.length a) (List.length b);
  List.iter2
    (fun (s1, m1, t1) (s2, m2, t2) ->
      checkb "same src" true (Node_id.equal s1 s2);
      checkb "same uid" true (Data_msg.uid m1 = Data_msg.uid m2);
      checkb "same time" true (Time.equal t1 t2))
    a b

let concurrent_flow_count () =
  (* At any instant, at most num_flows flows are active (slots never
     overlap themselves). *)
  let pkts = collect ~config:base ~until:(Time.sec 120.) () in
  (* Count flows active in a mid-run window. *)
  let active = Hashtbl.create 16 in
  List.iter
    (fun (_, m, at) ->
      if Time.(at > Time.sec 60.) && Time.(at < Time.sec 61.) then
        Hashtbl.replace active m.Data_msg.flow_id ())
    pkts;
  checkb "at most 5 concurrent" true (Hashtbl.length active <= 5)

(* --- workload validation ---------------------------------------------- *)

let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false

(* A rate whose inter-packet gap is not a positive whole number of
   nanoseconds would re-arm one packet tick forever at the same instant
   (a zero gap) or schedule into the past (a negative one), so every
   entry point rejects it.  [validate] is checked first: it cannot
   hang, so a regression fails instead of stalling the suite. *)
let rejects_bad_rates () =
  List.iter
    (fun pps ->
      let config = { base with Traffic.packets_per_sec = pps } in
      let name what = Printf.sprintf "%s rejects pps %g" what pps in
      checkb (name "validate") true
        (rejected (fun () -> Traffic.validate ~num_nodes:20 config));
      checkb (name "setup") true
        (rejected (fun () ->
             Traffic.setup ~engine:(Engine.create ()) ~rng:(Rng.create 1)
               ~num_nodes:20 ~config ~until:(Time.sec 5.)
               ~emit:(fun ~src:_ _ -> ()))))
    [ 0.; -4.; Float.nan; Float.infinity; Float.neg_infinity; 1e-300; 1e12 ]

let rejects_bad_shapes () =
  checkb "negative flow count" true
    (rejected (fun () ->
         Traffic.validate ~num_nodes:20 { base with Traffic.num_flows = -1 }));
  checkb "one node" true
    (rejected (fun () -> Traffic.validate ~num_nodes:1 base));
  checkb "setup with one node" true
    (rejected (fun () ->
         Traffic.setup ~engine:(Engine.create ()) ~rng:(Rng.create 1)
           ~num_nodes:1 ~config:base ~until:(Time.sec 5.)
           ~emit:(fun ~src:_ _ -> ())))

let accepts_edge_workloads () =
  (* One packet per nanosecond is the fastest representable rate; zero
     flows is an idle but valid workload. *)
  Traffic.validate ~num_nodes:2 { base with Traffic.packets_per_sec = 1e9 };
  let pkts =
    collect ~config:{ base with Traffic.num_flows = 0 } ~until:(Time.sec 5.) ()
  in
  checki "zero flows emit nothing" 0 (List.length pkts)

let () =
  Alcotest.run "traffic"
    [
      ( "cbr",
        [
          Alcotest.test_case "emits" `Quick emits_packets;
          Alcotest.test_case "rate" `Quick rate_is_respected;
          Alcotest.test_case "uids unique" `Quick uids_unique;
          Alcotest.test_case "src/dst sane" `Quick src_dst_distinct;
          Alcotest.test_case "flows restart" `Quick flows_restart;
          Alcotest.test_case "until respected" `Quick respects_until;
          Alcotest.test_case "deterministic" `Quick deterministic_per_seed;
          Alcotest.test_case "concurrency bound" `Quick concurrent_flow_count;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad rates rejected" `Quick rejects_bad_rates;
          Alcotest.test_case "bad shapes rejected" `Quick rejects_bad_shapes;
          Alcotest.test_case "edge workloads accepted" `Quick
            accepts_edge_workloads;
        ] );
    ]
