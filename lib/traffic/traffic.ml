open Sim
open Packets

type config = {
  num_flows : int;
  packets_per_sec : float;
  payload_bytes : int;
  mean_flow_duration : Time.t;
  startup_window : Time.t;
}

let default_config =
  {
    num_flows = 10;
    packets_per_sec = 4.;
    payload_bytes = 512;
    mean_flow_duration = Time.sec 100.;
    startup_window = Time.sec 10.;
  }

(* The inter-packet gap, after rejecting a workload the generator
   cannot run: fewer than two nodes, a negative flow count, or a rate
   whose gap is not a positive whole number of nanoseconds.  A zero,
   negative or infinite rate would otherwise turn into a negative or
   zero gap and re-arm one packet tick forever at the same instant. *)
let checked_interval ~fn ~num_nodes config =
  if num_nodes < 2 then invalid_arg (fn ^ ": need at least two nodes");
  if config.num_flows < 0 then invalid_arg (fn ^ ": negative num_flows");
  let pps = config.packets_per_sec in
  (* The nanosecond count [Time.sec] rounds; NaN fails both bounds. *)
  let gap_ns = 1. /. pps *. 1e9 in
  if not (gap_ns >= 0.5 && gap_ns < 0x1p62) then
    invalid_arg
      (Printf.sprintf "%s: packets_per_sec %g gives no positive packet interval"
         fn pps);
  Time.sec (1. /. pps)

let validate ~num_nodes config =
  ignore (checked_interval ~fn:"Traffic" ~num_nodes config)

(* One slot = an endless succession of flows.  The slot record carries
   the current flow's state and is re-armed by two pre-bound callbacks
   — one per packet tick, one per flow restart — via [Engine.at_fn], so
   steady-state traffic generation schedules without allocating
   closures.  RNG draw order (flow id, src/dst pair, duration) and
   event scheduling order (packet tick before restart) match the
   original closure-based generator exactly; same-instant determinism
   depends on it. *)
type slot = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  until : Time.t;
  num_nodes : int;
  emit : src:Node_id.t -> Data_msg.t -> unit;
  interval : Time.t;
  next_flow_id : int ref;  (* shared across slots *)
  mutable s_flow_id : int;
  mutable s_src : Node_id.t;
  mutable s_dst : Node_id.t;
  mutable s_seq : int;
  mutable s_stop : Time.t;
  mutable s_at : Time.t;  (* next packet tick *)
}

let pick_pair s =
  let src = Rng.int s.rng s.num_nodes in
  let rec pick_dst () =
    let d = Rng.int s.rng s.num_nodes in
    if d = src then pick_dst () else d
  in
  (Node_id.of_int src, Node_id.of_int (pick_dst ()))

let rec start_flow s start =
  if Time.(start < s.until) then begin
    s.s_flow_id <- !(s.next_flow_id);
    incr s.next_flow_id;
    let src, dst = pick_pair s in
    s.s_src <- src;
    s.s_dst <- dst;
    let duration =
      Time.sec (Rng.exponential s.rng (Time.to_sec s.config.mean_flow_duration))
    in
    s.s_stop <- Time.min s.until (Time.add start duration);
    s.s_seq <- 0;
    emit_packet s start;
    (* The slot restarts as soon as this flow ends. *)
    ignore (Engine.at_fn s.engine s.s_stop restart s)
  end

and emit_packet s at =
  if Time.(at < s.s_stop) then begin
    s.s_at <- at;
    ignore (Engine.at_fn s.engine at packet_tick s)
  end

and packet_tick s =
  let at = s.s_at in
  let msg =
    Data_msg.fresh ~flow_id:s.s_flow_id ~seq:s.s_seq ~src:s.s_src ~dst:s.s_dst
      ~payload_bytes:s.config.payload_bytes ~origin_time:at
  in
  s.s_seq <- s.s_seq + 1;
  s.emit ~src:s.s_src msg;
  emit_packet s (Time.add at s.interval)

and restart s = start_flow s s.s_stop

let setup ~engine ~rng ~num_nodes ~config ~until ~emit =
  let interval = checked_interval ~fn:"Traffic.setup" ~num_nodes config in
  let next_flow_id = ref 0 in
  for _ = 1 to config.num_flows do
    let s =
      {
        engine;
        rng;
        config;
        until;
        num_nodes;
        emit;
        interval;
        next_flow_id;
        s_flow_id = 0;
        s_src = Node_id.of_int 0;
        s_dst = Node_id.of_int 0;
        s_seq = 0;
        s_stop = Time.zero;
        s_at = Time.zero;
      }
    in
    start_flow s (Rng.uniform_time rng config.startup_window)
  done

(* ---- Static flow plan (PDES) ------------------------------------------- *)

(* The sharded runner cannot draw flows lazily: a slot's restart draws
   (pair, duration) from the one shared traffic stream at its stop
   event, and under PDES that event lives on one shard while the next
   flow may belong to another.  [plan] replays the generator's exact
   draw sequence at setup instead — slot starts in slot order, then
   restart draws in stop-time order (ties in arming order, matching the
   scheduler's FIFO tie-break; draw-bearing ties are measure-zero
   anyway, since only stops clamped to [until] coincide and those draw
   nothing) — producing the same flows with no engine involved.  [arm]
   then schedules each flow on its owning shard: the first packet tick
   (subsequent ticks re-arm lazily, as the slot machinery does) plus a
   no-op marker at the stop time standing in for the restart event, so
   per-engine event counts match the classic path exactly. *)

type flow = {
  f_id : int;
  f_src : Node_id.t;
  f_dst : Node_id.t;
  f_start : Time.t;
  f_stop : Time.t;
}

let plan ~rng ~num_nodes ~config ~until =
  ignore (checked_interval ~fn:"Traffic.plan" ~num_nodes config);
  let pick_pair () =
    let src = Rng.int rng num_nodes in
    let rec pick_dst () =
      let d = Rng.int rng num_nodes in
      if d = src then pick_dst () else d
    in
    let src = Node_id.of_int src in
    (src, Node_id.of_int (pick_dst ()))
  in
  let next_flow_id = ref 0 in
  let flows = ref [] in
  (* Pending restarts, ordered by (stop time, arming order). *)
  let pending = ref [] in
  let rec insert ((t, s, _) as x) = function
    | [] -> [ x ]
    | ((t', s', _) as y) :: rest ->
        if (t, s) < (t', s') then x :: y :: rest else y :: insert x rest
  in
  let arm_seq = ref 0 in
  let start_flow start =
    if Time.(start < until) then begin
      let id = !next_flow_id in
      incr next_flow_id;
      let src, dst = pick_pair () in
      let duration =
        Time.sec (Rng.exponential rng (Time.to_sec config.mean_flow_duration))
      in
      let stop = Time.min until (Time.add start duration) in
      flows :=
        { f_id = id; f_src = src; f_dst = dst; f_start = start; f_stop = stop }
        :: !flows;
      pending := insert ((stop :> int), !arm_seq, ()) !pending;
      incr arm_seq
    end
  in
  for _ = 1 to config.num_flows do
    start_flow (Rng.uniform_time rng config.startup_window)
  done;
  let rec drain () =
    match !pending with
    | [] -> ()
    | (stop_ns, _, ()) :: rest ->
        pending := rest;
        start_flow (Time.unsafe_of_ns stop_ns);
        drain ()
  in
  drain ();
  List.rev !flows

(* Armed-flow state: like [slot], but single-flow (no restart chain). *)
type armed = {
  a_engine : Engine.t;
  a_config : config;
  a_emit : src:Node_id.t -> Data_msg.t -> unit;
  a_interval : Time.t;
  a_flow : flow;
  mutable a_seq : int;
  mutable a_at : Time.t;
}

let stop_marker (_ : armed) = ()

let rec arm_tick a at =
  if Time.(at < a.a_flow.f_stop) then begin
    a.a_at <- at;
    ignore (Engine.at_fn a.a_engine at armed_tick a)
  end

and armed_tick a =
  let at = a.a_at in
  let msg =
    Data_msg.fresh ~flow_id:a.a_flow.f_id ~seq:a.a_seq ~src:a.a_flow.f_src
      ~dst:a.a_flow.f_dst ~payload_bytes:a.a_config.payload_bytes
      ~origin_time:at
  in
  a.a_seq <- a.a_seq + 1;
  a.a_emit ~src:a.a_flow.f_src msg;
  arm_tick a (Time.add at a.a_interval)

let arm ~engine ~config ~emit flow =
  let a =
    {
      a_engine = engine;
      a_config = config;
      a_emit = emit;
      a_interval = Time.sec (1. /. config.packets_per_sec);
      a_flow = flow;
      a_seq = 0;
      a_at = Time.zero;
    }
  in
  arm_tick a flow.f_start;
  (* Stands in for the classic restart event so event counts match. *)
  ignore (Engine.at_fn engine flow.f_stop stop_marker a)
