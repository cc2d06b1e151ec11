(** CBR workload generator (paper, Section 4).

    The load consists of [num_flows] concurrent flow slots.  Each slot
    picks a random source/destination pair and a duration drawn from an
    exponential with mean [mean_flow_duration] (100 s in the paper), emits
    [packets_per_sec] fixed-size packets, then immediately restarts with a
    fresh random pair — keeping the number of concurrent flows constant,
    as the paper's "10-flow" / "30-flow" loads require. *)

open Packets

type config = {
  num_flows : int;
  packets_per_sec : float;
  payload_bytes : int;  (** 512 in the paper *)
  mean_flow_duration : Sim.Time.t;  (** exp-distributed flow length *)
  startup_window : Sim.Time.t;
      (** flow starts are staggered uniformly over this window *)
}

val default_config : config
(** 10 flows, 4 pps, 512 B, exp(100 s), 10 s startup window. *)

val validate : num_nodes:int -> config -> unit
(** Raise [Invalid_argument] unless the workload can run: at least two
    nodes, [num_flows >= 0], and a finite positive [packets_per_sec]
    whose inter-packet gap is at least one nanosecond.  {!setup} and
    {!plan} check the same. *)

val setup :
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  num_nodes:int ->
  config:config ->
  until:Sim.Time.t ->
  emit:(src:Node_id.t -> Data_msg.t -> unit) ->
  unit
(** Schedule the whole workload on [engine].  [emit] is called at each
    packet origination time with a fresh [Data_msg.t] (unique
    (flow_id, seq), origin time stamped).  Raises [Invalid_argument]
    on a workload {!validate} rejects. *)
