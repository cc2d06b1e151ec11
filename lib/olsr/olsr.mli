(** OLSR (RFC 3626 subset) — the paper's proactive baseline.

    Implements neighbor sensing via periodic HELLOs, multipoint-relay
    (MPR) selection, TC flooding over the MPR backbone, and hop-count
    (breadth-first) route computation.  Includes the paper's fix to the
    INRIA code: a FIFO jitter queue that spaces consecutive control
    transmissions by a uniform 0-15 ms gap while preserving order.
    HNA/MID are out of scope (single interface, no gateways).

    Routes are recomputed lazily: at the first forwarding lookup after a
    HELLO, TC or link failure changed the link state, reading link and
    topology expiry at that instant.  Observers ([successor],
    [route_stats]) never trigger that recomputation; while it is pending
    they read a separate copy computed for the current instant. *)

type config = {
  hello_interval : Sim.Time.t;  (** 2 s *)
  tc_interval : Sim.Time.t;  (** 5 s *)
  neighbor_hold : Sim.Time.t;  (** 3 x hello *)
  topology_hold : Sim.Time.t;  (** 3 x TC *)
  jitter_max : Sim.Time.t;  (** FIFO jitter-queue gap bound, 15 ms *)
  dup_hold : Sim.Time.t;
  data_ttl : int;
}

val default_config : config

val factory : ?config:config -> unit -> Routing.Agent.factory

val name : string

(** MPR selection in isolation, for unit tests: given the symmetric
    neighbors and each one's own symmetric neighborhood, return a minimal
    (greedy) relay set covering every strict two-hop neighbor. *)
val select_mprs :
  self:Packets.Node_id.t ->
  neighbors:(Packets.Node_id.t * Packets.Node_id.t list) list ->
  Packets.Node_id.Set.t

(** Route computation in isolation, for unit tests: a breadth-first
    search over the undirected [links] (duplicates and self-links
    allowed) from the first hops [neighbors], at distance 1, never
    passing through [self].  Each destination's next hop is the
    smallest-id first hop among those nearest to it.  Returns
    [(destination, (next hop, distance))] in ascending destination
    order. *)
val shortest_routes :
  self:Packets.Node_id.t ->
  neighbors:Packets.Node_id.t list ->
  links:(Packets.Node_id.t * Packets.Node_id.t) list ->
  (Packets.Node_id.t * (Packets.Node_id.t * int)) list
