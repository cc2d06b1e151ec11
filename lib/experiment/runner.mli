(** Builds and runs one complete simulation from a {!Scenario.t}:
    mobility processes, radio channel, per-node MAC + routing agent,
    CBR workload, metrics hooks, the observability bus, and
    (optionally) the loop-freedom auditor, invariant monitor, JSONL
    trace writer and time-series sampler. *)

type outcome = {
  metrics : Metrics.t;
  summary : Metrics.summary;
  events_processed : int;
  mac_queue_drops : int;  (** interface-queue overflows, all nodes *)
  mac_unicast_failures : int;  (** retry-limit link failures, all nodes *)
  transmissions : int;  (** every frame on the air, ACKs included *)
  invariant_violations : int;
      (** monitor verdict; 0 when no monitor was attached *)
}

(** A handle over a built-but-not-yet-run simulation, for tests and
    examples that need to inspect or intervene mid-run. *)
type sim = {
  engine : Sim.Engine.t;
  agents : Routing.Agent.t array;
  macs : Net.Mac.t array;
  channel : Net.Channel.t;
  bus : Obs.Bus.t;  (** the run's observability bus *)
  inject : src:int -> dst:int -> unit;
      (** originate one data packet now (unique uid per call) *)
  sim_metrics : Metrics.t;
  finalize : unit -> unit;  (** collect end-of-run gauges *)
  mutable monitor : Obs.Monitor.t option;
  mutable cleanup : (unit -> unit) list;
      (** file closers etc., run by {!finish} *)
}

val run :
  ?on_engine:(Sim.Engine.t -> unit) ->
  ?obs:Obs.Bus.t ->
  ?monitor:bool ->
  ?trace_out:string ->
  ?pcap_out:string ->
  ?sample:Sim.Time.t ->
  ?sample_out:string ->
  ?telemetry_out:string ->
  ?telemetry_prom:string ->
  ?telemetry_every:Sim.Time.t ->
  ?prepare:(sim -> unit) ->
  Scenario.t ->
  outcome
(** Build, optionally instrument, run to completion and summarise.

    [obs]: supply the observability bus (default: a fresh one —
    disabled unless something below attaches a sink).
    [monitor]: attach the continuous LDR invariant monitor.
    [trace_out]: stream every bus event as JSONL to this file.
    [pcap_out]: capture every transmitted frame, byte-exact, to this
    pcap file ({!Net.Pcap}).
    [sample]: write time-series gauges every [sample] of virtual time
    to [sample_out] (default ["samples.jsonl"]); a final sample is
    always taken at the horizon, whatever the interval.
    [telemetry_out] / [telemetry_prom]: runtime telemetry
    ({!Obs.Telemetry}) as JSONL samples and/or an atomically-replaced
    Prometheus text snapshot, every [telemetry_every] of virtual time
    (default 1 s) plus once at the horizon, sampled from an engine
    cadence that does not perturb the simulation.
    [prepare]: runs on the built simulation just before the engine
    starts — the hook for fault injection ({!Fault}) and custom sinks.

    Trace, pcap, telemetry and sample files are flushed and closed
    before returning, and also when the run raises (the exception is
    then re-raised): a failed run's trace reads back up to the
    failure.  The JSONL sink is attached {e before} the monitor, so a
    violation line in the trace always follows the table write that
    caused it. *)

val build : ?on_engine:(Sim.Engine.t -> unit) -> ?obs:Obs.Bus.t ->
  Scenario.t -> sim
(** Construct the simulation with its workload scheduled; the caller
    runs the engine.  When the ["manet"] trace source is enabled
    ({!Trace.on}), a pretty-printing sink is attached to the bus —
    except on {!Parallel} worker domains, where the sink's global Logs
    reporter and shared formatter would race across trials.

    Every piece of mutable state a run touches is created here, per
    simulation: engine + RNG streams, metrics, the observability bus
    (with its intern table), the loop-audit scratch array.  Nothing is
    shared across two [build]s, which is what makes trials safe to run
    on concurrent domains (see [docs/PARALLELISM.md]).  The one
    exception is an explicitly shared [?obs] bus: callers fanning
    trials in parallel must not pass one. *)

val attach_trace : sim -> string -> unit
(** Open [path] and stream every subsequent bus event to it as JSONL;
    closed by {!finish}. *)

val attach_pcap : sim -> string -> unit
(** Open [path] and capture every transmitted frame to it as pcap
    ({!Net.Pcap.write} from a channel transmit hook); closed by
    {!finish}. *)

val attach_monitor : ?ring:int -> ?quiet:bool -> sim -> Obs.Monitor.t
(** Attach the continuous invariant monitor, wired to the agents'
    {!Routing.Agent.invariants}.  Also stored in [sim.monitor]. *)

val attach_sampler : sim -> every:Sim.Time.t -> until:Sim.Time.t ->
  string -> unit
(** Schedule gauge sampling to a JSONL file; closed by {!finish}.  A
    final sample fires at exactly [until] even when [until] is not a
    multiple of [every]. *)

val attach_telemetry : sim -> ?jsonl:string -> ?prom:string ->
  every:Sim.Time.t -> until:Sim.Time.t -> unit -> unit
(** Schedule {!Obs.Telemetry} sampling every [every] of virtual time
    (plus a final sample at [until]); the collector is closed by
    {!finish}. *)

val finish : sim -> unit
(** Run [finalize] and every registered cleanup (idempotent on the
    cleanup list).  {!run} calls this itself. *)
