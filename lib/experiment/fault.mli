(** Seeded protocol faults, for exercising the invariant monitor.

    Real LDR cannot violate its own ordering invariant (that is the
    paper's Theorem 1), so testing the monitor requires corrupting an
    agent from outside: these helpers schedule a malformed control
    message into an otherwise-healthy run. *)

type injection = {
  injected : bool ref;
      (** [true] once the fault has actually been delivered; stays
          [false] if no node had an active route at [at]. *)
  stamp : int;  (** The forged sequence-number stamp. *)
  mutable victim : int;
      (** The node that received the forged RREP (-1 until injected) —
          the monitor's violating table write happens here. *)
  mutable dst : int;
      (** Destination of the forged route (-1 until injected). *)
  mutable via : int;
      (** Successor the forged reply arrived from / advertises (-1
          until injected). *)
}
(** What was injected and where, so tests and mcheck can assert
    {e which} table write tripped the monitor rather than just that
    something did. *)

val stale_seqno : ?stamp:int -> Runner.sim -> at:Sim.Time.t -> injection
(** At virtual time [at], deliver a forged RREP to the first node that
    has an active route: it advertises that node's current successor
    with an absurdly new sequence number ([stamp], default 1e6).  The
    node installs it (NDC accepts newer numbers unconditionally), and
    the written edge's successor no longer dominates — the invariant
    monitor, if attached, fires at that exact table write.

    The returned record's [injected] ref becomes [true] — and its
    [victim]/[dst]/[via] fields are filled — once the fault has
    actually been injected.  Pass via {!Runner.run}'s [prepare]
    callback or call on a built {!Runner.sim} before running. *)
