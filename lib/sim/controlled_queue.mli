(** Controllable event set for systematic-exploration (model-checking)
    runs.

    A third scheduler backing for {!Engine}: a plain array of pending
    events with public integer sequence ids, built for *introspection
    and choice* rather than throughput.  Two event classes:

    - {e timed} events (the default) carry an absolute firing time and
      behave exactly like calendar events: the earliest fires
      first, insertion order breaking ties.
    - {e floating} events model in-flight messages of an asynchronous
      system: they may fire at {e any} point at or after their creation
      — the explorer can delay a message past timers and other
      messages, which is where routing-protocol counterexamples live.

    Under the default FIFO policy ({!pop_min}) floating events are
    indistinguishable from timed events at their creation time, so a
    controlled engine that never uses the choice API is event-for-event
    identical to the stock calendar run (asserted by a qcheck property
    in [test_sim.ml]). *)

type t

type ready = {
  r_seq : int;  (** stable id: assigned in schedule order *)
  r_tag : int;  (** user tag; mcheck stores the target node, -1 = timer *)
  r_time : int;  (** nominal time, ns *)
  r_floating : bool;
  r_label : string;  (** human description, may be empty *)
}
(** One explorer-choosable event. *)

val create : unit -> t

val schedule :
  t ->
  ?floating:bool ->
  ?tag:int ->
  ?label:string ->
  time:int ->
  (unit -> unit) ->
  int
(** Add an event; returns its sequence id.  [floating] defaults to
    false (timed), [tag] to -1, [label] to [""]. *)

val cancel : t -> int -> unit
(** By sequence id; cancelling a fired/cancelled/unknown id is a no-op. *)

val live_count : t -> int

val next_time_ns : t -> int
(** Earliest nominal time over all live events, [max_int] when empty. *)

val ready : t -> ready list
(** The explorer's choice set, in sequence order: every live floating
    event, plus the timed events tied at the earliest timed instant.
    Empty iff the queue is empty. *)

val pending : t -> ready list
(** Every live event (ready or not), in sequence order — the
    pending-event component of mcheck's state digest. *)

val take : t -> int -> (int * (unit -> unit)) option
(** Remove the live event with the given sequence id and return its
    (nominal time, callback); [None] if no such live event.  The caller
    owns clock bookkeeping and invocation. *)

val pop_min : t -> ?limit:int -> unit -> (int * (unit -> unit)) option
(** Remove and return the global (time, seq)-minimum over {e all} live
    events — the FIFO default policy, matching calendar semantics.
    With [limit], only events at or before it are eligible. *)
