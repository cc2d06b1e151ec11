open Sim
open Packets

(* Per-receiver reception state.  Records are pooled inside [tx_job]s
   and reused across transmissions — every field is mutable and reset
   on reuse, so the steady-state delivery path allocates nothing. *)
type rx = {
  mutable rx_frame : Frame.t;
  mutable tx_dist : float;
      (** receiver-to-transmitter distance, for capture (transiently
          holds the squared distance between candidate collection and
          the delivery pass) *)
  mutable gain : float;
      (** shadowing range factor of this link; exactly [1.] without a
          link model, in which case the delivery pass is bit-identical
          to the plain unit disk *)
  mutable corrupted : bool;
  mutable locked : bool;  (** this arrival captured the receiver *)
  mutable rx_radio : radio;
}

and radio = {
  id : Node_id.t;
  seq : int;  (** attach order; candidates are ordered newest first *)
  idx : int;  (** slot in the world's position store *)
  mutable attached : bool;
      (** false while the node is down (churn): the radio is skipped as
          a reception candidate and dropped from the spatial index *)
  mutable receive : Frame.t -> unit;
  mutable medium : bool -> unit;
  mutable busy_count : int;  (** in-range transmissions currently in the air *)
  mutable tx_count : int;  (** own transmissions in the air (0 or 1) *)
  mutable current_rx : rx;  (** == [no_rx] when not locked to a frame *)
}

let dummy_frame =
  { Frame.src = Node_id.of_int 0; dst = Frame.Broadcast; body = Frame.Ack }

(* Sentinels, compared physically.  [no_rx]/[dummy_radio] are mutually
   recursive so an idle radio and a free rx slot can point at them
   instead of carrying options. *)
let rec no_rx =
  {
    rx_frame = dummy_frame;
    tx_dist = 0.;
    gain = 1.;
    corrupted = true;
    locked = false;
    rx_radio = dummy_radio;
  }

and dummy_radio =
  {
    id = Node_id.of_int 0;
    seq = -1;
    idx = -1;
    attached = false;
    receive = ignore;
    medium = ignore;
    busy_count = 0;
    tx_count = 0;
    current_rx = no_rx;
  }

let new_rx () =
  {
    rx_frame = dummy_frame;
    tx_dist = 0.;
    gain = 1.;
    corrupted = false;
    locked = false;
    rx_radio = dummy_radio;
  }

(* How far a radio's true position may drift from its indexed position
   before the index is resynced.  Queries are inflated by the current
   drift bound, so any margin is exact; smaller margins resync more
   often, larger ones scan more cells. *)
let slack_margin_m = 25.

(* One in-flight transmission: the source plus the touched radios'
   reception records, alive from [transmit] to its end-of-transmission
   event.  Jobs are pooled on a free stack; the job itself is the
   argument of the closure-free end-of-tx event, so a transmission
   schedules without allocating. *)
type tx_job = {
  mutable job_src : radio;
  mutable job_rxs : rx array;
  mutable job_n : int;
  job_owner : t;
}

(* Positions come from the shared [Pos_store] planes and cell membership
   is maintained incrementally (ids only; the exact filter reads live
   store positions).  [slots] maps a store slot back to its radio —
   [dummy_radio] until that slot attaches. *)
and t = {
  engine : Engine.t;
  params : Params.t;
  max_speed : float option;
      (* [Some v]: no radio moves faster than [v] m/s, so indexed
         positions age at a known rate.  [None]: unknown speeds — the
         index is resynced whenever the clock has advanced, which is
         exact for any mobility. *)
  mutable next_seq : int;
  store : Mobility.Pos_store.t;
  index : Geom.Cell_index.t;
  slots : radio array;
  link : Link_model.t option;
      (* None on the classic unit disk — the propagate fast path then
         skips every per-candidate gain/wall lookup *)
  mutable synced_at : Time.t;
  mutable fresh : bool;
  mutable hooks : (Node_id.t -> Frame.t -> unit) list;
  mutable tx_total : int;
  mutable job_pool : tx_job array;
  mutable job_free : int;  (* jobs [0, job_free) are free *)
  obs : Obs.Bus.t;
}

let create ~engine ?max_speed ?obs ~world ?link ~params () =
  (* Cell side = half the carrier-sense range: a CS-disk query scans
     ~25 cells, but the cells hug the disk, so the candidate superset
     is ~1.7x the true disk population (a full-range cell side gives
     9 coarse cells and a ~2.9x superset — more wasted exact distance
     checks per query, which dominate now that cells are one array
     load each). *)
  let cell = params.Params.cs_range_m /. 2. in
  let n = Nodes.length world in
  {
    engine;
    params;
    max_speed;
    next_seq = 0;
    store = Nodes.store world;
    index =
      Geom.Cell_index.create ~cell ~width:(Nodes.width world)
        ~height:(Nodes.height world) ~ids:n;
    slots = Array.make n dummy_radio;
    link;
    synced_at = Time.zero;
    fresh = false;
    hooks = [];
    tx_total = 0;
    job_pool = [||];
    job_free = 0;
    obs = (match obs with Some b -> b | None -> Obs.Bus.create ());
  }

let params t = t.params
let obs t = t.obs

let frame_dst_int (f : Frame.t) =
  match f.dst with Frame.Broadcast -> -1 | Frame.Unicast d -> Node_id.to_int d

let attach t ~idx ~id =
  if t.slots.(idx) != dummy_radio then
    invalid_arg "Channel.attach: store slot already attached";
  let r =
    {
      id;
      seq = t.next_seq;
      idx;
      attached = true;
      receive = ignore;
      medium = ignore;
      busy_count = 0;
      tx_count = 0;
      current_rx = no_rx;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.slots.(idx) <- r;
  t.fresh <- false;
  r

let set_receiver r f = r.receive <- f
let set_medium_listener r f = r.medium <- f
let radio_id r = r.id

let transmitting r = r.tx_count > 0

let carrier_busy r = r.busy_count > 0 || r.tx_count > 0

let busy _t r = carrier_busy r

(* ---- Transmission-job pool --------------------------------------------- *)

let new_job owner =
  {
    job_src = dummy_radio;
    job_rxs = Array.init 8 (fun _ -> new_rx ());
    job_n = 0;
    job_owner = owner;
  }

let alloc_job t =
  if t.job_free = 0 then begin
    let extra = Stdlib.max 4 (Array.length t.job_pool) in
    t.job_pool <-
      Array.append (Array.init extra (fun _ -> new_job t)) t.job_pool;
    t.job_free <- extra
  end;
  t.job_free <- t.job_free - 1;
  let job = t.job_pool.(t.job_free) in
  job.job_n <- 0;
  job

let free_job t job =
  t.job_pool.(t.job_free) <- job;
  t.job_free <- t.job_free + 1

(* Append a touched radio, keeping entries sorted by attach seq
   descending (newest first), so the order does not depend on how the
   index happens to visit cells.  Candidates arrive in cell order and
   insertion-sort into place, a handful of pointer rotations for the
   few radios a disk holds. *)
let job_add job r d2 gain =
  let n = job.job_n in
  if n = Array.length job.job_rxs then
    job.job_rxs <-
      Array.append job.job_rxs (Array.init (Stdlib.max 8 n) (fun _ -> new_rx ()));
  let rxs = job.job_rxs in
  let i = ref n in
  while !i > 0 && rxs.(!i - 1).rx_radio.seq < r.seq do decr i done;
  let spare = rxs.(n) in
  for k = n downto !i + 1 do
    rxs.(k) <- rxs.(k - 1)
  done;
  rxs.(!i) <- spare;
  spare.rx_radio <- r;
  spare.tx_dist <- d2;
  spare.gain <- gain;
  spare.corrupted <- false;
  spare.locked <- false;
  job.job_n <- n + 1

(* ---- Spatial index ----------------------------------------------------- *)

(* Upper bound on how far any radio may be from where the index placed
   it.  With a known speed bound this is speed x age; with an unknown one
   [refresh] resyncs on every clock advance, so the drift is zero. *)
let drift_bound t =
  match t.max_speed with
  | None -> 0.
  | Some v ->
      let age = Time.diff (Engine.now t.engine) t.synced_at in
      if Time.equal age Time.zero then 0. else v *. Time.to_sec age

(* Resync: refresh every attached slot's store position in place (a
   scalar lerp unless the leg advanced) and move it between cells only
   when its cell changed — O(n) float work, no rebuild, no
   allocation. *)
let resync t =
  let now = Engine.now t.engine in
  let store = t.store and index = t.index in
  for i = 0 to Array.length t.slots - 1 do
    let r = Array.unsafe_get t.slots i in
    if r.attached then begin
      Mobility.Pos_store.refresh store i now;
      Geom.Cell_index.update index i ~x:(Mobility.Pos_store.x store i)
        ~y:(Mobility.Pos_store.y store i)
    end
  done;
  t.synced_at <- now;
  t.fresh <- true

(* Resync the index if stale; returns the post-resync drift bound so
   queries pay for at most one clock-to-seconds conversion. *)
let refresh t =
  if not t.fresh then resync t;
  match t.max_speed with
  | None ->
      if Time.(Engine.now t.engine > t.synced_at) then resync t;
      0.
  | Some _ ->
      let b = drift_bound t in
      if b > slack_margin_m then begin
        resync t;
        0.
      end
      else b

(* Churn: a detached radio stops being a reception candidate and is
   dropped from the index immediately; frames already locked on it are
   discarded by the down-gated MAC.  Reattaching re-inserts it at its
   current position. *)
let set_attached t r v =
  if r.attached <> v then begin
    r.attached <- v;
    if v then begin
      Mobility.Pos_store.refresh t.store r.idx (Engine.now t.engine);
      Geom.Cell_index.update t.index r.idx
        ~x:(Mobility.Pos_store.x t.store r.idx)
        ~y:(Mobility.Pos_store.y t.store r.idx)
    end
    else Geom.Cell_index.remove t.index r.idx
  end

let attached r = r.attached

(* Spatial-index health gauges (Obs.Telemetry). *)
let index_stats t =
  let s = Geom.Cell_index.stats t.index in
  (s.Geom.Cell_index.cells, s.occupied, s.max_occupancy)

(* Queries visit each candidate exactly once, applying the exact range
   predicate against live positions; survivors are ordered by attach
   sequence, newest first.  The query disk is inflated by the drift
   bound, so the candidate superset always covers the true disk
   population; per-seed determinism therefore does not depend on the
   index. *)
let rec ins_radio x l =
  match l with
  | [] -> [ x ]
  | (y :: tl) as full -> if x.seq > y.seq then x :: full else y :: ins_radio x tl

let neighbors_in_range t r =
  let now = Engine.now t.engine in
  let store = t.store in
  Mobility.Pos_store.refresh store r.idx now;
  let cx = Mobility.Pos_store.x store r.idx
  and cy = Mobility.Pos_store.y store r.idx in
  let rng2 = t.params.range_m *. t.params.range_m in
  let radius = t.params.range_m +. refresh t in
  let acc = ref [] in
  Geom.Cell_index.iter_disk t.index ~x:cx ~y:cy ~radius (fun i ->
      let other = t.slots.(i) in
      if other != r && other.attached then begin
        Mobility.Pos_store.refresh store i now;
        let dx = Mobility.Pos_store.x store i -. cx
        and dy = Mobility.Pos_store.y store i -. cy in
        if (dx *. dx) +. (dy *. dy) <= rng2 then acc := ins_radio other !acc
      end);
  List.map (fun o -> o.id) !acc

let add_transmit_hook t f = t.hooks <- t.hooks @ [ f ]
let transmissions t = t.tx_total

(* Allocated jobs live in [job_pool.(job_free..)]; each is one
   transmission still in the air. *)
let in_flight t = Array.length t.job_pool - t.job_free

let mark_busy r =
  let was = carrier_busy r in
  r.busy_count <- r.busy_count + 1;
  if not was then r.medium true

let mark_idle r =
  r.busy_count <- r.busy_count - 1;
  assert (r.busy_count >= 0);
  if not (carrier_busy r) then r.medium false

(* End of transmission: release the medium, deliver surviving locked
   frames, and recycle the job.  Clearing each rx's frame and radio
   drops the job's references into live simulation state between
   transmissions. *)
let end_of_tx job =
  let t = job.job_owner in
  let src = job.job_src in
  src.tx_count <- src.tx_count - 1;
  if not (carrier_busy src) then src.medium false;
  for k = 0 to job.job_n - 1 do
    let rx = job.job_rxs.(k) in
    let r = rx.rx_radio in
    mark_idle r;
    if rx.locked then begin
      (* Only clear the lock if it is still ours (a corrupting overlap
         never replaces the lock, so it is). *)
      if r.current_rx == rx then r.current_rx <- no_rx;
      (* Starting to transmit mid-reception also kills it. *)
      if (not rx.corrupted) && r.tx_count = 0 then r.receive rx.rx_frame
      else if Obs.Bus.on t.obs then
        (* A locked frame the radio would have decoded, lost to an
           overlapping transmission (or its own). *)
        Obs.Bus.collision t.obs
          ~time:(Engine.now t.engine)
          ~node:(Node_id.to_int r.id)
          ~cls:(Obs.Bus.intern t.obs (Frame.class_name rx.rx_frame))
          ~from:(Node_id.to_int rx.rx_frame.Frame.src)
    end;
    rx.rx_frame <- dummy_frame;
    rx.rx_radio <- dummy_radio
  done;
  job.job_src <- dummy_radio;
  free_job t job

(* Count and announce the transmission, collect the touched radios
   around the source position (scalars — no Vec2 box on this path),
   resolve capture, and arm the end-of-transmission event. *)
let transmit t src frame ~duration =
  t.tx_total <- t.tx_total + 1;
  List.iter (fun hook -> hook src.id frame) t.hooks;
  if Obs.Bus.on t.obs then
    Obs.Bus.tx t.obs
      ~time:(Engine.now t.engine)
      ~node:(Node_id.to_int src.id)
      ~cls:(Obs.Bus.intern t.obs (Frame.class_name frame))
      ~dst:(frame_dst_int frame) ~bytes:(Frame.encoded_length frame);
  Mobility.Pos_store.refresh t.store src.idx (Engine.now t.engine);
  let sx = Mobility.Pos_store.x t.store src.idx
  and sy = Mobility.Pos_store.y t.store src.idx in
  (* Touched radios are fixed at transmission start: node movement within
     one frame airtime (~2 ms) is a fraction of a millimetre.  Radios out
     to the carrier-sense range defer and suffer interference; only those
     within decode range can receive the frame.  A shadowed pair's
     ranges are both scaled by its gain; the partition wall absorbs the
     crossing frame entirely. *)
  let cs2 = t.params.cs_range_m *. t.params.cs_range_m in
  let rng2 = t.params.range_m *. t.params.range_m in
  let job = alloc_job t in
  job.job_src <- src;
  let link = t.link in
  let now = Engine.now t.engine in
  let src_int = Node_id.to_int src.id in
  (* Candidate query disks are inflated by the largest possible gain so
     the superset covers every shadowed-but-decodable pair; the exact
     per-pair predicate below then decides.  Without a link model this
     is exactly the old unit-disk collection, same float ops, same
     order. *)
  let inflate =
    match link with None -> 1. | Some l -> Link_model.f_max l
  in
  (* One distance computation per candidate, stashed squared in
     [tx_dist]; the delivery pass replaces it with [sqrt d2], which
     equals [Vec2.dist] bit-for-bit, so caching cannot change
     outcomes. *)
  let radius = (t.params.cs_range_m *. inflate) +. refresh t in
  let store = t.store in
  Geom.Cell_index.iter_disk t.index ~x:sx ~y:sy ~radius (fun i ->
      let r = Array.unsafe_get t.slots i in
      if r != src && r.attached then begin
        Mobility.Pos_store.refresh store i now;
        let ox = Mobility.Pos_store.x store i
        and oy = Mobility.Pos_store.y store i in
        let dx = ox -. sx and dy = oy -. sy in
        let d2 = (dx *. dx) +. (dy *. dy) in
        match link with
        | None -> if d2 <= cs2 then job_add job r d2 1.
        | Some l ->
            if not (Link_model.blocked l ~now ~x1:sx ~x2:ox) then begin
              let g = Link_model.gain l src_int (Node_id.to_int r.id) in
              if d2 <= cs2 *. (g *. g) then job_add job r d2 g
            end
      end);
  let was_busy_src = carrier_busy src in
  src.tx_count <- src.tx_count + 1;
  if not was_busy_src then src.medium true;
  let ratio = t.params.capture_distance_ratio in
  for k = 0 to job.job_n - 1 do
    let rx = job.job_rxs.(k) in
    let r = rx.rx_radio in
    mark_busy r;
    let d2 = rx.tx_dist in
    let g = rx.gain in
    (* Effective distance folds the shadowing gain in: capture compares
       effective signal strengths.  [g = 1.] (no link model) leaves
       every float untouched. *)
    let dist = sqrt d2 in
    let dist = if g = 1. then dist else dist /. g in
    rx.tx_dist <- dist;
    rx.rx_frame <- frame;
    let decodable = if g = 1. then d2 <= rng2 else d2 <= rng2 *. (g *. g) in
    (* A radio that is transmitting decodes nothing.  An overlap is
       resolved by the capture effect: the markedly closer (stronger)
       transmitter wins; comparable powers corrupt both frames. *)
    if r.tx_count > 0 then ()
    else begin
      let cur = r.current_rx in
      if cur != no_rx then begin
        if dist >= ratio *. cur.tx_dist then
          (* New arrival too weak to disturb the locked frame. *)
          ()
        else if cur.tx_dist >= ratio *. dist && decodable then begin
          (* New arrival captures the receiver. *)
          cur.corrupted <- true;
          rx.locked <- true;
          r.current_rx <- rx
        end
        else cur.corrupted <- true
      end
      else if decodable then begin
        rx.locked <- true;
        r.current_rx <- rx
      end
    end
  done;
  ignore (Engine.after_fn t.engine duration end_of_tx job)
