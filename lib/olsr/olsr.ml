open Sim
open Packets
module RA = Routing.Agent

let name = "olsr"

type config = {
  hello_interval : Time.t;
  tc_interval : Time.t;
  neighbor_hold : Time.t;
  topology_hold : Time.t;
  jitter_max : Time.t;
  dup_hold : Time.t;
  data_ttl : int;
}

let default_config =
  {
    hello_interval = Time.sec 2.;
    tc_interval = Time.sec 5.;
    neighbor_hold = Time.sec 6.;
    topology_hold = Time.sec 15.;
    jitter_max = Time.ms 15.;
    dup_hold = Time.sec 30.;
    data_ttl = Data_msg.default_ttl;
  }

(* ---- Scratch arrays indexed by node id ---------------------------------- *)

(* Node ids are dense small integers, so per-node scratch is a plain int
   array, widened on demand to cover the largest id seen. *)
let widen a n fill =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let push a n x =
  let a = widen a (n + 1) 0 in
  a.(n) <- x;
  a

let insertion_sort a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* ---- MPR selection (RFC 3626 8.3.1 greedy heuristic) ------------------- *)

(* Membership marks compare against a stamp that only ever grows, so no
   array is cleared between selections.  Entry [i] is one symmetric
   neighbor with its reported neighborhood; [cov] holds, entry after
   entry, each one's strict two-hop nodes without repeats. *)
type mprs = {
  mutable stamp : int;  (** the last selection's mark *)
  mutable tick : int;
  mutable nbr : int array;  (** id -> stamp: a symmetric neighbor *)
  mutable two : int array;  (** id -> stamp: a strict two-hop node *)
  mutable seen : int array;  (** id -> per-entry tick *)
  mutable providers : int array;  (** id -> entries covering it *)
  mutable provider : int array;  (** id -> the last entry covering it *)
  mutable covered : int array;  (** id -> stamp *)
  mutable chosen : int array;  (** id -> stamp: selected *)
  mutable ent_id : int array;
  mutable ent_nbrs : Node_id.t list array;
  mutable entries : int;
  mutable cov_start : int array;
  mutable cov : int array;
  mutable two_hop : int array;
}

let mprs_create () =
  {
    stamp = 0;
    tick = 0;
    nbr = [||];
    two = [||];
    seen = [||];
    providers = [||];
    provider = [||];
    covered = [||];
    chosen = [||];
    ent_id = [||];
    ent_nbrs = [||];
    entries = 0;
    cov_start = [||];
    cov = [||];
    two_hop = [||];
  }

let add_entry w n nbrs =
  let i = w.entries in
  w.ent_id <- push w.ent_id i (Node_id.to_int n);
  w.ent_nbrs <- widen w.ent_nbrs (i + 1) [];
  w.ent_nbrs.(i) <- nbrs;
  w.entries <- i + 1

let is_mpr w n =
  let n = Node_id.to_int n in
  n < Array.length w.chosen && w.chosen.(n) = w.stamp

(* Selects over the entries added since the last call; the result is
   read with [is_mpr].  Ties go to the smaller id, sole providers of
   some two-hop node are taken first, and duplicate entries for one
   neighbor behave as separate providers. *)
let select w ~self =
  let self = Node_id.to_int self in
  let k = w.entries in
  let bound = ref (self + 1) in
  for i = 0 to k - 1 do
    bound := max !bound (w.ent_id.(i) + 1);
    List.iter (fun x -> bound := max !bound (Node_id.to_int x + 1)) w.ent_nbrs.(i)
  done;
  let b = !bound in
  w.nbr <- widen w.nbr b 0;
  w.two <- widen w.two b 0;
  w.seen <- widen w.seen b 0;
  w.providers <- widen w.providers b 0;
  w.provider <- widen w.provider b 0;
  w.covered <- widen w.covered b 0;
  w.chosen <- widen w.chosen b 0;
  w.cov_start <- widen w.cov_start (k + 1) 0;
  w.tick <- w.tick + 1;
  let s = w.tick in
  w.stamp <- s;
  for i = 0 to k - 1 do
    w.nbr.(w.ent_id.(i)) <- s
  done;
  let ncov = ref 0 and ntwo = ref 0 in
  for i = 0 to k - 1 do
    w.tick <- w.tick + 1;
    let mine = w.tick in
    w.cov_start.(i) <- !ncov;
    List.iter
      (fun x ->
        let x = Node_id.to_int x in
        if x <> self && w.nbr.(x) <> s && w.seen.(x) <> mine then begin
          w.seen.(x) <- mine;
          w.cov <- push w.cov !ncov x;
          incr ncov;
          if w.two.(x) <> s then begin
            w.two.(x) <- s;
            w.providers.(x) <- 0;
            w.two_hop <- push w.two_hop !ntwo x;
            incr ntwo
          end;
          w.providers.(x) <- w.providers.(x) + 1;
          w.provider.(x) <- i
        end)
      w.ent_nbrs.(i);
    w.ent_nbrs.(i) <- []
  done;
  w.cov_start.(k) <- !ncov;
  w.entries <- 0;
  let remaining = ref !ntwo in
  let take i =
    w.chosen.(w.ent_id.(i)) <- s;
    for c = w.cov_start.(i) to w.cov_start.(i + 1) - 1 do
      let x = w.cov.(c) in
      if w.covered.(x) <> s then begin
        w.covered.(x) <- s;
        decr remaining
      end
    done
  in
  (* Mandatory picks: sole providers of some two-hop node, in ascending
     order of that node. *)
  insertion_sort w.two_hop !ntwo;
  for j = 0 to !ntwo - 1 do
    let x = w.two_hop.(j) in
    if w.providers.(x) = 1 then begin
      let i = w.provider.(x) in
      if w.chosen.(w.ent_id.(i)) <> s then take i
    end
  done;
  (* Greedy: repeatedly take the neighbor covering the most uncovered
     two-hop nodes (ties to the smaller id, for determinism). *)
  let stuck = ref false in
  while !remaining > 0 && not !stuck do
    let best = ref (-1) and best_gain = ref 0 in
    for i = 0 to k - 1 do
      let n = w.ent_id.(i) in
      if w.chosen.(n) <> s then begin
        let gain = ref 0 in
        for c = w.cov_start.(i) to w.cov_start.(i + 1) - 1 do
          if w.covered.(w.cov.(c)) <> s then incr gain
        done;
        if
          !best >= 0
          && (!best_gain > !gain
             || (!best_gain = !gain && w.ent_id.(!best) < n))
        then ()
        else if !gain > 0 then begin
          best := i;
          best_gain := !gain
        end
      end
    done;
    (* None: uncoverable two-hop nodes (asymmetric info); stop. *)
    if !best < 0 then stuck := true else take !best
  done

let select_mprs ~self ~neighbors =
  let w = mprs_create () in
  List.iter (fun (n, nbrs) -> add_entry w n nbrs) neighbors;
  select w ~self;
  List.fold_left
    (fun acc (n, _) -> if is_mpr w n then Node_id.Set.add n acc else acc)
    Node_id.Set.empty neighbors

(* ---- FIFO jitter queue (the paper's OLSR fix) --------------------------- *)

type jitter_queue = {
  jq : (unit -> unit) Queue.t;
  mutable draining : bool;
}

let jq_create () = { jq = Queue.create (); draining = false }

(* ---- Node state --------------------------------------------------------- *)

type link = {
  mutable sym : bool;
  mutable l_expires : Time.t;
  mutable their_sym_neighbors : Node_id.t list;
  mutable chose_me : bool;  (** this neighbor selected us as MPR *)
}

type topo = { mutable ansn : int; mutable advertised : Node_id.t list; mutable t_expires : Time.t }

(* ---- Route computation (hop-count BFS over neighbor + topology links) --- *)

(* The link graph as an edge buffer (both directions of every link) and
   the first hops, turned into adjacency rows by a counting sort on the
   source.  Duplicate edges and self-edges stay in; the BFS skips them
   as already reached. *)
type graph = {
  mutable src : int array;
  mutable dst : int array;
  mutable edges : int;
  mutable first : int array;
  mutable firsts : int;
  mutable bound : int;  (** 1 + the largest id seen *)
  mutable row : int array;  (** id -> its first successor's index *)
  mutable pos : int array;  (** id -> next free slot in its row *)
  mutable adj : int array;
}

(* One BFS result: [via]/[dist] by destination id ([via] = -1: no
   route), [order] the [count] routed ids in BFS order. *)
type routes = {
  mutable via : int array;
  mutable dist : int array;
  mutable order : int array;
  mutable count : int;
}

let graph_create () =
  {
    src = [||];
    dst = [||];
    edges = 0;
    first = [||];
    firsts = 0;
    bound = 0;
    row = [||];
    pos = [||];
    adj = [||];
  }

let routes_create () = { via = [||]; dist = [||]; order = [||]; count = 0 }

let clear_graph g ~self =
  g.edges <- 0;
  g.firsts <- 0;
  g.bound <- Node_id.to_int self + 1

let add_first g n =
  let n = Node_id.to_int n in
  g.first <- push g.first g.firsts n;
  g.firsts <- g.firsts + 1;
  if n >= g.bound then g.bound <- n + 1

(* The undirected link a-b. *)
let add_link g a b =
  let a = Node_id.to_int a and b = Node_id.to_int b in
  let m = g.edges in
  g.src <- push g.src m a;
  g.dst <- push g.dst m b;
  g.src <- push g.src (m + 1) b;
  g.dst <- push g.dst (m + 1) a;
  g.edges <- m + 2;
  if a >= g.bound then g.bound <- a + 1;
  if b >= g.bound then g.bound <- b + 1

let build_rows g =
  let m = g.edges and n = g.bound in
  g.row <- widen g.row (n + 1) 0;
  g.pos <- widen g.pos (n + 1) 0;
  g.adj <- widen g.adj m 0;
  Array.fill g.row 0 (n + 1) 0;
  for e = 0 to m - 1 do
    let k = g.src.(e) + 1 in
    g.row.(k) <- g.row.(k) + 1
  done;
  for v = 1 to n do
    g.row.(v) <- g.row.(v) + g.row.(v - 1)
  done;
  Array.blit g.row 0 g.pos 0 (n + 1);
  for e = 0 to m - 1 do
    let k = g.src.(e) in
    g.adj.(g.pos.(k)) <- g.dst.(e);
    g.pos.(k) <- g.pos.(k) + 1
  done

(* First hops in ascending id at distance 1, then breadth-first.  A node
   a parent reaches inherits the parent's first hop, so at every level
   the queue holds one block per first hop, in ascending first-hop
   order: each destination goes through the smallest-id first hop among
   those nearest to it, in whatever order a row lists its successors. *)
let bfs g r ~self =
  let self = Node_id.to_int self and n = g.bound in
  for i = 0 to r.count - 1 do
    r.via.(r.order.(i)) <- -1
  done;
  r.count <- 0;
  r.via <- widen r.via n (-1);
  r.dist <- widen r.dist n 0;
  r.order <- widen r.order n 0;
  build_rows g;
  insertion_sort g.first g.firsts;
  let reach y via dist =
    r.via.(y) <- via;
    r.dist.(y) <- dist;
    r.order.(r.count) <- y;
    r.count <- r.count + 1
  in
  for i = 0 to g.firsts - 1 do
    let f = g.first.(i) in
    if r.via.(f) < 0 then reach f f 1
  done;
  let head = ref 0 in
  while !head < r.count do
    let x = r.order.(!head) in
    incr head;
    let via = r.via.(x) and dist = r.dist.(x) + 1 in
    for k = g.row.(x) to g.row.(x + 1) - 1 do
      let y = g.adj.(k) in
      if y <> self && r.via.(y) < 0 then reach y via dist
    done
  done

let next_hop r dst =
  let d = Node_id.to_int dst in
  if d < Array.length r.via then r.via.(d) else -1

let shortest_routes ~self ~neighbors ~links =
  let g = graph_create () and r = routes_create () in
  clear_graph g ~self;
  List.iter (add_first g) neighbors;
  List.iter (fun (a, b) -> add_link g a b) links;
  bfs g r ~self;
  let rec collect d acc =
    if d < 0 then acc
    else
      let v = r.via.(d) in
      collect (d - 1)
        (if v < 0 then acc
         else (Node_id.of_int d, (Node_id.of_int v, r.dist.(d))) :: acc)
  in
  collect (Array.length r.via - 1) []

type state = {
  ctx : RA.ctx;
  cfg : config;
  links : link Node_id.Table.t;
  topology : topo Node_id.Table.t;  (** keyed by TC originator *)
  dups : unit Routing.Rreq_cache.t;
  mprs : mprs;
  mutable ansn : int;
  mutable msg_seq : int;
  graph : graph;
  routes : routes;  (** what forwarding uses *)
  mutable routes_dirty : bool;
  mutable changes : int;  (** link-state mutations so far *)
  peek : routes;  (** observers' view while [routes] is dirty *)
  mutable peek_changes : int;
  mutable peek_at : Time.t;
  queue : jitter_queue;
}

let now t = Engine.now t.ctx.engine

let live_link t (l : link) = Time.(l.l_expires > now t)

(* ---- Jittered, FIFO-ordered control transmission ------------------------ *)

let rec drain t =
  match Queue.take_opt t.queue.jq with
  | None -> t.queue.draining <- false
  | Some action ->
      let delay = Rng.uniform_time t.ctx.rng t.cfg.jitter_max in
      ignore
        (Engine.after t.ctx.engine delay (fun () ->
             action ();
             drain t))

let send_control t msg =
  Queue.push
    (fun () -> t.ctx.send ~dst:Net.Frame.Broadcast (Payload.Olsr msg))
    t.queue.jq;
  if not t.queue.draining then begin
    t.queue.draining <- true;
    drain t
  end

(* ---- Routes: computed lazily, observed without side effects ------------- *)

let mark_dirty t =
  t.routes_dirty <- true;
  t.changes <- t.changes + 1

(* Reads link and topology expiry at this instant. *)
let compute t r =
  let g = t.graph and now = now t in
  clear_graph g ~self:t.ctx.id;
  Node_id.Table.iter
    (fun n l ->
      if l.sym && live_link t l then begin
        add_first g n;
        List.iter (add_link g n) l.their_sym_neighbors
      end)
    t.links;
  Node_id.Table.iter
    (fun origin topo ->
      if Time.(topo.t_expires > now) then
        List.iter (add_link g origin) topo.advertised)
    t.topology;
  bfs g r ~self:t.ctx.id

(* Forwarding: the first lookup after a change recomputes. *)
let route_lookup t dst =
  if t.routes_dirty then begin
    t.routes_dirty <- false;
    compute t t.routes
  end;
  next_hop t.routes dst

(* What [route_lookup] would answer now, without recomputing [routes] or
   clearing the dirty mark: observers (the loop auditor, the sampler)
   must not decide when forwarding recomputes, since a recompute reads
   link expiry at that instant. *)
let observed t =
  if not t.routes_dirty then t.routes
  else begin
    let now = now t in
    if t.peek_changes <> t.changes || not (Time.equal t.peek_at now) then begin
      compute t t.peek;
      t.peek_changes <- t.changes;
      t.peek_at <- now
    end;
    t.peek
  end

(* ---- HELLO -------------------------------------------------------------- *)

let recompute_mprs t =
  Node_id.Table.iter
    (fun n l ->
      if l.sym && live_link t l then add_entry t.mprs n l.their_sym_neighbors)
    t.links;
  select t.mprs ~self:t.ctx.id

let emit_hello t =
  recompute_mprs t;
  let neighbors =
    Node_id.Table.fold
      (fun n l acc ->
        if live_link t l then
          let kind =
            if l.sym && is_mpr t.mprs n then Olsr_msg.Mpr
            else if l.sym then Olsr_msg.Sym
            else Olsr_msg.Asym
          in
          (n, kind) :: acc
        else acc)
      t.links []
  in
  send_control t (Olsr_msg.Hello { neighbors })

let handle_hello t (h : Olsr_msg.hello) ~from =
  let l =
    match Node_id.Table.find_opt t.links from with
    | Some l -> l
    | None ->
        let l =
          { sym = false; l_expires = Time.zero; their_sym_neighbors = []; chose_me = false }
        in
        Node_id.Table.replace t.links from l;
        l
  in
  l.l_expires <- Time.add (now t) t.cfg.neighbor_hold;
  let lists_me kind =
    List.exists
      (fun (n, k) -> Node_id.equal n t.ctx.id && k = kind)
      h.neighbors
  in
  (* The link is symmetric once the neighbor reports hearing us. *)
  l.sym <- lists_me Olsr_msg.Sym || lists_me Olsr_msg.Asym || lists_me Olsr_msg.Mpr;
  l.chose_me <- lists_me Olsr_msg.Mpr;
  l.their_sym_neighbors <-
    List.filter_map
      (fun (n, k) ->
        match k with
        | Olsr_msg.Sym | Olsr_msg.Mpr ->
            if Node_id.equal n t.ctx.id then None else Some n
        | Olsr_msg.Asym -> None)
      h.neighbors;
  mark_dirty t

(* ---- TC ------------------------------------------------------------------ *)

let selectors t =
  Node_id.Table.fold
    (fun n l acc -> if l.sym && live_link t l && l.chose_me then n :: acc else acc)
    t.links []

let emit_tc t =
  let sel = selectors t in
  if sel <> [] then begin
    t.ansn <- t.ansn + 1;
    t.msg_seq <- t.msg_seq + 1;
    send_control t
      (Olsr_msg.Tc
         {
           origin = t.ctx.id;
           msg_seq = t.msg_seq;
           ttl = 255;
           tc = { tc_origin = t.ctx.id; ansn = t.ansn; advertised = sel };
         })
  end

let handle_tc t ~origin ~msg_seq ~ttl ~(tc : Olsr_msg.tc) ~from =
  if Node_id.equal origin t.ctx.id then ()
  else if Routing.Rreq_cache.mem t.dups ~origin ~rreq_id:msg_seq then ()
  else begin
    Routing.Rreq_cache.add t.dups ~origin ~rreq_id:msg_seq ();
    let from_link = Node_id.Table.find_opt t.links from in
    let from_sym =
      match from_link with Some l -> l.sym && live_link t l | None -> false
    in
    if from_sym then begin
      (match Node_id.Table.find_opt t.topology tc.tc_origin with
      | Some entry ->
          if tc.ansn >= entry.ansn then begin
            entry.ansn <- tc.ansn;
            entry.advertised <- tc.advertised;
            entry.t_expires <- Time.add (now t) t.cfg.topology_hold;
            mark_dirty t
          end
      | None ->
          Node_id.Table.replace t.topology tc.tc_origin
            {
              ansn = tc.ansn;
              advertised = tc.advertised;
              t_expires = Time.add (now t) t.cfg.topology_hold;
            };
          mark_dirty t);
      (* MPR flooding: only the sender's chosen relays re-broadcast. *)
      let i_am_relay =
        match from_link with Some l -> l.chose_me | None -> false
      in
      if i_am_relay && ttl > 1 then
        send_control t
          (Olsr_msg.Tc { origin; msg_seq; ttl = ttl - 1; tc })
    end
  end

(* ---- Data plane ----------------------------------------------------------- *)

let rec forward_data t msg =
  let nh = route_lookup t msg.Data_msg.dst in
  if nh >= 0 then
    t.ctx.send
      ~dst:(Net.Frame.Unicast (Node_id.of_int nh))
      (Payload.Data (Data_msg.hop msg))
  else t.ctx.drop_data msg ~reason:"no-route"

and origin_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else forward_data t { msg with Data_msg.ttl = t.cfg.data_ttl }

let handle_data t msg =
  if Node_id.equal msg.Data_msg.dst t.ctx.id then t.ctx.deliver msg
  else
    match Data_msg.decr_ttl msg with
    | None -> t.ctx.drop_data msg ~reason:"ttl-expired"
    | Some msg -> forward_data t msg

let link_failure t payload ~next_hop =
  (* Link-layer feedback accelerates what missed HELLOs would conclude. *)
  (match Node_id.Table.find_opt t.links next_hop with
  | Some l ->
      l.sym <- false;
      l.l_expires <- Time.zero;
      mark_dirty t;
      t.ctx.table_changed ()
  | None -> ());
  match payload with
  | Payload.Data msg ->
      (* One immediate re-route attempt over the updated table. *)
      let nh = route_lookup t msg.Data_msg.dst in
      if nh >= 0 && nh <> Node_id.to_int next_hop then
        t.ctx.send
          ~dst:(Net.Frame.Unicast (Node_id.of_int nh))
          (Payload.Data (Data_msg.hop msg))
      else t.ctx.drop_data msg ~reason:"link-failure"
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ | Payload.Olsr _ -> ()

(* ---- Wiring ---------------------------------------------------------------- *)

let recv t payload ~from =
  match payload with
  | Payload.Data msg -> handle_data t msg
  | Payload.Olsr (Olsr_msg.Hello h) ->
      handle_hello t h ~from;
      t.ctx.table_changed ()
  | Payload.Olsr (Olsr_msg.Tc { origin; msg_seq; ttl; tc }) ->
      handle_tc t ~origin ~msg_seq ~ttl ~tc ~from;
      t.ctx.table_changed ()
  | Payload.Ldr _ | Payload.Aodv _ | Payload.Dsr _ -> ()

let start t () =
  let jitter () = Rng.uniform_time t.ctx.rng (Time.ms 100.) in
  let horizon = Time.sec 1e6 in
  (* Staggered starts decorrelate the nodes' periodic emissions. *)
  Engine.every t.ctx.engine ~jitter
    ~start:(Rng.uniform_time t.ctx.rng t.cfg.hello_interval)
    ~interval:t.cfg.hello_interval ~until:horizon
    (fun () -> emit_hello t);
  Engine.every t.ctx.engine ~jitter
    ~start:(Rng.uniform_time t.ctx.rng t.cfg.tc_interval)
    ~interval:t.cfg.tc_interval ~until:horizon
    (fun () -> emit_tc t)

(* Churn teardown (Agent.reset): drop the whole link-state view.  The
   jitter queue is emptied but [draining] is left alone — an armed drain
   event finds an empty queue and stops.  A crash also resets ANSN and
   the message sequence, as both live in volatile memory. *)
let reset t ~crash =
  Node_id.Table.reset t.links;
  Node_id.Table.reset t.topology;
  Routing.Rreq_cache.clear t.dups;
  mark_dirty t;
  Queue.clear t.queue.jq;
  t.ctx.table_changed ();
  if crash then begin
    t.ansn <- 0;
    t.msg_seq <- 0
  end

let factory ?(config = default_config) () (ctx : RA.ctx) =
  let t =
    {
      ctx;
      cfg = config;
      links = Node_id.Table.create 32;
      topology = Node_id.Table.create 64;
      dups = Routing.Rreq_cache.create ~engine:ctx.engine ~ttl:config.dup_hold;
      mprs = mprs_create ();
      ansn = 0;
      msg_seq = 0;
      graph = graph_create ();
      routes = routes_create ();
      routes_dirty = true;
      changes = 0;
      peek = routes_create ();
      peek_changes = -1;
      peek_at = Time.zero;
      queue = jq_create ();
    }
  in
  {
    RA.origin_data = (fun msg -> origin_data t msg);
    recv = (fun payload ~from -> recv t payload ~from);
    overheard = (fun _ ~from:_ ~dst:_ -> ());
    link_failure = (fun payload ~next_hop -> link_failure t payload ~next_hop);
    start = start t;
    successor =
      (fun dst ->
        if Node_id.equal dst ctx.id then None
        else
          let nh = next_hop (observed t) dst in
          if nh >= 0 then Some (Node_id.of_int nh) else None);
    own_seqno = (fun () -> 0.);
    invariants = (fun _ -> None);
    route_stats = (fun () -> ((observed t).count, 0, 0));
    reset = (fun ~crash -> reset t ~crash);
  }
