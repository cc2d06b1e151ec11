open Sim
open Packets

(* Paths live in [capacity] slots.  Recency is a doubly-linked list over
   the slots, newest at [head].  Every path is stored with the same ttl
   and the clock never runs backwards, so expiry times are non-increasing
   from head to tail: the expired paths are always a suffix of the list,
   and [tail] holds the earliest expiry.  Equal paths are found through a
   chained hash index over the slots, so re-adding a path costs
   O(path length).  [-1] is the null slot throughout. *)

type t = {
  engine : Engine.t;
  owner : Node_id.t;
  capacity : int;
  ttl : Time.t;
  mutable nodes : Node_id.t list array;
  mutable len : int array;
  mutable hash : int array;
  mutable expires : Time.t array;
  mutable prev : int array;
  mutable next : int array;  (** recency successor, or next free slot *)
  mutable buckets : int array;
  mutable chain : int array;  (** next slot in the same bucket *)
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable free : int;  (** released slots, linked through [next] *)
  mutable used : int;  (** slots handed out since the last clear *)
  mutable marks : int array;  (** node id -> stamp, for [dedup_ok] *)
  mutable stamp : int;
  mutable scanned_hash : int;  (** hash of the list [scan] last accepted *)
}

let create ~engine ~owner ~capacity ~ttl =
  if capacity <= 0 then invalid_arg "Route_cache.create: capacity";
  {
    engine;
    owner;
    capacity;
    ttl;
    nodes = [||];
    len = [||];
    hash = [||];
    expires = [||];
    prev = [||];
    next = [||];
    buckets = [||];
    chain = [||];
    head = -1;
    tail = -1;
    count = 0;
    free = -1;
    used = 0;
    marks = [||];
    stamp = 0;
    scanned_hash = 0;
  }

(* The slot arrays are allocated at the first add, so building a world
   of caches allocates no slot storage. *)
let allocate t =
  let cap = t.capacity in
  let rec pow2 k = if k >= 2 * cap then k else pow2 (2 * k) in
  t.nodes <- Array.make cap [];
  t.len <- Array.make cap 0;
  t.hash <- Array.make cap 0;
  t.expires <- Array.make cap Time.zero;
  t.prev <- Array.make cap (-1);
  t.next <- Array.make cap (-1);
  t.buckets <- Array.make (pow2 1) (-1);
  t.chain <- Array.make cap (-1)

let now t = Engine.now t.engine

(* ---- Scanning a path: length, hash and the loop check in one pass ------ *)

let mark t x =
  if x >= Array.length t.marks then begin
    let a = Array.make (max (x + 1) (2 * Array.length t.marks)) 0 in
    Array.blit t.marks 0 a 0 (Array.length t.marks);
    t.marks <- a
  end;
  if t.marks.(x) = t.stamp then false
  else begin
    t.marks.(x) <- t.stamp;
    true
  end

(* The length of [nodes], or -1 if some node occurs twice; the hash is
   left in [scanned_hash]. *)
let scan t nodes =
  t.stamp <- t.stamp + 1;
  let rec go h n = function
    | [] ->
        t.scanned_hash <- h;
        n
    | x :: rest ->
        let x = Node_id.to_int x in
        if mark t x then go ((h * 31) + x + 1) (n + 1) rest else -1
  in
  go 0 0 nodes

let dedup_ok t nodes = scan t nodes >= 0

(* ---- Slot bookkeeping -------------------------------------------------- *)

let bucket t h = (h lxor (h lsr 16)) land (Array.length t.buckets - 1)

let index t s =
  let b = bucket t t.hash.(s) in
  t.chain.(s) <- t.buckets.(b);
  t.buckets.(b) <- s

let unindex t s =
  let b = bucket t t.hash.(s) in
  if t.buckets.(b) = s then t.buckets.(b) <- t.chain.(s)
  else begin
    let p = ref t.buckets.(b) in
    while t.chain.(!p) <> s do
      p := t.chain.(!p)
    done;
    t.chain.(!p) <- t.chain.(s)
  end

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let drop t s =
  unindex t s;
  unlink t s;
  t.nodes.(s) <- [];
  t.next.(s) <- t.free;
  t.free <- s;
  t.count <- t.count - 1

let take_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    let s = t.used in
    t.used <- s + 1;
    s
  end

let purge_expired t =
  let now = now t in
  while t.tail >= 0 && not Time.(t.expires.(t.tail) > now) do
    drop t t.tail
  done

(* ---- Operations -------------------------------------------------------- *)

let add_path t nodes =
  let len = scan t nodes in
  if len >= 2 then begin
    let h = t.scanned_hash in
    if Array.length t.buckets = 0 then allocate t;
    purge_expired t;
    let s = ref t.buckets.(bucket t h) in
    while !s >= 0 do
      let next = t.chain.(!s) in
      if
        t.hash.(!s) = h
        && t.len.(!s) = len
        && List.equal Node_id.equal t.nodes.(!s) nodes
      then drop t !s;
      s := next
    done;
    (* Evict the oldest down to room for one. *)
    while t.count >= t.capacity do
      drop t t.tail
    done;
    let s = take_slot t in
    t.nodes.(s) <- nodes;
    t.len.(s) <- len;
    t.hash.(s) <- h;
    t.expires.(s) <- Time.add (now t) t.ttl;
    t.prev.(s) <- -1;
    t.next.(s) <- t.head;
    if t.head >= 0 then t.prev.(t.head) <- s else t.tail <- s;
    t.head <- s;
    t.count <- t.count + 1;
    index t s
  end

(* Hops from the owner to [dst] along a path: 0 when the owner is absent
   or [dst] does not follow it.  Paths are loop-free, so each occurs at
   most once. *)
let hops_to t nodes dst =
  let rec from_owner = function
    | [] -> 0
    | x :: rest ->
        if Node_id.equal x t.owner then to_dst rest 1 else from_owner rest
  and to_dst remaining k =
    match remaining with
    | [] -> 0
    | x :: rest -> if Node_id.equal x dst then k else to_dst rest (k + 1)
  in
  from_owner nodes

(* Shortest first; among equals the newest wins. *)
let find t ~dst =
  purge_expired t;
  let best = ref (-1) and best_hops = ref max_int in
  let s = ref t.head in
  while !s >= 0 do
    let k = hops_to t t.nodes.(!s) dst in
    if k > 0 && k < !best_hops then begin
      best := !s;
      best_hops := k
    end;
    s := t.next.(!s)
  done;
  if !best < 0 then None
  else
    let rec after_owner = function
      | [] -> []
      | x :: rest -> if Node_id.equal x t.owner then rest else after_owner rest
    in
    let rec take k l =
      match l with x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []
    in
    let rest = after_owner t.nodes.(!best) in
    (* [dst] last: the stored suffix is the answer as it stands. *)
    if List.compare_length_with rest !best_hops = 0 then Some rest
    else Some (take !best_hops rest)

(* The path cut after the first hop of link a-b (either direction), or
   [nodes] itself when it does not cross that link. *)
let truncate_at_link a b nodes =
  let rec crosses = function
    | x :: (y :: _ as rest) ->
        (Node_id.equal x a && Node_id.equal y b)
        || (Node_id.equal x b && Node_id.equal y a)
        || crosses rest
    | [ _ ] | [] -> false
  in
  let rec cut = function
    | x :: (y :: _ as rest) ->
        if
          (Node_id.equal x a && Node_id.equal y b)
          || (Node_id.equal x b && Node_id.equal y a)
        then [ x ]
        else x :: cut rest
    | tail -> tail
  in
  if crosses nodes then cut nodes else nodes

let remove_link t a b =
  purge_expired t;
  let s = ref t.head in
  while !s >= 0 do
    let next = t.next.(!s) in
    let nodes = t.nodes.(!s) in
    let cut = truncate_at_link a b nodes in
    if cut != nodes then begin
      let len = scan t cut in
      if len < 2 then drop t !s
      else begin
        unindex t !s;
        t.nodes.(!s) <- cut;
        t.len.(!s) <- len;
        t.hash.(!s) <- t.scanned_hash;
        index t !s
      end
    end;
    s := next
  done

let paths t =
  purge_expired t;
  let rec collect s acc =
    if s < 0 then acc else collect t.prev.(s) (t.nodes.(s) :: acc)
  in
  collect t.tail []

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  Array.fill t.nodes 0 t.used [];
  t.head <- -1;
  t.tail <- -1;
  t.count <- 0;
  t.free <- -1;
  t.used <- 0
