(* Tests for DSR: the path cache and protocol behaviour. *)

open Sim
open Packets

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let n = Node_id.of_int

(* ---- Route cache -------------------------------------------------------- *)

let cache () =
  let engine = Engine.create () in
  (engine, Dsr.Route_cache.create ~engine ~owner:(n 0) ~capacity:8 ~ttl:(Time.sec 100.))

let path ids = List.map n ids

let cache_find_direct () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3 ]);
  (match Dsr.Route_cache.find c ~dst:(n 3) with
  | Some hops -> checkb "full hops" true (hops = path [ 1; 2; 3 ])
  | None -> Alcotest.fail "expected a route");
  (* Prefixes are usable too. *)
  match Dsr.Route_cache.find c ~dst:(n 2) with
  | Some hops -> checkb "prefix" true (hops = path [ 1; 2 ])
  | None -> Alcotest.fail "prefix usable"

let cache_prefers_shortest () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3; 9 ]);
  Dsr.Route_cache.add_path c (path [ 0; 4; 9 ]);
  match Dsr.Route_cache.find c ~dst:(n 9) with
  | Some hops -> checki "2 hops" 2 (List.length hops)
  | None -> Alcotest.fail "expected a route"

let cache_subpath_extraction () =
  (* Owner mid-path: the suffix from the owner is a valid route. *)
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 7; 8; 0; 5; 6 ]);
  match Dsr.Route_cache.find c ~dst:(n 6) with
  | Some hops -> checkb "suffix" true (hops = path [ 5; 6 ])
  | None -> Alcotest.fail "suffix usable"

let cache_remove_link () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 2; 3 ]);
  Dsr.Route_cache.remove_link c (n 1) (n 2);
  checkb "3 unreachable" true (Dsr.Route_cache.find c ~dst:(n 3) = None);
  (* The surviving prefix 0-1 still works. *)
  (match Dsr.Route_cache.find c ~dst:(n 1) with
  | Some hops -> checkb "prefix survives" true (hops = path [ 1 ])
  | None -> Alcotest.fail "prefix should survive");
  (* Symmetric removal also truncates reversed occurrences. *)
  let _, c2 = cache () in
  Dsr.Route_cache.add_path c2 (path [ 0; 2; 1; 5 ]);
  Dsr.Route_cache.remove_link c2 (n 1) (n 2);
  checkb "reverse direction removed" true (Dsr.Route_cache.find c2 ~dst:(n 5) = None)

let cache_expiry () =
  let engine = Engine.create () in
  let c = Dsr.Route_cache.create ~engine ~owner:(n 0) ~capacity:8 ~ttl:(Time.sec 5.) in
  Dsr.Route_cache.add_path c (path [ 0; 1 ]);
  ignore
    (Engine.at engine (Time.sec 10.) (fun () ->
         checkb "expired" true (Dsr.Route_cache.find c ~dst:(n 1) = None)));
  Engine.run engine

let cache_capacity () =
  let _, c = cache () in
  for i = 1 to 20 do
    Dsr.Route_cache.add_path c (path [ 0; i ])
  done;
  checkb "bounded" true (List.length (Dsr.Route_cache.paths c) <= 8);
  (* Most recent survive. *)
  checkb "newest kept" true (Dsr.Route_cache.find c ~dst:(n 20) <> None)

let cache_rejects_loopy_paths () =
  let _, c = cache () in
  Dsr.Route_cache.add_path c (path [ 0; 1; 0; 2 ]);
  checkb "loopy path rejected" true (Dsr.Route_cache.find c ~dst:(n 2) = None)

(* ---- Route cache model check --------------------------------------------- *)

(* The list-based cache the indexed one replaced, kept as the oracle:
   newest first, equal paths dropped on re-add, expired paths filtered
   (and not counted) on every add, the oldest evicted at capacity. *)
module Oracle = struct
  type p = { mutable nodes : Node_id.t list; expires : Time.t }

  type t = {
    engine : Engine.t;
    owner : Node_id.t;
    capacity : int;
    ttl : Time.t;
    mutable store : p list;
  }

  let create ~engine ~owner ~capacity ~ttl =
    { engine; owner; capacity; ttl; store = [] }

  let now t = Engine.now t.engine
  let live t p = Time.(p.expires > now t) && List.length p.nodes >= 2

  let rec dedup_ok = function
    | [] -> true
    | x :: rest -> (not (List.exists (Node_id.equal x) rest)) && dedup_ok rest

  let add_path t nodes =
    if List.length nodes >= 2 && dedup_ok nodes then begin
      let fresh = { nodes; expires = Time.add (now t) t.ttl } in
      let keep = List.filter (fun p -> live t p && p.nodes <> nodes) t.store in
      let keep =
        if List.length keep >= t.capacity then
          List.filteri (fun i _ -> i < t.capacity - 1) keep
        else keep
      in
      t.store <- fresh :: keep
    end

  let subroute t nodes dst =
    let rec from_owner = function
      | [] -> None
      | x :: rest when Node_id.equal x t.owner -> to_dst rest []
      | _ :: rest -> from_owner rest
    and to_dst remaining acc =
      match remaining with
      | [] -> None
      | x :: rest ->
          if Node_id.equal x dst then Some (List.rev (x :: acc))
          else to_dst rest (x :: acc)
    in
    from_owner nodes

  let find t ~dst =
    let best = ref None in
    List.iter
      (fun p ->
        if live t p then
          match subroute t p.nodes dst with
          | None -> ()
          | Some hops -> (
              match !best with
              | Some b when List.length b <= List.length hops -> ()
              | Some _ | None -> best := Some hops))
      t.store;
    !best

  let truncate_at_link a b nodes =
    let rec go = function
      | x :: (y :: _ as rest) ->
          if
            (Node_id.equal x a && Node_id.equal y b)
            || (Node_id.equal x b && Node_id.equal y a)
          then [ x ]
          else x :: go rest
      | tail -> tail
    in
    go nodes

  let remove_link t a b =
    List.iter (fun p -> p.nodes <- truncate_at_link a b p.nodes) t.store;
    t.store <- List.filter (fun p -> List.length p.nodes >= 2) t.store

  let paths t =
    List.filter_map (fun p -> if live t p then Some p.nodes else None) t.store

  let clear t = t.store <- []
end

type cache_op =
  | Add of int list
  | Readd of int  (** the i-th cached path (mod their number), again *)
  | Remove_link of int * int
  | Find of int
  | Clear
  | Advance of int  (** seconds; the ttl is 10 s *)

let show_op = function
  | Add l -> "add [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Readd i -> Printf.sprintf "readd #%d" i
  | Remove_link (a, b) -> Printf.sprintf "remove_link %d %d" a b
  | Find d -> Printf.sprintf "find %d" d
  | Clear -> "clear"
  | Advance s -> Printf.sprintf "advance %ds" s

(* Few node ids, so paths repeat, tie, loop, and truncate into
   duplicates.  Most paths are loop-free (a shuffled prefix of the ids);
   the rest are arbitrary, loops and 1-node paths included. *)
let cache_ids = 6

let gen_cache_case =
  QCheck.Gen.(
    let id = int_bound (cache_ids - 1) in
    let loop_free =
      map2
        (fun k l -> List.filteri (fun i _ -> i < k) l)
        (int_range 2 5)
        (shuffle_l (List.init cache_ids Fun.id))
    in
    let op =
      frequency
        [
          (4, map (fun l -> Add l) loop_free);
          (2, map (fun l -> Add l) (list_size (int_range 1 5) id));
          (2, map (fun i -> Readd i) (int_bound 63));
          (2, map2 (fun a b -> Remove_link (a, b)) id id);
          (1, map (fun d -> Find d) id);
          (1, return Clear);
          (2, map (fun s -> Advance s) (int_bound 12));
        ]
    in
    pair (int_range 1 4) (list_size (int_range 1 60) op))

let cache_model_prop =
  QCheck.Test.make ~name:"route cache matches the list model" ~count:2000
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat ", " (List.map show_op ops)))
       ~shrink:(fun (cap, ops) ->
         QCheck.Iter.map (fun ops -> (cap, ops)) (QCheck.Shrink.list ops))
       gen_cache_case)
    (fun (capacity, ops) ->
      let engine = Engine.create () in
      let ttl = Time.sec 10. in
      let c = Dsr.Route_cache.create ~engine ~owner:(n 0) ~capacity ~ttl in
      let o = Oracle.create ~engine ~owner:(n 0) ~capacity ~ttl in
      let agree () =
        Dsr.Route_cache.paths c = Oracle.paths o
        && List.for_all
             (fun d ->
               Dsr.Route_cache.find c ~dst:(n d) = Oracle.find o ~dst:(n d))
             (List.init cache_ids Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add l ->
              Dsr.Route_cache.add_path c (path l);
              Oracle.add_path o (path l)
          | Readd i -> (
              match Oracle.paths o with
              | [] -> ()
              | ps ->
                  let p = List.nth ps (i mod List.length ps) in
                  Dsr.Route_cache.add_path c p;
                  Oracle.add_path o p)
          | Remove_link (a, b) ->
              Dsr.Route_cache.remove_link c (n a) (n b);
              Oracle.remove_link o (n a) (n b)
          | Find d ->
              if Dsr.Route_cache.find c ~dst:(n d) <> Oracle.find o ~dst:(n d)
              then QCheck.Test.fail_reportf "find %d differs" d
          | Clear ->
              Dsr.Route_cache.clear c;
              Oracle.clear o
          | Advance s ->
              Engine.run engine
                ~until:(Time.add (Engine.now engine) (Time.sec (float_of_int s))));
          agree ())
        ops)

(* ---- Protocol ------------------------------------------------------------ *)

module TN = Experiment.Testnet

let make_net ?(config = Dsr.default_config) k =
  let engine = Engine.create ~seed:3 () in
  (engine, TN.create ~engine ~factory:(Dsr.factory ~config ()) ~n:k ())

let discovery_on_chain () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3; 4 ];
  TN.origin net ~src:0 ~dst:4;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 1 (TN.delivered net)

let source_routes_follow_header () =
  (* Two parallel paths; all packets of the flow follow the cached one
     even after a shorter link appears (DSR pins routes at the source). *)
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "first delivered" 1 (TN.delivered net);
  TN.connect net 0 3;
  (* New direct link: without a new discovery the old 3-hop route still
     works and is still used. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "still delivered" 2 (TN.delivered net)

let salvage_on_break () =
  let _, net = make_net 5 in
  (* Paths: 0-1-2 and 1-3-2: node 1 can salvage via 3 when 1-2 dies. *)
  TN.connect_chain net [ 0; 1; 2 ];
  TN.connect_chain net [ 1; 3; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  (* Break 1-2 FIRST, then teach node 1 the alternate path by its own
     discovery (which now must go via 3). *)
  TN.disconnect net 1 2;
  TN.origin net ~src:1 ~dst:2;
  TN.run net ~for_:(Time.sec 3.);
  checki "node 1 rerouted via 3" 2 (TN.delivered net);
  (* Now 0 still holds the stale route 0-1-2: its packet fails at node 1,
     which salvages it over the freshly cached 1-3-2. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 5.);
  checki "salvaged delivery" 3 (TN.delivered net)

let rerr_removes_stale_route () =
  let _, net = make_net 4 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  checki "primed" 1 (TN.delivered net);
  TN.disconnect net 2 3;
  (* The send fails at node 2, a RERR travels back, and rediscovery
     fails (3 unreachable) -> drop reported. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 30.);
  checki "no new delivery" 1 (TN.delivered net);
  let m = TN.metrics net in
  checkb "some drop recorded" true (Experiment.Metrics.drops_by_reason m <> [])

let reply_from_cache () =
  let _, net = make_net 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.connect net 4 1;
  (* Prime node 1's cache with a route to 3. *)
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 2.);
  (* 4 asks: node 1 answers from cache (3 never sees a RREQ with ttl 1
     nonpropagating first attempt). *)
  TN.origin net ~src:4 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "delivered" 2 (TN.delivered net);
  checkb "cache reply counted" true
    (Experiment.Metrics.event_count (TN.metrics net) "rrep_init" >= 2)

let draft7_variant_disables_cache_replies () =
  let config = { Dsr.default_config with reply_from_cache = false } in
  let _, net = make_net ~config 5 in
  TN.connect_chain net [ 0; 1; 2; 3 ];
  TN.origin net ~src:0 ~dst:3;
  TN.run net ~for_:(Time.sec 3.);
  checki "still works end to end" 1 (TN.delivered net)

let route_shortening_gratuitous_rrep () =
  let _, net = make_net 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  checki "two-hop delivery first" 1 (TN.delivered net);
  (* Node 2 drifts into node 0's range and overhears 0's transmission of
     a packet still source-routed via 1. *)
  TN.connect net 0 2;
  let data =
    Packets.Data_msg.fresh ~flow_id:999 ~seq:0 ~src:(n 0) ~dst:(n 2)
      ~payload_bytes:512 ~origin_time:Time.zero
  in
  let payload =
    Packets.Payload.Dsr
      (Packets.Dsr_msg.Data
         { sr_remaining = [ n 2 ]; full_route = [ n 0; n 1; n 2 ]; data;
           salvage = 0 })
  in
  (TN.agent net 2).Routing.Agent.overheard payload ~from:(n 0)
    ~dst:(Net.Frame.Unicast (n 1));
  TN.run net ~for_:(Time.ms 100.);
  (* The gratuitous RREP reached 0: the next packet goes direct. *)
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 1.);
  checki "delivered" 2 (TN.delivered net);
  checkb "second packet took the 1-hop shortcut" true
    (abs_float (Experiment.Metrics.mean_hops (TN.metrics net) -. 1.5) < 1e-9)

let shortening_disabled_keeps_route () =
  let config = { Dsr.default_config with route_shortening = false } in
  let _, net = make_net ~config 3 in
  TN.connect_chain net [ 0; 1; 2 ];
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 2.);
  TN.connect net 0 2;
  let data =
    Packets.Data_msg.fresh ~flow_id:999 ~seq:0 ~src:(n 0) ~dst:(n 2)
      ~payload_bytes:512 ~origin_time:Time.zero
  in
  let payload =
    Packets.Payload.Dsr
      (Packets.Dsr_msg.Data
         { sr_remaining = [ n 2 ]; full_route = [ n 0; n 1; n 2 ]; data;
           salvage = 0 })
  in
  (TN.agent net 2).Routing.Agent.overheard payload ~from:(n 0)
    ~dst:(Net.Frame.Unicast (n 1));
  TN.run net ~for_:(Time.ms 100.);
  TN.origin net ~src:0 ~dst:2;
  TN.run net ~for_:(Time.sec 1.);
  checkb "still two hops each" true
    (abs_float (Experiment.Metrics.mean_hops (TN.metrics net) -. 2.) < 1e-9)

let no_loops_in_source_routes_prop =
  (* Composed cache replies must never produce a route visiting a node
     twice: sample many random topologies and inspect delivered paths via
     delivery success (a loopy source route would exhaust and drop). *)
  QCheck.Test.make ~name:"DSR delivers on random connected chains" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let engine = Engine.create ~seed () in
      let k = 6 in
      let net = TN.create ~engine ~factory:(Dsr.factory ()) ~n:k () in
      TN.connect_chain net (List.init k Fun.id);
      let rng = Rng.create seed in
      (* A few random chords. *)
      for _ = 1 to 3 do
        let a = Rng.int rng k and b = Rng.int rng k in
        if a <> b then TN.connect net a b
      done;
      TN.origin net ~src:0 ~dst:(k - 1);
      TN.run net ~for_:(Time.sec 5.);
      TN.delivered net = 1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "dsr"
    [
      ( "route_cache",
        [
          Alcotest.test_case "find direct" `Quick cache_find_direct;
          Alcotest.test_case "prefers shortest" `Quick cache_prefers_shortest;
          Alcotest.test_case "subpath extraction" `Quick cache_subpath_extraction;
          Alcotest.test_case "remove link" `Quick cache_remove_link;
          Alcotest.test_case "expiry" `Quick cache_expiry;
          Alcotest.test_case "capacity" `Quick cache_capacity;
          Alcotest.test_case "rejects loopy paths" `Quick cache_rejects_loopy_paths;
          qt cache_model_prop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "discovery on chain" `Quick discovery_on_chain;
          Alcotest.test_case "source routes pinned" `Quick source_routes_follow_header;
          Alcotest.test_case "salvage on break" `Quick salvage_on_break;
          Alcotest.test_case "rerr removes stale" `Quick rerr_removes_stale_route;
          Alcotest.test_case "reply from cache" `Quick reply_from_cache;
          Alcotest.test_case "draft7 variant" `Quick draft7_variant_disables_cache_replies;
          Alcotest.test_case "route shortening" `Quick route_shortening_gratuitous_rrep;
          Alcotest.test_case "shortening disabled" `Quick shortening_disabled_keeps_route;
          qt no_loops_in_source_routes_prop;
        ] );
    ]
