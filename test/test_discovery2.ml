(* Tests for the in-band discovery machinery: network transit observers
   and probe-based topology discovery. *)

module Time = Engine.Time
module Sim = Engine.Sim
module Topology = Net.Topology
module Network = Net.Network
module Packet = Net.Packet
module Addr = Net.Addr
module Router = Multicast.Router
module Layering = Traffic.Layering
module Session = Traffic.Session
module Probe = Toposense.Probe_discovery

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

type Packet.payload += Probe_pay of int

(* Line 0 - 1 - 2 - 3. *)
let line () =
  let sim = Sim.create () in
  let topo = Topology.create () in
  ignore (Topology.add_nodes topo 4);
  for i = 0 to 2 do
    Topology.add_duplex topo ~a:i ~b:(i + 1) ~bandwidth_bps:1e7
      ~delay:(Time.span_of_ms 10) ()
  done;
  let nw = Network.create ~sim topo in
  (sim, nw)

(* ---------- transit observers ---------- *)

let test_observer_sees_every_hop () =
  let sim, nw = line () in
  let seen = ref [] in
  Network.add_transit_observer nw (fun pkt ~at ~in_iface ->
      if Packet.id (Network.arena nw) pkt = 0 then
        seen := (at, in_iface = None) :: !seen);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 3) ~size:100
    ~payload:(Probe_pay 1);
  Sim.run_until sim (Time.of_sec 1);
  let hops = List.rev !seen in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "all four nodes, origin flagged"
    [ (0, true); (1, false); (2, false); (3, false) ]
    hops

let test_observers_stack () =
  let sim, nw = line () in
  let a = ref 0 and b = ref 0 in
  Network.add_transit_observer nw (fun _ ~at:_ ~in_iface:_ -> incr a);
  Network.add_transit_observer nw (fun _ ~at:_ ~in_iface:_ -> incr b);
  Network.originate nw ~src:0 ~dst:(Addr.Unicast 1) ~size:100
    ~payload:(Probe_pay 1);
  Sim.run_until sim (Time.of_sec 1);
  checki "both observers fired per hop" !a !b;
  checki "two sightings" 2 !a

(* ---------- probe discovery ---------- *)

let probe_world () =
  let sim = Sim.create () in
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:0
  in
  let params = Toposense.Params.default in
  let probe = Probe.create ~network:nw ~node:0 () in
  (* Receivers with agents so they answer probes and send reports. *)
  let agents =
    List.map
      (fun node ->
        let a =
          Toposense.Receiver_agent.create ~network:nw ~router ~params ~node
            ~controller:0 ()
        in
        Toposense.Receiver_agent.subscribe a ~session ~initial_level:2;
        Toposense.Receiver_agent.start a;
        a)
      [ 4; 5; 6; 7 ]
  in
  (* Feed the controller-node packets to the prober by hand (normally the
     Controller does this). *)
  Network.set_local_handler nw 0 (fun pkt -> Probe.handle_packet probe pkt);
  (sim, nw, router, session, probe, agents)

let test_probe_learns_receivers_from_reports () =
  let sim, _, _, _, probe, _ = probe_world () in
  Sim.run_until sim (Time.of_sec 3);
  Alcotest.check (Alcotest.list Alcotest.int) "registered from reports"
    [ 4; 5; 6; 7 ]
    (Probe.known_receivers probe ~session:0)

let test_probe_assembles_tree () =
  let sim, _, _, _, probe, _ = probe_world () in
  Probe.start probe;
  Sim.run_until sim (Time.of_sec 10);
  checkb "queries went out" true (Probe.queries_sent probe > 4);
  checkb "responses came back" true (Probe.responses_received probe > 4);
  match Probe.latest probe ~session:0 with
  | None -> Alcotest.fail "expected an assembled snapshot"
  | Some snap ->
      checkb "valid tree" true (Discovery.Snapshot.is_tree snap);
      checki "rooted at controller" 0 snap.source;
      checki "four members" 4 (List.length snap.members);
      List.iter
        (fun (_, level) ->
          (* No controller in this harness: the agents' unilateral probing
             may have raised them above the initial 2. *)
          checkb "levels carried" true (level >= 2 && level <= 4))
        snap.members;
      (* The assembled edges must mirror the physical tree: 0-1, 1-2,
         1-3, 2-4, 2-5, 3-6, 3-7. *)
      checki "seven edges" 7 (List.length snap.edges)

let test_probe_expires_silent_receivers () =
  let sim, _, _, _, probe, agents = probe_world () in
  Probe.start probe;
  Sim.run_until sim (Time.of_sec 5);
  (* Kill one receiver's reporting; it must age out of the registry. *)
  Toposense.Receiver_agent.stop (List.hd agents);
  Sim.run_until sim (Time.of_sec 30);
  Alcotest.check (Alcotest.list Alcotest.int) "silent receiver forgotten"
    [ 5; 6; 7 ]
    (Probe.known_receivers probe ~session:0);
  match Probe.latest probe ~session:0 with
  | None -> Alcotest.fail "snapshot still expected"
  | Some snap -> checki "three members" 3 (List.length snap.members)

let test_probe_latest_none_initially () =
  let sim, _, _, _, probe, _ = probe_world () in
  Sim.run_until sim (Time.of_ms 100);
  checkb "nothing yet" true (Probe.latest probe ~session:0 = None)

let test_probe_driven_controller_converges () =
  (* Full stack with ?probe: see also bench `discovery` section. *)
  let spec = Scenarios.Builders.topology_a ~receivers_per_set:2 in
  let o =
    Scenarios.Experiment.run ~spec ~traffic:Scenarios.Experiment.Cbr
      ~scheme:Scenarios.Experiment.Toposense ~probe_discovery:true
      ~duration:(Time.of_sec 300) ()
  in
  List.iter
    (fun (r : Scenarios.Experiment.receiver_outcome) ->
      checkb
        (Printf.sprintf "n%d final %d ~ optimal %d" r.node r.final_level
           r.optimal)
        true
        (abs (r.final_level - r.optimal) <= 1))
    o.receivers

(* ---------- indexed discovery ≡ list-filter oracles ---------- *)

module Snapshot = Discovery.Snapshot

(* Reference oracles: the list-filter [restrict] and the hash-and-sort
   [capture] that the indexed versions replaced. Equal results are the
   contract — same edges, members and ingress in the same order, the same
   [None] cases and the same multi-ingress message. *)
let oracle_restrict (t : Snapshot.t) ~domain =
  if domain = [] then None
  else begin
    let dom : (Addr.node_id, unit) Hashtbl.t =
      Hashtbl.create (List.length domain)
    in
    List.iter (fun n -> Hashtbl.replace dom n ()) domain;
    let inside n = Hashtbl.mem dom n in
    let edges_in =
      List.filter
        (fun (e : Snapshot.edge) -> inside e.child && inside e.parent)
        t.edges
    in
    let entered =
      List.filter_map
        (fun (e : Snapshot.edge) ->
          if inside e.child && not (inside e.parent) then Some e.child
          else None)
        t.edges
    in
    let ingresses =
      (if inside t.source then [ t.source ] else []) @ entered
      |> List.sort_uniq Int.compare
    in
    match ingresses with
    | [] -> None
    | _ :: _ :: _ ->
        invalid_arg
          (Format.asprintf
             "Snapshot.restrict: session %d enters the domain at %d ingresses \
              (%a); domains handed to a controller must be subtree-shaped — \
              regroup the nodes so the tree crosses the boundary once (see \
              Scenarios.Builders.validate_domains)"
             t.session (List.length ingresses)
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                Addr.pp_node)
             ingresses)
    | [ ingress ] ->
        let members = List.filter (fun (m, _) -> inside m) t.members in
        Some
          (Snapshot.make ~session:t.session ~taken_at:t.taken_at
             ~source:ingress ~edges:edges_in ~members)
  end

let oracle_capture ~router ~session ~at =
  let layer_count = Layering.count (Session.layering session) in
  let tbl : (Addr.node_id * Addr.node_id, int list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  for layer = layer_count - 1 downto 0 do
    let group = Session.group_for_layer session ~layer in
    List.iter
      (fun (parent, child) ->
        match Hashtbl.find_opt tbl (parent, child) with
        | Some l -> l := layer :: !l
        | None -> Hashtbl.add tbl (parent, child) (ref [ layer ]))
      (Router.tree_edges router ~group)
  done;
  let edges =
    Hashtbl.fold
      (fun (parent, child) layers acc ->
        { Snapshot.parent; child; layers = !layers } :: acc)
      tbl []
    |> List.sort (fun (a : Snapshot.edge) b ->
           compare (a.parent, a.child) (b.parent, b.child))
  in
  let base_group = Session.group_for_layer session ~layer:0 in
  let members =
    Router.members router ~group:base_group
    |> List.map (fun node ->
           (node, Session.subscription_level session ~router ~node))
  in
  Snapshot.make ~session:(Session.id session) ~taken_at:at
    ~source:(Session.source session) ~edges ~members

(* (a) restrict. A random rooted tree on [n] nodes under scattered ids
   (near zero or at either end of the int range),
   sometimes with extra in-edges (not a tree: restrict takes any input),
   lists sometimes shuffled, members sometimes repeated; domains of every
   shape the controller or a careless caller could hand in. *)
type restrict_case = {
  snap : Snapshot.t;
  domain : Addr.node_id list;
  shape : string;
}

let restrict_gen =
  QCheck.Gen.(
    let* n = 1 -- 40 in
    let* base = oneofl [ 0; -50; min_int; max_int - (3 * n) ] in
    let* ids = shuffle_l (List.init (3 * n) (fun k -> base + k)) in
    let id = Array.of_list ids in
    let* parent =
      array_size (return n) (int_bound 1_000_000) >|= fun a ->
      Array.mapi (fun i r -> if i = 0 then -1 else r mod i) a
    in
    let* extra =
      list_size (0 -- 3) (pair (int_bound (n - 1)) (int_bound (n - 1)))
    in
    let* with_extra = float_bound_inclusive 1.0 >|= fun p -> p < 0.25 in
    let* layers = array_size (return n) (list_size (1 -- 3) (0 -- 5)) in
    let tree_edges =
      List.init (n - 1) (fun i -> (parent.(i + 1), i + 1))
      @ (if with_extra then List.filter (fun (p, c) -> p <> c) extra else [])
    in
    let edges =
      List.map
        (fun (p, c) ->
          {
            Snapshot.parent = id.(p);
            child = id.(c);
            layers = List.sort_uniq Int.compare layers.(c);
          })
        tree_edges
      |> List.sort_uniq (fun (a : Snapshot.edge) b ->
             compare (a.parent, a.child) (b.parent, b.child))
    in
    let* members =
      list_size (0 -- n) (pair (int_bound (n - 1)) (0 -- 6)) >|= fun ms ->
      List.map (fun (v, l) -> (id.(v), l)) ms
      |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
    in
    let* dup_member = bool in
    let members =
      match members with
      | m :: _ when dup_member -> List.sort compare (m :: members)
      | _ -> members
    in
    let* shuffled = bool in
    let* edges = if shuffled then shuffle_l edges else return edges in
    let* members = if shuffled then shuffle_l members else return members in
    let snap =
      Snapshot.make ~session:3 ~taken_at:(Time.of_sec 1) ~source:id.(0)
        ~edges ~members
    in
    (* A connected piece of the subtree under [r]: one ingress. *)
    let subtree r keep =
      let rec grow acc = function
        | [] -> acc
        | v :: rest ->
            let kids =
              List.filter
                (fun c -> parent.(c) = v && keep.(c mod Array.length keep))
                (List.init n Fun.id)
            in
            grow (v :: acc) (kids @ rest)
      in
      grow [] [ r ]
    in
    let* kind = 0 -- 6 in
    (* low positions are the interior nodes of a random recursive tree *)
    let* r = int_bound ((n - 1) / 3) in
    let* keep = array_size (return 8) bool in
    let* picks = list_size (0 -- n) (int_bound (n - 1)) in
    let* strays = list_size (1 -- 4) (int_range (-5) (5 * n)) in
    let* domain, shape =
      match kind with
      | 0 -> return (List.map (fun v -> id.(v)) (subtree r keep), "subtree")
      | 1 -> return (List.map (fun v -> id.(v)) picks, "random")
      | 2 -> return (List.init 3 (fun k -> base + (3 * n) + k), "disjoint")
      | 3 -> return ([], "empty")
      | 4 ->
          return
            ( List.map (fun v -> id.(v)) (subtree r keep)
              @ [ -1; max_int; -max_int ],
              "out-of-range" )
      | 5 ->
          let d = List.map (fun v -> id.(v)) (subtree r keep @ picks) in
          return (d @ d, "duplicates")
      | _ ->
          shuffle_l (List.map (fun v -> id.(v)) picks @ strays)
          >|= fun d -> (d, "strays")
    in
    return { snap; domain; shape })

let arbitrary_restrict =
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "%s domain [%s]@.%a" c.shape
        (String.concat "; " (List.map string_of_int c.domain))
        Snapshot.pp c.snap)
    restrict_gen

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let prop_restrict_matches_oracle =
  QCheck.Test.make ~name:"indexed restrict == list-filter oracle" ~count:1000
    arbitrary_restrict (fun c ->
      outcome (fun () -> Snapshot.restrict c.snap ~domain:c.domain)
      = outcome (fun () -> oracle_restrict c.snap ~domain:c.domain))

(* (b) capture. A 6-layer session over a 3-ary depth-3 world with cross
   links, every node starting at a random level; then random level
   changes, raw single-layer joins and leaves (so levels and per-layer
   trees disagree) and link flaps, each followed by a random settle that
   often stops mid-graft or mid-prune. *)
type capture_op =
  | Level of int * int
  | Join of int * int
  | Leave of int * int
  | Flap of int

let capture_gen =
  QCheck.Gen.(
    let op =
      let* k = 0 -- 3 in
      let* a = int_bound 10_000 in
      let* b = int_bound 10_000 in
      return
        (match k with
        | 0 -> Level (a, b)
        | 1 -> Join (a, b)
        | 2 -> Leave (a, b)
        | _ -> Flap a)
    in
    pair
      (array_size (return 40) (0 -- 6))
      (list_size (4 -- 20) (pair op (0 -- 400))))

let arbitrary_capture =
  QCheck.make
    ~print:(fun (_, ops) -> Printf.sprintf "%d ops" (List.length ops))
    capture_gen

let run_capture_case (init, ops) =
  let sim = Sim.create ~seed:1L () in
  let spec = Scenarios.Builders.kary ~fanout:3 ~depth:3 () in
  let nw = Network.create ~sim spec.topology in
  let router = Router.create ~network:nw () in
  let session =
    Session.create ~router ~source:0 ~layering:Layering.paper_default ~id:4
  in
  let n = Topology.node_count spec.topology in
  let layers = Layering.count Layering.paper_default in
  let links =
    Array.of_list
      (List.map
         (fun (l : Topology.link_spec) -> (l.a, l.b))
         (Topology.links spec.topology))
  in
  for node = 1 to n - 1 do
    Session.set_subscription_level session ~router ~node
      ~level:(init.(node) mod (layers + 1))
  done;
  List.for_all
    (fun (op, settle_ms) ->
      (match op with
      | Level (v, l) ->
          Session.set_subscription_level session ~router
            ~node:(1 + (v mod (n - 1)))
            ~level:(l mod (layers + 1))
      | Join (v, l) ->
          Router.join router ~node:(1 + (v mod (n - 1)))
            ~group:(Session.group_for_layer session ~layer:(l mod layers))
      | Leave (v, l) ->
          Router.leave router ~node:(1 + (v mod (n - 1)))
            ~group:(Session.group_for_layer session ~layer:(l mod layers))
      | Flap v ->
          let a, b = links.(v mod Array.length links) in
          Network.set_link_up nw ~a ~b (not (Network.link_is_up nw ~a ~b)));
      Sim.run_until sim (Time.add (Sim.now sim) (Time.span_of_ms settle_ms));
      let at = Sim.now sim in
      Snapshot.capture ~router ~session ~at
      = oracle_capture ~router ~session ~at
      && List.for_all
           (fun layer ->
             let edges =
               Router.tree_edges router
                 ~group:(Session.group_for_layer session ~layer)
             in
             edges = List.sort compare edges)
           (List.init layers Fun.id))
    ops

let prop_capture_matches_oracle =
  QCheck.Test.make ~name:"merged capture == hash-and-sort oracle" ~count:150
    arbitrary_capture run_capture_case

let () =
  Alcotest.run "discovery2"
    [
      ( "transit-observers",
        [
          Alcotest.test_case "sees every hop" `Quick
            test_observer_sees_every_hop;
          Alcotest.test_case "observers stack" `Quick test_observers_stack;
        ] );
      ( "probe-discovery",
        [
          Alcotest.test_case "registers from reports" `Quick
            test_probe_learns_receivers_from_reports;
          Alcotest.test_case "assembles tree" `Quick test_probe_assembles_tree;
          Alcotest.test_case "expires silent" `Quick
            test_probe_expires_silent_receivers;
          Alcotest.test_case "none initially" `Quick
            test_probe_latest_none_initially;
          Alcotest.test_case "controller converges" `Slow
            test_probe_driven_controller_converges;
        ] );
      ( "indexed-discovery",
        List.map QCheck_alcotest.to_alcotest
          [ prop_restrict_matches_oracle; prop_capture_matches_oracle ] );
    ]
