(* The three workloads, each composed here from the same public
   constructors its library scenario uses, so that the benchmark can time
   world construction apart from the event loop and, in the traced run,
   put a span around each call into a layer.

   - topoB-32-sessions-vbr = [Scenarios.Experiment.run] on Topology B,
     32 VBR(P=3) sessions, TopoSense, 300 sim-s;
   - scale-100k = the sequential [Scenarios.Scale] world at
     [config_100k], 5 sim-s;
   - churn-storm = [Scenarios.Recovery.churn_storm], sized up.

   [record] runs the library scenario itself and returns its fingerprint;
   a composition that drifts from its scenario fails the fingerprint
   check at every recorded seed. *)

module Sim = Engine.Sim
module Time = Engine.Time
module Network = Net.Network
module Router = Multicast.Router

type outcome = {
  counts : (string * string) list;
      (** deterministic simulated counters, in a fixed order *)
  layers : (string * float) list;  (** traced-run timings; empty untraced *)
  checks : (string * bool) list;  (** scenario invariants *)
  absent : (string * string) list;  (** metric, why it reads 0 here *)
}

type world = { run : unit -> unit; finish : unit -> outcome }

type t = {
  name : string;
  build : Spans.t -> seed:int64 -> world;
  record : seed:int64 -> (string * string) list;
}

let i = string_of_int
let exact x = Printf.sprintf "%.17g" x

(* ---------- shared counters ---------- *)

let links network =
  List.concat_map
    (fun n ->
      List.init (Network.iface_count network n) (fun iface ->
          Network.link_on_iface network ~node:n ~iface))
    (List.init (Network.node_count network) Fun.id)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let engine_counts sim =
  [
    ("engine.events", i (Sim.events_dispatched sim));
    ("engine.peak_live", i (Sim.max_live_pending sim));
    ("engine.peak_pending", i (Sim.max_pending sim));
    ("engine.queue_resizes", i (Sim.queue_resizes sim));
  ]

let net_counts network =
  let ls = links network in
  let routing = Network.routing network in
  [
    ("net.packets_created", i (Network.packets_created network));
    ("net.hops", i (sum Net.Link.tx_packets ls));
    ("net.drops", i (sum Net.Link.drops ls));
    ("net.fault_drops", i (Network.fault_drops network));
    ("net.unroutable_drops", i (Network.unroutable_drops network));
    ("net.arena_live_end", i (Net.Packet.live_count (Network.arena network)));
    ("net.routing_columns", i (Net.Routing.materialized_columns routing));
    ("net.routing_recomputes", i (Net.Routing.recomputes routing));
    ("net.routing_heap_pushes", i (Net.Routing.heap_pushes routing));
  ]

let multicast_counts router ~joins =
  [
    ("multicast.repair_passes", i (Router.repair_passes router));
    ("multicast.edges_repaired", i (Router.edges_repaired router));
    ("multicast.joins", i joins);
    ( "multicast.delivered",
      i
        (sum
           (fun group -> Router.delivered router ~group)
           (List.init (Router.group_count router) Fun.id)) );
  ]

let controller_counts cs =
  let s f = i (sum f cs) in
  let open Toposense.Controller in
  [
    ("toposense.intervals", s intervals_run);
    ("toposense.reports_received", s reports_received);
    ("toposense.suggestions_sent", s suggestions_sent);
    ("toposense.skipped_no_snapshot", s skipped_no_snapshot);
    ("toposense.invalid_snapshots", s invalid_snapshots);
    ("toposense.retransmits", s retransmits);
    ("toposense.controller_state_entries", s receiver_state_entries);
  ]

let source_packets sources ~layers =
  sum
    (fun src ->
      sum (fun layer -> Traffic.Source.packets_sent src ~layer)
        (List.init layers Fun.id))
    sources

(* ---------- traced-run helpers ---------- *)

(* Brackets the router's repair: topology observers run in
   registration order, so one registered before [Router.create] fires
   just before the router's own observer and one registered after it
   fires just after. Traced runs only; the observers touch no
   simulation state. *)
let bracket_repair spans network ~create_router =
  if not (Spans.enabled spans) then create_router ()
  else begin
    let started = ref 0L in
    Network.add_topology_observer network (fun _ -> started := Spans.now_ns ());
    let router = create_router () in
    Network.add_topology_observer network (fun _ ->
        Spans.add spans ~name:"multicast.repair" ~start_ns:!started
          ~stop_ns:(Spans.now_ns ()) ~parent:(Spans.current spans));
    router
  end

(* The event loop to [horizon]. Untraced it is one [run_until]; traced,
   it stops 1 ns before each controller-interval instant and then runs
   that instant alone, so the interval slices hold only the events at
   the instants, and calls [at_instant] (the read-only discovery
   replay) between slices. *)
let event_loop spans sim ~horizon ~interval ~at_instant () =
  if not (Spans.enabled spans) then Sim.run_until sim horizon
  else begin
    let rec go k =
      let at = Time.of_ns (k * interval) in
      if Time.(at <= horizon) then begin
        Spans.wrap spans "engine.dispatch" (fun () ->
            Sim.run_until sim (Time.of_ns (Time.to_ns at - 1)));
        Spans.wrap spans "toposense.interval_slice" (fun () ->
            Sim.run_until sim at);
        Spans.wrap spans "replay" at_instant;
        go (k + 1)
      end
    in
    go 1;
    Spans.wrap spans "engine.dispatch" (fun () -> Sim.run_until sim horizon)
  end

(* At one interval instant, re-runs on the live router state what the
   discovery service and every controller did there: the service's
   capture of each session, then per controller and session the query
   at the controller's staleness (a fresh capture when it is 0), the
   domain restriction, the tree check and the tree build. These calls
   read router state only and draw no PRNG. [edges] keeps the largest
   live capture seen. *)
let replay_instant spans ~sim ~router ~discovery ~sessions ~staleness
    ~domains ~edges () =
  let sw name f = Spans.wrap spans name f in
  let at = Sim.now sim in
  List.iter
    (fun session ->
      let live =
        sw "replay.capture" (fun () ->
            Discovery.Snapshot.capture ~router ~session ~at)
      in
      edges := max !edges (List.length live.Discovery.Snapshot.edges);
      let id = Traffic.Session.id session in
      List.iter
        (fun domain ->
          let queried =
            if staleness = 0 then
              Some
                (sw "replay.query_capture" (fun () ->
                     Discovery.Snapshot.capture ~router ~session ~at))
            else Discovery.Service.query discovery ~session:id ~staleness
          in
          let restricted =
            match (queried, domain) with
            | None, _ -> None
            | Some snap, None -> Some snap
            | Some snap, Some domain ->
                sw "replay.restrict" (fun () ->
                    Discovery.Snapshot.restrict snap ~domain)
          in
          match restricted with
          | None -> ()
          | Some snap ->
              if sw "replay.is_tree" (fun () -> Discovery.Snapshot.is_tree snap)
              then
                ignore
                  (sw "replay.tree_build" (fun () ->
                       Toposense.Tree.of_snapshot snap)))
        domains)
    sessions

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Per-layer discovery and tree-build figures from the replay spans.
   Per-call costs are replay means; [busy_s_est] scales the capture
   cost by the program's own capture count (the service's periodic
   captures plus the controllers' fresh ones) and adds the replayed
   restrict and tree-check time, which mirrors every program call. *)
let discovery_layers spans ~periodic_captures ~edges =
  let us name = Spans.durations_us spans name in
  let captures = us "replay.capture" @ us "replay.query_capture" in
  let program_captures =
    periodic_captures + List.length (us "replay.query_capture")
  in
  let capture_ms = mean captures /. 1e3 in
  [
    ("discovery.captures", float_of_int program_captures);
    ("discovery.snapshot_edges", float_of_int edges);
    ("discovery.capture_ms", capture_ms);
    ("discovery.restrict_ms", mean (us "replay.restrict") /. 1e3);
    ("discovery.is_tree_ms", mean (us "replay.is_tree") /. 1e3);
    ( "discovery.busy_s_est",
      (capture_ms /. 1e3 *. float_of_int program_captures)
      +. Spans.total_s spans "replay.restrict"
      +. Spans.total_s spans "replay.is_tree" );
    ("toposense.tree_build_ms", mean (us "replay.tree_build") /. 1e3);
    ( "toposense.interval_slice_s",
      Spans.total_s spans "toposense.interval_slice" );
  ]

let setup_layers spans =
  List.map
    (fun (layer, span) -> (layer, Spans.total_s spans span))
    [
      ("setup.topology_s", "setup.topology");
      ("setup.network_s", "setup.network");
      ("setup.multicast_s", "setup.multicast");
      ("setup.control_s", "setup.control");
    ]

let latency_layers spans ~metric ~span =
  let ds = Spans.durations_us spans span in
  [
    (metric ^ ".p50", Stats.percentile ds 50.0);
    (metric ^ ".p99", Stats.percentile ds 99.0);
  ]

let traced spans layers = if Spans.enabled spans then layers () else []

(* ---------- topoB-32-sessions-vbr ---------- *)

let topo_b_sessions = 32
let topo_b_horizon = Time.of_sec 300
let topo_b_peak_to_mean = 3.0

let paper_figures ~horizon receivers =
  let window = (Time.zero, horizon) in
  [
    ( "paper.mean_deviation",
      exact (Metrics.Deviation.mean_relative_deviation ~receivers ~window) );
    ( "paper.max_changes",
      i (Metrics.Stability.worst ~logs:(List.map fst receivers) ~window)
        .Metrics.Stability.changes );
  ]

let topo_b_build spans ~seed =
  let sw name f = Spans.wrap spans name f in
  let spec =
    sw "setup.topology" (fun () ->
        Scenarios.Builders.topology_b ~session_count:topo_b_sessions)
  in
  let params = Toposense.Params.default in
  let sim, network =
    sw "setup.network" (fun () ->
        let sim = Sim.create ~seed () in
        (sim, Network.create ~sim spec.Scenarios.Builders.topology))
  in
  let router =
    sw "setup.multicast" (fun () ->
        bracket_repair spans network ~create_router:(fun () ->
            Router.create ~network ~leave_latency:(Time.span_of_sec 1)
              ~expedited_leave:false ()))
  in
  let layering = Traffic.Layering.paper_default in
  let discovery, sessions, sources, controller, agents =
    sw "setup.control" (fun () ->
        let discovery = Discovery.Service.create ~sim ~router () in
        let sessions =
          List.mapi
            (fun id (source, _) ->
              Traffic.Session.create ~router ~source ~layering ~id)
            spec.Scenarios.Builders.sessions
        in
        List.iter (Discovery.Service.register_session discovery) sessions;
        let sources =
          List.map
            (fun session ->
              Traffic.Source.start ~network ~session
                ~kind:
                  (Traffic.Source.Vbr { peak_to_mean = topo_b_peak_to_mean })
                ~rng:
                  (Sim.rng sim
                     ~label:
                       (Printf.sprintf "source-%d"
                          (Traffic.Session.id session)))
                ())
            sessions
        in
        let node = spec.Scenarios.Builders.controller_node in
        let c =
          Toposense.Controller.create ~network ~discovery ~params ~node ()
        in
        List.iter (Toposense.Controller.add_session c) sessions;
        Toposense.Controller.start c;
        let agents =
          List.concat
            (List.map2
               (fun session (source, receivers) ->
                 List.map
                   (fun rnode ->
                     let a =
                       Toposense.Receiver_agent.create ~network ~router ~params
                         ~node:rnode ~controller:node ()
                     in
                     Toposense.Receiver_agent.subscribe a ~session
                       ~initial_level:1;
                     Toposense.Receiver_agent.start a;
                     (session, source, rnode, a))
                   receivers)
               sessions spec.Scenarios.Builders.sessions)
        in
        (discovery, sessions, sources, c, agents))
  in
  let edges = ref 0 in
  let run =
    event_loop spans sim ~horizon:topo_b_horizon ~interval:params.interval
      ~at_instant:
        (replay_instant spans ~sim ~router ~discovery ~sessions
           ~staleness:params.staleness ~domains:[ None ] ~edges)
  in
  let finish () =
    let counts =
      engine_counts sim @ net_counts network
      @ multicast_counts router ~joins:0
      @ [
          ( "traffic.source_packets",
            i (source_packets sources ~layers:(Traffic.Layering.count layering))
          );
        ]
      @ controller_counts [ controller ]
    in
    let routing = Network.routing network in
    let receivers =
      List.map
        (fun (session, source, node, a) ->
          ( Toposense.Receiver_agent.changes a
              ~session:(Traffic.Session.id session),
            Baseline.Static_oracle.optimal_level
              ~topology:spec.Scenarios.Builders.topology ~routing ~layering
              ~sessions:spec.Scenarios.Builders.sessions ~source
              ~receiver:node ))
        agents
    in
    {
      counts = counts @ paper_figures ~horizon:topo_b_horizon receivers;
      layers =
        traced spans (fun () ->
            let periodic =
              List.length sessions
              * (1 + (Time.to_ns topo_b_horizon / Time.span_of_sec 1))
            in
            discovery_layers spans ~periodic_captures:periodic ~edges:!edges
            @ setup_layers spans);
      checks = [];
      absent =
        [
          ( "multicast.join_us",
            "receivers join from their agents inside the event loop" );
          ("net.link_change_us", "no link changes in this workload");
          ("multicast.repair_us", "no link changes in this workload");
          ("discovery.restrict_ms", "one global controller, no domains");
          ("toposense.summaries_received", "no federation in this workload");
        ];
    }
  in
  { run; finish }

let topo_b_record ~seed =
  let o =
    Scenarios.Experiment.run
      ~spec:(Scenarios.Builders.topology_b ~session_count:topo_b_sessions)
      ~traffic:(Scenarios.Experiment.Vbr topo_b_peak_to_mean)
      ~scheme:Scenarios.Experiment.Toposense ~seed
      ~duration:topo_b_horizon ()
  in
  [
    ("engine.events", i o.events_dispatched);
    ("engine.peak_live", i o.peak_live);
    ("engine.peak_pending", i o.peak_heap);
    ("net.hops", i o.forwarded_packets);
    ("toposense.reports_received", i o.reports_received);
    ("toposense.suggestions_sent", i o.suggestions_sent);
    ("toposense.skipped_no_snapshot", i o.skipped_no_snapshot);
  ]
  @ paper_figures ~horizon:topo_b_horizon
      (List.map
         (fun (r : Scenarios.Experiment.receiver_outcome) ->
           (r.changes, r.optimal))
         o.receivers)

(* ---------- scale-100k ---------- *)

let scale_config seed = { Scenarios.Scale.config_100k with seed }

(* The scenario's own bound on materialized routing columns: derived
   from the active-agent knobs alone, never from the receiver count. *)
let column_bound (c : Scenarios.Scale.config) =
  (c.active_domains * (c.active_per_domain + 1)) + 2

let scale_build spans ~seed =
  let config = scale_config seed in
  let sw name f = Spans.wrap spans name f in
  let world =
    sw "setup.topology" (fun () ->
        Scenarios.Builders.transit_stub ~transits:config.transits
          ~stubs_per_transit:config.stubs_per_transit
          ~receivers_per_stub:config.receivers_per_stub ())
  in
  let spec = world.Scenarios.Builders.spec in
  let sim, network =
    sw "setup.network" (fun () ->
        let sim = Sim.create ~seed:config.seed () in
        (sim, Network.create ~sim spec.Scenarios.Builders.topology))
  in
  let router =
    sw "setup.multicast" (fun () ->
        bracket_repair spans network ~create_router:(fun () ->
            Router.create ~network ()))
  in
  let params =
    {
      Toposense.Params.default with
      staleness = Toposense.Params.default.interval;
      prescribe_known_only = true;
    }
  in
  let source, receivers =
    match spec.Scenarios.Builders.sessions with
    | [ s ] -> s
    | _ -> invalid_arg "scale-100k: expected exactly one session"
  in
  let discovery, session, src, parent, controllers, agents =
    sw "setup.control" (fun () ->
        let discovery =
          Discovery.Service.create ~sim ~router ~period:params.interval
            ~history:4 ()
        in
        let session =
          Traffic.Session.create ~router ~source
            ~layering:Traffic.Layering.paper_default ~id:0
        in
        Discovery.Service.register_session discovery session;
        let src =
          Traffic.Source.start ~network ~session ~kind:Traffic.Source.Cbr
            ~rng:(Sim.rng sim ~label:"source-0") ()
        in
        let parent = Toposense.Federation.create_parent ~network ~node:source in
        let controllers =
          List.map
            (fun (domain_id, members) ->
              let c =
                Toposense.Controller.create ~network ~discovery ~params
                  ~node:(List.hd members) ~domain:members
                  ~federation:
                    (Toposense.Federation.leaf ~parent:source ~domain_id)
                  ()
              in
              Toposense.Controller.add_session c session;
              Toposense.Controller.start c;
              c)
            world.Scenarios.Builders.domains
        in
        let agents =
          List.concat_map
            (fun (domain_id, members) ->
              match members with
              | [] -> []
              | ctrl_node :: rs ->
                  if domain_id >= config.active_domains then []
                  else
                    List.filteri (fun i _ -> i < config.active_per_domain) rs
                    |> List.map (fun node ->
                           let a =
                             Toposense.Receiver_agent.create ~network ~router
                               ~params ~node ~controller:ctrl_node ()
                           in
                           Toposense.Receiver_agent.subscribe a ~session
                             ~initial_level:1;
                           Toposense.Receiver_agent.start a;
                           a))
            world.Scenarios.Builders.domains
        in
        (discovery, session, src, parent, controllers, agents))
  in
  let joins = ref 0 in
  sw "setup.multicast" (fun () ->
      let base_group = Traffic.Session.group_for_layer session ~layer:0 in
      let agent_nodes =
        Util.Bitset.of_list (List.map Toposense.Receiver_agent.node agents)
      in
      List.iter
        (fun node ->
          if not (Util.Bitset.mem agent_nodes node) then begin
            incr joins;
            sw "multicast.join" (fun () ->
                Router.join router ~node ~group:base_group)
          end)
        receivers);
  let edges = ref 0 in
  let run =
    event_loop spans sim ~horizon:config.duration ~interval:params.interval
      ~at_instant:
        (replay_instant spans ~sim ~router ~discovery ~sessions:[ session ]
           ~staleness:params.staleness
           ~domains:
             (List.map (fun (_, m) -> Some m) world.Scenarios.Builders.domains)
           ~edges)
  in
  let finish () =
    let columns =
      Net.Routing.materialized_columns (Network.routing network)
    in
    {
      counts =
        engine_counts sim @ net_counts network
        @ multicast_counts router ~joins:!joins
        @ [
            ( "traffic.source_packets",
              i
                (source_packets [ src ]
                   ~layers:
                     (Traffic.Layering.count Traffic.Layering.paper_default))
            );
          ]
        @ controller_counts controllers
        @ [
            ( "toposense.summaries_received",
              i (Toposense.Federation.summaries_received parent) );
            ( "toposense.parent_state_entries",
              i (Toposense.Federation.state_entries parent) );
          ];
      layers =
        traced spans (fun () ->
            let periodic =
              1 + (Time.to_ns config.duration / params.interval)
            in
            discovery_layers spans ~periodic_captures:periodic ~edges:!edges
            @ setup_layers spans
            @ latency_layers spans ~metric:"multicast.join_us"
                ~span:"multicast.join");
      checks = [ ("routing_column_bound", columns <= column_bound config) ];
      absent =
        [
          ("net.link_change_us", "no link changes in this workload");
          ("multicast.repair_us", "no link changes in this workload");
        ];
    }
  in
  { run; finish }

let scale_record ~seed =
  let config = scale_config seed in
  let o = Scenarios.Scale.run ~config () in
  [
    ("engine.events", i o.events_dispatched);
    ("net.routing_columns", i o.materialized_columns);
    ("toposense.reports_received", i o.reports_received);
    ("toposense.suggestions_sent", i o.suggestions_sent);
    ("toposense.controller_state_entries", i o.controller_state_entries);
    ("toposense.summaries_received", i o.summaries_received);
    ("toposense.parent_state_entries", i o.parent_state_entries);
  ]

(* ---------- churn-storm ---------- *)

(* Sized up from the trajectory row (6-ary, depth 3, 60 flaps, 32
   churners, 300 sim-s) so that one run measures enough maintenance
   work to be steady on a shared host. *)
type storm = {
  fanout : int;
  depth : int;
  flaps : int;
  churners : int;
  horizon_s : float;
}

let storm =
  { fanout = 6; depth = 3; flaps = 200; churners = 64; horizon_s = 1000.0 }

(* The scenario's end-of-run invariants: with every link restored, the
   live tables equal a fresh compute over the pristine topology, and the
   tree has one parent per node, follows reverse paths and covers every
   member. *)
let tables_consistent ~topology ~routing ~nodes =
  let oracle = Net.Routing.compute topology in
  let ok = ref true in
  for from = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      if
        from <> dst
        && (Net.Routing.next_hop_opt routing ~from ~dst
              <> Net.Routing.next_hop_opt oracle ~from ~dst
           || Net.Routing.distance routing ~from ~dst
              <> Net.Routing.distance oracle ~from ~dst)
      then ok := false
    done
  done;
  !ok

let tree_consistent ~router ~routing ~group ~root ~nodes =
  let edges = Router.tree_edges router ~group in
  let parent = Hashtbl.create 256 in
  let unique =
    List.for_all
      (fun (p, c) ->
        (not (Hashtbl.mem parent c))
        && begin
             Hashtbl.add parent c p;
             true
           end)
      edges
  in
  let rpf_ok =
    List.for_all
      (fun (p, c) ->
        Net.Routing.next_hop_opt routing ~from:c ~dst:root = Some p)
      edges
  in
  let rec climb n steps =
    n = root
    || steps <= nodes
       &&
       match Hashtbl.find_opt parent n with
       | None -> false
       | Some p -> climb p (steps + 1)
  in
  unique && rpf_ok
  && List.for_all (fun m -> climb m 0) (Router.members router ~group)

let storm_build spans ~seed =
  let sw name f = Spans.wrap spans name f in
  let spec =
    sw "setup.topology" (fun () ->
        Scenarios.Builders.kary ~fanout:storm.fanout ~depth:storm.depth ())
  in
  let topology = spec.Scenarios.Builders.topology in
  let sim, network =
    sw "setup.network" (fun () ->
        let sim = Sim.create ~seed () in
        let network = Network.create ~sim topology in
        Net.Routing.prefetch_all (Network.routing network);
        (sim, network))
  in
  let root, leaves =
    match spec.Scenarios.Builders.sessions with
    | [ s ] -> s
    | _ -> invalid_arg "churn-storm: expected exactly one session"
  in
  let joins = ref 0 and leaves_done = ref 0 and topology_events = ref 0 in
  let join router group node =
    incr joins;
    sw "multicast.join" (fun () -> Router.join router ~node ~group)
  in
  let router, group =
    sw "setup.multicast" (fun () ->
        let router =
          bracket_repair spans network ~create_router:(fun () ->
              Router.create ~network ())
        in
        let group = Router.fresh_group router ~source:root in
        List.iter (join router group) leaves;
        (router, group))
  in
  (* Effective transitions only, as [Net.Faults] counts them: a down of
     a dead link or an up of a live one is a no-op. *)
  let set_link ~a ~b up =
    if Network.link_is_up network ~a ~b <> up then begin
      incr topology_events;
      sw "net.link_change" (fun () -> Network.set_link_up network ~a ~b up)
    end
  in
  let pairs =
    Array.of_list
      (List.map
         (fun (l : Net.Topology.link_spec) -> (l.a, l.b))
         (Net.Topology.links topology))
  in
  sw "setup.control" (fun () ->
      let rng = Sim.rng sim ~label:"churn-storm" in
      let at s thunk = ignore (Sim.schedule_at sim (Time.of_sec_f s) thunk) in
      let storm_end = storm.horizon_s -. 30.0 in
      List.iter
        (fun node ->
          let t = ref (Engine.Prng.uniform rng ~lo:5.0 ~hi:20.0) in
          let continue = ref true in
          while !continue do
            let gap = Engine.Prng.uniform rng ~lo:2.0 ~hi:6.0 in
            if !t +. gap >= storm_end then continue := false
            else begin
              let off = !t in
              at off (fun () ->
                  incr leaves_done;
                  sw "multicast.leave" (fun () ->
                      Router.leave router ~node ~group));
              at (off +. gap) (fun () -> join router group node);
              t := !t +. gap +. Engine.Prng.uniform rng ~lo:10.0 ~hi:25.0
            end
          done)
        (List.filteri (fun i _ -> i < storm.churners) leaves);
      for _ = 1 to storm.flaps do
        let a, b = pairs.(Engine.Prng.int rng ~bound:(Array.length pairs)) in
        let down = Engine.Prng.uniform rng ~lo:5.0 ~hi:(storm_end -. 10.0) in
        let up = down +. Engine.Prng.uniform rng ~lo:2.0 ~hi:8.0 in
        at down (fun () -> set_link ~a ~b false);
        at up (fun () -> set_link ~a ~b true)
      done;
      at storm_end (fun () ->
          Array.iter (fun (a, b) -> set_link ~a ~b true) pairs));
  let horizon = Time.of_sec_f storm.horizon_s in
  let run () =
    sw "engine.dispatch" (fun () -> Sim.run_until sim horizon)
  in
  let finish () =
    let routing = Network.routing network in
    let nodes = Network.node_count network in
    let tables = tables_consistent ~topology ~routing ~nodes in
    let tree = tree_consistent ~router ~routing ~group ~root ~nodes in
    {
      counts =
        engine_counts sim @ net_counts network
        @ multicast_counts router ~joins:!joins
        @ [
            ("churn.topology_events", i !topology_events);
            ("churn.leaves", i !leaves_done);
            ("churn.tables_consistent", string_of_bool tables);
            ("churn.tree_consistent", string_of_bool tree);
          ];
      layers =
        traced spans (fun () ->
            setup_layers spans
            @ latency_layers spans ~metric:"multicast.join_us"
                ~span:"multicast.join"
            @ latency_layers spans ~metric:"net.link_change_us"
                ~span:"net.link_change"
            @ latency_layers spans ~metric:"multicast.repair_us"
                ~span:"multicast.repair");
      checks =
        [ ("tables_consistent", tables); ("tree_consistent", tree) ];
      absent =
        [
          ("discovery.*", "no discovery service in this workload");
          ("toposense.*", "no controller in this workload");
          ("traffic.source_packets", "no data plane in this workload");
        ];
    }
  in
  { run; finish }

let storm_record ~seed =
  let o =
    Scenarios.Recovery.churn_storm ~fanout:storm.fanout ~depth:storm.depth
      ~flaps:storm.flaps ~churners:storm.churners
      ~duration:(Time.of_sec_f storm.horizon_s) ~seed ()
  in
  [
    ("engine.events", i o.events_dispatched);
    ("engine.peak_live", i o.peak_live);
    ("engine.peak_pending", i o.peak_heap);
    ("net.routing_recomputes", i o.routing_recomputes);
    ("multicast.repair_passes", i o.repair_passes);
    ("multicast.edges_repaired", i o.edges_repaired);
    ("multicast.joins", i o.joins);
    ("churn.topology_events", i o.topology_events);
    ("churn.leaves", i o.leaves);
    ("churn.tables_consistent", string_of_bool o.tables_consistent);
    ("churn.tree_consistent", string_of_bool o.tree_consistent);
  ]

let all =
  [
    {
      name = "topoB-32-sessions-vbr";
      build = topo_b_build;
      record = topo_b_record;
    };
    { name = "scale-100k"; build = scale_build; record = scale_record };
    { name = "churn-storm"; build = storm_build; record = storm_record };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
