(** A point-in-time image of one session's multicast topology.

    The *session topology* is the overlay of the per-layer distribution
    trees; because layers are cumulative it is itself a tree, rooted at the
    source (paper Section III). Each edge carries the set of layers
    flowing over it; each member carries its subscription level as visible
    in group-membership state. *)

type edge = {
  parent : Net.Addr.node_id;
  child : Net.Addr.node_id;
  layers : int list;  (** sorted, 0-based layers flowing on this edge *)
}

type index
(** Per-node lookups built by {!make}: each child's in-edges and each
    member's entries, found by searching the children and the member
    nodes in ascending order. Its size is O(edges + members) of
    the snapshot it belongs to, never of the world; it is plain data
    (arrays, no closures), so snapshots still compare with [=]. *)

type t = private {
  session : int;
  taken_at : Engine.Time.t;
  source : Net.Addr.node_id;
  edges : edge list;  (** sorted by (parent, child) when captured *)
  members : (Net.Addr.node_id * int) list;
      (** receivers with their subscription level, sorted by node when
          captured *)
  index : index;
}
(** Built only by {!make} (or {!capture} / {!restrict}), so the index
    always matches the lists. *)

val make :
  session:int ->
  taken_at:Engine.Time.t ->
  source:Net.Addr.node_id ->
  edges:edge list ->
  members:(Net.Addr.node_id * int) list ->
  t
(** A snapshot of the given lists, kept in the order given (they are not
    re-sorted), with its index: a few linear (radix) passes, once. *)

val capture :
  router:Multicast.Router.t ->
  session:Traffic.Session.t ->
  at:Engine.Time.t ->
  t
(** Reads the router's current forwarding and membership state. The
    overlay is a merge of the per-layer tree edge lists; edges on the
    same layers share one [layers] list. *)

val children : t -> Net.Addr.node_id -> Net.Addr.node_id list
(** Children of a node in the overlay tree, sorted. *)

val nodes : t -> Net.Addr.node_id list
(** All nodes appearing in the snapshot (source, interior, members). *)

val is_tree : t -> bool
(** Sanity: every non-source node has at most one parent and the edge set
    is acyclic and reachable from the source. *)

val restrict : t -> domain:Net.Addr.node_id list -> t option
(** The paper's per-domain view (Section II): keep only the part of the
    session tree inside an administrative [domain]. The restricted
    snapshot is rooted at the domain's ingress — the unique domain node
    whose tree parent lies outside the domain (or the session source when
    it belongs to the domain). [None] when the session does not enter the
    domain. @raise Invalid_argument if the tree enters the domain at more
    than one ingress (the domain is not subtree-shaped for this
    session); the message names the offending ingress nodes. Validate
    domain assignments up front with
    [Scenarios.Builders.validate_domains].

    Cost: O(|domain| log E) lookups in the index (E = edges + members),
    plus sorting what is kept — the rest of the world is not visited.
    The kept edges and members appear in the same relative order as in
    [t], exactly as filtering the lists would leave them. *)

val divergence :
  t -> router:Multicast.Router.t -> session:Traffic.Session.t -> int
(** How wrong the snapshot is right now: the symmetric difference between
    its edge set and the session's live overlay tree in [router], in
    edges. 0 means the image is exact (whatever its age); under failures a
    stale image diverges — it pictures edges that no longer exist and
    misses the repaired ones. *)

val pp : Format.formatter -> t -> unit
