module Time = Engine.Time

type t = {
  node_count : int;
  (* next.(dst).(n) = neighbor of n on the shortest path toward dst, or
     -1 when dst is unreachable from n. A destination's column is [||]
     until the first query that needs it: materializing all columns up
     front is O(V^2) memory and V Dijkstras, which caps topologies at a
     few hundred nodes, while a multicast workload only ever routes
     toward sources and control-plane endpoints. *)
  next : Addr.node_id array array;
  dist : Time.span array array;
  (* CSR adjacency, retained so tables can be recomputed when links fail
     or recover: node [n]'s neighbors are [nbr.(off.(n)) ..
     nbr.(off.(n+1) - 1)] in ascending id order (the deterministic
     relaxation order), with the link delay in [wt] and the duplex
     link's index in [eid]. *)
  off : int array;
  nbr : Addr.node_id array;
  wt : Time.span array;
  eid : int array;
  (* One byte per duplex link: ['\001'] while administratively down. *)
  down : Bytes.t;
  (* Scratch binary min-heap over (dist, node) keys held in two int
     arrays, ordered by distance then node id. Owned by this [t] and
     reused by every Dijkstra it runs; empty between calls. *)
  mutable heap_dist : int array;
  mutable heap_node : int array;
  mutable heap_len : int;
  (* Scratch for link-down repair: the orphaned subtree of the column
     being repaired. [||] until the first link-down, then [node_count]
     long; owned by this [t] like the heap. *)
  mutable orphans : int array;
  mutable recomputes : int;
  mutable materialized : int;
  mutable heap_pushes : int;
}

(* Unchecked int-array access for the kernel below. Every index there is
   in range by construction: node ids are below [node_count], CSR slots
   below [off.(node_count)], heap slots below [heap_len], which never
   exceeds the arrays' length. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* ---------- scratch heap ---------- *)

let[@inline] before (da : int) (na : int) (db : int) (nb : int) =
  da < db || (da = db && na < nb)

let rec sift_up hd hn i d n =
  if i = 0 then begin
    hd.!(0) <- d;
    hn.!(0) <- n
  end
  else
    let p = (i - 1) / 2 in
    if before d n hd.!(p) hn.!(p) then begin
      hd.!(i) <- hd.!(p);
      hn.!(i) <- hn.!(p);
      sift_up hd hn p d n
    end
    else begin
      hd.!(i) <- d;
      hn.!(i) <- n
    end

let rec sift_down hd hn len i d n =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < len && before hd.!(l + 1) hn.!(l + 1) hd.!(l) hn.!(l) then l + 1
    else l
  in
  if c < len && before hd.!(c) hn.!(c) d n then begin
    hd.!(i) <- hd.!(c);
    hn.!(i) <- hn.!(c);
    sift_down hd hn len c d n
  end
  else begin
    hd.!(i) <- d;
    hn.!(i) <- n
  end

let heap_push t d n =
  let cap = Array.length t.heap_dist in
  if t.heap_len = cap then begin
    let grow a = Array.append a (Array.make (max 16 cap) 0) in
    t.heap_dist <- grow t.heap_dist;
    t.heap_node <- grow t.heap_node
  end;
  sift_up t.heap_dist t.heap_node t.heap_len d n;
  t.heap_len <- t.heap_len + 1

(* Removes the minimum; the caller has read it from slot 0. *)
let heap_drop_min t =
  let len = t.heap_len - 1 in
  t.heap_len <- len;
  if len > 0 then
    sift_down t.heap_dist t.heap_node len 0 t.heap_dist.!(len)
      t.heap_node.!(len)

(* ---------- kernel ---------- *)

(* Drains the scratch heap into destination [d]'s columns: pops in
   (dist, id) order, skips stale entries and down links, and relaxes the
   popped node's CSR row. An equality-only rewrite (same distance,
   lower-id neighbor wins the tie-break) updates [next.(m)] without a
   push: the node's distance is unchanged, its earlier relaxation already
   offered neighbors the same candidate distances, and a canonical next
   hop depends on distances alone — re-relaxing the adjacency would redo
   identical work (the same argument [restore_edge_dst] relies on).
   Returns the number of pushes. *)
let relax t ~d dist next =
  let off = t.off and nbr = t.nbr and wt = t.wt and eid = t.eid
  and down = t.down in
  let rec loop pushes =
    if t.heap_len = 0 then pushes
    else begin
      let du = t.heap_dist.!(0) and u = t.heap_node.!(0) in
      heap_drop_min t;
      if du <> dist.!(u) then loop pushes
      else begin
        let pushes = ref pushes in
        for i = off.!(u) to off.!(u + 1) - 1 do
          if Bytes.unsafe_get down eid.!(i) = '\000' then begin
            let m = nbr.!(i) in
            let nd = du + wt.!(i) in
            if nd < dist.!(m) then begin
              dist.!(m) <- nd;
              next.!(m) <- u;
              heap_push t nd m;
              incr pushes
            end
            else if nd = dist.!(m) && next.!(m) > u && m <> d then
              next.!(m) <- u
          end
        done;
        loop !pushes
      end
    end
  in
  loop 0

let is_materialized t d = Array.length t.next.(d) <> 0

(* First query for a destination computes its column against the current
   down flags — bit-identical to what an eager [compute] plus the
   incremental updates would have produced, since both leave the unique
   canonical table for the live topology. One Dijkstra rooted at [d]
   fills, for every node, its next hop toward [d] — the neighbor through
   which the node was finalized — and its distance. Not billed to
   [recomputes]: like the eager initial computation, it is creation, not
   damage. *)
let materialize_dst t d =
  let dist = Array.make t.node_count max_int in
  let next = Array.make t.node_count (-1) in
  dist.(d) <- 0;
  heap_push t 0 d;
  t.heap_pushes <- t.heap_pushes + 1 + relax t ~d dist next;
  t.next.(d) <- next;
  t.dist.(d) <- dist;
  t.materialized <- t.materialized + 1

let column t d =
  if not (is_materialized t d) then materialize_dst t d;
  t.next.(d)

(* Link-down repair of destination [d]'s columns, in the manner of
   Ramalingam and Reps' decremental shortest paths. [c] is the endpoint
   whose next hop crossed the failed edge. The orphans are the subtree
   hanging below [c] — the nodes whose next-hop chain reaches it — and
   only they are touched: every other node's path never used the edge,
   so its distance stands, and its canonical next hop stands too, since
   an orphan's distance can only grow (a neighbor that now ties for the
   smallest id already tied before). The orphans are blanked, each is
   seeded from its live non-orphan neighbors with the kernel's
   (dist, smallest id) rule, and the kernel settles them, its equality
   branch leaving the canonical tie-breaks among them. An orphan no seed
   reaches stays at [max_int] and [-1], as a fresh Dijkstra would leave
   it. The result is bit-identical to a fresh computation, provided link
   delays are positive (which [Topology.add_duplex] enforces). *)
let repair_dst t ~d c =
  t.recomputes <- t.recomputes + 1;
  if Array.length t.orphans = 0 then t.orphans <- Array.make t.node_count 0;
  let dist = t.dist.(d) and next = t.next.(d) and orphans = t.orphans in
  let off = t.off and nbr = t.nbr and wt = t.wt and eid = t.eid
  and down = t.down in
  (* Breadth-first over the subtree, blanking each orphan as it is
     collected; a blanked node no longer names its parent, so none is
     collected twice. *)
  dist.!(c) <- max_int;
  next.!(c) <- -1;
  orphans.!(0) <- c;
  let len = ref 1 and k = ref 0 in
  while !k < !len do
    let u = orphans.!(!k) in
    incr k;
    for i = off.!(u) to off.!(u + 1) - 1 do
      let m = nbr.!(i) in
      if next.!(m) = u then begin
        dist.!(m) <- max_int;
        next.!(m) <- -1;
        orphans.!(!len) <- m;
        incr len
      end
    done
  done;
  (* Seeds go to the heap first and into [dist] only once all are
     chosen, so an orphan is seeded from non-orphans alone. Rows are in
     ascending id order: the strict [<] keeps the smallest id on a tie. *)
  for j = 0 to !len - 1 do
    let u = orphans.!(j) in
    let best = ref max_int and via = ref (-1) in
    for i = off.!(u) to off.!(u + 1) - 1 do
      if Bytes.unsafe_get down eid.!(i) = '\000' then begin
        let dm = dist.!(nbr.!(i)) in
        if dm < max_int && dm + wt.!(i) < !best then begin
          best := dm + wt.!(i);
          via := nbr.!(i)
        end
      end
    done;
    if !via >= 0 then begin
      next.!(u) <- !via;
      heap_push t !best u
    end
  done;
  for j = 0 to t.heap_len - 1 do
    dist.!(t.heap_node.!(j)) <- t.heap_dist.!(j)
  done;
  t.heap_pushes <- t.heap_pushes + t.heap_len + relax t ~d dist next

(* Offers [m] the candidate path over the restored edge (n,m) of weight
   [w] in destination [d]'s columns; returns whether it changed them. *)
let seed t ~d dist next ~w n m =
  if dist.(n) < max_int && m <> d then begin
    let nd = dist.(n) + w in
    if nd < dist.(m) then begin
      dist.(m) <- nd;
      next.(m) <- n;
      heap_push t nd m;
      true
    end
    else if nd = dist.(m) && next.(m) > n then begin
      next.(m) <- n;
      true
    end
    else false
  end
  else false

(* Splice the restored edge (a,b) of weight [w] back into destination
   [d]'s tables, which are exact for the topology without it. The kernel
   leaves a canonical table — [dist.(m)] is the shortest distance and
   [next.(m)] the smallest-id neighbor on a shortest path — and that
   invariant characterizes the tables independently of how they were
   produced. A distance can only improve through the restored edge, so if
   neither endpoint gains a shorter path through the other (nor an
   equal-length one through a lower-id neighbor, the tie-break), the
   destination's tables are already canonical for the restored topology
   and it is skipped without touching the counter. Otherwise the improved
   endpoint seeds the kernel confined to the improved region, relaxing
   with the same tie-break over the same sorted adjacency: nodes whose
   distance falls are pushed and finalized in (dist, id) order, while an
   equal-length discovery only lowers [next.(m)] — distances are
   unchanged there, so nothing propagates (a neighbor's canonical next
   hop depends on distances alone). Any node not reached this way kept
   both its distance and, by the old canonicity, its minimal next hop, so
   the result is bit-identical to a fresh [compute]. Returns whether the
   destination's tables changed. *)
let restore_edge_dst t ~d ~a ~b ~w =
  let dist = t.dist.(d) and next = t.next.(d) in
  let via_a = seed t ~d dist next ~w a b in
  let via_b = seed t ~d dist next ~w b a in
  ignore (relax t ~d dist next : int);
  let touched = via_a || via_b in
  if touched then t.recomputes <- t.recomputes + 1;
  touched

let compute topo =
  if not (Topology.is_connected topo) then
    invalid_arg "Routing.compute: topology is not connected";
  let node_count = Topology.node_count topo in
  let links = Array.of_list (Topology.links topo) in
  let halves = 2 * Array.length links in
  let off = Array.make (node_count + 1) 0 in
  Array.iter
    (fun (l : Topology.link_spec) ->
      off.(l.a + 1) <- off.(l.a + 1) + 1;
      off.(l.b + 1) <- off.(l.b + 1) + 1)
    links;
  for n = 0 to node_count - 1 do
    off.(n + 1) <- off.(n + 1) + off.(n)
  done;
  (* Two counting passes lay the rows out in the deterministic
     relaxation order (ascending neighbor id) without a sort: the first
     buckets half-edges by source in link order; the second walks those
     buckets by ascending node [v] and appends [v] to each neighbor's
     row, so every row fills in ascending order. *)
  let bucket_fill off nbr eid u v e =
    let i = off.(u) in
    off.(u) <- i + 1;
    nbr.(i) <- v;
    eid.(i) <- e
  in
  let fill = Array.sub off 0 node_count in
  let raw_nbr = Array.make halves 0 and raw_eid = Array.make halves 0 in
  Array.iteri
    (fun e (l : Topology.link_spec) ->
      bucket_fill fill raw_nbr raw_eid l.a l.b e;
      bucket_fill fill raw_nbr raw_eid l.b l.a e)
    links;
  let fill = Array.sub off 0 node_count in
  let nbr = Array.make halves 0 and eid = Array.make halves 0 in
  for v = 0 to node_count - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      bucket_fill fill nbr eid raw_nbr.(i) v raw_eid.(i)
    done
  done;
  {
    node_count;
    next = Array.make node_count [||];
    dist = Array.make node_count [||];
    off;
    nbr;
    wt = Array.map (fun e -> links.(e).Topology.delay) eid;
    eid;
    down = Bytes.make (Array.length links) '\000';
    heap_dist = [||];
    heap_node = [||];
    heap_len = 0;
    orphans = [||];
    recomputes = 0;
    materialized = 0;
    heap_pushes = 0;
  }

let prefetch_all t =
  for d = 0 to t.node_count - 1 do
    if not (is_materialized t d) then materialize_dst t d
  done

let materialized_columns t = t.materialized
let heap_pushes t = t.heap_pushes

let check t from dst =
  if from < 0 || from >= t.node_count || dst < 0 || dst >= t.node_count then
    invalid_arg "Routing: unknown node"

(* The CSR slot of [b] in [a]'s row (binary search over the sorted
   neighbors), or -1 when the two are not adjacent. *)
let slot t a b =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = t.nbr.(mid) in
      if m = b then mid else if m < b then search (mid + 1) hi else search lo mid
  in
  if a < 0 || a >= t.node_count then -1 else search t.off.(a) t.off.(a + 1)

let link_enabled t ~a ~b =
  match slot t a b with
  | -1 -> invalid_arg "Routing.link_enabled: not adjacent"
  | i -> Bytes.get t.down t.eid.(i) = '\000'

(* Both directions are incremental and bounded to the materialized
   destinations whose tables actually change; a column nobody has queried
   holds no state to maintain, and will be computed against the live
   down flags if a later query materializes it. Taking a link down
   only invalidates destinations whose shortest-path tree crossed it:
   next.(d) is a tree rooted at [d], so the edge (a,b) is in use iff one
   endpoint forwards through the other. An unused equal-cost edge was
   already rejected by the deterministic tie-break, so removing it cannot
   change any table; a used one is cut below the endpoint that
   forwarded across it, and [repair_dst] re-settles only the subtree
   hanging there. Restoring a link runs [restore_edge_dst] per
   materialized destination: the restored edge is spliced in where it
   improves a reachable node and the improvement relaxed outward, or the
   destination is skipped entirely — either way the tables are exactly
   what a fresh computation would produce on the restored topology.
   Returns the materialized destinations whose tables changed, in
   ascending order. *)
let set_link_enabled t ~a ~b enabled =
  check t a b;
  if a = b then invalid_arg "Routing.set_link_enabled: a = b";
  let i = slot t a b in
  if i < 0 then invalid_arg "Routing.set_link_enabled: not adjacent";
  let e = t.eid.(i) in
  let affected = ref [] in
  if enabled then begin
    if Bytes.get t.down e <> '\000' then begin
      Bytes.set t.down e '\000';
      let w = t.wt.(i) in
      for d = t.node_count - 1 downto 0 do
        if is_materialized t d && restore_edge_dst t ~d ~a ~b ~w then
          affected := d :: !affected
      done
    end
  end
  else if Bytes.get t.down e = '\000' then begin
    Bytes.set t.down e '\001';
    for d = t.node_count - 1 downto 0 do
      if is_materialized t d then begin
        let next = t.next.(d) in
        let c = if next.(a) = b then a else if next.(b) = a then b else -1 in
        if c >= 0 then begin
          repair_dst t ~d c;
          affected := d :: !affected
        end
      end
    done
  end;
  !affected
let recomputes t = t.recomputes

let next_hop t ~from ~dst =
  check t from dst;
  if from = dst then invalid_arg "Routing.next_hop: from = dst";
  (column t dst).(from)

let next_hop_opt t ~from ~dst =
  check t from dst;
  if from = dst then invalid_arg "Routing.next_hop_opt: from = dst";
  match (column t dst).(from) with -1 -> None | n -> Some n

let reachable t ~from ~dst =
  check t from dst;
  from = dst || (column t dst).(from) >= 0

let path t ~from ~dst =
  check t from dst;
  let next = column t dst in
  let rec walk n acc =
    if n = dst then List.rev (dst :: acc)
    else
      match next.(n) with
      | -1 -> invalid_arg "Routing.path: destination unreachable"
      | nh -> walk nh (n :: acc)
  in
  walk from []

let distance t ~from ~dst =
  check t from dst;
  ignore (column t dst : Addr.node_id array);
  t.dist.(dst).(from)
