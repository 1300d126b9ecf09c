module Addr = Net.Addr

type edge = {
  parent : Addr.node_id;
  child : Addr.node_id;
  layers : int list;
}

(* Lookups by node, built once per snapshot. Positions index [edge_at]
   and [member_at], which hold the lists in their given order. Each
   position array is sorted by its flat key array (ties in list order),
   so a node's entries are one search over plain ints away. Plain
   arrays of O(edges + members) words: structural equality and printing
   of snapshots keep working. *)
type index = {
  edge_at : edge array;
  child_keys : int array;  (* children, ascending *)
  by_child : int array;  (* [i]: position of an edge into [child_keys.(i)] *)
  member_at : (Addr.node_id * int) array;
  member_keys : int array;  (* member nodes, ascending *)
  by_member : int array;  (* [i]: position of member [member_keys.(i)] *)
}

type t = {
  session : int;
  taken_at : Engine.Time.t;
  source : Addr.node_id;
  edges : edge list;
  members : (Addr.node_id * int) list;
  index : index;
}

(* Positions 0..n-1 of [keys] in ascending key order, equal keys in
   position order: an LSD radix sort on the bytes of [key - min], read
   unsigned so that any int range stays exact. A few linear passes
   instead of n log n closure calls, which would otherwise dominate
   restricting a domain. The 256-slot count array stays in the minor
   heap. *)
let sort_positions keys =
  let n = Array.length keys in
  let src = ref (Array.init n Fun.id) in
  let lo = Array.fold_left Int.min max_int keys in
  let span = Array.fold_left Int.max min_int keys - lo in
  if n > 1 && span <> 0 then begin
    let dst = ref (Array.make n 0) and count = Array.make 256 0 in
    let shift = ref 0 in
    let digit k = ((k - lo) lsr !shift) land 255 in
    while !shift < Sys.int_size && span lsr !shift <> 0 do
      Array.fill count 0 256 0;
      Array.iter
        (fun k ->
          let d = digit k in
          count.(d) <- count.(d) + 1)
        keys;
      let start = ref 0 in
      for d = 0 to 255 do
        let c = count.(d) in
        count.(d) <- !start;
        start := !start + c
      done;
      let out = !dst in
      Array.iter
        (fun p ->
          let d = digit keys.(p) in
          out.(count.(d)) <- p;
          count.(d) <- count.(d) + 1)
        !src;
      dst := !src;
      src := out;
      shift := !shift + 8
    done
  end;
  !src

(* The keys in ascending order, and the positions they came from. *)
let sort_keys keys =
  let pos = sort_positions keys in
  (Array.map (fun i -> keys.(i)) pos, pos)

let make ~session ~taken_at ~source ~edges ~members =
  let edge_at = Array.of_list edges in
  let member_at = Array.of_list members in
  let child_keys, by_child =
    sort_keys (Array.map (fun e -> e.child) edge_at)
  in
  let member_keys, by_member = sort_keys (Array.map fst member_at) in
  let index =
    { edge_at; child_keys; by_child; member_at; member_keys; by_member }
  in
  { session; taken_at; source; edges; members; index }

(* Per-layer tree edges come sorted by (parent, child): a k-way merge on
   the list heads yields the overlay in that order, and scanning layers
   downward collects each edge's layers ascending. Edges on the same
   layers share one list, so a kept snapshot holds a list per distinct
   layer set rather than per edge — room for its index. *)
let capture ~router ~session ~at =
  let layering = Traffic.Session.layering session in
  let layer_count = Traffic.Layering.count layering in
  let heads =
    Array.init layer_count (fun layer ->
        Multicast.Router.tree_edges router
          ~group:(Traffic.Session.group_for_layer session ~layer))
  in
  let shared = Hashtbl.create 8 in
  let share layers =
    match Hashtbl.find_opt shared layers with
    | Some l -> l
    | None ->
        Hashtbl.add shared layers layers;
        layers
  in
  let rec merge acc =
    let bp = ref (-1) and bc = ref (-1) and found = ref false in
    Array.iter
      (function
        | (p, c) :: _ when (not !found) || p < !bp || (p = !bp && c < !bc) ->
            found := true;
            bp := p;
            bc := c
        | _ -> ())
      heads;
    if not !found then List.rev acc
    else begin
      let layers = ref [] in
      for layer = layer_count - 1 downto 0 do
        match heads.(layer) with
        | (p, c) :: rest when p = !bp && c = !bc ->
            layers := layer :: !layers;
            heads.(layer) <- rest
        | _ -> ()
      done;
      merge ({ parent = !bp; child = !bc; layers = share !layers } :: acc)
    end
  in
  let edges = merge [] in
  let base_group = Traffic.Session.group_for_layer session ~layer:0 in
  let members =
    Multicast.Router.members router ~group:base_group
    |> List.map (fun node ->
           (node, Traffic.Session.subscription_level session ~router ~node))
  in
  make ~session:(Traffic.Session.id session) ~taken_at:at
    ~source:(Traffic.Session.source session) ~edges ~members

let children t node =
  List.filter_map
    (fun e -> if e.parent = node then Some e.child else None)
    t.edges
  |> List.sort Int.compare

let nodes t =
  let module S = Set.Make (Int) in
  let s =
    List.fold_left
      (fun s e -> S.add e.parent (S.add e.child s))
      (S.singleton t.source) t.edges
  in
  let s = List.fold_left (fun s (m, _) -> S.add m s) s t.members in
  S.elements s

let is_tree t =
  (* each child has exactly one parent *)
  let childs = List.map (fun e -> e.child) t.edges in
  let unique = List.sort_uniq Int.compare childs in
  List.length unique = List.length childs
  && (not (List.exists (fun e -> e.child = t.source) t.edges))
  &&
  (* all edges reachable from the source; pre-index children so the walk
     is O(edges), not O(nodes * edges) *)
  let kids : (Addr.node_id, Addr.node_id list) Hashtbl.t =
    Hashtbl.create (List.length t.edges + 1)
  in
  List.iter
    (fun e ->
      Hashtbl.replace kids e.parent
        (e.child :: Option.value ~default:[] (Hashtbl.find_opt kids e.parent)))
    t.edges;
  let seen : (Addr.node_id, unit) Hashtbl.t =
    Hashtbl.create (List.length t.edges + 1)
  in
  Hashtbl.replace seen t.source ();
  let rec reach = function
    | [] -> ()
    | n :: rest ->
        let cs = Option.value ~default:[] (Hashtbl.find_opt kids n) in
        let fresh = List.filter (fun c -> not (Hashtbl.mem seen c)) cs in
        List.iter (fun c -> Hashtbl.replace seen c ()) fresh;
        reach (List.rev_append fresh rest)
  in
  reach [ t.source ];
  List.for_all (fun e -> Hashtbl.mem seen e.parent) t.edges

(* The first index at or after [from] of ascending [keys] whose key is
   >= [n]. It gallops from [from] before bisecting, so a run of
   ascending queries reads O(log gap) nearby keys each, not O(log E)
   scattered ones. *)
let seek keys ~from n =
  let len = Array.length keys in
  let lo = ref from and hi = ref from and step = ref 1 in
  while !hi < len && keys.(!hi) < n do
    lo := !hi + 1;
    hi := !hi + !step;
    step := 2 * !step
  done;
  let hi = ref (Int.min !hi len) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if keys.(mid) < n then lo := mid + 1 else hi := mid
  done;
  !lo

(* [f] on the position of each entry whose key is [n], in list order,
   seeking from index [from]; returns the index just past them. *)
let iter_matches ~keys positions ~from n f =
  let i = ref (seek keys ~from n) in
  while !i < Array.length keys && keys.(!i) = n do
    f positions.(!i);
    incr i
  done;
  !i

(* Elements at the collected positions, in list order. *)
let pick at positions =
  let ps = Array.of_list positions in
  Array.fold_right (fun j acc -> at.(ps.(j)) :: acc) (sort_positions ps) []

let restrict t ~domain =
  if domain = [] then None
  else begin
    let ix = t.index in
    let dom = fst (sort_keys (Array.of_list domain)) in
    let inside n =
      let i = seek dom ~from:0 n in
      i < Array.length dom && dom.(i) = n
    in
    (* Only the domain's own nodes are visited, in ascending order: their
       in-edges split into kept edges (parent inside) and entries from
       outside. The cursors only move forward, so a repeated node finds
       nothing the second time. *)
    let kept = ref [] and entered = ref [] and members = ref [] in
    let next_edge = ref 0 and next_member = ref 0 in
    Array.iter
      (fun n ->
        next_edge :=
          iter_matches ~keys:ix.child_keys ix.by_child ~from:!next_edge n
            (fun i ->
              if inside ix.edge_at.(i).parent then kept := i :: !kept
              else entered := n :: !entered);
        next_member :=
          iter_matches ~keys:ix.member_keys ix.by_member ~from:!next_member
            n (fun i -> members := i :: !members))
      dom;
    (* Ingresses: domain nodes entered from outside, plus the source. *)
    let ingresses =
      (if inside t.source then [ t.source ] else []) @ !entered
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
        Some
          (make ~session:t.session ~taken_at:t.taken_at ~source:ingress
             ~edges:(pick ix.edge_at !kept)
             ~members:(pick ix.member_at !members))
  end

let divergence t ~router ~session =
  let module ES = Set.Make (struct
    type t = Addr.node_id * Addr.node_id

    let compare = compare
  end) in
  let live =
    let layering = Traffic.Session.layering session in
    let acc = ref ES.empty in
    for layer = 0 to Traffic.Layering.count layering - 1 do
      let group = Traffic.Session.group_for_layer session ~layer in
      List.iter
        (fun e -> acc := ES.add e !acc)
        (Multicast.Router.tree_edges router ~group)
    done;
    !acc
  in
  let pictured =
    List.fold_left (fun s e -> ES.add (e.parent, e.child) s) ES.empty t.edges
  in
  ES.cardinal (ES.diff live pictured) + ES.cardinal (ES.diff pictured live)

let pp ppf t =
  Format.fprintf ppf "@[<v>session %d @ %a (source %a)@," t.session
    Engine.Time.pp t.taken_at Addr.pp_node t.source;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %a -> %a layers=%a@," Addr.pp_node e.parent
        Addr.pp_node e.child
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        e.layers)
    t.edges;
  List.iter
    (fun (m, lvl) ->
      Format.fprintf ppf "  member %a level=%d@," Addr.pp_node m lvl)
    t.members;
  Format.fprintf ppf "@]"
