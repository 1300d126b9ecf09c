(* In-memory span recorder for the traced run. Spans are taken in the
   benchmark's own code around calls into the simulator's public
   functions; nothing inside the library is instrumented. A disabled
   recorder runs the wrapped call and records nothing, so the measured
   (untraced) run pays one branch per wrapped call. *)

let now_ns () = Monotonic_clock.now ()

type t = {
  enabled : bool;
  mutable spans : Stats.span list;  (* newest first *)
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next_id = 0 }
let enabled t = t.enabled
let current t = match t.stack with id :: _ -> id | [] -> -1

let add t ~name ~start_ns ~stop_ns ~parent =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { Stats.id; name; start_ns; stop_ns; parent } :: t.spans

(* Runs [f] inside a span named [name]. The span's id is reserved at
   entry so children can name it as their parent before it closes. *)
let wrap t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = current t in
    t.stack <- id :: t.stack;
    let start_ns = now_ns () in
    let r = f () in
    let stop_ns = now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { Stats.id; name; start_ns; stop_ns; parent } :: t.spans;
    r
  end

let spans t = List.rev t.spans

let named t name =
  List.filter (fun (s : Stats.span) -> s.name = name) (spans t)

let total_s t name =
  List.fold_left (fun acc s -> acc +. Stats.duration_s s) 0.0 (named t name)

let durations_us t name =
  List.map (fun s -> Stats.duration_s s *. 1e6) (named t name)

(* One line per span: id, parent, name, start and stop in ns relative
   to the first span, and the run id that groups one traced run. *)
let write t ~run_id ~path =
  let all = spans t in
  let origin =
    List.fold_left
      (fun acc (s : Stats.span) -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int all
  in
  let oc = open_out path in
  output_string oc "run\tid\tparent\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun (s : Stats.span) ->
      Printf.fprintf oc "%s\t%d\t%d\t%s\t%Ld\t%Ld\n" run_id s.id s.parent s.name
        (Int64.sub s.start_ns origin)
        (Int64.sub s.stop_ns origin))
    all;
  close_out oc
