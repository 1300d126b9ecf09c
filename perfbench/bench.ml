(* The benchmark of record. Subcommands:

     run --workload W --seed N --seconds S --trace 0|1
         Measures workload W for S seconds, one fresh child process per
         workload run, and prints every metric by name and unit; the
         last line is one JSON object. --trace 0 gives the end-to-end
         metrics of untraced runs; --trace 1 alternates untraced and
         traced runs and gives the per-layer metrics.
     child --workload W --seed N --trace 0|1
         One workload run in this process (what [run] spawns).
     record --workload W --seeds A-B
         Runs the library scenario behind W and prints its fingerprints
         as entries for fingerprints.ml.
     ab --base EXE --new EXE --workloads W,.. --seed N --pairs P
         Same-host A/B of two built copies of this executable.

   See README.md in this directory for the metrics and the workloads. *)

let now_s () = Int64.to_float (Spans.now_ns ()) /. 1e9

(* ---------- argument handling ---------- *)

let usage () =
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1\n\
    \       bench.exe child --workload W --seed N --trace 0|1\n\
    \       bench.exe record --workload W --seeds A-B\n\
    \       bench.exe ab --base EXE --new EXE --workloads W[,W..] --seed N \
     --pairs P";
  exit 2

let flag args name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let required args name =
  match flag args name with
  | Some v -> v
  | None ->
      Printf.eprintf "missing %s\n" name;
      usage ()

let int_arg args name =
  let v = required args name in
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      Printf.eprintf "%s: not an integer: %S\n" name v;
      usage ()

let seed_arg args =
  let v = required args "--seed" in
  match Int64.of_string_opt v with
  | Some s -> s
  | None ->
      Printf.eprintf "--seed: not an integer: %S\n" v;
      usage ()

let workload_arg name =
  match Workloads.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" name
        (String.concat ", "
           (List.map (fun w -> w.Workloads.name) Workloads.all));
      exit 2

let trace_arg args =
  match required args "--trace" with
  | "0" -> false
  | "1" -> true
  | v ->
      Printf.eprintf "--trace: expected 0 or 1, got %S\n" v;
      usage ()

(* ---------- one workload run (child) ---------- *)

let print_kv tag k v = Printf.printf "%s %s %.17g\n" tag k v

let child args =
  let w = workload_arg (required args "--workload") in
  let seed = seed_arg args and trace = trace_arg args in
  let spans = Spans.create ~enabled:trace in
  let t0 = now_s () in
  let world = Spans.wrap spans "setup" (fun () -> w.build spans ~seed) in
  let t1 = now_s () in
  let g0 = Gc.quick_stat () and c0 = Unix.times () in
  Spans.wrap spans "run" world.run;
  let c1 = Unix.times () and g1 = Gc.quick_stat () in
  let t2 = now_s () in
  let o = world.finish () in
  let rss_kb = Scenarios.Scale.peak_rss_kb () in
  let replay_s = Spans.total_s spans "replay" in
  print_kv "e2e" "setup_s" (t1 -. t0);
  print_kv "e2e" "run_s" (t2 -. t1 -. replay_s);
  print_kv "e2e" "peak_rss_mb" (float_of_int rss_kb /. 1024.0);
  print_kv "gc" "minor_mwords" ((g1.minor_words -. g0.minor_words) /. 1e6);
  print_kv "gc" "major_mwords" ((g1.major_words -. g0.major_words) /. 1e6);
  print_kv "gc" "major_collections"
    (float_of_int (g1.major_collections - g0.major_collections));
  print_kv "gc" "allocated_words"
    (g1.minor_words +. g1.major_words -. g1.promoted_words
    -. (g0.minor_words +. g0.major_words -. g0.promoted_words));
  print_kv "proc" "run_cpu_s"
    (c1.tms_utime +. c1.tms_stime -. (c0.tms_utime +. c0.tms_stime));
  List.iter (fun (k, v) -> Printf.printf "count %s %s\n" k v) o.counts;
  List.iter (fun (k, v) -> print_kv "layer" k v) o.layers;
  List.iter (fun (k, ok) -> Printf.printf "check %s %b\n" k ok) o.checks;
  (match Fingerprints.find ~workload:w.name ~seed with
  | None -> print_endline "fingerprint unrecorded"
  | Some expected ->
      print_endline "fingerprint recorded";
      List.iter
        (fun (k, want, got) ->
          Printf.printf "check fingerprint:%s false\n" k;
          Printf.eprintf "fingerprint mismatch %s: recorded %s, got %s\n" k want
            got)
        (Stats.fingerprint_mismatches ~expected ~observed:o.counts));
  List.iter (fun (k, why) -> Printf.printf "absent %s %s\n" k why) o.absent;
  if trace then begin
    let all = Spans.spans spans in
    let root = Spans.total_s spans "setup" +. Spans.total_s spans "run" in
    let is_replay n = String.starts_with ~prefix:"replay" n in
    let layer_self =
      List.filter_map
        (fun ((s : Stats.span), self) ->
          if s.name = "setup" || s.name = "run" || is_replay s.name then None
          else Some self)
        (Stats.self_times all)
    in
    print_kv "trace" "attributed_pct"
      (100.0 *. List.fold_left ( +. ) 0.0 layer_self /. (root -. replay_s));
    List.iter
      (fun (name, self) ->
        Printf.printf "self %s %.6f\n" name self)
      (List.filter (fun (n, _) -> not (is_replay n)) (Stats.self_by_name all));
    let dir = Filename.concat "perfbench" "out" in
    if Sys.file_exists "perfbench" then begin
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let run_id = Printf.sprintf "%s-%Ld-%d" w.name seed (Unix.getpid ()) in
      let file = Printf.sprintf "spans-%s-%Ld.tsv" w.name seed in
      Spans.write spans ~run_id ~path:(Filename.concat dir file)
    end
  end

(* ---------- parsing a child's report ---------- *)

type report = {
  e2e : (string * float) list;
  gc : (string * float) list;
  proc : (string * float) list;
  counts : (string * string) list;
  layers : (string * float) list;
  checks : (string * bool) list;
  absent : (string * string) list;
  self : (string * float) list;
  trace : (string * float) list;
  recorded : bool;
  exit_ok : bool;
}

let empty =
  {
    e2e = [];
    gc = [];
    proc = [];
    counts = [];
    layers = [];
    checks = [];
    absent = [];
    self = [];
    trace = [];
    recorded = false;
    exit_ok = false;
  }

let parse lines =
  let fl s = Option.value ~default:nan (float_of_string_opt s) in
  let r =
    List.fold_left
      (fun r line ->
        match String.split_on_char ' ' line with
        | "e2e" :: k :: [ v ] -> { r with e2e = (k, fl v) :: r.e2e }
        | "gc" :: k :: [ v ] -> { r with gc = (k, fl v) :: r.gc }
        | "proc" :: k :: [ v ] -> { r with proc = (k, fl v) :: r.proc }
        | "count" :: k :: [ v ] -> { r with counts = (k, v) :: r.counts }
        | "layer" :: k :: [ v ] -> { r with layers = (k, fl v) :: r.layers }
        | "check" :: k :: [ v ] ->
            { r with checks = (k, v = "true") :: r.checks }
        | "self" :: k :: [ v ] -> { r with self = (k, fl v) :: r.self }
        | "trace" :: k :: [ v ] -> { r with trace = (k, fl v) :: r.trace }
        | "absent" :: k :: why ->
            { r with absent = (k, String.concat " " why) :: r.absent }
        | [ "fingerprint"; "recorded" ] -> { r with recorded = true }
        | _ -> r)
      empty lines
  in
  {
    r with
    e2e = List.rev r.e2e;
    counts = List.rev r.counts;
    layers = List.rev r.layers;
    checks = List.rev r.checks;
    absent = List.rev r.absent;
    self = List.rev r.self;
  }

(* Runs [exe child ...] to completion and parses its report; a child
   that exits non-zero is reported with [exit_ok = false]. *)
let spawn_child ~exe ~workload ~seed ~trace =
  let argv =
    [|
      exe; "child"; "--workload"; workload; "--seed"; Int64.to_string seed;
      "--trace"; (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in exe argv in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  let status = Unix.close_process_in ic in
  { (parse lines) with exit_ok = status = Unix.WEXITED 0 }

let checks_failed r =
  (if r.exit_ok then 0 else 1)
  + List.length (List.filter (fun (_, ok) -> not ok) r.checks)

(* ---------- host ---------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let cpu_info () =
  let lines = read_lines "/proc/cpuinfo" in
  let starts prefix = String.starts_with ~prefix in
  let nproc = List.length (List.filter (starts "processor") lines) in
  let model =
    match List.find_opt (starts "model name") lines with
    | Some l -> (
        match String.index_opt l ':' with
        | Some k -> String.trim (String.sub l (k + 1) (String.length l - k - 1))
        | None -> "unknown")
    | None -> "unknown"
  in
  (nproc, model)

(* The revision of the tree being measured: git's, when the benchmark
   runs at the root of a git work tree, else "unknown" (an exported
   checkout, or no git on the host). Git is not asked outside the root,
   where it would search the parent directories. *)
let git_revision () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try Some (input_line ic) with End_of_file -> None in
    match (line, Unix.close_process_in ic) with
    | Some l, Unix.WEXITED 0 -> l
    | _ -> "unknown"

let print_host () =
  let nproc, model = cpu_info () in
  Printf.printf "host nproc=%d cpu=%S ocaml=%s backend=%s rev=%s\n" nproc model
    Sys.ocaml_version
    (Engine.Event_queue.backend_to_string (Engine.Event_queue.default ()))
    (git_revision ())

(* ---------- metrics ---------- *)

(* JSON has no NaN or infinity; a metric without samples reads 0. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let assoc_f k l = Option.value ~default:nan (List.assoc_opt k l)
let medians f reports = Stats.median (List.map f reports)

(* One child's value of an end-to-end metric; total_s is per child. *)
let e2e_value name r =
  let e k = assoc_f k r.e2e in
  if name = "total_s" then e "setup_s" +. e "run_s" else e name

let end_to_end reports =
  List.map
    (fun (name, unit) -> (name, unit, medians (e2e_value name) reports))
    [
      ("setup_s", "s"); ("run_s", "s"); ("total_s", "s"); ("peak_rss_mb", "MB");
    ]

(* (name, unit) of every per-layer metric, in print order. *)
let per_layer_names =
  let c n = (n, "count") in
  [
    c "engine.events"; ("engine.events_per_s", "1/s"); c "engine.peak_live";
    c "engine.peak_pending"; c "engine.queue_resizes";
    ("gc.minor_mwords", "Mwords"); ("gc.major_mwords", "Mwords");
    c "gc.major_collections"; ("gc.words_per_event", "words");
    ("process.run_cpu_s", "s"); ("process.wait_s", "s");
    c "net.packets_created"; c "net.hops"; ("net.hops_per_s", "1/s");
    c "net.drops"; c "net.fault_drops"; c "net.unroutable_drops";
    ("net.hop_success", "ratio"); c "net.arena_live_end";
    c "net.routing_columns"; c "net.routing_recomputes";
    c "net.routing_heap_pushes"; ("net.link_change_us.p50", "us");
    ("net.link_change_us.p99", "us"); ("multicast.repair_us.p50", "us");
    ("multicast.repair_us.p99", "us"); c "multicast.repair_passes";
    c "multicast.edges_repaired"; c "multicast.joins";
    ("multicast.join_us.p50", "us"); ("multicast.join_us.p99", "us");
    c "multicast.delivered"; c "traffic.source_packets";
    c "discovery.captures"; c "discovery.snapshot_edges";
    ("discovery.capture_ms", "ms"); ("discovery.restrict_ms", "ms");
    ("discovery.is_tree_ms", "ms"); ("discovery.busy_s_est", "s");
    c "toposense.intervals"; ("toposense.interval_slice_s", "s");
    ("toposense.interval_share", "ratio"); ("toposense.tree_build_ms", "ms");
    c "toposense.reports_received"; c "toposense.suggestions_sent";
    c "toposense.skipped_no_snapshot"; c "toposense.invalid_snapshots";
    ("toposense.retransmit_ratio", "ratio"); c "toposense.summaries_received";
    c "toposense.controller_state_entries"; ("setup.topology_s", "s");
    ("setup.network_s", "s"); ("setup.multicast_s", "s");
    ("setup.control_s", "s"); ("trace.overhead_pct", "%");
    ("trace.attributed_pct", "%");
  ]

(* Per-layer metrics from untraced runs (GC, CPU, rates over their
   run_s) and traced runs (counters and span timings; the counters are
   identical across runs, the timings are medians). A metric the
   workload does not exercise reads 0 and is listed as absent. *)
let per_layer ~measured ~traced =
  let count k =
    match traced with
    | r :: _ -> (
        match List.assoc_opt k r.counts with
        | Some v -> Option.value ~default:0.0 (float_of_string_opt v)
        | None -> 0.0)
    | [] -> 0.0
  in
  let layer k =
    match List.filter_map (fun r -> List.assoc_opt k r.layers) traced with
    | [] -> None
    | xs -> Some (Stats.median xs)
  in
  let m_run = medians (fun r -> assoc_f "run_s" r.e2e) measured in
  let t_run = medians (fun r -> assoc_f "run_s" r.e2e) traced in
  let gc k = medians (fun r -> assoc_f k r.gc) measured in
  let cpu = medians (fun r -> assoc_f "run_cpu_s" r.proc) measured in
  let wait =
    medians
      (fun r -> assoc_f "run_s" r.e2e -. assoc_f "run_cpu_s" r.proc)
      measured
  in
  let events = count "engine.events" and hops = count "net.hops" in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let lost =
    count "net.drops" +. count "net.fault_drops" +. count "net.unroutable_drops"
  in
  let derived =
    [
      ("engine.events_per_s", ratio events m_run);
      ("gc.minor_mwords", gc "minor_mwords");
      ("gc.major_mwords", gc "major_mwords");
      ("gc.major_collections", gc "major_collections");
      ("gc.words_per_event", ratio (gc "allocated_words") events);
      ("process.run_cpu_s", cpu);
      ("process.wait_s", wait);
      ("net.hops_per_s", ratio hops m_run);
      ("net.hop_success", ratio hops (hops +. lost));
      ( "toposense.interval_share",
        ratio
          (Option.value ~default:0.0 (layer "toposense.interval_slice_s"))
          t_run );
      ( "toposense.retransmit_ratio",
        ratio (count "toposense.retransmits")
          (count "toposense.suggestions_sent") );
      ("trace.overhead_pct", 100.0 *. (ratio t_run m_run -. 1.0));
      ( "trace.attributed_pct",
        medians (fun r -> assoc_f "attributed_pct" r.trace) traced );
    ]
  in
  List.map
    (fun (name, unit) ->
      let v =
        match (List.assoc_opt name derived, layer name) with
        | Some v, _ | None, Some v -> v
        | None, None -> count name
      in
      (name, unit, v))
    per_layer_names

(* Keys whose counter differs between [r] and the reference run, or
   that only one of them has. Every run of one seed must match the
   first untraced run: other untraced runs (determinism) and traced runs
   (fidelity: slicing the event loop and replaying discovery may not
   change the simulation). *)
let counter_mismatches ~reference r =
  List.map
    (fun (k, _, _) -> k)
    (Stats.fingerprint_mismatches ~expected:reference.counts ~observed:r.counts)
  @ List.filter_map
      (fun (k, _) -> if List.mem_assoc k reference.counts then None else Some k)
      r.counts

let run args =
  let w = workload_arg (required args "--workload") in
  let seed = seed_arg args in
  let seconds = float_of_int (int_arg args "--seconds") in
  let trace = trace_arg args in
  let exe = Sys.executable_name in
  print_host ();
  let t0 = now_s () in
  let measured = ref [] and traced = ref [] in
  let k = ref 0 in
  while !k = 0 || now_s () -. t0 < seconds do
    (* In traced mode alternate which kind of run goes first, so host
       drift does not land on one side of the overhead ratio. *)
    let spawn tr = spawn_child ~exe ~workload:w.name ~seed ~trace:tr in
    if trace then begin
      if !k mod 2 = 0 then begin
        measured := spawn false :: !measured;
        traced := spawn true :: !traced
      end
      else begin
        traced := spawn true :: !traced;
        measured := spawn false :: !measured
      end
    end
    else measured := spawn false :: !measured;
    incr k
  done;
  let measured = List.rev !measured and traced = List.rev !traced in
  let all = measured @ traced in
  let ok = List.filter (fun r -> r.exit_ok) in
  let mismatches r =
    match ok measured with
    | reference :: _ when r.exit_ok -> counter_mismatches ~reference r
    | _ -> []
  in
  let divergent = List.filter (fun r -> mismatches r <> []) measured in
  let unfaithful =
    List.filter_map
      (fun r -> match mismatches r with [] -> None | ks -> Some ks)
      traced
  in
  let failed_checks =
    List.fold_left (fun acc r -> acc + checks_failed r) 0 all
  in
  let failed =
    List.length
      (List.filter (fun r -> checks_failed r > 0 || mismatches r <> []) all)
  in
  let recorded = List.exists (fun r -> r.recorded) all in
  Printf.printf "workload %s seed %Ld: %d untraced run(s), %d traced run(s); \
                 fingerprint %s\n"
    w.name seed (List.length measured) (List.length traced)
    (if recorded then "recorded (checked)"
     else "unrecorded (invariants and determinism checked)");
  List.iter
    (fun (k, why) -> Printf.printf "absent %s: %s\n" k why)
    (match all with r :: _ -> r.absent | [] -> []);
  List.iter
    (fun ks -> Printf.printf "fidelity mismatch: %s\n" (String.concat ", " ks))
    unfaithful;
  if divergent <> [] then
    Printf.printf "determinism: %d run(s) differ from the first\n"
      (List.length divergent);
  let checks_total =
    failed_checks + List.length divergent + List.length unfaithful
  in
  let metrics =
    if trace then begin
      (match traced with
      | r :: _ ->
          List.iteri
            (fun i (name, self) ->
              if i < 8 then Printf.printf "self-time %-28s %.4f s\n" name self)
            r.self
      | [] -> ());
      per_layer ~measured:(ok measured) ~traced:(ok traced)
    end
    else end_to_end (ok measured)
  in
  List.iter
    (fun (name, unit, v) ->
      if trace then Printf.printf "%s %.6g %s\n" name v unit
      else begin
        let xs = List.map (e2e_value name) (ok measured) in
        let q1, q3 = Stats.quartiles xs in
        Printf.printf
          "%s %.6g %s (median of %d; quartiles %.6g-%.6g; runs %s)\n"
          name v unit (List.length xs) q1 q3
          (String.concat " " (List.map (Printf.sprintf "%.4g") xs))
      end)
    metrics;
  Printf.printf "checks_failed %d count\n" checks_total;
  let attempted = List.length all in
  print_json ~correct:(failed = 0 && ok measured <> []) ~attempted ~failed
    metrics

(* ---------- fingerprint recording ---------- *)

let record args =
  let w = workload_arg (required args "--workload") in
  let range = required args "--seeds" in
  let lo, hi =
    match String.split_on_char '-' range with
    | [ a; b ] -> (Int64.of_string a, Int64.of_string b)
    | [ a ] -> (Int64.of_string a, Int64.of_string a)
    | _ -> usage ()
  in
  let rec go s =
    if s <= hi then begin
      let fp = w.record ~seed:s in
      Printf.printf "    ( %S, %LdL,\n      [\n" w.name s;
      List.iter (fun (k, v) -> Printf.printf "        (%S, %S);\n" k v) fp;
      print_string "      ] );\n";
      flush stdout;
      go (Int64.succ s)
    end
  in
  go lo

(* ---------- same-host A/B ---------- *)

(* The end-to-end bounds of BENCHMARK.json. *)
let bounds =
  [
    ("setup_s", 0.25); ("run_s", 0.25); ("total_s", 0.25); ("peak_rss_mb", 0.1);
  ]

let ab args =
  let base = required args "--base" and cand = required args "--new" in
  let workloads =
    List.map workload_arg
      (String.split_on_char ',' (required args "--workloads"))
  in
  let seed = seed_arg args and pairs = int_arg args "--pairs" in
  print_host ();
  Printf.printf "base %s\nnew  %s\n" base cand;
  List.iter
    (fun (w : Workloads.t) ->
      let runs =
        List.init pairs (fun k ->
            let go exe = spawn_child ~exe ~workload:w.name ~seed ~trace:false in
            (* Alternate which side runs first. *)
            if k mod 2 = 0 then
              let b = go base in
              (b, go cand)
            else
              let c = go cand in
              (go base, c))
      in
      let failed side =
        List.length (List.filter (fun r -> checks_failed r > 0) side)
      in
      Printf.printf "\n%s seed %Ld, %d pairs (checks failed: base %d, new %d)\n"
        w.name seed pairs
        (failed (List.map fst runs))
        (failed (List.map snd runs));
      Printf.printf "%-12s %-28s %-28s %5s  %s\n" "metric"
        "base median [q1, q3]" "new median [q1, q3]" "wins" "verdict";
      List.iter
        (fun (name, bound) ->
          let value = e2e_value name in
          let ps = List.map (fun (b, c) -> (value b, value c)) runs in
          let show xs =
            let q1, q3 = Stats.quartiles xs in
            Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
          in
          let verdict, wins = Stats.ab_verdict ~bound ps in
          Printf.printf "%-12s %-28s %-28s %5.2f  %s\n" name
            (show (List.map fst ps))
            (show (List.map snd ps))
            wins
            (Stats.verdict_to_string verdict))
        bounds)
    workloads

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "child" :: args -> child args
  | _ :: "record" :: args -> record args
  | _ :: "ab" :: args -> ab args
  | _ -> usage ()
