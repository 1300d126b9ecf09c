(* Unit tests of the benchmark's own arithmetic: order statistics (the
   quartiles must agree with Python's statistics.quantiles, which the
   benchmark's consumers use), span self time, fingerprint comparison
   and the A/B claim rule. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_order_statistics () =
  check "median odd" (close (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0);
  check "median even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  check "median empty" (Float.is_nan (Stats.median []));
  (* Reference values from Python 3.11 statistics.quantiles(xs, n=4). *)
  let q xs (a, b) =
    let q1, q3 = Stats.quartiles xs in
    close q1 a && close q3 b
  in
  check "quartiles 1..4" (q [ 4.0; 3.0; 2.0; 1.0 ] (1.25, 3.75));
  check "quartiles 1..10"
    (q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 8.25));
  check "quartiles two samples" (q [ 3.0; 1.0 ] (0.5, 3.5));
  check "quartiles three samples" (q [ 7.0; 1.0; 4.0 ] (1.0, 7.0));
  check "quartiles one sample" (q [ 5.0 ] (5.0, 5.0));
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 nearest rank" (close (Stats.percentile hundred 50.0) 50.0);
  check "p99 nearest rank" (close (Stats.percentile hundred 99.0) 99.0);
  check "p100" (close (Stats.percentile hundred 100.0) 100.0);
  check "p99 of one" (close (Stats.percentile [ 7.0 ] 99.0) 7.0);
  check "p50 of two" (close (Stats.percentile [ 2.0; 1.0 ] 50.0) 1.0)

let span id name start stop parent =
  {
    Stats.id;
    name;
    start_ns = Int64.of_int start;
    stop_ns = Int64.of_int stop;
    parent;
  }

let test_self_time () =
  (* root [0, 100s) holds a [10, 40) and b [50, 60); a holds g [20, 30).
     Units are seconds expressed in ns. *)
  let s = 1_000_000_000 in
  let spans =
    [
      span 0 "root" 0 (100 * s) (-1);
      span 1 "a" (10 * s) (40 * s) 0;
      span 2 "g" (20 * s) (30 * s) 1;
      span 3 "b" (50 * s) (60 * s) 0;
      span 4 "b" (70 * s) (75 * s) 0;
    ]
  in
  let self =
    List.map (fun ((sp : Stats.span), v) -> (sp.id, v)) (Stats.self_times spans)
  in
  check "root self" (close (List.assoc 0 self) 55.0);
  check "a self" (close (List.assoc 1 self) 20.0);
  check "leaf self" (close (List.assoc 2 self) 10.0);
  let by_name = Stats.self_by_name spans in
  check "self by name sums" (close (List.assoc "b" by_name) 15.0);
  check "self by name order" (fst (List.hd by_name) = "root");
  check "self covers the root"
    (close (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 by_name) 100.0)

let test_fingerprint () =
  let expected = [ ("events", "10"); ("hops", "4"); ("dev", "0.5") ] in
  check "identical"
    (Stats.fingerprint_mismatches ~expected ~observed:expected = []);
  check "extra keys are fine"
    (Stats.fingerprint_mismatches ~expected
       ~observed:(("extra", "1") :: expected)
    = []);
  check "changed and missing"
    (Stats.fingerprint_mismatches ~expected
       ~observed:[ ("events", "10"); ("hops", "5") ]
    = [ ("hops", "4", "5"); ("dev", "0.5", "missing") ])

let test_ab () =
  let pairs f = List.init 10 (fun k -> f (float_of_int k)) in
  let v, wins =
    Stats.ab_verdict ~bound:0.1 (pairs (fun k -> (10.0 +. (0.01 *. k), 8.0)))
  in
  check "clear gain" (v = Stats.Gain && close wins 1.0);
  let v, _ =
    Stats.ab_verdict ~bound:0.1 (pairs (fun k -> (8.0, 10.0 +. (0.01 *. k))))
  in
  check "clear regression" (v = Stats.Regression);
  let v, wins = Stats.ab_verdict ~bound:0.1 (pairs (fun _ -> (5.0, 5.0))) in
  check "ties are no gain" (v = Stats.Within_bound && close wins 0.0);
  (* Candidate wins 8 of 10 pairs: below the 9/10 rule. *)
  let v, wins =
    Stats.ab_verdict ~bound:0.1
      (pairs (fun k -> if k < 8.0 then (10.0, 9.0) else (10.0, 11.0)))
  in
  check "eight of ten is not a gain" (v <> Stats.Gain && close wins 0.8);
  let v, _ =
    Stats.ab_verdict ~bound:0.1
      (pairs (fun k -> ((if Float.rem k 2.0 = 0.0 then 5.0 else 15.0), 10.0)))
  in
  check "noisy base is unresolved" (v = Stats.Unresolved)

let () =
  test_order_statistics ();
  test_self_time ();
  test_fingerprint ();
  test_ab ();
  if !failures > 0 then exit 1 else print_endline "perfbench: all tests passed"
