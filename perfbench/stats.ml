(* Order statistics, span self time, fingerprint comparison and the
   A/B claim rule. Pure functions, so the benchmark's own arithmetic is
   unit-tested apart from any simulation. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles xs ~n:4] (its
   default "exclusive" method, with the index clamp of Python >= 3.10),
   so the spreads this tool prints match the ones computed from its
   JSON output. One sample gives that sample for both quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let n = 4 and m = ld + 1 in
    let q i =
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 3)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* ---------- spans ---------- *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  parent : int;  (** id of the enclosing span; -1 at the root *)
}

let duration_s s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* A span's self time is its duration minus what its children cover.
   Spans come from one thread, so siblings never overlap and the
   covered part is the sum of the children's durations (clipped at
   zero against clock granularity). Returned per span id. *)
let self_times spans =
  let child_total = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_total s.parent
          (duration_s s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_total s.parent)))
    spans;
  List.map
    (fun s ->
      let covered =
        Option.value ~default:0.0 (Hashtbl.find_opt child_total s.id)
      in
      (s, Float.max 0.0 (duration_s s -. covered)))
    spans

(* Self time summed per span name, largest first. *)
let self_by_name spans =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt acc s.name)))
    (self_times spans);
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Float.compare b a with 0 -> String.compare ka kb | c -> c)

(* ---------- fingerprints ---------- *)

(* Keys of [expected] whose value [observed] lacks or contradicts, as
   (key, expected, observed-or-"missing"). Keys only in [observed] are
   not mismatches: a fingerprint pins what was recorded. *)
let fingerprint_mismatches ~expected ~observed =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k observed with
      | Some v' when v' = v -> None
      | Some v' -> Some (k, v, v')
      | None -> Some (k, v, "missing"))
    expected

(* ---------- A/B ---------- *)

type verdict = Gain | Regression | Unresolved | Within_bound

let verdict_to_string = function
  | Gain -> "gain"
  | Regression -> "regression"
  | Unresolved -> "unresolved"
  | Within_bound -> "within-bound"

(* Paired samples (base, candidate) of a lower-is-better metric. The
   candidate wins a pair when strictly lower; ties count for neither
   side but stay in the denominator. A gain needs >= 9/10 of all pairs
   won AND a median difference larger than the base's own interquartile
   range; a regression is the mirror image. Otherwise the candidate is
   within bound when its median is no worse than the base's by more
   than [bound] (a share of the base median), and unresolved when the
   base's spread is wider than the bound. *)
let ab_verdict ~bound pairs =
  let n = List.length pairs in
  let count p = List.length (List.filter p pairs) in
  let wins = count (fun (b, c) -> c < b) in
  let losses = count (fun (b, c) -> c > b) in
  let base = List.map fst pairs and cand = List.map snd pairs in
  let mb = median base and mc = median cand in
  let q1, q3 = quartiles base in
  let iqr = q3 -. q1 in
  let frac k = if n = 0 then 0.0 else float_of_int k /. float_of_int n in
  let v =
    if n > 0 && frac wins >= 0.9 && mb -. mc > iqr then Gain
    else if n > 0 && frac losses >= 0.9 && mc -. mb > iqr then Regression
    else if mb <> 0.0 && iqr /. Float.abs mb > bound then Unresolved
    else if mc <= mb *. (1.0 +. bound) then Within_bound
    else Regression
  in
  (v, frac wins)
