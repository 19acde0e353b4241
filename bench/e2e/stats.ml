(* Order statistics over raw samples, and the regression rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Hyndman-Fan type 7). *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* Values gathered by key: keys ascending, values in input order. *)
let group pairs =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace h k (v :: Option.value (Hashtbl.find_opt h k) ~default:[]))
    pairs;
  Hashtbl.fold (fun k vs acc -> (k, List.rev vs) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Python's [statistics.quantiles(xs, n=4)] (its default "exclusive"
   method), so the spread printed by [compare] is the one an outside
   reader computes from the same values with the standard library. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* A tail percentile is reported only with at least ten samples beyond
   it; below that it is missing, with the reason. *)
let p90 xs =
  let n = List.length xs in
  if n < 100 then
    Error
      (Printf.sprintf "%d samples: p90 needs at least 100 so that 10 lie beyond it" n)
  else Ok (quantile xs 0.9)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
      if List.exists (fun x -> not (x > 0.)) xs then
        invalid_arg "Stats.geomean: values must be positive";
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* How much worse [head] is than [base]; negative when it improved. *)
let worsening better ~base ~head =
  match better with Lower -> head -. base | Higher -> base -. head

(* A metric regresses when it worsens by more than [rel] of the base
   value, unless an absolute [floor] is larger.  [rel = 0, floor = 0]
   is a zero absolute bound: any worsening regresses. *)
let within better ~rel ~floor ~base ~head =
  worsening better ~base ~head <= Float.max (rel *. Float.abs base) floor
