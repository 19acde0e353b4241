(* CLOCK_MONOTONIC, read by bechamel's allocation-free stub: never
   stepped, and one clock for every domain, so a stamp taken on one
   lane and read on another (serve's queue wait) gives a duration. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type summary = { n : int; median_ns : float; q1_ns : float; q3_ns : float }
type arm = unit -> unit -> (unit, string) result

let samples = 11

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* At the median, type 7 is the middle value or the mean of the two. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* As bench/e2e's [Stats.quartiles]. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Measure.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let summarize ns =
  let xs = List.map float_of_int ns in
  let median_ns = median xs in
  let q1_ns, _, q3_ns =
    if List.length xs < 2 then (median_ns, median_ns, median_ns)
    else quartiles xs
  in
  { n = List.length xs; median_ns; q1_ns; q3_ns }

let seconds s = s.median_ns /. 1e9
let spread s = (s.q3_ns -. s.q1_ns) /. s.median_ns
let ratio a b = a.median_ns /. b.median_ns

(* One set-up outside the clock, then one timed call. *)
let sample (arm : arm) =
  match arm () with
  | exception e -> Error (Printexc.to_string e)
  | f ->
      let t0 = now_ns () in
      let r = f () in
      let dt = now_ns () - t0 in
      Result.map (fun () -> dt) r

let run arms =
  let arms = Array.of_list arms in
  let k = Array.length arms in
  let ns = Array.make_matrix k samples 0 in
  (* warm-up (round -1) in arm order, then round r from arm r mod k *)
  let rec go r j =
    if r = samples then
      Ok (Array.to_list (Array.map (fun s -> summarize (Array.to_list s)) ns))
    else if j = k then go (r + 1) 0
    else
      let a = if r < 0 then j else (r + j) mod k in
      match sample arms.(a) with
      | Error _ as e -> e
      | Ok dt ->
          if r >= 0 then ns.(a).(r) <- dt;
          go r (j + 1)
  in
  go (-1) 0

let once arm = Result.map (fun dt -> summarize [ dt ]) (sample arm)

let to_string s =
  let t = seconds s in
  let time =
    if t >= 10.0 then Printf.sprintf "%.2fs" t
    else if t >= 0.1 then Printf.sprintf "%.3fs" t
    else if t >= 1e-4 then Printf.sprintf "%.2fms" (t *. 1e3)
    else Printf.sprintf "%.1fus" (t *. 1e6)
  in
  if s.n < 2 then time else Printf.sprintf "%s ±%.0f%%" time (100. *. spread s)

let to_json s =
  Json_min.Object
    [
      ("n", Json_min.int s.n);
      ("median_ns", Json_min.Number s.median_ns);
      ("q1_ns", Json_min.Number s.q1_ns);
      ("q3_ns", Json_min.Number s.q3_ns);
    ]

let of_json j =
  let num k = Json_min.number_field k j in
  match (Json_min.int_field "n" j, num "median_ns", num "q1_ns", num "q3_ns") with
  | Some n, Some median_ns, Some q1_ns, Some q3_ns ->
      Some { n; median_ns; q1_ns; q3_ns }
  | _ -> None
