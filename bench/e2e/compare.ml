(* [e2e.exe compare A B]: two sets of result files, per workload and
   metric each set's median and spread, and a verdict of B against A
   under the metric's bound. *)

let value (r : Results.run) (m : Spec.metric) =
  if m.Spec.name = Spec.fail_frac.Spec.name then
    Some (float_of_int r.Results.failed /. float_of_int (max 1 r.Results.attempted))
  else List.assoc_opt m.Spec.name r.Results.values

let spread_str = function
  | [] | [ _ ] -> "-"
  | xs ->
      let m = Stats.median xs in
      if m = 0. then "-" else Printf.sprintf "%.1f%%" (100. *. Stats.spread xs)

(* Prints the table; returns the number of regressions. *)
let run a b =
  let sa = Results.load_set a and sb = Results.load_set b in
  Printf.printf "A = %s (%d runs), B = %s (%d runs)\n" a (List.length sa) b (List.length sb);
  Printf.printf "%-13s %-16s %-8s %11s %7s %11s %7s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median" "spread" "B median" "spread" "change" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      let w = Workload.name w in
      let of_set s = List.filter (fun (r : Results.run) -> r.Results.workload = w) s in
      let ra = of_set sa and rb = of_set sb in
      if ra <> [] && rb <> [] then
        List.iter
          (fun (m : Spec.metric) ->
            let va = List.filter_map (fun r -> value r m) ra
            and vb = List.filter_map (fun r -> value r m) rb in
            if va <> [] && vb <> [] then begin
              let ma = Stats.median va and mb = Stats.median vb in
              let ok = Stats.within m.Spec.better ~rel:m.Spec.bound ~floor:m.Spec.floor ~base:ma ~head:mb in
              if not ok then incr bad;
              let change = if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma in
              Printf.printf "%-13s %-16s %-8s %11.4g %7s %11.4g %7s %+7.1f%% %5.0f%%  %s\n" w m.Spec.name
                m.Spec.unit_ ma (spread_str va) mb (spread_str vb) change (100. *. m.Spec.bound)
                (if ok then "ok" else "REGRESSED")
            end)
          (Spec.e2e @ [ Spec.fail_frac ]))
    Workload.all;
  !bad
