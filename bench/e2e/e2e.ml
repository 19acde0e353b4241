(* The end-to-end benchmark of `blockc serve`.  See README.md.

     e2e.exe run [--workload W|all] [--seed N] [--seconds T] [--trace 0|1]
                 [--blockc PATH] [--out DIR]
     e2e.exe compare A B
     e2e.exe replay --mode layers|handle --workload W --seed N --out FILE

   [run] prints each metric with its unit, then, as its last line, one
   JSON object: correct, attempted, failed and metrics.  [replay] is
   the in-process half of a traced run, spawned by [run]. *)

open Bench_e2e
module J = Json_min

let die code fmt = Printf.ksprintf (fun m -> prerr_endline ("e2e: " ^ m); exit code) fmt

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

let workload_of s =
  match Workload.of_name s with
  | Some w -> w
  | None ->
      die 2 "unknown workload %S (%s)" s (String.concat ", " (List.map Workload.name Workload.all))

let print_metrics metrics =
  List.iter
    (fun (name, v) ->
      let u = match Spec.find name with Some m -> m.Spec.unit_ | None -> "" in
      Printf.printf "  %-32s %14.4f %s\n" name v u)
    metrics

let run_one ~blockc ~out ~seconds ~trace ~seed w =
  let name = Workload.name w in
  let work = Filename.concat out (Printf.sprintf "work/%07d-%s" (Unix.getpid ()) name) in
  Fs.rm_rf work;
  Fs.mkdirs work;
  let data_seed = Workload.data_seed seed in
  let t0 = Client.now_ns () in
  let refs =
    Reference.table ~dir:(Filename.concat out "refs") (Workload.reference_items w) ~seed:data_seed
  in
  let ref_s = float_of_int (Client.now_ns () - t0) /. 1e9 in
  let ctx =
    { Session.blockc; work; refs; data_seed; tally = Client.tally (); next_id = 0; next_dir = 0 }
  in
  let env = Envinfo.collect ~seed in
  Printf.printf "== %s, seed %d (data seed %d), %s; references %.2f s\n%!" name seed data_seed
    (if trace then "traced" else "untraced") ref_s;
  let stem = Printf.sprintf "%s.seed%d" name seed in
  let metrics, extra =
    if not trace then begin
      let o = Untraced.run ctx w ~seed ~seconds in
      let metrics = Untraced.metrics o ctx.Session.tally in
      let per_type =
        List.map
          (fun (k, m, n) ->
            (k, J.Object [ ("p50_ms", J.Number m); ("n", J.Number (float_of_int n)) ]))
          (Untraced.per_type o)
      in
      let speedup = if w = Workload.Hot_exec then Untraced.blocked_speedup o else None in
      print_metrics metrics;
      Option.iter (Printf.printf "  (blocked_speedup, point/transformed median latency: %.3f)\n") speedup;
      ( metrics,
        [
          ("setup_ns", Results.ints o.Untraced.setup_ns);
          ("rss_kb", Results.ints o.Untraced.rss_kb);
          ("artifact_bytes", Results.ints o.Untraced.artifact_bytes);
          ("timed_ns", Results.int o.Untraced.timed_ns);
          ("per_type", J.Object per_type);
          ("blocked_speedup", match speedup with Some s -> J.Number s | None -> J.Null);
        ] )
    end
    else
      match Traced.run ctx ~exe:Sys.executable_name w ~seed with
      | None -> ([], [])
      | Some rp ->
          let dir = Filename.concat out "trace" in
          Fs.mkdirs dir;
          let trace_file = Filename.concat dir (stem ^ ".trace.json") in
          let layers_file = Filename.concat dir (stem ^ ".layers.json") in
          let report = Traced.layers_report rp w ~seed in
          Fs.write_atomic trace_file (J.to_string (Traced.chrome rp));
          Fs.write_atomic layers_file (J.to_string report);
          let metrics = Traced.metrics rp in
          print_metrics metrics;
          Traced.print_accounting rp;
          Printf.printf "  trace %s\n  layers %s\n" trace_file layers_file;
          (metrics, [ ("layers", report) ])
  in
  let tally = ctx.Session.tally in
  List.iter (Printf.printf "  failure: %s\n") (List.rev tally.Client.errors);
  let results = Filename.concat out "results" in
  Fs.mkdirs results;
  let file =
    Results.file ~workload:w ~seed ~trace ~seconds ~env ~ref_s ~tally ~metrics ~extra
  in
  Fs.write_atomic
    (Filename.concat results
       (Printf.sprintf "%s.%s.%d.json" stem (if trace then "traced" else "untraced")
          (Int64.to_int (Int64.div (Monotonic_clock.now ()) 1000L))))
    (J.to_string file);
  let correct = Client.correct tally in
  if correct then Fs.rm_rf work;
  print_endline (J.to_string (Results.summary ~tally metrics));
  correct

let run args =
  let workload = ref "all" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let blockc = ref "_build/default/bin/blockc.exe" and out = ref ".e2e" in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.Set_string workload, "W one of the workloads, or all (default)");
      ("--seed", Arg.Set_int seed, "N stream seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T timed seconds per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer traced run (1)");
      ("--blockc", Arg.Set_string blockc, "PATH the daemon binary");
      ("--out", Arg.Set_string out, "DIR output directory (default .e2e)");
    ]
    (fun a -> die 2 "unexpected argument %S" a)
    "e2e.exe run [options]";
  let blockc = absolute !blockc and out = absolute !out in
  (match Envinfo.missing_toolchain ~blockc with Some m -> die 2 "%s" m | None -> ());
  let ws = if !workload = "all" then Workload.all else [ workload_of !workload ] in
  let ok =
    List.fold_left
      (fun ok w -> run_one ~blockc ~out ~seconds:!seconds ~trace:(!trace = 1) ~seed:!seed w && ok)
      true ws
  in
  exit (if ok then 0 else 1)

let replay args =
  let mode = ref "" and workload = ref "" and seed = ref 1 and out = ref "" in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--mode", Arg.Set_string mode, "layers|handle");
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--out", Arg.Set_string out, "FILE");
    ]
    (fun a -> die 2 "unexpected argument %S" a)
    "e2e.exe replay [options]";
  let mode =
    match !mode with "layers" -> `Layers | "handle" -> `Handle | m -> die 2 "unknown mode %S" m
  in
  Replay.main ~mode (workload_of !workload) ~seed:!seed ~out:!out

let () =
  let argv = Sys.argv in
  let rest () = Array.sub argv 1 (Array.length argv - 1) in
  try
    match if Array.length argv > 1 then argv.(1) else "" with
    | "run" -> run (rest ())
    | "replay" -> replay (rest ())
    | "compare" when Array.length argv = 4 -> exit (if Compare.run argv.(2) argv.(3) = 0 then 0 else 1)
    | _ ->
        prerr_endline "usage: e2e.exe run [options] | compare A B | replay [options]";
        exit 2
  with Arg.Help m | Arg.Bad m ->
    prerr_string m;
    exit 2
