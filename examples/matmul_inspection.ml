(* §4: IF-inspection on the guarded SGEMM fragment.

   Shows the inspector/executor code the transformation generates
   (Figure 4), verifies it, then compiles the guarded loop and its
   inspected form natively and times them across densities of B.  The
   derivation stops at inspection: without unroll-and-jam of the
   executor (the paper's UJ+IF), expect about 1.0x.

   Run with:  dune exec examples/matmul_inspection.exe *)

let () =
  print_endline "== the guarded point loop ==";
  let entry = Option.get (Blockability.find "matmul") in
  print_string (Stmt.block_to_string entry.Blockability.kernel.Kernel_def.block);
  (match Blockability.derive entry with
  | Error m -> Printf.printf "derivation failed: %s\n" m
  | Ok { result; _ } ->
      print_endline "\n== after IF-inspection (Figure 4) ==";
      print_string (Stmt.to_string result));
  (match Blockability.verify entry ~bindings:[ ("N", 40); ("FREQ_PCT", 15) ] with
  | Ok () -> print_endline "-- verified equivalent by interpretation"
  | Error m -> Printf.printf "-- FAILED: %s\n" m);

  let n = 300 in
  Printf.printf "\nnative timings, %dx%d (compiled, verified bitwise):\n" n n;
  Printf.printf "%-10s %10s %10s %10s\n" "freq" "original" "if" "speedup";
  List.iter
    (fun freq_pct ->
      match
        Blockability.native_compare
          ~bindings:[ ("N", n); ("FREQ_PCT", freq_pct) ]
          entry
      with
      | Error m -> Printf.printf "%9d%% %s\n" freq_pct m
      | Ok r ->
          Printf.printf "%9d%% %9.2fms %9.2fms %10.2f\n" freq_pct
            (Measure.seconds r.Blockability.nt_point *. 1e3)
            (Measure.seconds r.Blockability.nt_transformed *. 1e3)
            r.Blockability.nt_speedup)
    [ 2; 10; 25; 50; 90 ]
