(* §5.4: the Givens QR optimization — index-set splitting, scalar
   expansion, fused IF-inspection, and interchange, ending with
   stride-one access to A(J,K).

   Run with:  dune exec examples/givens_qr.exe *)

let () =
  print_endline "== point Givens QR (Figure 9) ==";
  print_string (Stmt.to_string (Stmt.Loop K_givens.point_loop));
  let entry = Option.get (Blockability.find "givens") in
  (match Blockability.derive entry with
  | Error m -> Printf.printf "optimization failed: %s\n" m
  | Ok { result; steps } ->
      print_endline "\n-- compiler steps:";
      List.iter
        (fun (s : Blocker.trace_step) -> Printf.printf "   %s: %s\n" s.name s.detail)
        steps;
      print_endline "\n== optimized (Figure 10) ==";
      print_string (Stmt.to_string result));
  (match Blockability.verify entry ~bindings:[ ("M", 40); ("N", 28) ] with
  | Ok () -> print_endline "-- verified equivalent by interpretation"
  | Error m -> Printf.printf "-- FAILED: %s\n" m);

  (* native timing across sizes: the win grows as the matrix outgrows the
     cache (the paper saw 2.04x at 300 and 5.49x at 500) *)
  print_endline "\nnative timings (compiled, verified bitwise):";
  List.iter
    (fun n ->
      match Blockability.native_compare ~bindings:[ ("M", n); ("N", n) ] entry with
      | Error m -> Printf.printf "  %dx%d: %s\n" n n m
      | Ok r ->
          Printf.printf "  %4dx%-4d point %8.1fms  optimized %8.1fms  speedup %.2f\n"
            n n
            (Measure.seconds r.Blockability.nt_point *. 1e3)
            (Measure.seconds r.Blockability.nt_transformed *. 1e3)
            r.Blockability.nt_speedup)
    [ 100; 200; 400 ]
