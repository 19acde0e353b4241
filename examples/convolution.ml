(* The §3.2 oil-exploration kernels: trapezoidal and rhomboidal iteration
   spaces.  Shows MIN/MAX index-set splitting on the IR, then compiles
   the point and derived variants natively, verifies them bitwise
   against the interpreter and times them (Blockability.native_compare).

   Run with:  dune exec examples/convolution.exe *)

let () =
  print_endline "== adjoint convolution, point form ==";
  print_string (Stmt.to_string (Stmt.Loop K_conv.aconv_loop));
  (match Split_minmax.remove_all K_conv.aconv_loop with
  | Error m -> Printf.printf "split failed: %s\n" m
  | Ok block ->
      print_endline "\n== after index-set splitting the MIN bound ==";
      print_string (Stmt.block_to_string block);
      match
        Kernel_def.equivalent K_conv.aconv block
          ~bindings:[ ("N1", 50); ("N2", 11); ("N3", 64) ]
          ~seed:5
      with
      | Ok () -> print_endline "-- verified equivalent by interpretation"
      | Error m -> Printf.printf "-- FAILED: %s\n" m);

  print_endline "\n== convolution (MAX lower bound and MIN upper bound) ==";
  print_string (Stmt.to_string (Stmt.Loop K_conv.conv_loop));
  (match Split_minmax.remove_all K_conv.conv_loop with
  | Error m -> Printf.printf "split failed: %s\n" m
  | Ok block ->
      Printf.printf "\n== fully split: %d loops (paper: \"four separate loops\") ==\n"
        (List.length block);
      print_string (Stmt.block_to_string block));

  (* native timing, the T1 experiment in miniature *)
  let n1 = 800 in
  let bindings = [ ("N1", n1); ("N2", n1); ("N3", 4 * n1 / 3) ] in
  print_newline ();
  List.iter
    (fun name ->
      match
        Blockability.native_compare ~bindings
          (Option.get (Blockability.find name))
      with
      | Error m -> Printf.printf "%s: %s\n" name m
      | Ok r ->
          Printf.printf
            "%-5s n=%d: original %.2fms, split+unroll-and-jam %.2fms \
             (speedup %.2f), verified bitwise\n"
            name n1
            (Measure.seconds r.Blockability.nt_point *. 1e3)
            (Measure.seconds r.Blockability.nt_transformed *. 1e3)
            r.Blockability.nt_speedup)
    [ "aconv"; "conv" ]
