(* The paper's centrepiece (§5.1-§5.2): derive block LU mechanically from
   the point algorithm, watch each compiler step, verify equivalence, and
   see why partial pivoting additionally needs commutativity knowledge.

   Run with:  dune exec examples/lu_blocking.exe *)

let show_derivation name entry =
  Printf.printf "==== %s (%s) ====\n" name entry.Blockability.paper_ref;
  print_string
    (Stmt.block_to_string entry.Blockability.kernel.Kernel_def.block);
  match Blockability.derive entry with
  | Error m -> Printf.printf "FAILED: %s\n" m
  | Ok { result; steps } ->
      print_endline "\n-- compiler steps:";
      List.iter
        (fun (s : Blocker.trace_step) -> Printf.printf "   %s: %s\n" s.name s.detail)
        steps;
      print_endline "\n-- derived block algorithm:";
      print_string (Stmt.to_string result);
      (match Blockability.verify entry ~bindings:[ ("N", 30) ] ~seed:123 with
      | Ok () ->
          print_endline
            "-- verified: bit-identical to the point algorithm (N=30, ragged blocks)"
      | Error m -> Printf.printf "-- VERIFICATION FAILED: %s\n" m);
      print_newline ()

let () =
  show_derivation "LU decomposition" (Option.get (Blockability.find "lu"));
  show_derivation "LU with partial pivoting"
    (Option.get (Blockability.find "lu_pivot"));
  (* The §5.2 point: the pivoting derivation distributes only because
     FSA proves that the row interchanges commute with the column
     updates, which licenses the dependences the split reverses.
     Without that knowledge, plain distribution refuses the same
     split. *)
  print_endline "==== pivoting without commutativity knowledge ====";
  let mem, events = Obs.memory () in
  Obs.set_sink mem;
  let derived = Blockability.derive (Option.get (Blockability.find "lu_pivot")) in
  Obs.set_sink Obs.null;
  let decisions name =
    List.filter
      (fun (e : Obs.event) -> e.cat = "decision" && e.name = name)
      (events ())
  in
  let int_arg k (e : Obs.event) =
    match List.assoc_opt k e.args with Some (Obs.Int n) -> n | _ -> 0
  in
  Printf.printf
    "distribution ignored %d reversed dependence(s), each licensed by one \
     of %d FSA commutativity proofs\n"
    (List.fold_left (fun n e -> n + int_arg "ignored_deps" e) 0 (decisions "distribute"))
    (List.length (decisions "commutativity"));
  (match derived with
  | Error m -> Printf.printf "FAILED: %s\n" m
  | Ok { steps; _ } -> (
      let after name =
        (List.find (fun (s : Blocker.trace_step) -> s.name = name) steps).after
      in
      match (after "strip-mine", after "index-set-split") with
      | [ Stmt.Loop ({ body = [ Stmt.Loop kk ]; _ } as stripped) ],
        [ Stmt.Loop head; Stmt.Loop tail ] -> (
          (* The split strip loop as distribution saw it, under the
             facts the derivation assumed (N >= 1, KS >= 1). *)
          let ctx =
            List.fold_left Symbolic.assume_pos Symbolic.empty [ "KS"; "N" ]
          in
          let ctx =
            List.fold_left Symbolic.assume_nonneg ctx
              (Symbolic.facts (Symbolic.of_loop_context [ stripped; kk ]))
          in
          let n = List.length head.body and m = List.length tail.body in
          match
            Distribution.apply ~ctx
              { head with body = head.body @ tail.body }
              ~groups:[ List.init n Fun.id; List.init m (fun i -> n + i) ]
          with
          | Ok _ -> print_endline "plain distribution unexpectedly succeeded!"
          | Error m ->
              Printf.printf
                "plain distribution of the same split is refused, as the \
                 paper predicts:\n  %s\n"
                m)
      | _ -> print_endline "unexpected blocked shape"));
  print_newline ();
  (* And the Section-6 answer for algorithms like Householder QR that have
     no derivable block form: write the block algorithm in the extended
     language and leave the block size to the compiler.  It lowers, as
     the derived kernels are, with the block size a parameter KS. *)
  print_endline "==== Figure 11: block LU in the extended language ====";
  print_string Ext.fig11_blocked_lu;
  match Lower.lower (List.hd (Parser.program Ext.fig11_blocked_lu)) with
  | Ok lowered ->
      print_endline "-- lowered (each BLOCK DO steps by KS):";
      print_string (Stmt.to_string lowered)
  | Error m -> Printf.printf "lowering failed: %s\n" m
