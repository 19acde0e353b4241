open Helpers

(* The end-to-end §5 derivations: golden listings and equivalence sweeps. *)

let fig6_expected =
  "DO K = 1, N - 1, KS\n\
  \  DO KK = K, MIN(K + (KS - 1), N - 1)\n\
  \    DO I = KK + 1, N\n\
  \      A(I, KK) = A(I, KK)/A(KK, KK)\n\
  \    END DO\n\
  \    DO J = KK + 1, MIN(N, K + KS - 1)\n\
  \      DO I = KK + 1, N\n\
  \        A(I, J) = A(I, J) - A(I, KK)*A(KK, J)\n\
  \      END DO\n\
  \    END DO\n\
  \  END DO\n\
  \  DO J = K + KS, N\n\
  \    DO I = K + 1, N\n\
  \      DO KK = K, MIN(I - 1, MIN(K + (KS - 1), N - 1))\n\
  \        A(I, J) = A(I, J) - A(I, KK)*A(KK, J)\n\
  \      END DO\n\
  \    END DO\n\
  \  END DO\n\
   END DO\n"

let block_lu_golden () =
  let { Blocker.result; steps } =
    ok_or_fail "block_lu" (Blocker.block_lu ~block_size_var:"KS" K_lu.point_loop)
  in
  check_string "Figure 6" fig6_expected (Stmt.to_string result);
  Alcotest.(check (list string))
    "derivation steps"
    [ "strip-mine"; "recurrence"; "index-set-split"; "distribute"; "interchange"; "result" ]
    (List.map (fun (s : Blocker.trace_step) -> s.name) steps)

let gen_case =
  QCheck2.Gen.(triple (int_range 1 24) (int_range 1 10) (int_range 0 1000))

let block_lu_equiv (n, ks, seed) =
  let { Blocker.result; _ } =
    Result.get_ok (Blocker.block_lu ~block_size_var:"KS" K_lu.point_loop)
  in
  Kernel_def.equivalent K_lu.kernel [ result ] ~extra:[ ("KS", ks) ]
    ~bindings:[ ("N", n) ] ~seed
  = Ok ()

let block_lu_pivot_equiv (n, ks, seed) =
  let { Blocker.result; _ } =
    Result.get_ok (Blocker.block_lu_pivot ~block_size_var:"KS" K_lu_pivot.point_loop)
  in
  Kernel_def.equivalent K_lu_pivot.kernel [ result ] ~extra:[ ("KS", ks) ]
    ~bindings:[ ("N", n) ] ~seed
  = Ok ()

(* §5.2's point: WITHOUT commutativity knowledge the pivoting kernel's
   distribution is illegal; the non-pivot driver must therefore fail on
   it, and plain distribution of the split body must be refused. *)
let pivot_needs_commutativity () =
  match Blocker.block_lu ~block_size_var:"KS" K_lu_pivot.point_loop with
  | Ok _ -> Alcotest.fail "pivoting LU must not block without commutativity"
  | Error _ -> ()

let givens_equiv (m_extra, n, seed) =
  let m = n + m_extra in
  match Givens_opt.optimize K_givens.point_loop with
  | Error _ -> false
  | Ok ({ result; _ }, names) ->
      let kernel =
        {
          K_givens.kernel with
          Kernel_def.setup =
            (fun env ~bindings ~seed ->
              K_givens.kernel.Kernel_def.setup env ~bindings ~seed;
              let m = List.assoc "M" bindings in
              Env.add_iarray env names.If_inspection.lb [ (1, (m / 2) + 1) ];
              Env.add_iarray env names.If_inspection.ub [ (1, (m / 2) + 1) ];
              Env.add_farray env "C" [ (1, m) ];
              Env.add_farray env "S" [ (1, m) ]);
        }
      in
      Kernel_def.equivalent kernel [ result ]
        ~bindings:[ ("M", m); ("N", n) ]
        ~seed
      = Ok ()

(* The executor's J loop touches A only at A(J,K): A(L,K) lives in a
   scalar across the JN x J sweep, loaded before it and stored after it
   once per K. *)
let givens_executor_scalar_replaced () =
  let { Blocker.result; _ }, _ =
    ok_or_fail "givens" (Givens_opt.optimize K_givens.point_loop)
  in
  let loops = Stmt.find_loops [ result ] in
  let a_subs block =
    List.filter_map
      (fun (a : Ir_util.access) ->
        if a.array = "A" then Some (List.map Expr.to_string a.subs) else None)
      (Ir_util.accesses block)
  in
  match
    List.filter
      (fun (_, (l : Stmt.loop)) ->
        l.index = "J" && match l.lo with Expr.Idx _ -> true | _ -> false)
      loops
  with
  | [ (_, j) ] ->
      check_bool "J loop reads and writes only A(J, K)" true
        (List.for_all (( = ) [ "J"; "K" ]) (a_subs j.body));
      let _, k = List.find (fun (_, (l : Stmt.loop)) -> l.index = "K") loops in
      check_bool "one load and one store of A(L, K) per K" true
        (a_subs (List.filter (function Stmt.Loop _ -> false | _ -> true) k.body)
        = [ [ "L"; "K" ]; [ "L"; "K" ] ])
  | _ -> Alcotest.fail "expected one executor J loop"

let matmul_if_equiv (n, freq, seed) =
  let entry = Option.get (Blockability.find "matmul") in
  Blockability.verify entry
    ~bindings:[ ("N", n); ("FREQ_PCT", freq * 10) ]
    ~seed
  = Ok ()

let registry_verifies () =
  List.iter
    (fun (e : Blockability.entry) ->
      match (e.blockable, Blockability.verify e) with
      | true, Ok () -> ()
      | true, Error m -> Alcotest.failf "%s: %s" e.name m
      | false, Error _ -> ()
      | false, Ok () ->
          Alcotest.failf "%s: non-blockable entry unexpectedly verified" e.name)
    Blockability.entries

let blocking_reduces_misses () =
  (* the X1 ablation in miniature: on a small cache and a matrix that far
     exceeds it, block LU must miss less than point LU *)
  let entry = Option.get (Blockability.find "lu") in
  match
    Blockability.simulate ~machine:Arch.small_test
      ~bindings:[ ("N", 64); ("KS", 4) ]
      entry
  with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check_bool "same access count" true
        (r.point_stats.accesses = r.transformed_stats.accesses);
      check_bool
        (Printf.sprintf "misses drop (%d -> %d)" r.point_stats.misses
           r.transformed_stats.misses)
        true
        (r.transformed_stats.misses < r.point_stats.misses)

let strip_mine_and_interchange_driver () =
  (* the §2.3 running example as a driver call *)
  let open Builder in
  let nest =
    do_ "J" (i 1) (v "N")
      [ do_ "I" (i 1) (v "M") [ set1 "A" (v "I") (a1 "A" (v "I") +. a1 "B" (v "J")) ] ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  let blocked =
    ok_or_fail "smi"
      (Blocker.strip_mine_and_interchange ~block_size:(Expr.var "JS")
         ~new_index:"JJ" ~levels:1 l)
  in
  check_string "outer stays J" "J" blocked.index;
  match blocked.body with
  | [ Stmt.Loop mid ] -> (
      check_string "middle is I" "I" mid.index;
      match mid.body with
      | [ Stmt.Loop inner ] -> check_string "inner is JJ" "JJ" inner.index
      | _ -> Alcotest.fail "shape")
  | _ -> Alcotest.fail "shape"

let block_trapezoid_equiv (n1, n2, seed) =
  let n2 = n2 + 3 (* rhomboidal regions need N2 >= factor-1 = 3 *) in
  let ctx =
    Symbolic.assume_ge
      (List.fold_left Symbolic.assume_pos Symbolic.empty [ "N1"; "N2"; "N3" ])
      (Affine.var "N2") (Affine.const 3)
  in
  let check loop kernel =
    match Blocker.block_trapezoid ~ctx ~factor:4 loop with
    | Error _ -> false
    | Ok { result; _ } ->
        Kernel_def.equivalent kernel result
          ~bindings:[ ("N1", n1); ("N2", n2); ("N3", n1 + 7) ]
          ~seed
        = Ok ()
  in
  check K_conv.aconv_loop K_conv.aconv && check K_conv.conv_loop K_conv.conv

(* blocking both outer loops of a matmul-style nest: strip-mine-and-
   interchange applied twice gives a 2-D tiled nest, still equivalent *)
let two_level_tiling () =
  let open Builder in
  let nest =
    do_ "J" (i 1) (v "N")
      [
        do_ "K" (i 1) (v "N")
          [
            do_ "I" (i 1) (v "N")
              [ set2 "C" (v "I") (v "J")
                  (a2 "C" (v "I") (v "J") +. (a2 "A" (v "I") (v "K") *. a2 "B" (v "K") (v "J"))) ];
          ];
      ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  (* sink a strip of J past K and I (two levels) *)
  let tiled =
    ok_or_fail "tile J"
      (Blocker.strip_mine_and_interchange ~block_size:(Expr.var "JS")
         ~new_index:"JJ" ~levels:2 l)
  in
  let kernel : Kernel_def.t =
    {
      name = "mm";
      description = "";
      block = [ nest ];
      params = [ "N" ];
      setup =
        (fun env ~bindings ~seed ->
          let n = List.assoc "N" bindings in
          Env.add_farray env "A" [ (1, n); (1, n) ];
          Env.add_farray env "B" [ (1, n); (1, n) ];
          Env.add_farray env "C" [ (1, n); (1, n) ];
          let rng = Lcg.create seed in
          Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
          Env.fill_farray env "B" (fun _ -> Lcg.float rng 1.0));
      traced = [ "C" ];
      shapes = [];
    }
  in
  equivalent kernel [ Stmt.Loop tiled ] ~extra:[ ("JS", 3) ]
    ~bindings:[ ("N", 11) ] ~seed:17

(* §8 breadth: the same generic driver blocks triangular solve and
   Cholesky, neither of which the paper studied. *)
let breadth_equiv (n, ks, seed) =
  let check kernel loop =
    match Blocker.block_lu ~block_size_var:"KS" loop with
    | Error _ -> false
    | Ok { result; _ } ->
        Kernel_def.equivalent kernel [ result ] ~extra:[ ("KS", ks) ]
          ~bindings:[ ("N", n) ] ~seed
        = Ok ()
  in
  check K_trisolve.kernel K_trisolve.point_loop
  && check K_cholesky.kernel K_cholesky.point_loop

(* Digests of every registry kernel's environment after
   [Kernel_def.make_env] and the entry's [extra_setup], recorded before
   the set-up code was rewritten to fill storage directly: any change to
   a draw, its order or its arithmetic changes a digest. *)
let setup_golden =
  [
    ("lu", [("N", 24)], 42, "01cb634d4cd889ceef0c18beb33afc13");
    ("lu", [("N", 24)], 1, "9d475a35036497558c5d406c8967a7c7");
    ("lu", [("N", 7)], 42, "c794a537302960bfbba23310413f987a");
    ("lu", [("N", 7)], 1, "aa840d96f07589ed7f315c128cbe9ccb");
    ("lu_opt", [("N", 24)], 42, "01cb634d4cd889ceef0c18beb33afc13");
    ("lu_opt", [("N", 24)], 1, "9d475a35036497558c5d406c8967a7c7");
    ("lu_opt", [("N", 7)], 42, "c794a537302960bfbba23310413f987a");
    ("lu_opt", [("N", 7)], 1, "aa840d96f07589ed7f315c128cbe9ccb");
    ("lu_pivot", [("N", 24)], 42, "63c3c1c41309362e766840f9f7bdbfd3");
    ("lu_pivot", [("N", 24)], 1, "098b06c148ce9313bd16f5423edd7744");
    ("lu_pivot", [("N", 7)], 42, "4c3661888a9111306d9021b59be64c03");
    ("lu_pivot", [("N", 7)], 1, "88c356344e99d63fb8fe9a0cf1523d9b");
    ("lu_pivot_opt", [("N", 24)], 42, "63c3c1c41309362e766840f9f7bdbfd3");
    ("lu_pivot_opt", [("N", 24)], 1, "098b06c148ce9313bd16f5423edd7744");
    ("lu_pivot_opt", [("N", 7)], 42, "4c3661888a9111306d9021b59be64c03");
    ("lu_pivot_opt", [("N", 7)], 1, "88c356344e99d63fb8fe9a0cf1523d9b");
    ("trisolve", [("N", 24)], 42, "d85aa04046b71ccf82f05c2a966d800c");
    ("trisolve", [("N", 24)], 1, "2b10ffd15ef959c0fce55456ba4f041a");
    ("trisolve", [("N", 7)], 42, "c5f58f59a7b7c59b8daef90dc7953e0c");
    ("trisolve", [("N", 7)], 1, "050cc07d032bc53b2b94c32c0fefbcfd");
    ("cholesky", [("N", 24)], 42, "75490d49138f5e653ea9b5e4a707dba5");
    ("cholesky", [("N", 24)], 1, "0c1f1c667a8ce1658180f778072c3ca4");
    ("cholesky", [("N", 7)], 42, "395f07998e3feff078822f98bb9430ff");
    ("cholesky", [("N", 7)], 1, "b4cc5122dd1cb2bf2d88d8f81edd0e1e");
    ("matmul", [("N", 24); ("FREQ_PCT", 10)], 42, "ebda2526ab855838d43468417cb1cacf");
    ("matmul", [("N", 24); ("FREQ_PCT", 10)], 1, "7eb6bc8212fe4a8a3dd7fc6237d6c877");
    ("matmul", [("N", 9); ("FREQ_PCT", 60)], 42, "4f89ca1d5cefa1c04edfa4b994e5b2b6");
    ("matmul", [("N", 9); ("FREQ_PCT", 60)], 1, "4680e910a65b3f1bd7695060750514a7");
    ("givens", [("M", 16); ("N", 12)], 42, "ae12bb948bea94d04f8093bf0aedac94");
    ("givens", [("M", 16); ("N", 12)], 1, "bbea3a1cd4e01140a8ac15bbde83a6a3");
    ("givens", [("M", 7); ("N", 5)], 42, "f6587b9be96f0c485106b64ddd1d84d7");
    ("givens", [("M", 7); ("N", 5)], 1, "5988a5fe0ed35dd911b8c3575cfe4c4e");
    ("aconv", [("N1", 40); ("N2", 9); ("N3", 50)], 42, "8c8d74a72f9f398a60334a5b6168e4c0");
    ("aconv", [("N1", 40); ("N2", 9); ("N3", 50)], 1, "8f8f9cfb386f18d4cbfdc9065ddfe6c3");
    ("aconv", [("N1", 7); ("N2", 3); ("N3", 5)], 42, "32ba3c98bd9f89f9dc65a973c871a16f");
    ("aconv", [("N1", 7); ("N2", 3); ("N3", 5)], 1, "ca6f953a8403d82b3763fa686a282240");
    ("conv", [("N1", 40); ("N2", 9); ("N3", 50)], 42, "8c8d74a72f9f398a60334a5b6168e4c0");
    ("conv", [("N1", 40); ("N2", 9); ("N3", 50)], 1, "8f8f9cfb386f18d4cbfdc9065ddfe6c3");
    ("conv", [("N1", 7); ("N2", 3); ("N3", 5)], 42, "32ba3c98bd9f89f9dc65a973c871a16f");
    ("conv", [("N1", 7); ("N2", 3); ("N3", 5)], 1, "ca6f953a8403d82b3763fa686a282240");
    ("householder", [("M", 16); ("N", 12)], 42, "ae12bb948bea94d04f8093bf0aedac94");
    ("householder", [("M", 16); ("N", 12)], 1, "bbea3a1cd4e01140a8ac15bbde83a6a3");
    ("householder", [("M", 7); ("N", 5)], 42, "f6587b9be96f0c485106b64ddd1d84d7");
    ("householder", [("M", 7); ("N", 5)], 1, "5988a5fe0ed35dd911b8c3575cfe4c4e");
  ]

let setup_is_bitwise_stable () =
  List.iter
    (fun (kernel, bindings, seed, expected) ->
      let e = Option.get (Blockability.find kernel) in
      List.iter
        (fun variant ->
          let env = ok_or_fail "env" (Blockability.env e variant ~bindings ~seed) in
          let arrays =
            List.map
              (fun a -> (a, Env.farray_data env a))
              e.Blockability.kernel.Kernel_def.traced
          in
          check_string
            (Printf.sprintf "%s %s seed %d" kernel
               (Blockability.variant_name variant) seed)
            expected
            (Digest.to_hex (Digest.string (Marshal.to_string arrays []))))
        [ Blockability.Point; Blockability.Transformed ])
    setup_golden

(* Cholesky's set-up computes M^T M + n*I four rows at a time; the
   one-row loop it replaced is the reference, bit for bit, at sizes with
   every remainder of four. *)
let cholesky_setup_matches_reference () =
  List.iter
    (fun n ->
      let seed = 11 in
      let m = Array.create_float (n * n) in
      Lcg.fill (Lcg.create seed) m ~scale:1.0 ~shift:0.5;
      for r = 0 to n - 1 do
        for k = r + 1 to n - 1 do
          let x = m.((k * n) + r) in
          m.((k * n) + r) <- m.((r * n) + k);
          m.((r * n) + k) <- x
        done
      done;
      let want = Array.make (n * n) Float.nan in
      for c = 0 to n - 1 do
        for r = c to n - 1 do
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc := !acc +. (m.((r * n) + k) *. m.((c * n) + k))
          done;
          if r = c then want.((c * n) + r) <- !acc +. float_of_int n
          else begin
            want.((c * n) + r) <- !acc;
            want.((r * n) + c) <- !acc
          end
        done
      done;
      let env = Kernel_def.make_env K_cholesky.kernel ~bindings:[ ("N", n) ] ~seed in
      let got = Env.farray_data env "A" in
      check_bool
        (Printf.sprintf "N=%d bitwise" n)
        true
        (Array.for_all2
           (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
           want got))
    [ 1; 2; 3; 4; 5; 7; 32; 97; 160 ]

(* Every registry kernel's blueprint keys (point and transformed) and
   derived IR, captured before the prover gained shared caches and the
   failed-residual memo.  A proof answer that changes a derivation or
   a cache key shows up here. *)
let render_derivation (e : Blockability.entry) =
  let shapes = e.Blockability.kernel.Kernel_def.shapes in
  let key block = (Blueprint.of_block ~shapes block).Blueprint.key in
  Printf.sprintf "== %s\npoint key: %s\n%s" e.Blockability.name
    (key e.Blockability.kernel.Kernel_def.block)
    (match Blockability.derive e with
    | Error m -> Printf.sprintf "transformed: error: %s\n" m
    | Ok { Blocker.result; _ } ->
        Printf.sprintf "transformed key: %s\n%s" (key [ result ])
          (Stmt.block_to_string [ result ]))

let derivations_match_golden () =
  let golden =
    In_channel.with_open_bin "derivations.golden" In_channel.input_all
  in
  let n = String.length golden in
  (* one section per kernel: a "== name" line up to the next one *)
  let rec next_header i =
    if i + 4 > n then n
    else if String.sub golden i 4 = "\n== " then i + 1
    else next_header (i + 1)
  in
  let rec sections pos =
    if pos >= n then []
    else
      let stop = next_header pos in
      String.sub golden pos (stop - pos) :: sections stop
  in
  let expected = sections 0 in
  check_int "one golden section per kernel"
    (List.length Blockability.entries) (List.length expected);
  List.iter2
    (fun (e : Blockability.entry) want ->
      check_string e.Blockability.name want (render_derivation e))
    Blockability.entries expected

(* The stored form of a derivation reads back as the derived block, and
   a damaged one is refused. *)
let stored_derivations_round_trip () =
  List.iter
    (fun (e : Blockability.entry) ->
      match Blockability.variant_block e Blockability.Transformed with
      | Error _ -> () (* householder: nothing is stored *)
      | Ok (block, _, _) ->
          let stored = Blockability.encode_derivation e block in
          let decode s = Blockability.decode_derivation e s in
          check_bool (e.name ^ " loads as the derived block") true
            (Result.map fst (decode stored) = Ok block);
          let n = String.length stored in
          let flipped = Bytes.of_string stored in
          Bytes.set flipped (n - 1) (Char.chr (Char.code stored.[n - 1] lxor 1));
          check_bool (e.name ^ ": a flipped byte is refused") true
            (Result.is_error (decode (Bytes.to_string flipped)));
          check_bool (e.name ^ ": a short read is refused") true
            (Result.is_error (decode (String.sub stored 0 (n / 2)))))
    Blockability.entries

let suite =
  ( "drivers",
    [
      case "block LU golden listing (Figure 6)" block_lu_golden;
      qcase ~count:40 "block LU equivalence" gen_case block_lu_equiv;
      qcase ~count:25 "block LU with pivoting equivalence" gen_case
        block_lu_pivot_equiv;
      case "pivoting requires commutativity knowledge" pivot_needs_commutativity;
      qcase ~count:25 "Givens optimization equivalence" gen_case givens_equiv;
      case "Givens executor keeps A(L,K) out of its J loop"
        givens_executor_scalar_replaced;
      qcase ~count:20 "matmul IF-inspection equivalence"
        QCheck2.Gen.(triple (int_range 1 24) (int_range 0 10) (int_range 0 1000))
        matmul_if_equiv;
      case "whole registry verifies" registry_verifies;
      case "registry set-up golden digests" setup_is_bitwise_stable;
      case "Cholesky set-up equals the one-row reference bitwise"
        cholesky_setup_matches_reference;
      case "registry derivations and keys match the golden"
        derivations_match_golden;
      case "every registry derivation round-trips through its stored form"
        stored_derivations_round_trip;
      case "blocking reduces simulated misses" blocking_reduces_misses;
      case "strip-mine-and-interchange driver" strip_mine_and_interchange_driver;
      qcase ~count:30 "trapezoid driver (split + shaped UJ)"
        QCheck2.Gen.(triple (int_range 4 25) (int_range 0 20) (int_range 0 999))
        block_trapezoid_equiv;
      case "two-level tiling" two_level_tiling;
      qcase ~count:25 "breadth: trisolve and Cholesky block too" gen_case
        breadth_equiv;
    ] )
