open Helpers

(* ---- lowering ---- *)

let fig11 () = List.hd (Parser.program Ext.fig11_blocked_lu)

let fig11_lowers_and_matches (n, ks, seed) =
  let ks = max 1 ks in
  match Lower.lower (fig11 ()) with
  | Error _ -> false
  | Ok stmt ->
      Kernel_def.equivalent K_lu.kernel [ stmt ] ~extra:[ ("KS", ks) ]
        ~bindings:[ ("N", n) ] ~seed
      = Ok ()

let lowering_errors () =
  let bad =
    Ext.In_do { block_index = "K"; index = "KK"; bounds = None; body = [] }
  in
  check_bool "IN DO outside BLOCK DO" true
    (Result.is_error (Lower.lower bad));
  let bad_last =
    Ext.Do
      {
        index = "I";
        lo = Expr.Int 1;
        hi = Ext.last "K";
        body = [];
      }
  in
  check_bool "LAST outside BLOCK DO" true
    (Result.is_error (Lower.lower bad_last))

(* The block size stays the parameter KS: a BLOCK DO steps by it and
   LAST(K) is the strip-mined bound, as in the derived kernels. *)
let block_do_steps_by_ks () =
  match Lower.lower (fig11 ()) with
  | Ok (Stmt.Loop l) ->
      check_string "step" "KS" (Expr.to_string l.step);
      (match l.body with
      | Stmt.Loop kk :: _ ->
          check_string "IN K DO KK" "MIN(K + (KS - 1), N - 1)" (Expr.to_string kk.hi)
      | _ -> Alcotest.fail "IN K DO KK expected first")
  | _ -> Alcotest.fail "lowering failed"

(* ---- frontend ---- *)

let parse_lu_matches_builder () =
  let src =
    "DO K = 1, N - 1\n\
     \  DO I = K + 1, N\n\
     \    A(I, K) = A(I, K) / A(K, K)\n\
     \  END DO\n\
     \  DO J = K + 1, N\n\
     \    DO I = K + 1, N\n\
     \      A(I, J) = A(I, J) - A(I, K) * A(K, J)\n\
     \    END DO\n\
     \  END DO\n\
     END DO\n"
  in
  check_bool "structural match" true
    (Stmt.equal_block (Parser.stmts src) [ Stmt.Loop K_lu.point_loop ])

let parse_guard_and_intrinsics () =
  let src =
    "DO J = 2, M\n\
     \  IF (A(J, 1) .NE. 0.0) THEN\n\
     \    DEN = SQRT(A(1,1)*A(1,1) + A(J,1)*A(J,1))\n\
     \    C = A(1, 1) / DEN\n\
     \  ELSE\n\
     \    C = 1.0\n\
     \  END IF\n\
     END DO\n"
  in
  match Parser.stmts src with
  | [ Stmt.Loop { body = [ Stmt.If (Stmt.Fcmp (Stmt.Ne, _, _), t, e) ]; _ } ] ->
      check_int "then branch" 2 (List.length t);
      check_int "else branch" 1 (List.length e)
  | _ -> Alcotest.fail "unexpected shape"

let parse_integer_statements () =
  let src = "KC = KC + 1\nKLB(KC) = K\n" in
  match Parser.stmts src with
  | [ Stmt.Iassign ("KC", [], _); Stmt.Iassign ("KLB", [ Expr.Var "KC" ], Expr.Var "K") ]
    ->
      ()
  | _ -> Alcotest.fail "integer statements"

let parse_logicals () =
  let src = "IF (I .LT. N .AND. .NOT. (X .GT. 0.0)) THEN\nY = 1.0\nEND IF\n" in
  match Parser.stmts src with
  | [ Stmt.If (Stmt.And (Stmt.Icmp (Stmt.Lt, _, _), Stmt.Not _), _, []) ] -> ()
  | _ -> Alcotest.fail "logical operators"

let parse_block_do_roundtrip () =
  let src = Ext.fig11_blocked_lu in
  match Parser.program src with
  | [ ext ] -> check_string "round trip" src (Ext.to_string ext)
  | _ -> Alcotest.fail "expected one statement"

let parse_errors () =
  let expect_error src =
    match Parser.stmts src with
    | exception Parser.Parse_error _ -> ()
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.failf "expected a parse error for %S" src
  in
  expect_error "DO I = 1\nEND DO\n";
  expect_error "DO I = 1, N\n";
  expect_error "A(I = 1\n";
  expect_error "IF (X) THEN\nEND IF\n";
  expect_error "X = .FOO. 1\n"

let parsed_kernel_runs () =
  (* parse, interpret, compare against the builder kernel end to end *)
  let src =
    "DO I = 0, N3\n\
     \  DO K = I, MIN(I + N2, N1)\n\
     \    F3(I) = F3(I) + DT * F1(K) * F2(I - K)\n\
     \  END DO\n\
     END DO\n"
  in
  let parsed = Parser.stmts src in
  equivalent K_conv.aconv parsed
    ~bindings:[ ("N1", 12); ("N2", 4); ("N3", 15) ]
    ~seed:8

let suite =
  ( "lang-frontend",
    [
      qcase ~count:30 "Figure 11 lowers to point-equivalent code"
        QCheck2.Gen.(triple (int_range 1 20) (int_range 1 9) (int_range 0 99))
        fig11_lowers_and_matches;
      case "lowering error cases" lowering_errors;
      case "BLOCK DO steps by KS" block_do_steps_by_ks;
      case "parse LU" parse_lu_matches_builder;
      case "parse guard and intrinsics" parse_guard_and_intrinsics;
      case "parse integer statements" parse_integer_statements;
      case "parse logical operators" parse_logicals;
      case "BLOCK DO round trip" parse_block_do_roundtrip;
      case "parse errors" parse_errors;
      case "parsed kernel runs" parsed_kernel_runs;
    ] )
