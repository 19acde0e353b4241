open Helpers

(* Fractal symbolic analysis: proof-tree goldens and fuel soundness.
   The §5.2 pivoting derivation it licenses is pinned in
   derivations.golden. *)

let ctx = Symbolic.assume_pos Symbolic.empty "N"

let check_lines = Alcotest.(check (list string))

(* Two writes to distinct constant locations commute; the checker must
   prune the infeasible [%p1 = 1 & %p1 = 2] case rather than report a
   phantom mismatch there. *)
let a1 = Stmt.Assign ("B", [ Expr.int 1 ], Stmt.Ref ("A", [ Expr.int 1 ]))
let a2 = Stmt.Assign ("B", [ Expr.int 2 ], Stmt.Ref ("A", [ Expr.int 2 ]))

let commuting_golden () =
  let r = Fsa.commute ~ctx [ a1 ] [ a2 ] in
  check_bool "equivalent" true (r.Fsa.verdict = Fsa.Equivalent);
  check_lines "proof tree"
    [
      "[direct] commute [B(1) = A(1)] with [B(2) = A(2)] -> equivalent: \
       reordered states match in all 3 feasible cases";
    ]
    (Fsa.proof_to_lines r.Fsa.proof)

(* Same location, different values: order is observable.  The verdict
   must be Unknown and the proof must name the distinguishing case. *)
let non_commuting_golden () =
  let c = Stmt.Assign ("A", [ Expr.int 1 ], Stmt.Fconst 1.0) in
  let d = Stmt.Assign ("A", [ Expr.int 1 ], Stmt.Fconst 2.0) in
  let r = Fsa.commute ~ctx [ c ] [ d ] in
  check_bool "not equivalent" true (r.Fsa.verdict <> Fsa.Equivalent);
  check_lines "proof tree"
    [
      "[direct] commute [A(1) = 1.0] with [A(1) = 2.0] -> unknown (A(%p1) \
       differs when 1 = %p1): A(%p1) differs when 1 = %p1";
    ]
    (Fsa.proof_to_lines r.Fsa.proof)

(* A row swap over a symbolic range against a point update outside the
   swapped rows: proved directly through the quantified store. *)
let swap_loop =
  Stmt.Loop
    {
      Stmt.index = "J";
      lo = Expr.int 1;
      hi = Expr.var "N";
      step = Expr.int 1;
      body =
        [
          Stmt.Assign ("T", [], Stmt.Ref ("A", [ Expr.int 1; Expr.var "J" ]));
          Stmt.Assign
            ( "A",
              [ Expr.int 1; Expr.var "J" ],
              Stmt.Ref ("A", [ Expr.int 2; Expr.var "J" ]) );
          Stmt.Assign ("A", [ Expr.int 2; Expr.var "J" ], Stmt.Fvar "T");
        ];
    }

let swap_vs_update () =
  let upd =
    Stmt.Assign
      ( "A",
        [ Expr.int 4; Expr.int 5 ],
        Stmt.Fbin
          ( Stmt.FSub,
            Stmt.Ref ("A", [ Expr.int 4; Expr.int 5 ]),
            Stmt.Ref ("A", [ Expr.int 3; Expr.int 5 ]) ) )
  in
  let ctx = Symbolic.assume_ge ctx (Affine.var "N") (Affine.const 6) in
  let r = Fsa.commute ~ctx [ swap_loop ] [ upd ] in
  check_bool "equivalent" true (r.Fsa.verdict = Fsa.Equivalent);
  match r.Fsa.proof with
  | { Fsa.rule = "direct"; verdict = Fsa.Equivalent; _ } -> ()
  | p -> Alcotest.failf "expected a direct proof, got:\n%s"
           (String.concat "\n" (Fsa.proof_to_lines p))

(* A scalar accumulation cannot be folded into a quantified store
   (T flows across iterations), so the direct comparison fails for
   complexity reasons and the fractal recursion must reduce the loop
   to a generic iteration before succeeding. *)
let accum_loop =
  Stmt.Loop
    {
      Stmt.index = "J";
      lo = Expr.int 1;
      hi = Expr.var "N";
      step = Expr.int 1;
      body =
        [
          Stmt.Assign
            ( "T",
              [],
              Stmt.Fbin (Stmt.FAdd, Stmt.Fvar "T", Stmt.Ref ("B", [ Expr.var "J" ]))
            );
        ];
    }

let point = Stmt.Assign ("A", [ Expr.int 1 ], Stmt.Fconst 2.0)

let fractal_recursion () =
  let r = Fsa.commute ~ctx [ point ] [ accum_loop ] in
  check_bool "equivalent" true (r.Fsa.verdict = Fsa.Equivalent);
  match r.Fsa.proof with
  | { Fsa.rule = "generic-iteration-right"; verdict = Fsa.Equivalent; children; _ }
    ->
      check_bool "has a sub-proof" true (children <> []);
      check_bool "sub-proof is direct" true
        (List.exists
           (fun (c : Fsa.proof) ->
             c.Fsa.rule = "direct" && c.Fsa.verdict = Fsa.Equivalent)
           children)
  | p ->
      Alcotest.failf "expected generic-iteration-right, got:\n%s"
        (String.concat "\n" (Fsa.proof_to_lines p))

(* Fuel exhaustion is always Unknown — at the root and mid-recursion.
   An out-of-fuel prover must never claim equivalence. *)
let fuel_soundness () =
  (let r = Fsa.commute ~fuel:0 ~ctx [ a1 ] [ a2 ] in
   match r.Fsa.verdict with
   | Fsa.Unknown m -> check_string "why" "fuel exhausted" m
   | Fsa.Equivalent -> Alcotest.fail "fuel 0 claimed equivalence");
  (* fuel 1: the direct attempt on the accumulation pair fails for
     complexity, and no fuel remains for the fractal step. *)
  let r = Fsa.commute ~fuel:1 ~ctx [ point ] [ accum_loop ] in
  match r.Fsa.verdict with
  | Fsa.Unknown _ -> ()
  | Fsa.Equivalent -> Alcotest.fail "fuel 1 claimed equivalence"

let suite =
  ( "fsa",
    [
      case "commuting pair: golden proof tree" commuting_golden;
      case "non-commuting pair: golden proof tree" non_commuting_golden;
      case "swap loop vs point update: direct proof" swap_vs_update;
      case "fractal recursion: generic iteration" fractal_recursion;
      case "fuel exhaustion is Unknown, never Equivalent" fuel_soundness;
    ] )
