open Helpers
open Builder

(* Each primitive transformation is checked by interpreter equivalence on
   the real kernels, across sizes including ragged and degenerate ones. *)

let gen_size = QCheck2.Gen.(pair (int_range 1 20) (int_range 1 9))

(* ---- strip mining ---- *)

let strip_mine_equiv (n, ks) =
  let stripped =
    match Strip_mine.apply ~block_size:(Expr.var "KS") ~new_index:"KK" K_lu.point_loop with
    | Ok l -> l
    | Error _ -> QCheck2.assume_fail ()
  in
  Kernel_def.equivalent K_lu.kernel [ Stmt.Loop stripped ]
    ~extra:[ ("KS", ks) ] ~bindings:[ ("N", n) ] ~seed:1
  = Ok ()

let strip_mine_rejects () =
  let l =
    match do_ "I" (i 1) (v "N") ~step:(i 2) [] with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  check_bool "non-unit step refused" true
    (Result.is_error (Strip_mine.apply ~block_size:(i 4) ~new_index:"II" l));
  check_bool "name collision refused" true
    (Result.is_error
       (Strip_mine.apply ~block_size:(i 4) ~new_index:"N" K_lu.point_loop))

(* ---- index-set splitting at a point ---- *)

let at_point_equiv (n, p) =
  (* the paper's own example: split DO I = 1,N at iteration p *)
  let body = [ set1 "A" (v "I") (a1 "A" (v "I") +. a1 "B" (v "I")) ] in
  let l = match do_ "I" (i 1) (v "N") body with Stmt.Loop l -> l | _ -> assert false in
  let split = Index_set_split.at_point l (i p) in
  let kernel : Kernel_def.t =
    {
      name = "axpy";
      description = "";
      block = [ Stmt.Loop l ];
      params = [ "N" ];
      setup =
        (fun env ~bindings ~seed ->
          let n = List.assoc "N" bindings in
          Env.add_farray env "A" [ (1, n) ];
          Env.add_farray env "B" [ (1, n) ];
          let rng = Lcg.create seed in
          Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
          Env.fill_farray env "B" (fun _ -> Lcg.float rng 1.0));
      traced = [ "A" ];
      shapes = [];
    }
  in
  Kernel_def.equivalent kernel split ~bindings:[ ("N", n) ] ~seed:3 = Ok ()

(* ---- interchange ---- *)

let rect_interchange () =
  (* DO J / DO I with independent bounds — §2.3's running example. *)
  let nest =
    do_ "J" (i 1) (v "N")
      [ do_ "I" (i 1) (v "M") [ set1 "A" (v "I") (a1 "A" (v "I") +. a1 "B" (v "J")) ] ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  let swapped = ok_or_fail "interchange" (Interchange.rectangular l) in
  check_string "outer index" "I" swapped.index;
  let kernel : Kernel_def.t =
    {
      name = "sum2d";
      description = "";
      block = [ nest ];
      params = [ "N"; "M" ];
      setup =
        (fun env ~bindings ~seed ->
          Env.add_farray env "A" [ (1, List.assoc "M" bindings) ];
          Env.add_farray env "B" [ (1, List.assoc "N" bindings) ];
          let rng = Lcg.create seed in
          Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
          Env.fill_farray env "B" (fun _ -> Lcg.float rng 1.0));
      traced = [ "A" ];
      shapes = [];
    }
  in
  (* interchange reorders the (associative-unsafe) accumulation of B(J)
     into A(I): per element the adds happen in the same J order, so the
     result is still exact. *)
  equivalent kernel [ Stmt.Loop swapped ] ~bindings:[ ("N", 7); ("M", 9) ] ~seed:5

let triangular_interchange_bounds () =
  (* DO II = I, I+IS-1 / DO J = II, M  ->  Figure 1's derivation. *)
  let l =
    match
      do_ "II" (v "I") (v "I" +! v "IS" -! i 1)
        [ do_ "J" (v "II") (v "M") [ setf "X" (fc 0.0) ] ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let swapped = ok_or_fail "triangular" (Interchange.triangular_lower l) in
  check_string "outer is J" "J" swapped.index;
  check_string "new outer lo" "I" (Expr.to_string swapped.lo);
  match swapped.body with
  | [ Stmt.Loop inner ] ->
      check_string "inner hi" "MIN(J, I + IS - 1)" (Expr.to_string inner.hi)
  | _ -> Alcotest.fail "shape"

let triangular_equiv (n, is) =
  (* accumulate into distinct cells so any iteration-space error shows *)
  let body = [ set2 "C" (v "II") (v "J") (a2 "C" (v "II") (v "J") +. fc 1.0) ] in
  let nest =
    do_ "II" (i 1) (v "N") [ do_ "J" (v "II") (v "N") body ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  let swapped =
    match Interchange.triangular_lower l with
    | Ok s -> s
    | Error _ -> QCheck2.assume_fail ()
  in
  ignore is;
  let kernel : Kernel_def.t =
    {
      name = "tri";
      description = "";
      block = [ nest ];
      params = [ "N" ];
      setup =
        (fun env ~bindings ~seed ->
          ignore seed;
          let n = List.assoc "N" bindings in
          Env.add_farray env "C" [ (1, n); (1, n) ]);
      traced = [ "C" ];
      shapes = [];
    }
  in
  Kernel_def.equivalent kernel [ Stmt.Loop swapped ] ~bindings:[ ("N", n) ] ~seed:1
  = Ok ()

let triangular_upper_equiv (n, _) =
  let body = [ set2 "C" (v "II") (v "J") (a2 "C" (v "II") (v "J") +. fc 1.0) ] in
  let nest = do_ "II" (i 1) (v "N") [ do_ "J" (i 1) (v "II") body ] in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  let swapped =
    match Interchange.triangular_upper l with
    | Ok s -> s
    | Error _ -> QCheck2.assume_fail ()
  in
  let kernel : Kernel_def.t =
    {
      name = "triu";
      description = "";
      block = [ nest ];
      params = [ "N" ];
      setup =
        (fun env ~bindings ~seed ->
          ignore seed;
          let n = List.assoc "N" bindings in
          Env.add_farray env "C" [ (1, n); (1, n) ]);
      traced = [ "C" ];
      shapes = [];
    }
  in
  Kernel_def.equivalent kernel [ Stmt.Loop swapped ] ~bindings:[ ("N", n) ] ~seed:1
  = Ok ()

(* ---- MIN/MAX splitting ---- *)

let split_minmax_equiv (n1, n2) =
  let n3 = n1 + n2 in
  let ok block =
    Kernel_def.equivalent K_conv.conv block
      ~bindings:[ ("N1", n1); ("N2", n2); ("N3", n3) ]
      ~seed:2
    = Ok ()
  in
  match Split_minmax.remove_all K_conv.conv_loop with
  | Ok block -> ok block
  | Error _ -> false

let aconv_split_equiv (n1, n2) =
  let n3 = n1 + 3 in
  match Split_minmax.remove_all K_conv.aconv_loop with
  | Ok block ->
      Kernel_def.equivalent K_conv.aconv block
        ~bindings:[ ("N1", n1); ("N2", n2); ("N3", n3) ]
        ~seed:2
      = Ok ()
  | Error _ -> false

(* ---- unroll-and-jam ---- *)

let uj_rect_equiv (n, factor) =
  let factor = max 2 factor in
  (* DO J / DO I : A(I) += B(I,J); rectangular UJ on J.  Each A(I) still
     accumulates J in increasing order: exact. *)
  let nest =
    do_ "J" (i 1) (v "N")
      [
        do_ "I" (i 1) (v "N")
          [ set1 "A" (v "I") (a1 "A" (v "I") +. a2 "B" (v "I") (v "J")) ];
      ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  match Unroll_and_jam.rectangular ~factor l with
  | Error _ -> false
  | Ok block ->
      let kernel : Kernel_def.t =
        {
          name = "ujrect";
          description = "";
          block = [ nest ];
          params = [ "N" ];
          setup =
            (fun env ~bindings ~seed ->
              let n = List.assoc "N" bindings in
              Env.add_farray env "A" [ (1, n) ];
              Env.add_farray env "B" [ (1, n); (1, n) ];
              let rng = Lcg.create seed in
              Env.fill_farray env "B" (fun _ -> Lcg.float rng 1.0));
          traced = [ "A" ];
          shapes = [];
        }
      in
      Kernel_def.equivalent kernel block ~bindings:[ ("N", n) ] ~seed:7 = Ok ()

let uj_triangular_equiv (n, factor) =
  let factor = max 2 factor in
  (* the aconv upper part: DO I / DO K = I, N1 *)
  let nest =
    do_ "I" (i 0) (v "N3")
      [
        do_ "K" (v "I") (v "N1")
          [ set1 "F3" (v "I") (a1 "F3" (v "I") +. (fv "DT" *. a1 "F1" (v "K"))) ];
      ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  match Unroll_and_jam.triangular ~factor l with
  | Error _ -> false
  | Ok block ->
      let kernel : Kernel_def.t =
        {
          name = "ujtri";
          description = "";
          block = [ nest ];
          params = [ "N1"; "N3" ];
          setup =
            (fun env ~bindings ~seed ->
              let n1 = List.assoc "N1" bindings and n3 = List.assoc "N3" bindings in
              Env.add_farray env "F1" [ (0, max n1 n3) ];
              Env.add_farray env "F3" [ (0, n3) ];
              Env.set_fscalar env "DT" 0.25;
              let rng = Lcg.create seed in
              Env.fill_farray env "F1" (fun _ -> Lcg.float rng 1.0));
          traced = [ "F3" ];
          shapes = [];
        }
      in
      Kernel_def.equivalent kernel block
        ~bindings:[ ("N1", n + 2); ("N3", n) ]
        ~seed:7
      = Ok ()

let uj_rhomboidal_equiv (n, factor) =
  let factor = max 2 factor in
  let n2 = factor + 2 in
  let nest =
    do_ "I" (i 0) (v "N3")
      [
        do_ "K" (v "I") (v "I" +! v "N2")
          [ set1 "F3" (v "I") (a1 "F3" (v "I") +. a1 "F1" (v "K")) ];
      ]
  in
  let l = match nest with Stmt.Loop l -> l | _ -> assert false in
  let ctx = Symbolic.assume_ge Symbolic.empty (Affine.var "N2") (Affine.const n2) in
  match Unroll_and_jam.rhomboidal ~ctx ~factor l with
  | Error _ -> false
  | Ok block ->
      let kernel : Kernel_def.t =
        {
          name = "ujrhom";
          description = "";
          block = [ nest ];
          params = [ "N2"; "N3" ];
          setup =
            (fun env ~bindings ~seed ->
              let n2 = List.assoc "N2" bindings and n3 = List.assoc "N3" bindings in
              Env.add_farray env "F1" [ (0, n3 + n2) ];
              Env.add_farray env "F3" [ (0, n3) ];
              let rng = Lcg.create seed in
              Env.fill_farray env "F1" (fun _ -> Lcg.float rng 1.0));
          traced = [ "F3" ];
          shapes = [];
        }
      in
      Kernel_def.equivalent kernel block
        ~bindings:[ ("N2", n2); ("N3", n) ]
        ~seed:7
      = Ok ()

(* ---- scalar replacement ---- *)

let scalar_replacement_dot () =
  (* S = S + A(I)*B(I): S is rank-0 and untouched; the invariant refs here
     are none — instead check the LU-style case. *)
  let l =
    match
      do_ "KK" (v "K") (v "KEND")
        [
          set2 "A" (v "I") (v "J")
            (a2 "A" (v "I") (v "J") -. (a2 "A" (v "I") (v "KK") *. a2 "A" (v "KK") (v "J")));
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx =
    let open Affine in
    let c = Symbolic.assume_ge Symbolic.empty (var "J") (add (var "KEND") (const 1)) in
    let c = Symbolic.assume_ge c (var "I") (add (var "KEND") (const 1)) in
    Symbolic.assume_ge c (var "KEND") (var "K")
  in
  let result = ok_or_fail "scalar replacement" (Scalar_replacement.apply ~ctx l) in
  (* expect load, loop, store *)
  check_int "three statements" 3 (List.length result);
  (match result with
  | [ Stmt.Assign (t, [], Stmt.Ref ("A", _)); Stmt.Loop _; Stmt.Assign ("A", _, Stmt.Fvar t') ]
    ->
      check_string "temp round trip" t t'
  | _ -> Alcotest.fail "unexpected shape");
  (* and A(I,J) must no longer be referenced inside the loop *)
  match result with
  | [ _; Stmt.Loop l'; _ ] ->
      let accs = Ir_util.accesses [ Stmt.Loop l' ] in
      check_bool "invariant ref replaced" true
        (List.for_all
           (fun (a : Ir_util.access) ->
             a.array <> "A"
             || not (List.for_all2 Expr.equal a.subs [ v "I"; v "J" ]))
           accs)
  | _ -> ()

let scalar_replacement_unsafe () =
  (* A(J) invariant but A(I) may alias it: the replacement must refuse. *)
  let l =
    match
      do_ "I" (i 1) (v "N")
        [ set1 "A" (v "I") (a1 "A" (v "J") +. fc 1.0) ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let result = ok_or_fail "apply" (Scalar_replacement.apply ~ctx:Symbolic.empty l) in
  check_int "nothing replaced" 1 (List.length result)

(* ---- scalar expansion ---- *)

let scalar_expansion_cases () =
  let l =
    match
      do_ "J" (i 1) (v "N")
        [ setf "C" (a1 "X" (v "J")); set1 "Y" (v "J") (fv "C" *. fv "C") ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let expanded = ok_or_fail "expansion" (Scalar_expansion.apply ~scalar:"C" ~array_name:"C" l) in
  let accs = Ir_util.accesses [ Stmt.Loop expanded ] in
  check_bool "no rank-0 C left" true
    (List.for_all (fun (a : Ir_util.access) -> a.array <> "C" || a.subs <> []) accs);
  (* live-on-entry scalars refused *)
  let bad =
    match
      do_ "J" (i 1) (v "N")
        [ set1 "Y" (v "J") (fv "C"); setf "C" (a1 "X" (v "J")) ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  check_bool "live-in refused" true
    (Result.is_error (Scalar_expansion.apply ~scalar:"C" ~array_name:"CX" bad))

(* Regression (found by `blockc fuzz`): a write under an IF does not
   dominate reads after the IF — when the guard is false, the read sees
   the value from before the loop, which expansion would rename to an
   uninitialized array element. *)
let scalar_expansion_conditional_write () =
  let guarded_write_then_read =
    match
      do_ "J" (i 1) (v "N")
        [
          if_
            (fne (a1 "G" (i 1)) (fc 0.0))
            [ setf "T" (a1 "A" (i 1)); set1 "A" (i 1) (fv "T" +. a1 "A" (i 1)) ];
          if_ (fge (fv "T") (fc 0.25)) [ set1 "A" (i 1) (a1 "A" (i 2)) ];
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  check_bool "conditionally-defined scalar refused" true
    (Result.is_error
       (Scalar_expansion.apply ~scalar:"T" ~array_name:"TX"
          guarded_write_then_read));
  (* Reads inside the same branch as the write stay legal (the Givens
     driver expands coefficient scalars written under the rotation
     guard). *)
  let write_and_read_same_branch =
    match
      do_ "J" (i 1) (v "N")
        [
          if_
            (fne (a1 "G" (i 1)) (fc 0.0))
            [ setf "T" (a1 "A" (i 1)); set1 "A" (i 1) (fv "T" +. a1 "A" (i 1)) ];
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  check_bool "same-branch use still expands" true
    (Result.is_ok
       (Scalar_expansion.apply ~scalar:"T" ~array_name:"TX"
          write_and_read_same_branch))

(* ---- distribution ---- *)

let distribution_legal () =
  (* two independent statements distribute; reversed order must refuse *)
  let l =
    match
      do_ "I" (i 1) (v "N")
        [
          set1 "A" (v "I") (a1 "X" (v "I"));
          set1 "B" (v "I") (a1 "A" (v "I") +. fc 1.0);
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.assume_pos Symbolic.empty "N" in
  check_bool "forward order ok" true
    (Result.is_ok (Distribution.apply ~ctx l ~groups:[ [ 0 ]; [ 1 ] ]));
  check_bool "reversed order refused" true
    (Result.is_error (Distribution.apply ~ctx l ~groups:[ [ 1 ]; [ 0 ] ]));
  check_bool "auto succeeds" true (Result.is_ok (Distribution.auto ~ctx l))

let distribution_recurrence () =
  (* A(I) = A(I-1): self recurrence is fine, but splitting a chained pair
     B after A with backward flow A(I+1) must be refused. *)
  let l =
    match
      do_ "I" (i 2) (v "N")
        [
          set1 "A" (v "I") (a1 "B" (v "I" -! i 1));
          set1 "B" (v "I") (a1 "A" (v "I" -! i 1));
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.assume_pos Symbolic.empty "N" in
  check_bool "mutual recurrence refused" true
    (Result.is_error (Distribution.apply ~ctx l ~groups:[ [ 0 ]; [ 1 ] ]))

(* The strip loop [kk] of a blocked derivation, as the driver handed it
   to distribution (after the index-set split: the concatenated bodies
   of the two distributed loops), with the driver's universal facts. *)
let split_strip_body (traced : Stmt.t Blocker.traced) =
  let after name =
    (List.find (fun (st : Blocker.trace_step) -> st.name = name) traced.steps)
      .after
  in
  match after "strip-mine", after "index-set-split" with
  | [ Stmt.Loop ({ body = [ Stmt.Loop kk ]; _ } as stripped) ],
    [ Stmt.Loop head; Stmt.Loop tail ] ->
      let ctx = Symbolic.assume_pos Symbolic.empty "KS" in
      let ctx =
        List.fold_left Symbolic.assume_pos ctx
          (Ir_util.symbolic_params [ Stmt.Loop stripped ])
      in
      let ctx =
        List.fold_left Symbolic.assume_nonneg ctx
          (Symbolic.facts (Symbolic.of_loop_context [ stripped; kk ]))
      in
      (ctx, { head with body = head.body @ tail.body })
  | _ -> Alcotest.fail "unexpected blocked shape"

(* The rule distribution legality followed before it asked only about
   backward edges: drop every edge the override accepts, then refuse
   the first remaining edge that runs from a later group to an earlier
   one. *)
let reference_distribution ~ctx ~ignore_dep (l : Stmt.loop) ~groups =
  let g = Ddg.build ~ctx l in
  let edges = List.filter (fun (e : Ddg.edge) -> not (ignore_dep e.dep)) g.edges in
  let pos s = Option.get (List.find_index (List.mem s) groups) in
  match List.find_opt (fun (e : Ddg.edge) -> pos e.from_stmt > pos e.to_stmt) edges with
  | None ->
      Ok
        (List.map
           (fun grp -> Stmt.Loop { l with body = List.map (List.nth l.body) grp })
           groups)
  | Some e ->
      Error
        (Printf.sprintf
           "dependence from statement %d to statement %d would be reversed: %s"
           e.from_stmt e.to_stmt
           (Dependence.to_string e.dep))

(* Every prefix/suffix split of three split strip bodies, under overrides
   that accept every edge, none, or a seeded random subset: the override
   is asked about backward edges only, in edge order, up to its first
   refusal, and the answer (message included) is the reference rule's. *)
let distribution_asks_backward_edges () =
  let stmt_of (a : Ir_util.access) =
    match a.path with Stmt.I 0 :: Stmt.I k :: _ -> k | _ -> -1
  in
  let key (dep : Dependence.t) =
    Printf.sprintf "%d -> %d: %s" (stmt_of dep.source) (stmt_of dep.sink)
      (Dependence.to_string dep)
  in
  let overrides =
    ("all", fun _ -> true)
    :: ("none", fun _ -> false)
    :: List.map
         (fun seed ->
           ( Printf.sprintf "random %d" seed,
             fun dep -> Hashtbl.seeded_hash seed (key dep) land 1 = 0 ))
         [ 1; 2; 3 ]
  in
  List.iter
    (fun (name, derive) ->
      let ctx, kk = split_strip_body (ok_or_fail name (derive ())) in
      let edges = (Ddg.build ~ctx kk).edges in
      let n = List.length kk.body in
      for cut = 1 to n - 1 do
        let groups =
          [ List.init cut Fun.id; List.init (n - cut) (fun i -> cut + i) ]
        in
        let backward (e : Ddg.edge) = e.from_stmt >= cut && e.to_stmt < cut in
        List.iter
          (fun (oname, accept) ->
            let what = Printf.sprintf "%s cut %d, override %s" name cut oname in
            let asked = ref [] in
            let got =
              Distribution.apply_with_override ~ctx kk ~groups
                ~ignore_dep:(fun dep ->
                  asked := key dep :: !asked;
                  accept dep)
            in
            let rec expected = function
              | [] -> []
              | (e : Ddg.edge) :: rest ->
                  if not (backward e) then expected rest
                  else if accept e.dep then key e.dep :: expected rest
                  else [ key e.dep ]
            in
            Alcotest.(check (list string))
              (what ^ ": asked backward edges up to the first refusal")
              (expected edges) (List.rev !asked);
            match got, reference_distribution ~ctx ~ignore_dep:accept kk ~groups with
            | Ok a, Ok b -> check_bool (what ^ ": same loops") true (Stmt.equal_block a b)
            | Error a, Error b -> check_string (what ^ ": same error") b a
            | Ok _, Error m -> Alcotest.failf "%s: accepted, reference refuses: %s" what m
            | Error m, Ok _ -> Alcotest.failf "%s: refused (%s), reference accepts" what m)
          overrides
      done)
    [
      ("lu", fun () -> Blocker.block_lu ~block_size_var:"KS" K_lu.point_loop);
      ("cholesky", fun () -> Blocker.block_lu ~block_size_var:"KS" K_cholesky.point_loop);
      ( "lu_pivot",
        fun () -> Blocker.block_lu_pivot ~block_size_var:"KS" K_lu_pivot.point_loop );
    ]

(* ---- IF-inspection ---- *)

let if_inspection_guard_safety () =
  (* the guard reads an array the body writes: must refuse *)
  let l =
    match
      do_ "K" (i 1) (v "N")
        [
          if_ (fne (a1 "A" (v "K")) (fc 0.0))
            [ do_ "I" (i 1) (v "N") [ set1 "A" (v "I") (fc 1.0) ] ];
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let names =
    If_inspection.default_names ~prefix:"K" ~used:[ "K"; "I"; "N"; "A" ]
  in
  check_bool "refused" true (Result.is_error (If_inspection.apply ~names l))

(* Regression (found by `blockc fuzz`): the interference check covered
   arrays only.  A computation that writes a scalar the guard reads
   invalidates the inspector's precomputed ranges just the same. *)
let if_inspection_scalar_interference () =
  let l =
    match
      do_ "I" (i 1) (v "N")
        [
          if_
            (fge (fv "T") (fc 0.25))
            [ setf "T" (a1 "A" (i 3)); set1 "A" (i 1) (fv "T" +. a1 "A" (i 1)) ];
        ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let names =
    If_inspection.default_names ~prefix:"I" ~used:[ "I"; "N"; "A"; "T" ]
  in
  check_bool "guard-read scalar written by computation refused" true
    (Result.is_error (If_inspection.apply ~names l))

let suite =
  ( "transform",
    [
      qcase ~count:40 "strip-mine preserves semantics" gen_size strip_mine_equiv;
      case "strip-mine legality" strip_mine_rejects;
      qcase ~count:40 "index-set split at a point" gen_size at_point_equiv;
      case "rectangular interchange" rect_interchange;
      case "triangular interchange bounds (paper formula)" triangular_interchange_bounds;
      qcase ~count:30 "triangular interchange preserves semantics" gen_size
        triangular_equiv;
      qcase ~count:30 "upper-triangular interchange" gen_size triangular_upper_equiv;
      qcase ~count:30 "conv MIN/MAX removal" gen_size split_minmax_equiv;
      qcase ~count:30 "aconv MIN removal" gen_size aconv_split_equiv;
      qcase ~count:30 "rectangular unroll-and-jam" gen_size uj_rect_equiv;
      qcase ~count:30 "triangular unroll-and-jam" gen_size uj_triangular_equiv;
      qcase ~count:30 "rhomboidal unroll-and-jam" gen_size uj_rhomboidal_equiv;
      case "scalar replacement on the LU update" scalar_replacement_dot;
      case "scalar replacement refuses aliases" scalar_replacement_unsafe;
      case "scalar expansion" scalar_expansion_cases;
      case "scalar expansion: conditional write" scalar_expansion_conditional_write;
      case "distribution legality" distribution_legal;
      case "distribution recurrence" distribution_recurrence;
      case "distribution asks only about backward edges"
        distribution_asks_backward_edges;
      case "IF-inspection guard safety" if_inspection_guard_safety;
      case "IF-inspection scalar interference" if_inspection_scalar_interference;
    ] )
