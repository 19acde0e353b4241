type trace_step = { name : string; detail : string; after : Stmt.t list }
type 'a traced = { result : 'a; steps : trace_step list }

let ( let* ) = Result.bind

(* REAL scalars written in [apply] that the setup part also touches must
   be privatized (renamed) in [apply], or deferring apply past later
   setups would read clobbered temporaries. *)
let privatize ~setup ~apply =
  let scalars block kind_filter =
    List.filter_map
      (fun (a : Ir_util.access) ->
        if a.subs = [] && a.space = Ir_util.Float_data && kind_filter a.kind then
          Some a.array
        else None)
      (Ir_util.accesses block)
    |> List.sort_uniq String.compare
  in
  let apply_written = scalars apply (fun k -> k = Ir_util.Write) in
  let setup_touched = scalars setup (fun _ -> true) in
  let shared = List.filter (fun s -> List.mem s setup_touched) apply_written in
  let used = ref (setup_touched @ apply_written) in
  List.fold_left
    (fun apply s ->
      let fresh = Ir_util.fresh ~used:!used (s ^ "P") in
      used := fresh :: !used;
      List.map (Stmt.rename_fvar s fresh) apply)
    apply shared

let optimize ~ctx (l_loop : Stmt.loop) =
  Obs.span ~cat:"driver" "givens.optimize"
    ~args:[ ("loop", Obs.Str l_loop.index) ]
  @@ fun () ->
  let steps = ref [] in
  let record name detail after =
    Obs.instant ~cat:"driver" ~args:[ ("detail", Obs.Str detail) ] name;
    steps := { name; detail; after } :: !steps
  in
  (* Locate the J sweep and the guarded rotation. *)
  let* j_loop =
    match l_loop.body with
    | [ Stmt.Loop j ] -> Ok j
    | _ -> Error "expected a single J sweep inside the L loop"
  in
  let* guard, setup_stmts, k_loop =
    match j_loop.body with
    | [ Stmt.If (guard, stmts, []) ] -> (
        match List.rev stmts with
        | Stmt.Loop k :: rev_setup -> Ok (guard, List.rev rev_setup, k)
        | _ -> Error "guarded body must end with the rotation loop")
    | _ -> Error "expected a single guarded IF inside the J sweep"
  in
  (* Step 1: peel K = L.  The recurrence between the definition of A(L,K)
     and the uses of A(L,L)/A(J,L) exists only for the element column
     (section analysis: the guard/setup reads are confined to column L),
     so splitting the K index set at L isolates it. *)
  let* () =
    if Expr.equal k_loop.lo (Expr.var l_loop.index) then Ok ()
    else Error "rotation loop must start at the eliminated column"
  in
  let peeled =
    Stmt.subst_block [ (k_loop.index, Expr.var l_loop.index) ] k_loop.body
  in
  let k_rest = { k_loop with lo = Expr.succ (Expr.var l_loop.index) } in
  record "index-set-split"
    (Printf.sprintf "split %s at %s: peel the element column" k_loop.index
       l_loop.index)
    [ Stmt.Loop { j_loop with body = peeled @ [ Stmt.Loop k_rest ] } ];
  (* Step 2: privatize rotation temporaries in the apply part. *)
  let setup_all = setup_stmts @ peeled in
  let apply = privatize ~setup:setup_all ~apply:[ Stmt.Loop k_rest ] in
  (* Step 3: expand the coefficient scalars over J so the value channel
     from setup to executor survives distribution. *)
  let j_restructured =
    { j_loop with body = [ Stmt.If (guard, setup_all @ apply, []) ] }
  in
  let coeff_scalars =
    (* Scalars defined in setup and read in apply. *)
    let reads block =
      List.filter_map
        (fun (a : Ir_util.access) ->
          if a.subs = [] && a.space = Ir_util.Float_data && a.kind = Ir_util.Read
          then Some a.array
          else None)
        (Ir_util.accesses block)
      |> List.sort_uniq String.compare
    in
    let writes block =
      List.filter_map
        (fun (a : Ir_util.access) ->
          if a.subs = [] && a.space = Ir_util.Float_data && a.kind = Ir_util.Write
          then Some a.array
          else None)
        (Ir_util.accesses block)
      |> List.sort_uniq String.compare
    in
    List.filter (fun s -> List.mem s (reads apply)) (writes setup_all)
  in
  let* expanded =
    List.fold_left
      (fun acc scalar ->
        let* j = acc in
        Scalar_expansion.apply ~scalar ~array_name:scalar j)
      (Ok j_restructured) coeff_scalars
  in
  record "scalar-expansion"
    (Printf.sprintf "expand %s over %s" (String.concat ", " coeff_scalars)
       j_loop.index)
    [ Stmt.Loop expanded ];
  (* Step 4: fused IF-inspection + distribution of the J sweep. *)
  let names = If_inspection.names_in [ Stmt.Loop l_loop ] ~prefix:j_loop.index in
  let ctx = Symbolic.with_loops ctx [ l_loop ] in
  let* inspector_setup, executor =
    If_inspection.split_guarded ~ctx ~names
      ~setup_len:(List.length setup_all) expanded
  in
  record "if-inspection"
    "inspection fused into the setup sweep; apply deferred to an executor"
    (inspector_setup @ [ Stmt.Loop executor ]);
  (* Step 5: interchange the executor to K-outer / J-inner. *)
  let* executor' =
    match executor.body with
    | [ Stmt.Loop j_exec ] ->
        let* swapped = Interchange.rectangular j_exec in
        let* outer = Interchange.rectangular { executor with body = [ Stmt.Loop swapped ] } in
        Ok outer
    | _ -> Error "unexpected executor shape"
  in
  record "interchange"
    "executor interchanged: K outermost, J innermost (stride-one A(J,K))"
    [ Stmt.Loop executor' ];
  (* Step 6: scalar-replace what the J loop leaves invariant (A(L,K))
     across the whole JN x J sweep.  Every recorded range
     [JLB(JN), JUB(JN)] lies inside the inspected sweep [L+1, M], so the
     section test runs on the J loop over that sweep: an element it
     proves disjoint from the other accesses there (A(J,K), J >= L+1) is
     disjoint from them over every range.  Loads and stores that do not
     mention JN then move out of the JN loop, to once per K. *)
  let* executor'', loads =
    match executor'.body with
    | [ Stmt.Loop ({ body = [ Stmt.Loop j_exec ]; _ } as jn) ] -> (
        let sweep = { j_exec with lo = j_loop.lo; hi = j_loop.hi } in
        let* replaced =
          Scalar_replacement.apply
            ~ctx:(Symbolic.with_loops ctx [ executor' ])
            sweep
        in
        (* [apply] returns [loads @ [Loop j'] @ stores]. *)
        let rec split loads = function
          | Stmt.Loop j' :: stores -> Some (List.rev loads, j', stores)
          | s :: rest -> split (s :: loads) rest
          | [] -> None
        in
        let varies (a : Ir_util.access) =
          List.exists (Expr.mentions jn.index) a.subs
        in
        match split [] replaced with
        | Some (loads, j', stores)
          when not (List.exists varies (Ir_util.accesses (loads @ stores))) ->
            let j' = { j' with lo = j_exec.lo; hi = j_exec.hi } in
            Ok
              ( {
                  executor' with
                  body =
                    loads
                    @ [ Stmt.Loop { jn with body = [ Stmt.Loop j' ] } ]
                    @ stores;
                },
                loads )
        | _ -> Error "scalar replacement of the executor sweep failed")
    | _ -> Error "unexpected interchanged executor shape"
  in
  record "scalar-replacement"
    (Printf.sprintf "%s: held in a scalar across the %s x %s sweep, once per %s"
       (String.concat "; " (List.map (fun s -> String.trim (Stmt.to_string s)) loads))
       names.range_index j_loop.index executor'.index)
    [ Stmt.Loop executor'' ];
  let result =
    Stmt.Loop { l_loop with body = inspector_setup @ [ Stmt.Loop executor'' ] }
  in
  record "result" "optimized Givens QR" [ result ];
  Ok { result; steps = List.rev !steps }
