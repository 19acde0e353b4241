(* Shared test utilities. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let case name f = Alcotest.test_case name `Quick f

(* Every QCheck property runs from an explicit seed embedded in the test
   name, so a failure is replayable: rerun with QCHECK_SEED=<seed>. *)
let qcheck_seed =
  match Option.map int_of_string_opt (Sys.getenv_opt "QCHECK_SEED") with
  | Some (Some s) -> s
  | _ ->
      Random.self_init ();
      Random.int 1_000_000_000

let qcase ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck2.Test.make ~count ?print
       ~name:(Printf.sprintf "%s [replay: QCHECK_SEED=%d]" name qcheck_seed)
       gen prop)

let ok_or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

(* Every test that installs a sink must restore the null default —
   alcotest runs the other suites in the same process. *)
let with_memory_sink f =
  let mem, events = Obs.memory () in
  Obs.set_sink mem;
  Fun.protect ~finally:(fun () -> Obs.set_sink Obs.null) (fun () -> f events)

(* The strip loop [kk] of a cache-blocked derivation as the pipeline
   handed it to distribution (after the index-set split: the
   concatenated bodies of the two distributed loops), with the
   pipeline's universal facts for an N x N kernel blocked by KS, and the
   two groups it distributed [kk] into. *)
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
      let n = List.length head.body and m = List.length tail.body in
      ( ctx,
        { head with body = head.body @ tail.body },
        [ List.init n Fun.id; List.init m (fun i -> n + i) ] )
  | _ -> Alcotest.fail "unexpected blocked shape"

(* Interpreter equivalence of a kernel against a transformed block. *)
let equivalent ?tol ?(extra = []) kernel block ~bindings ~seed =
  match Kernel_def.equivalent ?tol ~extra kernel block ~bindings ~seed with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* Evaluate an integer expression with an assoc environment. *)
let eval_expr env e =
  Expr.eval
    (fun v ->
      match List.assoc_opt v env with
      | Some n -> n
      | None -> Alcotest.failf "unbound %s" v)
    (fun name _ -> Alcotest.failf "array %s" name)
    e

(* A small environment with one 1-D array for interpreter tests. *)
let env_1d ?(n = 16) name =
  let env = Env.create () in
  Env.add_farray env name [ (1, n) ];
  Env.set_iscalar env "N" n;
  env

let run_block env block = Exec.run env block

(* Compare two runs of blocks from identical environments. *)
let same_result ?tol ~make env_to_block1 env_to_block2 =
  let e1 = make () and e2 = make () in
  run_block e1 (env_to_block1 ());
  run_block e2 (env_to_block2 ());
  match Env.diff ?tol e1 e2 with
  | None -> ()
  | Some m -> Alcotest.fail m
