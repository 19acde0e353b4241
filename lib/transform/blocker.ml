type trace_step = Givens_opt.trace_step = {
  name : string;
  detail : string;
  after : Stmt.t list;
}

type 'a traced = 'a Givens_opt.traced = { result : 'a; steps : trace_step list }

let ( let* ) = Result.bind

(* Every kernel blocks by the one symbolic block size and
   register-blocks by the one unroll factor. *)
let block_size_var = "KS"
let factor = 4

(* A step's trace: [record] emits an instant and keeps the step;
   [steps ()] gives them back in order. *)
let recorder () =
  let steps = ref [] in
  let record name detail after =
    Obs.instant ~cat:"driver" ~args:[ ("detail", Obs.Str detail) ] name;
    steps := { name; detail; after } :: !steps
  in
  (record, fun () -> List.rev !steps)

(* A traced result is one statement: several go in a one-trip loop. *)
let one_statement = function
  | [ s ] -> s
  | block -> Stmt.loop "ONE_" (Expr.Int 1) (Expr.Int 1) block

(* ------------------------------------------------------------------ *)
(* Strip-mine-and-interchange (§2.3, §3.1)                             *)
(* ------------------------------------------------------------------ *)

let rec sink levels (strip : Stmt.loop) =
  if levels = 0 then Ok (Stmt.Loop strip)
  else
    let* outer = Interchange.triangular strip in
    match outer.body with
    | [ Stmt.Loop strip' ] ->
        let* sunk = sink (levels - 1) strip' in
        Ok (Stmt.Loop { outer with body = [ sunk ] })
    | _ -> Error "interchange did not produce a nested pair"

let strip_mine_and_interchange ~block_size ~new_index ~levels (l : Stmt.loop) =
  let* stripped = Strip_mine.apply ~block_size ~new_index l in
  match stripped.body with
  | [ Stmt.Loop strip ] ->
      let* sunk = sink levels strip in
      Ok { stripped with body = [ sunk ] }
  | _ -> Error "strip mining did not produce a strip loop"

(* The facts a kernel's parameters satisfy: [p >= lo] for each
   [(p, lo)], [lo] affine in the other parameters.  Built afresh for each derivation: a context's proof
   cache belongs to the domain that first queried it, and serve lanes
   derive concurrently. *)
let facts_ctx facts =
  List.fold_left
    (fun ctx (p, lo) -> Symbolic.assume_ge ctx (Affine.var p) lo)
    Symbolic.empty facts

(* ------------------------------------------------------------------ *)
(* Step 1: cache blocking (§5.1 / §5.2)                                *)
(* ------------------------------------------------------------------ *)

let find_loop_value block target =
  List.find_opt
    (fun ((_ : Stmt.path), (l : Stmt.loop)) -> l == target)
    (Stmt.find_loops block)

(* Universally valid facts about the strip-mined kernel: the kernel's
   facts plus the bounds of the blocked outer loop and of the strip
   loop (in particular [KK <= K + KS - 1], which bound simplification
   and section disjointness rely on). *)
let universal_ctx ctx (outer : Stmt.loop) (strip : Stmt.loop) =
  List.fold_left Symbolic.assume_nonneg ctx
    (Symbolic.facts (Symbolic.of_loop_context [ outer; strip ]))

(* Planning facts: additionally assume the current block is full and not
   the last one ([K + KS <= hi]).  Sound to use for *choosing* the split
   point only: the emitted split is correct for ragged or final blocks
   because every generated bound keeps its MIN/MAX guard, and
   distribution legality is re-checked under the universal facts. *)
let planning_ctx (outer : Stmt.loop) ctx =
  match Affine.of_expr outer.hi with
  | Some hi ->
      let kks =
        Affine.add (Affine.var outer.index) (Affine.var block_size_var)
      in
      Symbolic.assume_le ctx kks hi
  | None -> ctx

let split_candidates_of (dep : Dependence.t) (kk : Stmt.loop) =
  let inner_loops (a : Ir_util.access) =
    List.filter (fun (l : Stmt.loop) -> not (String.equal l.index kk.index)) a.loops
  in
  inner_loops dep.source @ inner_loops dep.sink

(* Apply a planned split of a loop in [kk]'s body, simplify bounds and
   attempt distribution of [kk] into [prefix stmts] ++ [last stmt].
   A dependence the split would reverse may still be ignored where FSA
   proves the two statements commute (§5.2); distribution asks only
   about those, so a kernel without them never reaches the prover. *)
let distribute_split ~ctx (kk : Stmt.loop) (plan : Index_set_split.split_plan) =
  match find_loop_value kk.body plan.loop with
  | None -> Error ("loop " ^ plan.loop.index ^ " not found in the strip body")
  | Some (path, target) ->
      let parts = Index_set_split.at_point target plan.point in
      let body' = Stmt.replace_at kk.body path parts in
      let body' = Simplify_bounds.block ~ctx body' in
      let kk' = { kk with body = body' } in
      (* The target may be nested: the affected top-level statement is
         the head of [path].  After the splice, the first half of the
         split sits at index [top] and the second half at [top + 1]; the
         head group is everything up to and including the first half. *)
      let top =
        match path with
        | Stmt.I n :: _ -> n
        | _ -> 0
      in
      let n = List.length body' in
      if top + 1 >= n then Error "split did not create a tail statement"
      else
        let head = List.init (top + 1) (fun i -> i) in
        let tail = List.init (n - top - 1) (fun i -> top + 1 + i) in
        Distribution.apply_with_override ~ctx
          ~ignore_dep:(Commutativity.may_ignore ~ctx kk') kk'
          ~groups:[ head; tail ]

(* Try one preventing dependence: plan a split and distribute it.  Many
   dependences plan the same split (split loop, split point), and a
   repeat would rebuild the same dependence graph to get the same
   answer, so [tried] keeps each distinct split's outcome for the rest
   of the search. *)
let try_dep ~ctx ~ctx_plan ~tried (kk : Stmt.loop) (dep : Dependence.t) =
  let* plan =
    Index_set_split.procedure ~ctx:ctx_plan ~source:dep.source ~sink:dep.sink
      ~split_candidates:(split_candidates_of dep kk)
  in
  if not plan.conflict_first then
    Error "only conflict-in-first-part splits are used by this driver"
  else
    let same ((loop, point), _) =
      loop == plan.loop && Expr.equal point plan.point
    in
    let outcome =
      match List.find_opt same !tried with
      | Some (_, outcome) -> outcome
      | None ->
          let outcome = distribute_split ~ctx kk plan in
          tried := ((plan.loop, plan.point), outcome) :: !tried;
          outcome
    in
    Result.map (fun loops -> (plan, loops)) outcome

let preventing_deps ~ctx (kk : Stmt.loop) =
  let g = Ddg.build ~ctx kk in
  let multi = List.filter (fun comp -> List.length comp > 1) g.sccs in
  List.filter_map
    (fun (e : Ddg.edge) ->
      if
        e.from_stmt <> e.to_stmt
        && List.exists
             (fun comp -> List.mem e.from_stmt comp && List.mem e.to_stmt comp)
             multi
      then Some e.dep
      else None)
    g.edges

(* Interchange the strip loop of the distributed tail nest to the
   innermost position: sink it one level at a time (rectangular or
   triangular per level, as the bounds dictate) until no perfectly
   nested loop remains below it.  For LU this is rectangular past the
   split column loop and triangular past the row loop (Figure 6); for a
   depth-2 tail such as triangular solve, one rectangular swap. *)
let interchange_tail (tail : Stmt.t) =
  let rec sink_all (strip : Stmt.loop) =
    match Interchange.triangular strip with
    | Error _ -> Stmt.Loop strip
    | Ok outer -> (
        match outer.body with
        | [ Stmt.Loop inner ] -> Stmt.Loop { outer with body = [ sink_all inner ] }
        | _ -> Stmt.Loop outer)
  in
  match tail with
  | Stmt.Loop kk_tail -> (
      match sink_all kk_tail with
      | Stmt.Loop sunk when sunk == kk_tail ->
          Error "the strip loop could not be interchanged inward"
      | sunk -> Ok sunk)
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ ->
      Error "distributed tail is not a loop"

(* Strip-mine [l] by KS, then block the recurrence the strip loop
   carries: IndexSetSplit finds the split, distribution separates the
   head from the deferred update, and interchange sinks the strip loop
   into the update nest (Figures 6 and 8). *)
let cache_block ~ctx (l : Stmt.loop) =
  let record, steps = recorder () in
  let kk_index =
    Ir_util.fresh
      ~used:(Ir_util.index_vars [ Stmt.Loop l ] @ Ir_util.symbolic_params [ Stmt.Loop l ])
      (l.index ^ l.index)
  in
  let* stripped =
    Strip_mine.apply ~block_size:(Expr.var block_size_var) ~new_index:kk_index l
  in
  record "strip-mine"
    (Printf.sprintf "strip-mine %s by %s (strip index %s)" l.index block_size_var
       kk_index)
    [ Stmt.Loop stripped ];
  let* kk =
    match stripped.body with
    | [ Stmt.Loop kk ] -> Ok kk
    | _ -> Error "strip mining did not produce a strip loop"
  in
  let ctx = universal_ctx ctx stripped kk in
  let ctx_plan = planning_ctx stripped ctx in
  (* The point of the exercise: plain distribution must fail. *)
  let* () =
    match Distribution.auto ~ctx kk with
    | Error reason ->
        record "recurrence" ("distribution prevented: " ^ reason) [ Stmt.Loop kk ];
        Ok ()
    | Ok _ -> Error "expected a preventing recurrence; the kernel distributes as-is"
  in
  let deps = preventing_deps ~ctx kk in
  if deps = [] then Error "no preventing dependences found"
  else
    let tried = ref [] in
    let rec search errs = function
      | [] ->
          Error
            ("no preventing dependence yields a usable split: "
            ^ String.concat "; " (List.sort_uniq String.compare errs))
      | dep :: rest -> (
          match try_dep ~ctx ~ctx_plan ~tried kk dep with
          | Ok (plan, loops) -> Ok (dep, plan, loops)
          | Error e -> search (e :: errs) rest)
    in
    let* dep, plan, loops = search [] deps in
    record "index-set-split"
      (Printf.sprintf "split %s at %s (from %s)" plan.loop.index
         (Expr.to_string plan.point)
         (Dependence.to_string dep))
      loops;
    let* head, tail =
      match loops with
      | [ head; tail ] -> Ok (head, tail)
      | _ -> Error "expected exactly two distributed loops"
    in
    record "distribute" "strip loop distributed around the split" loops;
    let* tail' = interchange_tail tail in
    record "interchange" "strip loop moved innermost in the tail nest" [ tail' ];
    let result = Stmt.Loop { stripped with body = [ head; tail' ] } in
    record "result" "blocked kernel" [ result ];
    Ok { result; steps = steps () }

(* The step applies where the top loop's body is a recurrence: [Ok None]
   when it is not (a body of one statement never is, so it needs no
   dependence graph), [Error] when it is and cannot be blocked. *)
let cache_blocking ~ctx (l : Stmt.loop) =
  if List.compare_length_with l.body 1 <= 0 then Ok None
  else
    Obs.span ~cat:"driver" "blocker.derive"
      ~args:[ ("loop", Obs.Str l.index); ("block_size", Obs.Str block_size_var) ]
    @@ fun () ->
    if Option.is_some (Ddg.distribution_order (Ddg.build ~ctx l)) then Ok None
    else Result.map Option.some (cache_block ~ctx l)

(* ------------------------------------------------------------------ *)
(* Step 2: IF-inspection (§4, §5.4)                                    *)
(* ------------------------------------------------------------------ *)

(* Inspect each loop whose body is one IF without an ELSE, the last
   first, so the paths of the loops before it stay valid.  Where the
   plain inspector refuses (the computation writes what the guard
   reads), the fused form is tried on the sweep around the loop, if the
   loop is all that sweep holds; its own section check decides. *)
let inspect ~ctx stmt =
  let guarded (_, (l : Stmt.loop)) =
    match l.body with [ Stmt.If (_, _, []) ] -> true | _ -> false
  in
  let sites = List.rev (List.filter guarded (Stmt.find_loops [ stmt ])) in
  let site (block, steps, refusals) (path, (_ : Stmt.loop)) =
    match Stmt.get_at block path with
    | Stmt.Loop g -> (
        let names = If_inspection.names_in block ~prefix:g.index in
        match If_inspection.apply ~names g with
        | Ok stmts ->
            let block = Stmt.replace_at block path stmts in
            let detail =
              Printf.sprintf
                "the inspector records where the guard of %s holds; %s runs \
                 over those ranges"
                g.index g.index
            in
            let step = { name = "if-inspection"; detail; after = block } in
            (block, steps @ [ step ], refusals)
        | Error e -> (
            let sweep = List.filteri (fun i _ -> i < List.length path - 1) path in
            match if sweep = [] then [] else [ Stmt.get_at block sweep ] with
            | [ Stmt.Loop ({ body = [ _ ]; _ } as l) ] -> (
                match Givens_opt.optimize ~ctx l with
                | Ok { result; steps = fused } ->
                    (Stmt.replace_at block sweep [ result ], steps @ fused, refusals)
                | Error f ->
                    let why = Printf.sprintf "%s: %s; fused: %s" g.index e f in
                    (block, steps, refusals @ [ why ]))
            | _ -> (block, steps, refusals @ [ g.index ^ ": " ^ e ])))
    | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> (block, steps, refusals)
  in
  match List.fold_left site ([ stmt ], [], []) sites with
  | _ when sites = [] -> Error "no loop is guarded by an IF"
  | _, [], refusals -> Error (String.concat "; " refusals)
  | block, steps, _ -> Ok { result = one_statement block; steps }

(* ------------------------------------------------------------------ *)
(* Step 3: register blocking (§3.2; Tables 3-4's "2+" and "1+")        *)
(* ------------------------------------------------------------------ *)

(* After MIN/MAX removal, classify each region's inner-loop bounds and
   apply the matching unroll-and-jam shape. *)
let unroll_region ~ctx (s : Stmt.t) =
  match s with
  | Stmt.Loop l -> (
      match l.body with
      | [ Stmt.Loop inner ] -> (
          let lo_dep = Expr.mentions l.index inner.lo in
          let hi_dep = Expr.mentions l.index inner.hi in
          match lo_dep, hi_dep with
          | true, true -> Unroll_and_jam.rhomboidal ~ctx ~factor l
          | true, false -> Unroll_and_jam.triangular ~factor l
          | false, true -> Unroll_and_jam.upper_triangular ~factor l
          | false, false -> Unroll_and_jam.rectangular ~factor l)
      | _ -> Error "region is not a perfect depth-2 nest")
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> Error "region is not a loop"

(* §3.2: remove the MIN/MAX bounds by index-set splitting, then apply
   the shape-matched unroll-and-jam to each region.  A region the
   unroller cannot handle stays as it is (partial blocking, as in the
   paper); if none can, the step does not apply. *)
let block_trapezoid ~ctx (l : Stmt.loop) =
  Obs.span ~cat:"driver" "blocker.trapezoid"
    ~args:[ ("loop", Obs.Str l.index); ("factor", Obs.Int factor) ]
  @@ fun () ->
  let record, steps = recorder () in
  let* regions = Split_minmax.remove_all l in
  record "index-set-split"
    (Printf.sprintf "MIN/MAX removal split the loop into %d region(s)"
       (List.length regions))
    regions;
  let blocked, unrolled, errors =
    List.fold_right
      (fun region (acc, n, errors) ->
        match unroll_region ~ctx region with
        | Ok stmts -> (stmts @ acc, n + 1, errors)
        | Error e -> (region :: acc, n, e :: errors))
      regions ([], 0, [])
  in
  if unrolled = 0 then
    Error
      (Printf.sprintf "no region of %s unrolls: %s" l.index
         (String.concat "; " (List.sort_uniq String.compare errors)))
  else begin
    record "unroll-and-jam"
      (Printf.sprintf "each region register-blocked by %d" factor)
      blocked;
    Ok { result = blocked; steps = steps () }
  end

(* Innermost loops of [block], deepest-first, each with the loops
   strictly enclosing it (for context facts). *)
let innermost_sites block =
  let all = Stmt.find_loops block in
  let is_prefix q path =
    List.length q < List.length path
    && q = List.filteri (fun i _ -> i < List.length q) path
  in
  let innermost (path, _) =
    not (List.exists (fun (q, _) -> is_prefix path q) all)
  in
  List.rev
    (List.filter_map
       (fun ((path, l) as site) ->
         if innermost site then
           let ancestors =
             List.filter_map
               (fun (q, l') -> if is_prefix q path then Some l' else None)
               all
           in
           Some (path, l, ancestors)
         else None)
       all)

(* Scalar replacement over every innermost loop of [block].  Sites are
   rewritten deepest-first so remaining paths stay valid; references the
   safety analysis cannot clear are simply left in place. *)
let scalar_replace_all ~ctx block =
  let replaced = ref 0 in
  let block =
    List.fold_left
      (fun block (path, (l : Stmt.loop), ancestors) ->
        let site_ctx = Symbolic.with_loops ctx ancestors in
        let cases = Symbolic.with_loops_cases ctx ancestors in
        if Scalar_replacement.replaceable ~cases ~ctx:site_ctx l = [] then block
        else
          match Scalar_replacement.apply ~cases ~ctx:site_ctx l with
          | Ok stmts ->
              incr replaced;
              Stmt.replace_at block path stmts
          | Error _ -> block)
      block (innermost_sites block)
  in
  (block, !replaced)

(* Register-block the trailing update of a cache-blocked kernel
   ([block_trapezoid] on its row loop, under the K and J loop bounds)
   and run scalar replacement over every innermost loop, including
   those under the pivot search's guard. *)
let opt_tail ~ctx result =
  let record, steps = recorder () in
  let* outer, head, tail_j =
    match result with
    | Stmt.Loop ({ body = [ head; Stmt.Loop tail_j ]; _ } as outer) ->
        Ok (outer, head, tail_j)
    | _ -> Error "blocked kernel does not have the head/tail shape"
  in
  let* i_loop =
    match tail_j.body with
    | [ Stmt.Loop i_loop ] -> Ok i_loop
    | _ -> Error "tail column loop is not a perfect nest"
  in
  (* Inside the tail nest the K and J loop bounds hold too, under which
     the strip loop's MIN bound loses its [I - 1] arm in the
     rectangular region. *)
  let tail_ctx = Symbolic.with_loops ctx [ outer; tail_j ] in
  let* { result = regions; steps = tsteps } = block_trapezoid ~ctx:tail_ctx i_loop in
  List.iter (fun (st : trace_step) -> record st.name st.detail st.after) tsteps;
  let full =
    Stmt.Loop { outer with body = [ head; Stmt.Loop { tail_j with body = regions } ] }
  in
  let full, nrep = scalar_replace_all ~ctx [ full ] in
  let* full =
    match full with [ s ] -> Ok s | _ -> Error "scalar replacement changed arity"
  in
  record "scalar-replacement"
    (Printf.sprintf "%d innermost loop(s) register-promoted" nrep)
    [ full ];
  record "result" "register-blocked kernel" [ full ];
  Ok { result = full; steps = steps () }

(* Register blocking of a kernel no earlier step blocked: its own
   nest. *)
let trapezoid ~ctx = function
  | Stmt.Loop l ->
      let* { result; steps } = block_trapezoid ~ctx l in
      Ok { result = one_statement result; steps }
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> Error "the kernel is not a loop"

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let auto ~register ~facts block =
  let* l =
    match block with
    | [ Stmt.Loop l ] -> Ok l
    | _ -> Error "the kernel is not one loop nest"
  in
  let ctx = facts_ctx facts in
  let decide step ~applied ?(skipped = not applied) reason =
    Obs.decision ~transform:("pipeline." ^ step) ~target:l.index ~applied ~reason
      ~evidence:(if skipped then [ ("skipped", Obs.Bool true) ] else [])
      ()
  in
  let reasons = ref [] in
  (* One decision per step; a step that applies extends the trace. *)
  let step name (t : Stmt.t traced) = function
    | Ok (s : Stmt.t traced) ->
        decide name ~applied:true "legal";
        Some { result = s.result; steps = t.steps @ s.steps }
    | Error reason ->
        decide name ~applied:false reason;
        reasons := !reasons @ [ name ^ ": " ^ reason ];
        None
  in
  match cache_blocking ~ctx l with
  | Error e ->
      (* A recurrence this step cannot block is the answer: no later
         step makes a block algorithm of it. *)
      decide "cache-blocking" ~applied:false ~skipped:false e;
      decide "if-inspection" ~applied:false "cache blocking refused the recurrence";
      decide "register-blocking" ~applied:false "cache blocking refused the recurrence";
      Error e
  | Ok cached -> (
      let t0 = { result = Stmt.Loop l; steps = [] } in
      let none =
        Printf.sprintf "no recurrence: the body of %s distributes as it is" l.index
      in
      let cached = step "cache-blocking" t0 (Option.to_result cached ~none) in
      let t1 = Option.value cached ~default:t0 in
      let inspected = step "if-inspection" t1 (inspect ~ctx t1.result) in
      let t2 = Option.value inspected ~default:t1 in
      let registered =
        step "register-blocking" t2
          (if not register then Error "not requested"
           else if Option.is_some cached then opt_tail ~ctx t2.result
           else trapezoid ~ctx t2.result)
      in
      match (cached, inspected, registered) with
      | None, None, None -> Error ("nothing to block: " ^ String.concat "; " !reasons)
      | _ -> Ok (Option.value registered ~default:t2))

(* ------------------------------------------------------------------ *)
(* Block-size choice                                                   *)
(* ------------------------------------------------------------------ *)

let choose_block_size ~(machine : Arch.t) ?(sweep = []) () =
  match sweep with
  | [] ->
      let b = Arch.block_size machine () in
      Obs.decision ~transform:"block-size" ~target:machine.Arch.name
        ~applied:true
        ~reason:"heuristic: three working-set blocks in a third of the cache"
        ~evidence:[ ("block", Obs.Int b) ]
        ();
      b
  | sweep ->
      (* Measured evidence beats the footprint heuristic: take the block
         size with the fewest simulated L1 misses (ties to the larger
         block — fewer strip loops for the same misses). *)
      let best =
        List.fold_left
          (fun (bb, bm) (b, m) ->
            if m < bm || (m = bm && b > bb) then (b, m) else (bb, bm))
          (List.hd sweep) (List.tl sweep)
      in
      let heuristic = Arch.block_size machine () in
      Obs.decision ~transform:"block-size" ~target:machine.Arch.name
        ~applied:true
        ~reason:
          (Printf.sprintf "profile sweep over %d block sizes cites %d misses"
             (List.length sweep) (snd best))
        ~evidence:
          (("block", Obs.Int (fst best))
          :: ("heuristic_block", Obs.Int heuristic)
          :: List.map
               (fun (b, m) -> (Printf.sprintf "misses_b%d" b, Obs.Int m))
               sweep)
        ();
      fst best
