type trace_step = { name : string; detail : string; after : Stmt.t list }
type 'a traced = { result : 'a; steps : trace_step list }

let ( let* ) = Result.bind

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

(* ------------------------------------------------------------------ *)
(* Block LU derivation (§5.1 / §5.2)                                   *)
(* ------------------------------------------------------------------ *)

let find_loop_value block target =
  List.find_opt
    (fun ((_ : Stmt.path), (l : Stmt.loop)) -> l == target)
    (Stmt.find_loops block)

(* Universally valid facts about the strip-mined kernel: positive problem
   and block sizes, plus the bounds of the blocked outer loop and of the
   strip loop (in particular [KK <= K + KS - 1], which bound
   simplification and section disjointness rely on). *)
let universal_ctx ~block_size_var (outer : Stmt.loop) (strip : Stmt.loop) =
  let ctx = Symbolic.empty in
  let ctx = Symbolic.assume_pos ctx block_size_var in
  let ctx =
    List.fold_left Symbolic.assume_pos ctx
      (Ir_util.symbolic_params [ Stmt.Loop outer ])
  in
  List.fold_left Symbolic.assume_nonneg ctx
    (Symbolic.facts (Symbolic.of_loop_context [ outer; strip ]))

(* Planning facts: additionally assume the current block is full and not
   the last one ([K + KS <= hi]).  Sound to use for *choosing* the split
   point only: the emitted split is correct for ragged or final blocks
   because every generated bound keeps its MIN/MAX guard, and
   distribution legality is re-checked under the universal facts. *)
let planning_ctx ~block_size_var (outer : Stmt.loop) ctx =
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
   attempt distribution of [kk] into [prefix stmts] ++ [last stmt]. *)
let distribute_split ~ctx ~ignore_dep_of (kk : Stmt.loop)
    (plan : Index_set_split.split_plan) =
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
          ~ignore_dep:(ignore_dep_of ctx kk') kk' ~groups:[ head; tail ]

(* Try one preventing dependence: plan a split and distribute it.  Many
   dependences plan the same split (split loop, split point), and a
   repeat would rebuild the same dependence graph to get the same
   answer, so [tried] keeps each distinct split's outcome for the rest
   of the search. *)
let try_dep ~ctx ~ctx_plan ~ignore_dep_of ~tried (kk : Stmt.loop)
    (dep : Dependence.t) =
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
          let outcome = distribute_split ~ctx ~ignore_dep_of kk plan in
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

let derive ~block_size_var ~ignore_dep_of (l : Stmt.loop) =
  Obs.span ~cat:"driver" "blocker.derive"
    ~args:[ ("loop", Obs.Str l.index); ("block_size", Obs.Str block_size_var) ]
  @@ fun () ->
  let steps = ref [] in
  let record name detail after =
    Obs.instant ~cat:"driver" ~args:[ ("detail", Obs.Str detail) ] name;
    steps := { name; detail; after } :: !steps
  in
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
  let ctx = universal_ctx ~block_size_var stripped kk in
  let ctx_plan = planning_ctx ~block_size_var stripped ctx in
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
          match try_dep ~ctx ~ctx_plan ~ignore_dep_of ~tried kk dep with
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
    Ok { result; steps = List.rev !steps }

let block_lu ~block_size_var l =
  derive ~block_size_var ~ignore_dep_of:(fun _ _ _ -> false) l

let block_lu_pivot ~block_size_var l =
  derive ~block_size_var
    ~ignore_dep_of:(fun ctx kk dep -> Commutativity.may_ignore ~ctx kk dep)
    l


(* ------------------------------------------------------------------ *)
(* Trapezoidal / rhomboidal blocking (§3.2)                            *)
(* ------------------------------------------------------------------ *)

(* After MIN/MAX removal, classify each region's inner-loop bounds and
   apply the matching unroll-and-jam shape. *)
let unroll_region ~ctx ~factor (s : Stmt.t) =
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

let block_trapezoid ~ctx ~factor (l : Stmt.loop) =
  Obs.span ~cat:"driver" "blocker.trapezoid"
    ~args:[ ("loop", Obs.Str l.index); ("factor", Obs.Int factor) ]
  @@ fun () ->
  let steps = ref [] in
  let record name detail after =
    Obs.instant ~cat:"driver" ~args:[ ("detail", Obs.Str detail) ] name;
    steps := { name; detail; after } :: !steps
  in
  let* regions = Split_minmax.remove_all l in
  record "index-set-split"
    (Printf.sprintf "MIN/MAX removal split the loop into %d region(s)"
       (List.length regions))
    regions;
  let* blocked =
    List.fold_right
      (fun region acc ->
        let* acc = acc in
        match unroll_region ~ctx ~factor region with
        | Ok stmts -> Ok (stmts @ acc)
        | Error _ ->
            (* A region the unroller cannot handle stays as it is —
               partial blocking, as in the paper. *)
            Ok (region :: acc))
      regions (Ok [])
  in
  record "unroll-and-jam"
    (Printf.sprintf "each region register-blocked by %d" factor)
    blocked;
  Ok { result = blocked; steps = List.rev !steps }

(* ------------------------------------------------------------------ *)
(* Block LU "2+": register blocking on top of the cache blocking       *)
(* ------------------------------------------------------------------ *)

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

(* Shared "+" tail: register-block the trailing update of an already
   cache-blocked LU-shaped kernel (with or without pivoting) and run
   scalar replacement over every innermost loop.  [label] names the
   paper's variant in the trace. *)
let opt_tail ~block_size_var ~factor ~label { result; steps } =
  let steps = ref (List.rev steps) in
  let record name detail after =
    Obs.instant ~cat:"driver" ~args:[ ("detail", Obs.Str detail) ] name;
    steps := { name; detail; after } :: !steps
  in
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
  (* Facts valid inside the tail nest: positive parameters plus the K
     and J loop bounds, under which the strip loop's MIN bound loses its
     [I - 1] arm in the rectangular region. *)
  let base_ctx =
    let ctx = Symbolic.assume_pos Symbolic.empty block_size_var in
    List.fold_left Symbolic.assume_pos ctx
      (Ir_util.symbolic_params [ result ])
  in
  let tail_ctx = Symbolic.with_loops base_ctx [ outer; tail_j ] in
  let* { result = regions; steps = tsteps } =
    block_trapezoid ~ctx:tail_ctx ~factor i_loop
  in
  List.iter (fun (st : trace_step) -> record st.name st.detail st.after) tsteps;
  let full =
    Stmt.Loop { outer with body = [ head; Stmt.Loop { tail_j with body = regions } ] }
  in
  let full, nrep = scalar_replace_all ~ctx:base_ctx [ full ] in
  let* full =
    match full with [ s ] -> Ok s | _ -> Error "scalar replacement changed arity"
  in
  record "scalar-replacement"
    (Printf.sprintf "%d innermost loop(s) register-promoted" nrep)
    [ full ];
  record "result"
    (Printf.sprintf "register-blocked kernel (the paper's %s)" label)
    [ full ];
  Ok { result = full; steps = List.rev !steps }

let block_lu_opt ~block_size_var ~factor (l : Stmt.loop) =
  Obs.span ~cat:"driver" "blocker.block_lu_opt"
    ~args:[ ("loop", Obs.Str l.index); ("factor", Obs.Int factor) ]
  @@ fun () ->
  let* traced = block_lu ~block_size_var l in
  opt_tail ~block_size_var ~factor ~label:"2+" traced

let block_lu_pivot_opt ~block_size_var ~factor (l : Stmt.loop) =
  Obs.span ~cat:"driver" "blocker.block_lu_pivot_opt"
    ~args:[ ("loop", Obs.Str l.index); ("factor", Obs.Int factor) ]
  @@ fun () ->
  let* traced = block_lu_pivot ~block_size_var l in
  opt_tail ~block_size_var ~factor ~label:"1+" traced

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
