type t = {
  block : Stmt.t list;
  bindings : (string * int) list;
  fill_seed : int;
}

type profile = {
  depth : int;
  rect : bool;
  triangular : bool;
  trapezoidal : bool;
  guarded : bool;
  straightline : bool;
  uses_temp : bool;
}

let farrays = [ ("A", 1); ("B", 1); ("C", 2); ("D", 2); ("G", 1) ]
let writable = [ ("A", 1); ("B", 1); ("C", 2); ("D", 2) ]
let guard_array = "G"
let temp_scalar = "T"

(* Every dimension of a program's arrays is declared over the size
   parameters its loop bounds use (P, the subset of [N], [M] the block
   mentions): [-12 - sum P .. 4 (sum P + 6)].  In-bounds proofs can then
   relate subscripts to the extents, since the emitter assumes exactly
   the block's parameters positive.  Literals stay below
   [Blueprint.hoist_threshold] (24 is spelled [2 * (2 * (... + 2 * 3))]):
   a hoisted literal would be a parameter the prover knows nothing about.
   Index values lie in [-1, 9] and subscripts between [i1 - i2 - 2]
   (with [i1 >= 0]) and [2*i + 2], so [-11, 20] holds every element a
   program, or any transformation of it (which runs the same
   iterations), can reach at any binding. *)
let shape p rank =
  let open Expr in
  let sum =
    List.fold_left
      (fun acc v -> if v = "N" || v = "M" then Bin (Add, acc, Var v) else acc)
      (Int 0) (Ir_util.symbolic_params p.block)
  in
  let extent =
    ( Bin (Sub, Int (-12), sum),
      Bin (Mul, Int 2, Bin (Mul, Int 2, Bin (Add, sum, Bin (Mul, Int 2, Int 3))))
    )
  in
  List.init rank (fun _ -> extent)

let dims p rank =
  let ev = Expr.eval (fun v -> List.assoc v p.bindings) (fun _ _ -> 0) in
  List.map (fun (lo, hi) -> (ev lo, ev hi)) (shape p rank)

let indices = [| "I"; "J"; "K" |]

open QCheck2.Gen

(* ---- expressions -------------------------------------------------- *)

(* Affine subscript over the in-scope indices (outermost first).  The
   first alternatives are the simplest, so shrinking walks toward a
   constant subscript. *)
let gen_affine scope =
  let n = List.length scope in
  let* kind = int_range 0 (if n >= 2 then 3 else 2) in
  match kind with
  | 0 ->
      let* c = int_range 1 4 in
      pure (Expr.int c)
  | 1 ->
      let* vi = int_range 0 (n - 1) in
      let* c0 = int_range (-2) 2 in
      pure Expr.(add (var (List.nth scope vi)) (int c0))
  | 2 ->
      let* vi = int_range 0 (n - 1) in
      let* c1 = int_range 1 2 in
      let* c0 = int_range (-2) 2 in
      pure Expr.(add (mul (int c1) (var (List.nth scope vi))) (int c0))
  | _ ->
      (* coupled: i1 + i2 + c or i1 - i2 + c *)
      let* vi = int_range 0 (n - 2) in
      let* sign = int_range 0 1 in
      let* c0 = int_range (-2) 2 in
      let a = Expr.var (List.nth scope vi)
      and b = Expr.var (List.nth scope (vi + 1)) in
      pure
        (if sign = 0 then Expr.(add (add a b) (int c0))
         else Expr.(add (sub a b) (int c0)))

let gen_simple_sub scope =
  let* vi = int_range 0 (List.length scope - 1) in
  let* c0 = int_range (-1) 1 in
  pure Expr.(add (var (List.nth scope vi)) (int c0))

let gen_subs scope rank =
  if rank = 1 then map (fun s -> [ s ]) (gen_affine scope)
  else
    let* s1 = gen_simple_sub scope in
    let* s2 = gen_simple_sub scope in
    pure [ s1; s2 ]

let gen_read scope =
  let* ai = int_range 0 (List.length farrays - 1) in
  let name, rank = List.nth farrays ai in
  let* subs = gen_subs scope rank in
  pure (Stmt.Ref (name, subs))

let gen_rhs scope =
  let* kind = int_range 0 3 in
  match kind with
  | 0 -> gen_read scope
  | 1 ->
      let* r = gen_read scope in
      let* c = int_range 1 9 in
      pure (Stmt.Fbin (Stmt.FAdd, r, Stmt.Fconst (float_of_int c)))
  | 2 ->
      let* opk = int_range 0 2 in
      let op = List.nth [ Stmt.FAdd; Stmt.FSub; Stmt.FMul ] opk in
      let* r1 = gen_read scope in
      let* r2 = gen_read scope in
      pure (Stmt.Fbin (op, r1, r2))
  | _ ->
      let* r = gen_read scope in
      pure (Stmt.Fbin (Stmt.FMul, r, Stmt.Fconst 0.5))

(* ---- statements --------------------------------------------------- *)

let gen_assign scope =
  let* ai = int_range 0 (List.length writable - 1) in
  let name, rank = List.nth writable ai in
  let* subs = gen_subs scope rank in
  let* rhs = gen_rhs scope in
  let* upd = int_range 0 2 in
  (* upd > 0 turns it into an update [X(s) = X(s) op rhs]: a recurrence
     when the subscript repeats across iterations. *)
  let rhs =
    match upd with
    | 0 -> rhs
    | 1 -> Stmt.Fbin (Stmt.FAdd, Stmt.Ref (name, subs), rhs)
    | _ -> Stmt.Fbin (Stmt.FMul, Stmt.Ref (name, subs), rhs)
  in
  pure (Stmt.Assign (name, subs, rhs))

(* T = rhs ; X(s) = T op X(s) — fodder for scalar expansion and for the
   scalar-interference safety checks. *)
let gen_scalar_pair scope =
  let* rhs = gen_rhs scope in
  let* ai = int_range 0 (List.length writable - 1) in
  let name, rank = List.nth writable ai in
  let* subs = gen_subs scope rank in
  let* opk = int_range 0 1 in
  let op = if opk = 0 then Stmt.FAdd else Stmt.FMul in
  pure
    [
      Stmt.Assign (temp_scalar, [], rhs);
      Stmt.Assign
        (name, subs, Stmt.Fbin (op, Stmt.Fvar temp_scalar, Stmt.Ref (name, subs)));
    ]

let gen_guard scope =
  let innermost = List.nth scope (List.length scope - 1) in
  let* kind = int_range 0 3 in
  match kind with
  | 0 ->
      let* s = gen_affine scope in
      pure (Stmt.Fcmp (Stmt.Ne, Stmt.Ref (guard_array, [ s ]), Stmt.Fconst 0.))
  | 1 ->
      let* c = int_range 1 2 in
      pure (Stmt.Icmp (Stmt.Le, Expr.var innermost, Expr.(sub (var "N") (int c))))
  | 2 -> pure (Stmt.Icmp (Stmt.Ge, Expr.var innermost, Expr.int 2))
  | _ ->
      (* guard on the scalar temporary: stresses the IF-inspection
         scalar-interference safety check *)
      pure (Stmt.Fcmp (Stmt.Ge, Stmt.Fvar temp_scalar, Stmt.Fconst 0.25))

(* §5.2 shape: IF-guarded element interchange of two rows of a 2-D
   array through the temporary — the partial-pivoting row-swap pattern.
   Exercises scalar replacement under disjunctive contexts and feeds
   the commutativity pass genuinely swap-like material. *)
let gen_swap_unit scope =
  let* ai = int_range 0 1 in
  let name = if ai = 0 then "C" else "D" in
  let* r1 = int_range 1 2 in
  let* r2k = int_range 0 (List.length scope - 1) in
  let* c0 = int_range (-1) 1 in
  let r1e = Expr.int r1 in
  let r2e = Expr.(add (var (List.nth scope r2k)) (int c0)) in
  let* s = gen_simple_sub scope in
  let* g = gen_guard scope in
  pure
    [
      Stmt.If
        ( g,
          [
            Stmt.Assign (temp_scalar, [], Stmt.Ref (name, [ r1e; s ]));
            Stmt.Assign (name, [ r1e; s ], Stmt.Ref (name, [ r2e; s ]));
            Stmt.Assign (name, [ r2e; s ], Stmt.Fvar temp_scalar);
          ],
          [] );
    ]

let gen_unit scope =
  let* k = int_range 0 6 in
  match k with
  | 0 | 1 | 2 -> map (fun s -> [ s ]) (gen_assign scope)
  | 3 -> gen_scalar_pair scope
  | 4 ->
      let* g = gen_guard scope in
      let* s = gen_assign scope in
      pure [ Stmt.If (g, [ s ], []) ]
  | 5 ->
      let* g = gen_guard scope in
      let* body = gen_scalar_pair scope in
      pure [ Stmt.If (g, body, []) ]
  | _ -> gen_swap_unit scope

let gen_body scope =
  let* nstmt = int_range 1 2 in
  let* units = list_repeat nstmt (gen_unit scope) in
  let stmts = List.concat units in
  let* whole_guard = int_range 0 4 in
  if whole_guard = 4 then
    let* g = gen_guard scope in
    pure [ Stmt.If (g, stmts, []) ]
  else pure stmts

(* ---- loop nests --------------------------------------------------- *)

let gen_indep_hi =
  let* k = int_range 0 2 in
  match k with
  | 0 -> pure (Expr.var "N")
  | 1 -> let* c = int_range 3 5 in pure (Expr.int c)
  | _ -> pure (Expr.var "M")

let gen_bounds ~level scope =
  if level = 0 then
    let* hi = gen_indep_hi in
    pure (Expr.int 1, hi)
  else
    let outer = Expr.var (List.nth scope (level - 1)) in
    let* shape = int_range 0 4 in
    match shape with
    | 0 ->
        let* lo = int_range 1 2 in
        let* hi = gen_indep_hi in
        pure (Expr.int lo, hi)
    | 1 ->
        (* triangular, lower bound tracks the outer index *)
        let* b = int_range (-1) 1 in
        let* hi = gen_indep_hi in
        pure (Expr.(add outer (int b)), hi)
    | 2 ->
        (* triangular, upper bound tracks the outer index *)
        let* b = int_range (-1) 1 in
        pure (Expr.int 1, Expr.(add outer (int b)))
    | 3 ->
        (* trapezoidal: MIN upper bound *)
        let* c = int_range 0 2 in
        pure (Expr.int 1, Expr.min_ (Expr.add outer (Expr.int c)) (Expr.var "N"))
    | _ ->
        (* trapezoidal: MAX lower bound *)
        let* c = int_range 0 2 in
        let* hi = gen_indep_hi in
        pure (Expr.max_ (Expr.sub outer (Expr.int c)) (Expr.int 1), hi)

let rec gen_levels ~depth ~level scope =
  if level = depth then gen_body scope
  else
    let idx = indices.(level) in
    let* lo, hi = gen_bounds ~level scope in
    let scope' = scope @ [ idx ] in
    let* inner = gen_levels ~depth ~level:(level + 1) scope' in
    let* pre_k = int_range 0 3 in
    let* body =
      if pre_k = 3 && level + 1 < depth then
        (* imperfect nest: one statement before the inner loop *)
        let* s = gen_assign scope' in
        pure (s :: inner)
      else pure inner
    in
    pure [ Stmt.Loop { Stmt.index = idx; lo; hi; step = Expr.int 1; body } ]

let mentions_temp block =
  List.exists
    (fun (a : Ir_util.access) -> String.equal a.array temp_scalar)
    (Ir_util.accesses block)

let gen =
  let* depth = int_range 1 3 in
  let* nest = gen_levels ~depth ~level:0 [] in
  let* n = int_range 1 7 in
  let* m = int_range 1 7 in
  let* ks = int_range 1 4 in
  let* fill_seed = int_range 0 999 in
  let block =
    (* [T] may be read (guards, update forms) before the first in-loop
       write; a preamble definition keeps the point program total. *)
    if mentions_temp nest then Stmt.Assign (temp_scalar, [], Stmt.Fconst 0.5) :: nest
    else nest
  in
  pure { block; bindings = [ ("N", n); ("M", m); ("KS", ks) ]; fill_seed }

(* ---- classification ----------------------------------------------- *)

let rec expr_has_minmax (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Var _ -> false
  | Expr.Bin (_, a, b) -> expr_has_minmax a || expr_has_minmax b
  | Expr.Min _ | Expr.Max _ -> true
  | Expr.Idx (_, subs) -> List.exists expr_has_minmax subs

let classify p =
  let loops = Stmt.find_loops p.block in
  let depth =
    List.fold_left
      (fun acc (path, _) ->
        let d =
          List.length
            (List.filter
               (fun (q, _) ->
                 List.length q < List.length path
                 && q = List.filteri (fun i _ -> i < List.length q) path)
               loops)
        in
        max acc (d + 1))
      0 loops
  in
  let has_if = ref false in
  Stmt.iter (function Stmt.If _ -> has_if := true | _ -> ()) p.block;
  let outer_mentioned (l : Stmt.loop) =
    (* a bound of some deeper loop mentions l's index *)
    List.exists
      (fun (_, (inner : Stmt.loop)) ->
        (not (inner == l))
        && (Expr.mentions l.index inner.lo || Expr.mentions l.index inner.hi))
      loops
  in
  let trapezoidal =
    List.exists
      (fun (_, (l : Stmt.loop)) -> expr_has_minmax l.lo || expr_has_minmax l.hi)
      loops
  in
  let triangular =
    List.exists
      (fun (_, (l : Stmt.loop)) ->
        outer_mentioned l
        &&
        (* count it triangular only when the tracking bound is MIN/MAX-free *)
        List.exists
          (fun (_, (inner : Stmt.loop)) ->
            (Expr.mentions l.index inner.lo && not (expr_has_minmax inner.lo))
            || (Expr.mentions l.index inner.hi && not (expr_has_minmax inner.hi)))
          loops)
      loops
  in
  let rect =
    List.length loops > 1
    && List.exists
         (fun (path, (l : Stmt.loop)) ->
           path <> [ Stmt.I 0 ] && path <> [ Stmt.I 1 ]
           (* non-top loop with bounds free of any enclosing index *)
           && (not (expr_has_minmax l.lo || expr_has_minmax l.hi))
           && List.for_all
                (fun (_, (outer : Stmt.loop)) ->
                  not
                    (Expr.mentions outer.index l.lo
                    || Expr.mentions outer.index l.hi))
                loops)
         loops
  in
  {
    depth;
    rect;
    triangular;
    trapezoidal;
    guarded = !has_if;
    straightline = not !has_if;
    uses_temp = mentions_temp p.block;
  }

let print p =
  Printf.sprintf "! bindings: %s   fill-seed %d\n%s"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.bindings))
    p.fill_seed
    (Stmt.block_to_string p.block)
