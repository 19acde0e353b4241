(* Structure/parameter split for the JIT: see blueprint.mli. *)

type t = {
  key : string;
  block : Stmt.t list;
  shapes : Emit.shapes;
  unsafe : bool;
  bindings : (string * int) list;
}

(* Constants below this threshold are structure, not size: unroll
   offsets, +-1 bound adjustments, steps and split points introduced by
   the transformations all stay literal so the key still distinguishes
   e.g. unroll-by-2 from unroll-by-4.  Everything >= the threshold is
   treated as a problem size and hoisted.  The threshold must be >= 1:
   Emit assumes hoisted parameters are positive when it proves accesses
   in bounds (and re-checks that at run time), so a hoisted binding must
   always satisfy the assumption. *)
let hoist_threshold = 4

(* ---- parameter naming -------------------------------------------- *)

(* Hoisted parameters are named [<prefix>1], [<prefix>2], ... in first-
   occurrence order.  The prefix is chosen so no name already used by
   the program starts with it, which makes every generated name fresh
   without consulting the used set again. *)
let pick_prefix used =
  let taken p = List.exists (fun u -> String.starts_with ~prefix:p u) used in
  let rec go p = if taken p then go (p ^ "X") else p in
  go "BP"

let used_names block shapes =
  let of_block b =
    List.map (fun (name, _, _) -> name) (Ir_util.arrays_of b)
    @ Ir_util.index_vars b
    @ Ir_util.symbolic_params b
  in
  let of_shapes =
    List.concat_map
      (fun (arr, dims) ->
        arr
        :: List.concat_map
             (fun (lo, hi) -> Expr.free_vars lo @ Expr.free_vars hi)
             dims)
      shapes
  in
  List.sort_uniq String.compare (of_block block @ of_shapes)

(* ---- hoisting ---------------------------------------------------- *)

type hoist_state = {
  prefix : string;
  mutable params : (int * string) list;  (* constant -> parameter, newest first *)
}

let param_for st k =
  match List.assoc_opt k st.params with
  | Some p -> p
  | None ->
      let p = st.prefix ^ string_of_int (List.length st.params + 1) in
      st.params <- (k, p) :: st.params;
      p

(* Replace every literal >= threshold in a size position by its
   parameter.  Value numbering is by constant: equal constants share one
   parameter, so relations the in-bounds prover needs (a loop bound
   equal to the declared shape extent) survive hoisting. *)
let rec hoist_expr st (e : Expr.t) : Expr.t =
  match e with
  | Expr.Int k when k >= hoist_threshold -> Expr.Var (param_for st k)
  | Expr.Int _ | Expr.Var _ -> e
  | Expr.Bin (op, a, b) -> Expr.Bin (op, hoist_expr st a, hoist_expr st b)
  | Expr.Min (a, b) -> Expr.Min (hoist_expr st a, hoist_expr st b)
  | Expr.Max (a, b) -> Expr.Max (hoist_expr st a, hoist_expr st b)
  | Expr.Idx _ -> e (* inspector-table reads are structure, keep intact *)

let rec hoist_cond st (c : Stmt.cond) : Stmt.cond =
  match c with
  | Stmt.Icmp (r, a, b) -> Stmt.Icmp (r, hoist_expr st a, hoist_expr st b)
  | Stmt.Fcmp _ -> c
  | Stmt.Not c -> Stmt.Not (hoist_cond st c)
  | Stmt.And (a, b) -> Stmt.And (hoist_cond st a, hoist_cond st b)
  | Stmt.Or (a, b) -> Stmt.Or (hoist_cond st a, hoist_cond st b)

(* Only size positions are rewritten: loop bounds, integer guard
   conditions, and the declared shapes.  Subscripts, steps and scalar
   arithmetic keep their literals — they are part of the loop structure
   (offsets of an unrolled group, strides), and hoisting them would only
   weaken the prover without improving reuse. *)
let rec hoist_stmt st (s : Stmt.t) : Stmt.t =
  match s with
  | Stmt.Loop l ->
      Stmt.Loop
        {
          l with
          lo = hoist_expr st l.lo;
          hi = hoist_expr st l.hi;
          body = List.map (hoist_stmt st) l.body;
        }
  | Stmt.If (c, a, b) ->
      Stmt.If
        (hoist_cond st c, List.map (hoist_stmt st) a, List.map (hoist_stmt st) b)
  | Stmt.Assign _ | Stmt.Iassign _ -> s

let hoist_shapes st shapes =
  List.map
    (fun (arr, dims) ->
      (arr, List.map (fun (lo, hi) -> (hoist_expr st lo, hoist_expr st hi)) dims))
    shapes

(* ---- the blueprint ------------------------------------------------ *)

let of_block ?(unsafe = true) ?(shapes = []) block =
  (* Canonical shape order: the assoc order callers pass is arbitrary
     and must not leak into the key. *)
  let shapes =
    List.sort (fun (a, _) (b, _) -> String.compare a b) shapes
  in
  let st = { prefix = pick_prefix (used_names block shapes); params = [] } in
  let nblock = List.map (hoist_stmt st) block in
  let nshapes = hoist_shapes st shapes in
  let bindings = List.rev_map (fun (k, p) -> (p, k)) st.params in
  (* The key digests the structure itself, not its printed form: the
     printer does not show a name's kind, so [Iassign ("FLAG", [], Int
     0)] and [Assign ("FLAG", [], Of_int (Int 0))] print alike, yet bind
     through different slots.  Without sharing, [Marshal]'s bytes are a
     function of the structure alone. *)
  let key =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ("blockc-blueprint-v2", unsafe, nblock, nshapes)
            [ Marshal.No_sharing ]))
  in
  { key; block = nblock; shapes = nshapes; unsafe; bindings }

let specialize t =
  Stmt.subst_block
    (List.map (fun (p, k) -> (p, Expr.Int k)) t.bindings)
    t.block

let describe t =
  Printf.sprintf "blueprint %s (%d hoisted binding%s%s)" t.key
    (List.length t.bindings)
    (if List.length t.bindings = 1 then "" else "s")
    (match t.bindings with
    | [] -> ""
    | bs ->
        ": "
        ^ String.concat ", "
            (List.map (fun (p, k) -> Printf.sprintf "%s=%d" p k) bs))
