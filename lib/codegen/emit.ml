(* IR -> OCaml lowering.  See emit.mli for the contract.

   The generated module binds every array to its flat column-major
   buffer once, keeps scalars in refs, and lowers loops to [for] with
   the interpreter's once-evaluated bounds and trip count.  Name
   mangling is by prefix (loop index [i_], INTEGER scalar [s_], REAL
   scalar [f_], REAL array [a_], INTEGER array [ia_]), so Fortran names
   can never collide with OCaml keywords or each other. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

type shapes = (string * (Expr.t * Expr.t) list) list

let low = String.lowercase_ascii

(* ---- name collection -------------------------------------------- *)

type decls = {
  mutable farr : int SM.t; (* REAL arrays -> rank *)
  mutable iarr : int SM.t; (* INTEGER arrays -> rank *)
  mutable fsc : SS.t; (* REAL scalars (read or written) *)
  mutable fsc_w : SS.t; (* ... assigned somewhere in the block *)
  mutable isc : SS.t; (* INTEGER scalars *)
  mutable isc_w : SS.t;
  mutable bad : string option; (* first unsupported construct *)
}

let fail d fmt =
  Printf.ksprintf (fun m -> if d.bad = None then d.bad <- Some m) fmt

let note_arr d ~float_data name rank =
  let m = if float_data then d.farr else d.iarr in
  (match SM.find_opt name m with
  | Some r when r <> rank ->
      fail d "array %s used with both %d and %d subscripts" name r rank
  | _ -> ());
  if float_data then d.farr <- SM.add name rank d.farr
  else d.iarr <- SM.add name rank d.iarr

let collect ~shapes block =
  let d =
    {
      farr = SM.empty;
      iarr = SM.empty;
      fsc = SS.empty;
      fsc_w = SS.empty;
      isc = SS.empty;
      isc_w = SS.empty;
      bad = None;
    }
  in
  let rec expr scope (e : Expr.t) =
    match e with
    | Expr.Int _ -> ()
    | Expr.Var v -> if not (SS.mem v scope) then d.isc <- SS.add v d.isc
    | Expr.Bin (_, a, b) | Expr.Min (a, b) | Expr.Max (a, b) ->
        expr scope a;
        expr scope b
    | Expr.Idx (name, subs) ->
        note_arr d ~float_data:false name (List.length subs);
        List.iter (expr scope) subs
  in
  let rec fexpr scope (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fconst _ -> ()
    | Stmt.Fvar v -> d.fsc <- SS.add v d.fsc
    | Stmt.Ref (name, subs) ->
        note_arr d ~float_data:true name (List.length subs);
        List.iter (expr scope) subs
    | Stmt.Fbin (_, a, b) ->
        fexpr scope a;
        fexpr scope b
    | Stmt.Fneg a -> fexpr scope a
    | Stmt.Fcall (name, args) ->
        (match (name, List.length args) with
        | ("SQRT" | "DSQRT" | "ABS" | "DABS"), 1 | ("SIGN" | "DSIGN"), 2 -> ()
        | _ -> fail d "unknown intrinsic %s/%d" name (List.length args));
        List.iter (fexpr scope) args
    | Stmt.Of_int e -> expr scope e
  in
  let rec cond scope (c : Stmt.cond) =
    match c with
    | Stmt.Fcmp (_, a, b) ->
        fexpr scope a;
        fexpr scope b
    | Stmt.Icmp (_, a, b) ->
        expr scope a;
        expr scope b
    | Stmt.Not a -> cond scope a
    | Stmt.And (a, b) | Stmt.Or (a, b) ->
        cond scope a;
        cond scope b
  in
  let rec stmt scope (s : Stmt.t) =
    match s with
    | Stmt.Assign (name, [], rhs) ->
        d.fsc <- SS.add name d.fsc;
        d.fsc_w <- SS.add name d.fsc_w;
        fexpr scope rhs
    | Stmt.Assign (name, subs, rhs) ->
        note_arr d ~float_data:true name (List.length subs);
        List.iter (expr scope) subs;
        fexpr scope rhs
    | Stmt.Iassign (name, [], rhs) ->
        if SS.mem name scope then fail d "assignment to loop index %s" name;
        d.isc <- SS.add name d.isc;
        d.isc_w <- SS.add name d.isc_w;
        expr scope rhs
    | Stmt.Iassign (name, subs, rhs) ->
        note_arr d ~float_data:false name (List.length subs);
        List.iter (expr scope) subs;
        expr scope rhs
    | Stmt.If (c, t, e) ->
        cond scope c;
        List.iter (stmt scope) t;
        List.iter (stmt scope) e
    | Stmt.Loop l ->
        expr scope l.lo;
        expr scope l.hi;
        expr scope l.step;
        List.iter (stmt (SS.add l.index scope)) l.body
  in
  List.iter (stmt SS.empty) block;
  (* The shape re-check of an accessed array reads its declared bounds'
     parameters, so they are bound like the block's own, also where the
     block never mentions them (a hoisted extent, a scratch size). *)
  List.iter
    (fun (arr, dims) ->
      if SM.find_opt arr d.farr = Some (List.length dims) then
        List.iter
          (fun (lo, hi) ->
            expr SS.empty lo;
            expr SS.empty hi)
          dims)
    shapes;
  d

(* ---- in-bounds proofs -------------------------------------------- *)

let rec min_terms (e : Expr.t) =
  match e with Expr.Min (a, b) -> min_terms a @ min_terms b | _ -> [ e ]

let rec max_terms (e : Expr.t) =
  match e with Expr.Max (a, b) -> max_terms a @ max_terms b | _ -> [ e ]

(* [a <= b] at the Expr level, decomposing MIN/MAX into the affine
   queries Symbolic can answer.  Sound, not complete: MIN/MAX nested
   under arithmetic and Idx subscripts fall to [false]. *)
let rec ple ctx (a : Expr.t) (b : Expr.t) =
  match (a, b) with
  | Expr.Max (x, y), _ -> ple ctx x b && ple ctx y b
  | _, Expr.Min (x, y) -> ple ctx a x && ple ctx a y
  | Expr.Min (x, y), _ -> ple ctx x b || ple ctx y b
  | _, Expr.Max (x, y) -> ple ctx a x || ple ctx a y
  | _ -> (
      match (Affine.of_expr a, Affine.of_expr b) with
      | Some a', Some b' -> Symbolic.prove_le ctx a' b'
      | _ -> false)

(* A fact may only enter the context if nothing it mentions is assigned
   by the block: a stale [N >= 1] after [N = 0] would unsoundly license
   an unchecked access.  (Loop indices cannot be assigned — that is an
   interpreter error the emitter also rejects.) *)
let untainted ~tainted a =
  List.for_all (fun v -> not (SS.mem v tainted)) (Affine.vars a)

let assume_ge_safe ~tainted ctx a b =
  if untainted ~tainted a && untainted ~tainted b then
    Symbolic.assume_ge ctx a b
  else ctx

let step_ge1 ctx (e : Expr.t) =
  match Affine.of_expr e with
  | Some a -> Symbolic.prove_ge ctx a (Affine.const 1)
  | None -> false

(* Facts available inside the body of [l]: for a provably positive step,
   every executed iteration satisfies [lo <= index <= hi] (the trip
   count stops at or below [hi]).  MAX in the lower bound and MIN in the
   upper bound decompose into one fact per term. *)
let enter_loop ~tainted ctx (l : Stmt.loop) =
  if not (step_ge1 ctx l.step) then ctx
  else begin
    let ix = Affine.var l.index in
    let ctx =
      List.fold_left
        (fun ctx t ->
          match Affine.of_expr t with
          | Some a -> assume_ge_safe ~tainted ctx ix a
          | None -> ctx)
        ctx (max_terms l.lo)
    in
    List.fold_left
      (fun ctx t ->
        match Affine.of_expr t with
        | Some a -> assume_ge_safe ~tainted ctx a ix
        | None -> ctx)
      ctx (min_terms l.hi)
  end

(* Base facts every backend starts from: the symbolic parameters not
   assigned by the block are positive (re-checked at run time before
   any unchecked access fires), and each declared shape is a nonempty
   dimension ([hi >= lo] is an Env invariant for every array that
   exists).  Returns the context plus the assumed parameter set. *)
let base_ctx ~tainted ~shapes blk =
  let params =
    List.filter (fun p -> not (SS.mem p tainted)) (Ir_util.symbolic_params blk)
  in
  let ctx = List.fold_left Symbolic.assume_pos Symbolic.empty params in
  let ctx =
    List.fold_left
      (fun ctx (_, dims) ->
        List.fold_left
          (fun ctx (lo, hi) ->
            match (Affine.of_expr lo, Affine.of_expr hi) with
            | Some l, Some h -> assume_ge_safe ~tainted ctx h l
            | _ -> ctx)
          ctx dims)
      ctx shapes
  in
  (ctx, SS.of_list params)

(* ---- rendering ---------------------------------------------------- *)

(* A reference as the renderer keys it: the mangled-name prefix of its
   space ([""] for REAL, ["i"] for INTEGER arrays), the array and its
   subscripts. *)
type ref_key = string * string * Expr.t list

type st = {
  d : decls;
  shapes : shapes;
  unsafe : bool;
  tainted : SS.t; (* INTEGER scalars the block assigns *)
  body : Buffer.t;
  mutable proved : SS.t; (* arrays with at least one unchecked access *)
  mutable assumed : SS.t; (* parameters whose positivity a proof used *)
  mutable offsets : (ref_key * string) list;
      (* the current loop body's hoisted flat offsets *)
  mutable promoted : ((string * Expr.t list) * string) list;
      (* REAL elements the current innermost loop keeps in a local *)
  mutable n_unchecked : int;
  mutable n_hoisted : int;
  mutable n_promoted : int;
}

let line st ind fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.body (String.make (2 * ind) ' ');
      Buffer.add_string st.body s;
      Buffer.add_char st.body '\n')
    fmt

(* A NaN other than OCaml's own is spelled by its bits, so its sign and
   payload survive as they do in the interpreter and the C object. *)
let float_lit x =
  if Float.is_nan x then
    let bits = Int64.bits_of_float x in
    if Int64.equal bits (Int64.bits_of_float Float.nan) then "Float.nan"
    else Printf.sprintf "(Int64.float_of_bits 0x%LxL)" bits
  else if x = Float.infinity then "Float.infinity"
  else if x = Float.neg_infinity then "Float.neg_infinity"
  else begin
    let valid s = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    let fix s = if valid s then s else s ^ "." in
    let s = Printf.sprintf "%g" x in
    let s = if float_of_string s = x then fix s else fix (Printf.sprintf "%.17g" x) in
    if s.[0] = '-' then "(" ^ s ^ ")" else s
  end

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

(* Flat column-major offset of [subs] into array [name]; [ipfx] is the
   mangled-name prefix of the array's dims/lows/strides. *)
let flat_index pe ~ipfx name subs =
  let nm = low name in
  let terms =
    List.mapi
      (fun k sub ->
        if k = 0 then Printf.sprintf "(%s - %sl0_%s)" (pe sub) ipfx nm
        else
          Printf.sprintf "((%s - %sl%d_%s) * %st%d_%s)" (pe sub) ipfx k nm ipfx
            k nm)
      subs
  in
  match terms with [ t ] -> t | _ -> "(" ^ String.concat " + " terms ^ ")"

let in_bounds st ctx name subs =
  st.unsafe
  &&
  match ctx with
  | None -> false
  | Some ctx -> (
      match List.assoc_opt name st.shapes with
      | Some dims when List.length dims = List.length subs ->
          let ok =
            List.for_all2
              (fun (lo, hi) s -> ple ctx lo s && ple ctx s hi)
              dims subs
          in
          if ok then st.proved <- SS.add name st.proved;
          ok
      | _ -> false)

(* [in_bounds] at a site that renders the access, counted. *)
let unchecked st ctx name subs =
  let ok = in_bounds st ctx name subs in
  if ok then st.n_unchecked <- st.n_unchecked + 1;
  ok

let rec pe st scope ctx (e : Expr.t) =
  match e with
  | Expr.Int n -> int_lit n
  | Expr.Var v ->
      if SS.mem v scope then "i_" ^ low v else "!s_" ^ low v
  | Expr.Bin (op, a, b) ->
      let o =
        match op with
        | Expr.Add -> "+"
        | Expr.Sub -> "-"
        | Expr.Mul -> "*"
        | Expr.Div -> "/"
      in
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) o (pe st scope ctx b)
  | Expr.Min (a, b) ->
      Printf.sprintf "(imin %s %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Max (a, b) ->
      Printf.sprintf "(imax %s %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Idx (name, subs) ->
      let idx = index st scope ctx ~ipfx:"i" name subs in
      if unchecked st ctx name subs then
        Printf.sprintf "(Array.unsafe_get ia_%s %s)" (low name) idx
      else Printf.sprintf "ia_%s.(%s)" (low name) idx

(* The offset hoisted for this reference by the enclosing loop, else
   the full formula. *)
and index st scope ctx ~ipfx name subs =
  match List.assoc_opt (ipfx, name, subs) st.offsets with
  | Some off -> off
  | None -> flat_index (pe st scope ctx) ~ipfx name subs

let rec pf st scope ctx (fe : Stmt.fexpr) =
  match fe with
  | Stmt.Fconst x -> float_lit x
  | Stmt.Fvar v -> "!f_" ^ low v
  | Stmt.Ref (name, subs) -> (
      match List.assoc_opt (name, subs) st.promoted with
      | Some p -> "!" ^ p
      | None ->
          let idx = index st scope ctx ~ipfx:"" name subs in
          if unchecked st ctx name subs then
            Printf.sprintf "(Array.unsafe_get a_%s %s)" (low name) idx
          else Printf.sprintf "a_%s.(%s)" (low name) idx)
  | Stmt.Fbin (op, a, b) ->
      let o =
        match op with
        | Stmt.FAdd -> "+."
        | Stmt.FSub -> "-."
        | Stmt.FMul -> "*."
        | Stmt.FDiv -> "/."
      in
      Printf.sprintf "(%s %s %s)" (pf st scope ctx a) o (pf st scope ctx b)
  | Stmt.Fneg a -> Printf.sprintf "(-. %s)" (pf st scope ctx a)
  | Stmt.Fcall (("SQRT" | "DSQRT"), [ x ]) ->
      Printf.sprintf "(fsqrt %s)" (pf st scope ctx x)
  | Stmt.Fcall (("ABS" | "DABS"), [ x ]) ->
      Printf.sprintf "(Float.abs %s)" (pf st scope ctx x)
  | Stmt.Fcall (("SIGN" | "DSIGN"), [ a; b ]) ->
      Printf.sprintf "(fsign %s %s)" (pf st scope ctx a) (pf st scope ctx b)
  | Stmt.Fcall _ -> "0.0" (* rejected during collection *)
  | Stmt.Of_int e -> Printf.sprintf "(float_of_int %s)" (pe st scope ctx e)

let rel_op (r : Stmt.rel) =
  match r with
  | Stmt.Eq -> "="
  | Stmt.Ne -> "<>"
  | Stmt.Lt -> "<"
  | Stmt.Le -> "<="
  | Stmt.Gt -> ">"
  | Stmt.Ge -> ">="

let rec pc st scope ctx (c : Stmt.cond) =
  match c with
  | Stmt.Fcmp (r, a, b) ->
      (* Float.compare, as in the interpreter: total order, NaN = NaN. *)
      Printf.sprintf "(Float.compare %s %s %s 0)" (pf st scope ctx a)
        (pf st scope ctx b) (rel_op r)
  | Stmt.Icmp (r, a, b) ->
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) (rel_op r)
        (pe st scope ctx b)
  | Stmt.Not a -> Printf.sprintf "(not %s)" (pc st scope ctx a)
  | Stmt.And (a, b) ->
      Printf.sprintf "(%s && %s)" (pc st scope ctx a) (pc st scope ctx b)
  | Stmt.Or (a, b) ->
      Printf.sprintf "(%s || %s)" (pc st scope ctx a) (pc st scope ctx b)

(* ---- loop-invariant address arithmetic ---------------------------- *)

(* ocamlopt without flambda does no loop-invariant code motion and no
   strength reduction, so the emitter hoists address arithmetic itself.
   Before each loop, a reference directly in its body (bodies of nested
   loops hoist their own) whose subscripts are affine — no Div, MIN/MAX
   or Idx — in enclosing indices and in scalars the loop never assigns
   gets the invariant part of its flat offset bound once,

     hb = sum_k t_k * (sub_k[i := 0] - l_k),

   and the body indexes with [hb + c*i] or [hb + i*t_k].  The identity
   is exact in OCaml's modular ints, so a checked access checks the
   same final offset.  References that differ only by a constant in the
   first subscript share one base ([A(I,KK)] .. [A(I+3,KK)] become
   [hb + i_kk*t1_a + c]): a base per reference kept 8 bases and 8
   strides live in lu_opt's unrolled KK loop, where ocamlopt's CSE had
   kept 2, and ran that loop up to 2x slower. *)

(* Each subscript as [(coefficient of ix, rest)], when all of them
   qualify. *)
let split_subs ~scope ~assigned ix subs =
  let rec plain (e : Expr.t) =
    match e with
    | Expr.Int _ | Expr.Var _ -> true
    | Expr.Bin (Expr.Div, _, _) | Expr.Min _ | Expr.Max _ | Expr.Idx _ -> false
    | Expr.Bin (_, a, b) -> plain a && plain b
  in
  let invariant v = SS.mem v scope || not (SS.mem v assigned) in
  List.fold_right
    (fun sub acc ->
      match (acc, Affine.of_expr sub) with
      | Some parts, Some a
        when plain sub && List.for_all invariant (Affine.vars a) ->
          Some (Affine.split_on ix a :: parts)
      | _ -> None)
    subs (Some [])

(* Emit the bases for the references directly in [l]'s body and return
   the body's offset table. *)
let hoist st scope inner_scope ind (l : Stmt.loop) =
  let accs = Ir_util.accesses l.body in
  let assigned =
    List.fold_left
      (fun s (a : Ir_util.access) ->
        if a.subs = [] && a.kind = Ir_util.Write && a.space = Ir_util.Int_data
        then SS.add a.array s
        else s)
      SS.empty accs
  in
  let ix = low l.index in
  let bases = ref [] in
  let base ~ipfx name rests =
    let same (p, n, rs) =
      p = ipfx && String.equal n name && List.equal Affine.equal rs rests
    in
    match List.find_opt (fun (g, _) -> same g) !bases with
    | Some (_, b) -> b
    | None ->
        st.n_hoisted <- st.n_hoisted + 1;
        let b =
          Printf.sprintf "hb%d_%s" (st.n_hoisted + st.n_promoted) (low name)
        in
        let render r = pe st scope None (Affine.to_expr r) in
        line st ind "let %s = %s in" b (flat_index render ~ipfx name rests);
        bases := ((ipfx, name, rests), b) :: !bases;
        b
  in
  (* [c*i] in dimension [k], scaled by the dimension's stride. *)
  let stride ~ipfx name k c =
    let i =
      match c with
      | 1 -> "i_" ^ ix
      | -1 -> "(- i_" ^ ix ^ ")"
      | c -> Printf.sprintf "(%d * i_%s)" c ix
    in
    if k = 0 then i else Printf.sprintf "(%s * %st%d_%s)" i ipfx k (low name)
  in
  List.fold_left
    (fun offsets (a : Ir_util.access) ->
      let ipfx = if a.space = Ir_util.Int_data then "i" else "" in
      let key = (ipfx, a.array, a.subs) in
      if a.loops <> [] || a.subs = [] || List.mem_assoc key offsets then offsets
      else
        match split_subs ~scope:inner_scope ~assigned l.index a.subs with
        | None -> offsets
        | Some parts ->
            let k0 = Affine.constant (snd (List.hd parts)) in
            let rests =
              List.mapi
                (fun k (_, r) -> if k = 0 then Affine.sub r (Affine.const k0) else r)
                parts
            in
            let terms =
              List.concat
                (List.mapi
                   (fun k (c, _) ->
                     if c = 0 then [] else [ stride ~ipfx a.array k c ])
                   parts)
              @ if k0 = 0 then [] else [ int_lit k0 ]
            in
            let b = base ~ipfx a.array rests in
            let off =
              if terms = [] then b else "(" ^ String.concat " + " (b :: terms) ^ ")"
            in
            (key, off) :: offsets)
    [] accs

(* ---- invariant elements in registers ------------------------------ *)

(* In an innermost loop, a REAL element with invariant subscripts that
   is the loop's only reference to its array, that the loop writes and
   that is proven in bounds lives in a local ref: loaded before the
   loop and stored back after it, each under the loop's nonempty-trip
   guard, so a loop that runs zero times writes nothing.  Only loops in
   which nothing can raise qualify (every access proven, no SQRT, no
   integer division): an exception between the load and the store
   would drop the element's writes, and a failing run must leave
   memory as the interpreter does. *)
let may_raise body =
  let rec div (e : Expr.t) =
    match e with
    | Expr.Int _ | Expr.Var _ -> false
    | Expr.Bin (Expr.Div, _, _) -> true
    | Expr.Bin (_, a, b) | Expr.Min (a, b) | Expr.Max (a, b) -> div a || div b
    | Expr.Idx (_, subs) -> List.exists div subs
  in
  let rec sqrt_ (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fcall (("SQRT" | "DSQRT"), _) -> true
    | Stmt.Fcall (_, args) -> List.exists sqrt_ args
    | Stmt.Fbin (_, a, b) -> sqrt_ a || sqrt_ b
    | Stmt.Fneg a -> sqrt_ a
    | Stmt.Fconst _ | Stmt.Fvar _ | Stmt.Ref _ | Stmt.Of_int _ -> false
  in
  let found = ref false in
  List.iter
    (fun s -> ignore (Stmt.map_expr (fun e -> if div e then found := true; e) s))
    body;
  Stmt.iter
    (fun s -> if List.exists sqrt_ (Stmt.fexprs_of s) then found := true)
    body;
  !found

(* Emit the loads for the elements [l]'s body keeps in locals and
   return them with their locals; [guard] holds when the loop runs. *)
let promote st ctx offsets ind ~guard (l : Stmt.loop) =
  let nested = ref false in
  Stmt.iter (function Stmt.Loop _ -> nested := true | _ -> ()) l.body;
  let accs =
    List.filter
      (fun (a : Ir_util.access) -> a.subs <> [])
      (Ir_util.accesses l.body)
  in
  let proven (a : Ir_util.access) = in_bounds st ctx a.array a.subs in
  if !nested || may_raise l.body || not (List.for_all proven accs) then []
  else
    let reals =
      List.filter (fun (a : Ir_util.access) -> a.space = Ir_util.Float_data) accs
    in
    List.sort_uniq String.compare
      (List.map (fun (a : Ir_util.access) -> a.array) reals)
    |> List.filter_map (fun name ->
           let rs =
             List.filter (fun (a : Ir_util.access) -> String.equal a.array name) reals
           in
           let subs = (List.hd rs).subs in
           match List.assoc_opt ("", name, subs) offsets with
           | Some off
             when List.for_all (fun (a : Ir_util.access) -> a.subs = subs) rs
                  && List.exists
                       (fun (a : Ir_util.access) -> a.kind = Ir_util.Write)
                       rs
                  && not (List.exists (Expr.mentions l.index) subs) ->
               st.n_promoted <- st.n_promoted + 1;
               st.n_unchecked <- st.n_unchecked + 2;
               let p =
                 Printf.sprintf "p%d_%s" (st.n_hoisted + st.n_promoted) (low name)
               in
               line st ind
                 "let %s = ref (if %s then Array.unsafe_get a_%s %s else 0.0) in"
                 p guard (low name) off;
               Some ((name, subs), p)
           | _ -> None)

let rec stmt st scope ctx ind (s : Stmt.t) =
  match s with
  | Stmt.Assign (name, [], rhs) ->
      line st ind "f_%s := %s;" (low name) (pf st scope ctx rhs)
  | Stmt.Assign (name, subs, rhs) -> (
      let rhs = pf st scope ctx rhs in
      match List.assoc_opt (name, subs) st.promoted with
      | Some p -> line st ind "%s := %s;" p rhs
      | None ->
          let idx = index st scope ctx ~ipfx:"" name subs in
          if unchecked st ctx name subs then
            line st ind "Array.unsafe_set a_%s %s %s;" (low name) idx rhs
          else line st ind "a_%s.(%s) <- %s;" (low name) idx rhs)
  | Stmt.Iassign (name, [], rhs) ->
      line st ind "s_%s := %s;" (low name) (pe st scope ctx rhs)
  | Stmt.Iassign (name, subs, rhs) ->
      let rhs = pe st scope ctx rhs in
      let idx = index st scope ctx ~ipfx:"i" name subs in
      if unchecked st ctx name subs then
        line st ind "Array.unsafe_set ia_%s %s %s;" (low name) idx rhs
      else line st ind "ia_%s.(%s) <- %s;" (low name) idx rhs
  | Stmt.If (c, t, e) ->
      line st ind "if %s then begin" (pc st scope ctx c);
      block st scope ctx (ind + 1) t;
      if e = [] then line st ind "end;"
      else begin
        line st ind "end";
        line st ind "else begin";
        block st scope ctx (ind + 1) e;
        line st ind "end;"
      end
  | Stmt.Loop l ->
      let ix = low l.index in
      let inner_scope = SS.add l.index scope in
      (* A re-bound index invalidates the outer facts about its name; no
         way to retract them, so stop proving inside. *)
      let ctx' =
        if SS.mem l.index scope then None
        else Option.map (fun c -> enter_loop ~tainted:st.tainted c l) ctx
      in
      line st ind "let lo_%s = %s in" ix (pe st scope ctx l.lo);
      line st ind "let hi_%s = %s in" ix (pe st scope ctx l.hi);
      let outer = (st.offsets, st.promoted) in
      (* Bases and loads go right before the [for]; the stores right
         after its [done]. *)
      let enter ~guard =
        st.offsets <- hoist st scope inner_scope ind l;
        st.promoted <- promote st ctx' st.offsets ind ~guard l
      in
      let leave ~guard =
        List.iter
          (fun ((name, subs), p) ->
            line st ind "if %s then Array.unsafe_set a_%s %s !%s;" guard
              (low name) (List.assoc ("", name, subs) st.offsets) p)
          st.promoted;
        st.offsets <- fst outer;
        st.promoted <- snd outer
      in
      (match l.step with
      | Expr.Int 1 ->
          let guard = Printf.sprintf "lo_%s <= hi_%s" ix ix in
          enter ~guard;
          line st ind "for i_%s = lo_%s to hi_%s do" ix ix ix;
          block st inner_scope ctx' (ind + 1) l.body;
          line st ind "done;";
          leave ~guard
      | step ->
          let guard = Printf.sprintf "n_%s > 0" ix in
          line st ind "let st_%s = %s in" ix (pe st scope ctx step);
          line st ind "if st_%s = 0 then failwith \"DO %s: zero step\";" ix
            l.index;
          line st ind "let n_%s = (hi_%s - lo_%s + st_%s) / st_%s in" ix ix ix
            ix ix;
          line st ind "let r_%s = ref lo_%s in" ix ix;
          enter ~guard;
          line st ind "for _ = 1 to n_%s do" ix;
          line st (ind + 1) "let i_%s = !r_%s in" ix ix;
          block st inner_scope ctx' (ind + 1) l.body;
          line st (ind + 1) "r_%s := i_%s + st_%s;" ix ix ix;
          line st ind "done;";
          leave ~guard)

and block st scope ctx ind = function
  | [] -> line st ind "();"
  | stmts -> List.iter (stmt st scope ctx ind) stmts

(* ---- assembly ----------------------------------------------------- *)

let header name =
  Printf.sprintf
    "(* %s — OCaml lowered from the mini-Fortran IR by blockc's codegen.\n\
    \   Self-contained (Stdlib only).  The host obtains [run] through the\n\
    \   Blockc_kernel exception raised when the plugin is loaded. *)\n"
    name

let fn_type =
  "(string -> int) * (string -> float) * (string -> float array)\n\
  \  * (string -> int array) * (string -> int array) * (string -> int array)\n\
  \  * (string -> float -> unit) * (string -> int -> unit) -> unit"

(* The body pass over a block [collect] accepted. *)
let render ~unsafe ~shapes d blk =
  let st =
    {
      d;
      shapes;
      unsafe;
      tainted = d.isc_w;
      body = Buffer.create 4096;
      proved = SS.empty;
      assumed = SS.empty;
      offsets = [];
      promoted = [];
      n_unchecked = 0;
      n_hoisted = 0;
      n_promoted = 0;
    }
  in
  let ctx, assumed = base_ctx ~tainted:st.tainted ~shapes blk in
  st.assumed <- assumed;
  block st SS.empty (Some ctx) 1 blk;
  st

let revision = "3"

type counts = { unchecked : int; hoisted : int; promoted : int }

let counts ?(unsafe = true) ?(shapes = []) blk =
  let st = render ~unsafe ~shapes (collect ~shapes blk) blk in
  { unchecked = st.n_unchecked; hoisted = st.n_hoisted; promoted = st.n_promoted }

let source ?(unsafe = true) ?(shapes = []) ~name blk =
  let d = collect ~shapes blk in
  match d.bad with
  | Some m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
  | None ->
      let st = render ~unsafe ~shapes d blk in
      (* The body pass recorded which arrays carry unchecked accesses
         and which parameters the proofs assumed positive; now build
         the prelude around it. *)
      let b = Buffer.create 8192 in
      let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
      out "%s\n" (header name);
      out "exception Blockc_kernel of\n  (%s)\n\n" fn_type;
      out "let imin (a : int) (b : int) = if a <= b then a else b\n";
      out "let imax (a : int) (b : int) = if a >= b then a else b\n\n";
      out
        "let fsqrt x =\n\
        \  if x < 0.0 then failwith (Printf.sprintf \"SQRT of negative %%g\" x)\n\
        \  else sqrt x\n\n";
      out "let fsign a b = if b >= 0.0 then Float.abs a else -.Float.abs a\n\n";
      out
        "let run ((geti : string -> int), (getf : string -> float),\n\
        \         (getfa : string -> float array), (getia : string -> int array),\n\
        \         (getfd : string -> int array), (getid : string -> int array),\n\
        \         (setf : string -> float -> unit), (seti : string -> int -> unit)) =\n";
      out "  ignore (geti, getf, getfa, getia, getfd, getid, setf, seti);\n";
      out "  ignore (imin, imax, fsqrt, fsign);\n";
      (* REAL arrays: buffer, dims, per-dimension lows and strides. *)
      let emit_arr ~ipfx ~data ~dims name rank =
        let nm = low name in
        out "  let %s%s = %s %S in\n" (if ipfx = "i" then "ia_" else "a_") nm
          data name;
        out "  let %sd_%s = %s %S in\n" ipfx nm dims name;
        out "  let %sl0_%s = %sd_%s.(0) in\n" ipfx nm ipfx nm;
        for k = 1 to rank - 1 do
          out "  let %sl%d_%s = %sd_%s.(%d) in\n" ipfx k nm ipfx nm (2 * k);
          let prev =
            if k = 1 then "1"
            else Printf.sprintf "%st%d_%s" ipfx (k - 1) nm
          in
          out "  let %st%d_%s = %s * (%sd_%s.(%d) - %sd_%s.(%d) + 1) in\n" ipfx
            k nm prev ipfx nm ((2 * (k - 1)) + 1) ipfx nm (2 * (k - 1))
        done
      in
      SM.iter (fun name rank -> emit_arr ~ipfx:"" ~data:"getfa" ~dims:"getfd" name rank) d.farr;
      SM.iter (fun name rank -> emit_arr ~ipfx:"i" ~data:"getia" ~dims:"getid" name rank) d.iarr;
      (* Scalars: refs initialized from the host (0 / 0.0 when unset),
         written back below. *)
      SS.iter
        (fun v -> out "  let s_%s = ref (geti %S) in\n" (low v) v)
        d.isc;
      SS.iter (fun v -> out "  let f_%s = ref (getf %S) in\n" (low v) v) d.fsc;
      (* Everything the in-bounds proofs assumed, re-checked: declared
         shapes match the actual dims, assumed parameters are >= 1. *)
      if not (SS.is_empty st.proved) then begin
        SS.iter
          (fun v ->
            out
              "  if !s_%s < 1 then failwith \"%s: unchecked accesses assume %s >= 1\";\n"
              (low v) name v)
          st.assumed;
        List.iter
          (fun (arr, dims) ->
            match SM.find_opt arr d.farr with
            | None -> ()
            | Some rank when rank <> List.length dims -> ()
            | Some _ ->
                let checks =
                  List.concat
                    (List.mapi
                       (fun k (lo, hi) ->
                         let p = pe st SS.empty None in
                         [
                           Printf.sprintf "d_%s.(%d) = %s" (low arr) (2 * k)
                             (p lo);
                           Printf.sprintf "d_%s.(%d) = %s" (low arr)
                             ((2 * k) + 1) (p hi);
                         ])
                       dims)
                in
                out
                  "  if not (%s) then failwith \"%s: %s dims differ from the declared shape\";\n"
                  (String.concat " && " checks) name arr)
          shapes
      end;
      Buffer.add_buffer b st.body;
      (* Write scalars back so the host environment sees the kernel's
         scalar results (loop indices stay internal, as in Fortran). *)
      SS.iter (fun v -> out "  seti %S !s_%s;\n" v (low v)) d.isc_w;
      SS.iter (fun v -> out "  setf %S !f_%s;\n" v (low v)) d.fsc_w;
      out "  ()\n\n";
      out "let () = raise (Blockc_kernel run)\n";
      Ok (Buffer.contents b)
