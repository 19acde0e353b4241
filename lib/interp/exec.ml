exception Error of string

type hook = ref_id:int -> string -> int list -> Ir_util.kind -> unit

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ---- static reference sites ------------------------------------- *)

type ref_site = {
  ref_id : int;
  ref_array : string;
  ref_kind : Ir_util.kind;
  ref_space : Ir_util.space;
  ref_text : string;
  ref_loops : string list;
}

(* The interpreter works directly on the IR tree, so the map from a
   runtime touch back to its static reference site keys on the physical
   identity of the reference node (the [Expr.Idx] / [Stmt.Ref] /
   assignment statement being evaluated).  Structural hashing is only
   the bucket function; equality is [==], so two textually identical
   references at different places in the tree stay distinct.  A subtree
   shared by construction (some transformations reuse terms) registers
   once and both occurrences attribute to that site — harmless, since
   they are the same term. *)
module Phys = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type refmap = { table : int Phys.t; sites : ref_site list }

let no_ref = -1

let refmap block =
  let table = Phys.create 64 in
  let sites = ref [] in
  let next = ref 0 in
  let add node array subs kind space loops =
    if not (Phys.mem table node) then begin
      let id = !next in
      incr next;
      Phys.add table node id;
      sites :=
        {
          ref_id = id;
          ref_array = array;
          ref_kind = kind;
          ref_space = space;
          ref_text =
            Printf.sprintf "%s(%s)" array
              (String.concat "," (List.map Expr.to_string subs));
          ref_loops = loops;
        }
        :: !sites
    end
  in
  let rec expr ~loops (e : Expr.t) =
    match e with
    | Expr.Int _ | Expr.Var _ -> ()
    | Expr.Bin (_, a, b) | Expr.Min (a, b) | Expr.Max (a, b) ->
        expr ~loops a;
        expr ~loops b
    | Expr.Idx (name, subs) ->
        List.iter (expr ~loops) subs;
        add (Obj.repr e) name subs Ir_util.Read Ir_util.Int_data loops
  in
  let rec fexpr ~loops (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fconst _ | Stmt.Fvar _ -> ()
    | Stmt.Ref (name, subs) ->
        List.iter (expr ~loops) subs;
        add (Obj.repr fe) name subs Ir_util.Read Ir_util.Float_data loops
    | Stmt.Fbin (_, a, b) ->
        fexpr ~loops a;
        fexpr ~loops b
    | Stmt.Fneg a -> fexpr ~loops a
    | Stmt.Fcall (_, args) -> List.iter (fexpr ~loops) args
    | Stmt.Of_int e -> expr ~loops e
  in
  let rec cond ~loops (c : Stmt.cond) =
    match c with
    | Stmt.Fcmp (_, a, b) ->
        fexpr ~loops a;
        fexpr ~loops b
    | Stmt.Icmp (_, a, b) ->
        expr ~loops a;
        expr ~loops b
    | Stmt.Not a -> cond ~loops a
    | Stmt.And (a, b) | Stmt.Or (a, b) ->
        cond ~loops a;
        cond ~loops b
  in
  let rec stmt ~loops (s : Stmt.t) =
    match s with
    | Stmt.Assign (name, subs, rhs) ->
        fexpr ~loops rhs;
        List.iter (expr ~loops) subs;
        if subs <> [] then
          add (Obj.repr s) name subs Ir_util.Write Ir_util.Float_data loops
    | Stmt.Iassign (name, subs, rhs) ->
        expr ~loops rhs;
        List.iter (expr ~loops) subs;
        if subs <> [] then
          add (Obj.repr s) name subs Ir_util.Write Ir_util.Int_data loops
    | Stmt.If (c, t, e) ->
        cond ~loops c;
        List.iter (stmt ~loops) t;
        List.iter (stmt ~loops) e
    | Stmt.Loop l ->
        expr ~loops l.lo;
        expr ~loops l.hi;
        expr ~loops l.step;
        List.iter (stmt ~loops:(loops @ [ l.index ])) l.body
  in
  List.iter (stmt ~loops:[]) block;
  { table; sites = List.rev !sites }

let ref_sites rm = rm.sites

(* ---- execution --------------------------------------------------- *)

type state = {
  env : Env.t;
  scope : (string, int) Hashtbl.t;  (** loop indices, innermost wins *)
  hook : hook option;
  refs : refmap option;
}

let lookup_int st v =
  match Hashtbl.find_opt st.scope v with
  | Some n -> n
  | None -> Env.iscalar st.env v

let touch st node name idx kind =
  match st.hook with
  | None -> ()
  | Some h ->
      let ref_id =
        match st.refs with
        | None -> no_ref
        | Some rm -> ( match Phys.find_opt rm.table node with Some id -> id | None -> no_ref)
      in
      h ~ref_id name idx kind

let rec eval_i st (e : Expr.t) =
  match e with
  | Expr.Int n -> n
  | Expr.Var v -> lookup_int st v
  | Expr.Bin (op, a, b) -> (
      let x = eval_i st a and y = eval_i st b in
      match op with
      | Expr.Add -> x + y
      | Expr.Sub -> x - y
      | Expr.Mul -> x * y
      | Expr.Div -> if y = 0 then err "division by zero" else x / y)
  | Expr.Min (a, b) -> min (eval_i st a) (eval_i st b)
  | Expr.Max (a, b) -> max (eval_i st a) (eval_i st b)
  | Expr.Idx (name, subs) ->
      let idx = List.map (eval_i st) subs in
      touch st (Obj.repr e) name idx Ir_util.Read;
      Env.get_i st.env name idx

let intrinsic name args =
  match name, args with
  | ("SQRT" | "DSQRT"), [ x ] ->
      if x < 0.0 then err "SQRT of negative %g" x else sqrt x
  | ("ABS" | "DABS"), [ x ] -> Float.abs x
  | ("SIGN" | "DSIGN"), [ a; b ] -> if b >= 0.0 then Float.abs a else -.Float.abs a
  | _ -> err "unknown intrinsic %s/%d" name (List.length args)

let rec eval_f st (fe : Stmt.fexpr) =
  match fe with
  | Stmt.Fconst x -> x
  | Stmt.Fvar v -> Env.fscalar st.env v
  | Stmt.Ref (name, subs) ->
      let idx = List.map (eval_i st) subs in
      touch st (Obj.repr fe) name idx Ir_util.Read;
      Env.get_f st.env name idx
  | Stmt.Fbin (op, a, b) -> (
      let x = eval_f st a and y = eval_f st b in
      match op with
      | Stmt.FAdd -> x +. y
      | Stmt.FSub -> x -. y
      | Stmt.FMul -> x *. y
      | Stmt.FDiv -> x /. y)
  | Stmt.Fneg a -> -.eval_f st a
  | Stmt.Fcall (name, args) -> intrinsic name (List.map (eval_f st) args)
  | Stmt.Of_int e -> float_of_int (eval_i st e)

let eval_rel (r : Stmt.rel) c =
  match r with
  | Stmt.Eq -> c = 0
  | Stmt.Ne -> c <> 0
  | Stmt.Lt -> c < 0
  | Stmt.Le -> c <= 0
  | Stmt.Gt -> c > 0
  | Stmt.Ge -> c >= 0

let rec eval_cond st (c : Stmt.cond) =
  match c with
  | Stmt.Fcmp (r, a, b) -> eval_rel r (Float.compare (eval_f st a) (eval_f st b))
  | Stmt.Icmp (r, a, b) -> eval_rel r (Int.compare (eval_i st a) (eval_i st b))
  | Stmt.Not a -> not (eval_cond st a)
  | Stmt.And (a, b) -> eval_cond st a && eval_cond st b
  | Stmt.Or (a, b) -> eval_cond st a || eval_cond st b

let rec exec st (s : Stmt.t) =
  match s with
  | Stmt.Assign (name, [], rhs) ->
      let x = eval_f st rhs in
      Env.set_fscalar st.env name x
  | Stmt.Assign (name, subs, rhs) ->
      let x = eval_f st rhs in
      let idx = List.map (eval_i st) subs in
      touch st (Obj.repr s) name idx Ir_util.Write;
      Env.set_f st.env name idx x
  | Stmt.Iassign (name, [], rhs) ->
      if Hashtbl.mem st.scope name then err "assignment to loop index %s" name;
      let x = eval_i st rhs in
      Env.set_iscalar st.env name x
  | Stmt.Iassign (name, subs, rhs) ->
      let x = eval_i st rhs in
      let idx = List.map (eval_i st) subs in
      touch st (Obj.repr s) name idx Ir_util.Write;
      Env.set_i st.env name idx x
  | Stmt.If (c, t, e) ->
      if eval_cond st c then exec_block st t else exec_block st e
  | Stmt.Loop l ->
      let lo = eval_i st l.lo and hi = eval_i st l.hi and step = eval_i st l.step in
      if step = 0 then err "DO %s: zero step" l.index;
      let trips = max 0 ((hi - lo + step) / step) in
      let saved = Hashtbl.find_opt st.scope l.index in
      let i = ref lo in
      for _ = 1 to trips do
        Hashtbl.replace st.scope l.index !i;
        exec_block st l.body;
        i := !i + step
      done;
      (match saved with
      | Some old -> Hashtbl.replace st.scope l.index old
      | None -> Hashtbl.remove st.scope l.index)

and exec_block st block = List.iter (exec st) block

let run ?refs ?hook env block =
  let st = { env; scope = Hashtbl.create 8; hook; refs } in
  exec_block st block
