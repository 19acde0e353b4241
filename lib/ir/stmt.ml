type rel = Eq | Ne | Lt | Le | Gt | Ge
type fbinop = FAdd | FSub | FMul | FDiv

type fexpr =
  | Fconst of float
  | Fvar of string
  | Ref of string * Expr.t list
  | Fbin of fbinop * fexpr * fexpr
  | Fneg of fexpr
  | Fcall of string * fexpr list
  | Of_int of Expr.t

type cond =
  | Fcmp of rel * fexpr * fexpr
  | Icmp of rel * Expr.t * Expr.t
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

type t =
  | Assign of string * Expr.t list * fexpr
  | Iassign of string * Expr.t list * Expr.t
  | If of cond * t list * t list
  | Loop of loop

and loop = {
  index : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  body : t list;
}

let loop ?(step = Expr.Int 1) index lo hi body = Loop { index; lo; hi; step; body }

let rec equal_fexpr a b =
  match a, b with
  | Fconst x, Fconst y -> x = y
  | Fvar x, Fvar y -> String.equal x y
  | Ref (n1, s1), Ref (n2, s2) ->
      String.equal n1 n2 && List.length s1 = List.length s2
      && List.for_all2 Expr.equal s1 s2
  | Fbin (o1, a1, b1), Fbin (o2, a2, b2) ->
      o1 = o2 && equal_fexpr a1 a2 && equal_fexpr b1 b2
  | Fneg a, Fneg b -> equal_fexpr a b
  | Fcall (n1, l1), Fcall (n2, l2) ->
      String.equal n1 n2 && List.length l1 = List.length l2
      && List.for_all2 equal_fexpr l1 l2
  | Of_int a, Of_int b -> Expr.equal a b
  | (Fconst _ | Fvar _ | Ref _ | Fbin _ | Fneg _ | Fcall _ | Of_int _), _ -> false

let rec equal_cond a b =
  match a, b with
  | Fcmp (r1, a1, b1), Fcmp (r2, a2, b2) ->
      r1 = r2 && equal_fexpr a1 a2 && equal_fexpr b1 b2
  | Icmp (r1, a1, b1), Icmp (r2, a2, b2) ->
      r1 = r2 && Expr.equal a1 a2 && Expr.equal b1 b2
  | Not a, Not b -> equal_cond a b
  | And (a1, b1), And (a2, b2) | Or (a1, b1), Or (a2, b2) ->
      equal_cond a1 a2 && equal_cond b1 b2
  | (Fcmp _ | Icmp _ | Not _ | And _ | Or _), _ -> false

let rec equal a b =
  match a, b with
  | Assign (n1, s1, r1), Assign (n2, s2, r2) ->
      String.equal n1 n2 && List.length s1 = List.length s2
      && List.for_all2 Expr.equal s1 s2 && equal_fexpr r1 r2
  | Iassign (n1, s1, r1), Iassign (n2, s2, r2) ->
      String.equal n1 n2 && List.length s1 = List.length s2
      && List.for_all2 Expr.equal s1 s2 && Expr.equal r1 r2
  | If (c1, t1, e1), If (c2, t2, e2) ->
      equal_cond c1 c2 && equal_block t1 t2 && equal_block e1 e2
  | Loop l1, Loop l2 ->
      String.equal l1.index l2.index && Expr.equal l1.lo l2.lo
      && Expr.equal l1.hi l2.hi && Expr.equal l1.step l2.step
      && equal_block l1.body l2.body
  | (Assign _ | Iassign _ | If _ | Loop _), _ -> false

and equal_block a b = List.length a = List.length b && List.for_all2 equal a b

type hop = I of int | Then_ | Else_
type path = hop list

let bad () = invalid_arg "Stmt: bad path"

let rec get_at block path =
  match path with
  | [] -> bad ()
  | [ I n ] -> ( match List.nth_opt block n with Some s -> s | None -> bad ())
  | I n :: rest -> (
      match List.nth_opt block n with
      | Some (Loop l) -> get_at l.body rest
      | Some (If (_, t, e)) -> (
          match rest with
          | Then_ :: rest' -> get_at t rest'
          | Else_ :: rest' -> get_at e rest'
          | I _ :: _ | [] -> bad ())
      | Some (Assign _ | Iassign _) | None -> bad ())
  | (Then_ | Else_) :: _ -> bad ()

let rec replace_at block path stmts =
  match path with
  | [] -> bad ()
  | [ I n ] ->
      if n < 0 || n >= List.length block then bad ();
      List.concat (List.mapi (fun i s -> if i = n then stmts else [ s ]) block)
  | I n :: rest ->
      List.mapi
        (fun i s ->
          if i <> n then s
          else
            match s with
            | Loop l -> Loop { l with body = replace_at l.body rest stmts }
            | If (c, t, e) -> (
                match rest with
                | Then_ :: rest' -> If (c, replace_at t rest' stmts, e)
                | Else_ :: rest' -> If (c, t, replace_at e rest' stmts)
                | I _ :: _ | [] -> bad ())
            | Assign _ | Iassign _ -> bad ())
        block
  | (Then_ | Else_) :: _ -> bad ()

let find_loops block =
  let acc = ref [] in
  let rec walk prefix block =
    List.iteri
      (fun i s ->
        let here = prefix @ [ I i ] in
        match s with
        | Loop l ->
            acc := (here, l) :: !acc;
            walk here l.body
        | If (_, t, e) ->
            walk (here @ [ Then_ ]) t;
            walk (here @ [ Else_ ]) e
        | Assign _ | Iassign _ -> ())
      block
  in
  walk [] block;
  List.rev !acc

let rec subst_fexpr bindings fe =
  match fe with
  | Fconst _ | Fvar _ -> fe
  | Ref (name, subs) -> Ref (name, List.map (Expr.subst bindings) subs)
  | Fbin (op, a, b) -> Fbin (op, subst_fexpr bindings a, subst_fexpr bindings b)
  | Fneg a -> Fneg (subst_fexpr bindings a)
  | Fcall (name, args) -> Fcall (name, List.map (subst_fexpr bindings) args)
  | Of_int e -> Of_int (Expr.subst bindings e)

let rec subst_cond bindings c =
  match c with
  | Fcmp (r, a, b) -> Fcmp (r, subst_fexpr bindings a, subst_fexpr bindings b)
  | Icmp (r, a, b) -> Icmp (r, Expr.subst bindings a, Expr.subst bindings b)
  | Not a -> Not (subst_cond bindings a)
  | And (a, b) -> And (subst_cond bindings a, subst_cond bindings b)
  | Or (a, b) -> Or (subst_cond bindings a, subst_cond bindings b)

let rec subst bindings s =
  match bindings with
  | [] -> s
  | _ -> (
      match s with
      | Assign (name, subs, rhs) ->
          Assign (name, List.map (Expr.subst bindings) subs, subst_fexpr bindings rhs)
      | Iassign (name, subs, rhs) ->
          Iassign (name, List.map (Expr.subst bindings) subs, Expr.subst bindings rhs)
      | If (c, t, e) ->
          If (subst_cond bindings c, subst_block bindings t, subst_block bindings e)
      | Loop l ->
          let inner = List.remove_assoc l.index bindings in
          Loop
            {
              l with
              lo = Expr.subst bindings l.lo;
              hi = Expr.subst bindings l.hi;
              step = Expr.subst bindings l.step;
              body = subst_block inner l.body;
            })

and subst_block bindings block = List.map (subst bindings) block

let rec rename_in_fexpr old fresh fe =
  match fe with
  | Fvar v when String.equal v old -> Fvar fresh
  | Fconst _ | Fvar _ | Of_int _ | Ref _ -> fe
  | Fbin (op, a, b) ->
      Fbin (op, rename_in_fexpr old fresh a, rename_in_fexpr old fresh b)
  | Fneg a -> Fneg (rename_in_fexpr old fresh a)
  | Fcall (name, args) -> Fcall (name, List.map (rename_in_fexpr old fresh) args)

let rec rename_in_cond old fresh c =
  match c with
  | Fcmp (r, a, b) -> Fcmp (r, rename_in_fexpr old fresh a, rename_in_fexpr old fresh b)
  | Icmp _ -> c
  | Not a -> Not (rename_in_cond old fresh a)
  | And (a, b) -> And (rename_in_cond old fresh a, rename_in_cond old fresh b)
  | Or (a, b) -> Or (rename_in_cond old fresh a, rename_in_cond old fresh b)

let rec rename_fvar old fresh s =
  match s with
  | Assign (name, [], rhs) when String.equal name old ->
      Assign (fresh, [], rename_in_fexpr old fresh rhs)
  | Assign (name, subs, rhs) -> Assign (name, subs, rename_in_fexpr old fresh rhs)
  | Iassign _ -> s
  | If (c, t, e) ->
      If
        ( rename_in_cond old fresh c,
          List.map (rename_fvar old fresh) t,
          List.map (rename_fvar old fresh) e )
  | Loop l -> Loop { l with body = List.map (rename_fvar old fresh) l.body }

let rec map_expr_fexpr f fe =
  match fe with
  | Fconst _ | Fvar _ -> fe
  | Ref (name, subs) -> Ref (name, List.map f subs)
  | Fbin (op, a, b) -> Fbin (op, map_expr_fexpr f a, map_expr_fexpr f b)
  | Fneg a -> Fneg (map_expr_fexpr f a)
  | Fcall (name, args) -> Fcall (name, List.map (map_expr_fexpr f) args)
  | Of_int e -> Of_int (f e)

let rec map_expr_cond f c =
  match c with
  | Fcmp (r, a, b) -> Fcmp (r, map_expr_fexpr f a, map_expr_fexpr f b)
  | Icmp (r, a, b) -> Icmp (r, f a, f b)
  | Not a -> Not (map_expr_cond f a)
  | And (a, b) -> And (map_expr_cond f a, map_expr_cond f b)
  | Or (a, b) -> Or (map_expr_cond f a, map_expr_cond f b)

let rec map_expr f s =
  match s with
  | Assign (name, subs, rhs) -> Assign (name, List.map f subs, map_expr_fexpr f rhs)
  | Iassign (name, subs, rhs) -> Iassign (name, List.map f subs, f rhs)
  | If (c, t, e) ->
      If (map_expr_cond f c, List.map (map_expr f) t, List.map (map_expr f) e)
  | Loop l ->
      Loop
        {
          l with
          lo = f l.lo;
          hi = f l.hi;
          step = f l.step;
          body = List.map (map_expr f) l.body;
        }

let rec fexprs_of_cond c =
  match c with
  | Fcmp (_, a, b) -> [ a; b ]
  | Icmp _ -> []
  | Not a -> fexprs_of_cond a
  | And (a, b) | Or (a, b) -> fexprs_of_cond a @ fexprs_of_cond b

let fexprs_of s =
  match s with
  | Assign (_, _, rhs) -> [ rhs ]
  | Iassign _ -> []
  | If (c, _, _) -> fexprs_of_cond c
  | Loop _ -> []

let rec iter f block =
  List.iter
    (fun s ->
      f s;
      match s with
      | Loop l -> iter f l.body
      | If (_, t, e) ->
          iter f t;
          iter f e
      | Assign _ | Iassign _ -> ())
    block

(* Rendering lives in Fortran_pp; these call a simple inline version so
   Stmt does not depend on it. *)
let rel_to_string = function
  | Eq -> ".EQ."
  | Ne -> ".NE."
  | Lt -> ".LT."
  | Le -> ".LE."
  | Gt -> ".GT."
  | Ge -> ".GE."

let fbinop_to_string = function FAdd -> " + " | FSub -> " - " | FMul -> "*" | FDiv -> "/"

let float_lit x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%g" x

let rec fexpr_to_string_prec prec fe =
  let paren needed s = if needed then "(" ^ s ^ ")" else s in
  match fe with
  | Fconst x -> float_lit x
  | Fvar v -> v
  | Ref (name, subs) ->
      name ^ "(" ^ String.concat ", " (List.map Expr.to_string subs) ^ ")"
  | Fbin (((FAdd | FSub) as op), a, b) ->
      paren (prec > 0)
        (fexpr_to_string_prec 0 a ^ fbinop_to_string op ^ fexpr_to_string_prec 1 b)
  | Fbin (((FMul | FDiv) as op), a, b) ->
      paren (prec > 1)
        (fexpr_to_string_prec 1 a ^ fbinop_to_string op ^ fexpr_to_string_prec 2 b)
  | Fneg a -> "-" ^ fexpr_to_string_prec 2 a
  | Fcall (name, args) ->
      name ^ "(" ^ String.concat ", " (List.map (fexpr_to_string_prec 0) args) ^ ")"
  | Of_int e -> Expr.to_string e

let fexpr_to_string = fexpr_to_string_prec 0

let rec cond_to_string c =
  match c with
  | Fcmp (r, a, b) ->
      fexpr_to_string a ^ " " ^ rel_to_string r ^ " " ^ fexpr_to_string b
  | Icmp (r, a, b) -> Expr.to_string a ^ " " ^ rel_to_string r ^ " " ^ Expr.to_string b
  | Not a -> ".NOT. (" ^ cond_to_string a ^ ")"
  | And (a, b) -> "(" ^ cond_to_string a ^ ") .AND. (" ^ cond_to_string b ^ ")"
  | Or (a, b) -> "(" ^ cond_to_string a ^ ") .OR. (" ^ cond_to_string b ^ ")"

let rec render indent buf s =
  let pad = String.make indent ' ' in
  let line l = Buffer.add_string buf (pad ^ l ^ "\n") in
  match s with
  | Assign (name, [], rhs) -> line (name ^ " = " ^ fexpr_to_string rhs)
  | Assign (name, subs, rhs) ->
      line
        (name ^ "(" ^ String.concat ", " (List.map Expr.to_string subs) ^ ") = "
       ^ fexpr_to_string rhs)
  | Iassign (name, [], rhs) -> line (name ^ " = " ^ Expr.to_string rhs)
  | Iassign (name, subs, rhs) ->
      line
        (name ^ "(" ^ String.concat ", " (List.map Expr.to_string subs) ^ ") = "
       ^ Expr.to_string rhs)
  | If (c, t, []) ->
      line ("IF (" ^ cond_to_string c ^ ") THEN");
      List.iter (render (indent + 2) buf) t;
      line "END IF"
  | If (c, t, e) ->
      line ("IF (" ^ cond_to_string c ^ ") THEN");
      List.iter (render (indent + 2) buf) t;
      line "ELSE";
      List.iter (render (indent + 2) buf) e;
      line "END IF"
  | Loop l ->
      let step_part =
        if Expr.equal l.step (Expr.Int 1) then "" else ", " ^ Expr.to_string l.step
      in
      line
        ("DO " ^ l.index ^ " = " ^ Expr.to_string l.lo ^ ", " ^ Expr.to_string l.hi
       ^ step_part);
      List.iter (render (indent + 2) buf) l.body;
      line "END DO"

let to_string s =
  let buf = Buffer.create 128 in
  render 0 buf s;
  Buffer.contents buf

let block_to_string block =
  let buf = Buffer.create 256 in
  List.iter (render 0 buf) block;
  Buffer.contents buf
