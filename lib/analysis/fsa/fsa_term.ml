type atom = Ale of Affine.t * Affine.t | Aeq of Affine.t * Affine.t

let atom_key = function
  | Ale (a, b) -> "le:" ^ Affine.to_string (Affine.sub b a)
  | Aeq (a, b) ->
      let d = Affine.sub a b in
      let s1 = Affine.to_string d and s2 = Affine.to_string (Affine.neg d) in
      "eq:" ^ if String.compare s1 s2 <= 0 then s1 else s2

let subst_aff bindings a =
  List.fold_left (fun a (v, by) -> Affine.subst v by a) a bindings

let atom_subst bindings = function
  | Ale (a, b) -> Ale (subst_aff bindings a, subst_aff bindings b)
  | Aeq (a, b) -> Aeq (subst_aff bindings a, subst_aff bindings b)

let atom_to_string = function
  | Ale (a, b) -> Affine.to_string a ^ " <= " ^ Affine.to_string b
  | Aeq (a, b) -> Affine.to_string a ^ " = " ^ Affine.to_string b

type t =
  | Init of string * Affine.t list
  | Sinit of string
  | Const of float
  | Neg of t
  | Bin of Stmt.fbinop * t * t
  | Call of string * t list
  | Of_int of Affine.t
  | Ite of atom list * t * t

let rec subst bindings = function
  | Init (a, subs) -> Init (a, List.map (subst_aff bindings) subs)
  | Sinit _ | Const _ as t -> t
  | Neg t -> Neg (subst bindings t)
  | Bin (op, a, b) -> Bin (op, subst bindings a, subst bindings b)
  | Call (f, args) -> Call (f, List.map (subst bindings) args)
  | Of_int a -> Of_int (subst_aff bindings a)
  | Ite (conds, t1, t2) ->
      Ite (List.map (atom_subst bindings) conds, subst bindings t1, subst bindings t2)

let atoms t =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add a =
    let k = atom_key a in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out := a :: !out
    end
  in
  let rec go = function
    | Init _ | Sinit _ | Const _ | Of_int _ -> ()
    | Neg t -> go t
    | Bin (_, a, b) -> go a; go b
    | Call (_, args) -> List.iter go args
    | Ite (conds, t1, t2) ->
        List.iter add conds;
        go t1;
        go t2
  in
  go t;
  List.rev !out

let rec size = function
  | Init _ | Sinit _ | Const _ | Of_int _ -> 1
  | Neg t -> 1 + size t
  | Bin (_, a, b) -> 1 + size a + size b
  | Call (_, args) -> List.fold_left (fun n t -> n + size t) 1 args
  | Ite (conds, t1, t2) -> 1 + List.length conds + size t1 + size t2

let rec resolve truth = function
  | Init _ | Sinit _ | Const _ | Of_int _ as t -> t
  | Neg t -> Neg (resolve truth t)
  | Bin (op, a, b) -> Bin (op, resolve truth a, resolve truth b)
  | Call (f, args) -> Call (f, List.map (resolve truth) args)
  | Ite (conds, t1, t2) ->
      if List.for_all (fun a -> truth (atom_key a)) conds then resolve truth t1
      else resolve truth t2

let rec equal_under ctx a b =
  match a, b with
  | Init (x, xs), Init (y, ys) ->
      String.equal x y
      && List.length xs = List.length ys
      && List.for_all2 (Symbolic.prove_eq ctx) xs ys
  | Sinit x, Sinit y -> String.equal x y
  | Const x, Const y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Neg x, Neg y -> equal_under ctx x y
  | Bin (op1, a1, b1), Bin (op2, a2, b2) ->
      op1 = op2 && equal_under ctx a1 a2 && equal_under ctx b1 b2
  | Call (f, xs), Call (g, ys) ->
      String.equal f g
      && List.length xs = List.length ys
      && List.for_all2 (equal_under ctx) xs ys
  | Of_int x, Of_int y -> Symbolic.prove_eq ctx x y
  | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
      List.length c1 = List.length c2
      && List.for_all2 (fun x y -> String.equal (atom_key x) (atom_key y)) c1 c2
      && equal_under ctx a1 a2 && equal_under ctx b1 b2
  | _ -> false

