type binop = Add | Sub | Mul | Div

type t =
  | Int of int
  | Var of string
  | Bin of binop * t * t
  | Min of t * t
  | Max of t * t
  | Idx of string * t list

let rec equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Var x, Var y -> String.equal x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Min (a1, b1), Min (a2, b2) | Max (a1, b1), Max (a2, b2) ->
      equal a1 a2 && equal b1 b2
  | Idx (n1, l1), Idx (n2, l2) ->
      String.equal n1 n2
      && List.length l1 = List.length l2
      && List.for_all2 equal l1 l2
  | (Int _ | Var _ | Bin _ | Min _ | Max _ | Idx _), _ -> false

let int n = Int n
let var v = Var v
let idx name subs = Idx (name, subs)

let with_offset e k = if k = 0 then e else Bin (Add, e, Int k)

let add a b =
  match a, b with
  | Int 0, e | e, Int 0 -> e
  | Int x, Int y -> Int (x + y)
  | Int x, Bin (Add, e, Int y) | Bin (Add, e, Int y), Int x -> with_offset e (x + y)
  | _ -> Bin (Add, a, b)

let sub a b =
  match a, b with
  | e, Int 0 -> e
  | Int x, Int y -> Int (x - y)
  | Bin (Add, e, Int y), Int x -> with_offset e (y - x)
  | _ -> if equal a b then Int 0 else Bin (Sub, a, b)

let mul a b =
  match a, b with
  | Int 0, _ | _, Int 0 -> Int 0
  | Int 1, e | e, Int 1 -> e
  | Int x, Int y -> Int (x * y)
  | _ -> Bin (Mul, a, b)

let div a b =
  match a, b with
  | e, Int 1 -> e
  | Int x, Int y when y <> 0 -> Int (x / y)
  | _ -> Bin (Div, a, b)

let min_ a b =
  match a, b with
  | Int x, Int y -> Int (min x y)
  | _ -> if equal a b then a else Min (a, b)

let max_ a b =
  match a, b with
  | Int x, Int y -> Int (max x y)
  | _ -> if equal a b then a else Max (a, b)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let succ e = add e (Int 1)
let pred e = sub e (Int 1)

let rec free_vars_acc acc = function
  | Int _ -> acc
  | Var v -> v :: acc
  | Bin (_, a, b) | Min (a, b) | Max (a, b) -> free_vars_acc (free_vars_acc acc a) b
  | Idx (name, subs) -> List.fold_left free_vars_acc (name :: acc) subs

let free_vars e = List.sort_uniq String.compare (free_vars_acc [] e)

let rec subst bindings e =
  match e with
  | Int _ -> e
  | Var v -> ( match List.assoc_opt v bindings with Some e' -> e' | None -> e)
  | Bin (op, a, b) -> (
      let a = subst bindings a and b = subst bindings b in
      match op with Add -> add a b | Sub -> sub a b | Mul -> mul a b | Div -> div a b)
  | Min (a, b) -> min_ (subst bindings a) (subst bindings b)
  | Max (a, b) -> max_ (subst bindings a) (subst bindings b)
  | Idx (name, subs) -> Idx (name, List.map (subst bindings) subs)

let mentions v e = List.mem v (free_vars e)

let rec simplify e =
  match e with
  | Int _ | Var _ -> e
  | Bin (op, a, b) -> (
      let a = simplify a and b = simplify b in
      match op with Add -> add a b | Sub -> sub a b | Mul -> mul a b | Div -> div a b)
  | Min (a, b) -> min_ (simplify a) (simplify b)
  | Max (a, b) -> max_ (simplify a) (simplify b)
  | Idx (name, subs) -> Idx (name, List.map simplify subs)

let rec eval lookup lookup_arr = function
  | Int n -> n
  | Var v -> lookup v
  | Bin (op, a, b) -> (
      let x = eval lookup lookup_arr a and y = eval lookup lookup_arr b in
      match op with
      | Add -> Stdlib.( + ) x y
      | Sub -> Stdlib.( - ) x y
      | Mul -> Stdlib.( * ) x y
      | Div -> x / y)
  | Min (a, b) -> Stdlib.min (eval lookup lookup_arr a) (eval lookup lookup_arr b)
  | Max (a, b) -> Stdlib.max (eval lookup lookup_arr a) (eval lookup lookup_arr b)
  | Idx (name, subs) -> lookup_arr name (List.map (eval lookup lookup_arr) subs)

(* Precedence: 0 = additive, 1 = multiplicative, 2 = atom. *)
let rec to_string_prec prec e =
  let paren needed s = if needed then "(" ^ s ^ ")" else s in
  match e with
  | Int n -> if n < 0 then paren (prec > 1) (string_of_int n) else string_of_int n
  | Var v -> v
  | Bin (Add, a, Int n) when n < 0 ->
      paren (prec > 0) (to_string_prec 0 a ^ " - " ^ string_of_int (-n))
  | Bin (Add, a, b) ->
      paren (prec > 0) (to_string_prec 0 a ^ " + " ^ to_string_prec 1 b)
  | Bin (Sub, a, b) ->
      paren (prec > 0) (to_string_prec 0 a ^ " - " ^ to_string_prec 1 b)
  | Bin (Mul, a, b) ->
      paren (prec > 1) (to_string_prec 1 a ^ "*" ^ to_string_prec 2 b)
  | Bin (Div, a, b) ->
      paren (prec > 1) (to_string_prec 1 a ^ "/" ^ to_string_prec 2 b)
  | Min (a, b) -> "MIN(" ^ to_string_prec 0 a ^ ", " ^ to_string_prec 0 b ^ ")"
  | Max (a, b) -> "MAX(" ^ to_string_prec 0 a ^ ", " ^ to_string_prec 0 b ^ ")"
  | Idx (name, subs) ->
      name ^ "(" ^ String.concat ", " (List.map (to_string_prec 0) subs) ^ ")"

let to_string e = to_string_prec 0 e
