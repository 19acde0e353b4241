module Smap = Map.Make (String)

type t = { terms : int Smap.t; const : int }

let norm terms = Smap.filter (fun _ c -> c <> 0) terms
let const c = { terms = Smap.empty; const = c }
let zero = const 0
let var v = { terms = Smap.singleton v 1; const = 0 }

let add a b =
  {
    terms =
      norm
        (Smap.union (fun _ x y -> Some (x + y)) a.terms b.terms);
    const = a.const + b.const;
  }

let scale k a =
  if k = 0 then zero
  else { terms = Smap.map (fun c -> k * c) a.terms; const = k * a.const }

let neg a = scale (-1) a
let sub a b = add a (neg b)

let rec of_expr (e : Expr.t) =
  match e with
  | Expr.Int n -> Some (const n)
  | Expr.Var v -> Some (var v)
  | Expr.Bin (Expr.Add, a, b) -> combine add a b
  | Expr.Bin (Expr.Sub, a, b) -> combine sub a b
  | Expr.Bin (Expr.Mul, a, b) -> (
      match of_expr a, of_expr b with
      | Some fa, Some fb -> (
          match is_const_form fa, is_const_form fb with
          | Some k, _ -> Some (scale k fb)
          | _, Some k -> Some (scale k fa)
          | None, None -> None)
      | _ -> None)
  | Expr.Bin (Expr.Div, a, b) -> (
      match of_expr a, of_expr b with
      | Some fa, Some fb -> (
          match is_const_form fb with
          | Some k
            when k <> 0 && fa.const mod k = 0
                 && Smap.for_all (fun _ c -> c mod k = 0) fa.terms ->
              Some { terms = Smap.map (fun c -> c / k) fa.terms; const = fa.const / k }
          | Some _ | None -> None)
      | _ -> None)
  | Expr.Min _ | Expr.Max _ | Expr.Idx _ -> None

and combine op a b =
  match of_expr a, of_expr b with
  | Some fa, Some fb -> Some (op fa fb)
  | _ -> None

and is_const_form a = if Smap.is_empty a.terms then Some a.const else None

let is_const = is_const_form
let coeff a v = match Smap.find_opt v a.terms with Some c -> c | None -> 0
let constant a = a.const
let vars a = List.map fst (Smap.bindings a.terms)
let equal a b = a.const = b.const && Smap.equal Int.equal a.terms b.terms

let hash a =
  Smap.fold
    (fun v c h -> (((h * 65599) + Hashtbl.hash v) * 65599) + c)
    a.terms a.const
  land max_int

let split_on v a = (coeff a v, { a with terms = Smap.remove v a.terms })

let subst v by a =
  let c, rest = split_on v a in
  add rest (scale c by)

let eval lookup a =
  Smap.fold (fun v c acc -> acc + (c * lookup v)) a.terms a.const

let to_expr a =
  let open Expr in
  let terms =
    Smap.fold
      (fun v c acc ->
        let t = if c = 1 then Var v else mul (Int c) (Var v) in
        t :: acc)
      a.terms []
  in
  let body =
    match List.rev terms with
    | [] -> Int a.const
    | first :: rest ->
        let sum = List.fold_left add first rest in
        if a.const = 0 then sum else add sum (Int a.const)
  in
  simplify body

let to_string a = Expr.to_string (to_expr a)
