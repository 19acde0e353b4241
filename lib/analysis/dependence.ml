type kind = Flow | Anti | Output | Input

type delem = { lt : bool; eq : bool; gt : bool; dist : int option }

type t = {
  kind : kind;
  source : Ir_util.access;
  sink : Ir_util.access;
  vector : delem list;
  carrier : int option;
}

let any_dir = { lt = true; eq = true; gt = true; dist = None }

let of_dist d =
  { lt = d > 0; eq = d = 0; gt = d < 0; dist = Some d }

let impossible e = not (e.lt || e.eq || e.gt)

let intersect_elem a b =
  match a.dist, b.dist with
  | Some x, Some y when x <> y -> { lt = false; eq = false; gt = false; dist = None }
  | _ ->
      let dist = match a.dist with Some _ -> a.dist | None -> b.dist in
      { lt = a.lt && b.lt; eq = a.eq && b.eq; gt = a.gt && b.gt; dist }

let common_loops (a : Ir_util.access) (b : Ir_util.access) =
  let rec go la lb =
    match la, lb with
    | x :: ra, y :: rb when x == y -> x :: go ra rb
    | _ -> []
  in
  go a.loops b.loops

(* Dependence equation for one subscript position: [s_src(i) = s_snk(i')].
   Returns [None] for proven independence at this position, or a constraint
   on (i' - i) per common loop. *)
type position_result =
  | Independent
  | Constraints of (string * delem) list  (** only mentioned loops listed *)

let rename_non_common ~common ~tag (acc : Ir_util.access) aff =
  let non_common =
    List.filter (fun (l : Stmt.loop) -> not (List.memq l common)) acc.loops
  in
  List.fold_left
    (fun aff (l : Stmt.loop) ->
      Affine.subst l.index (Affine.var (l.index ^ tag)) aff)
    aff non_common

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let test_position ~ctx ~common ~src ~snk s_src s_snk =
  match Affine.of_expr s_src, Affine.of_expr s_snk with
  | None, _ | _, None -> Constraints []
  | Some f_src, Some f_snk -> (
      let f_src = rename_non_common ~common ~tag:"#src" src f_src in
      let f_snk = rename_non_common ~common ~tag:"#snk" snk f_snk in
      let indices = List.map (fun (l : Stmt.loop) -> l.index) common in
      let coeffs_src = List.map (Affine.coeff f_src) indices in
      let coeffs_snk = List.map (Affine.coeff f_snk) indices in
      let strip aff =
        List.fold_left (fun a v -> snd (Affine.split_on v a)) aff indices
      in
      let c_src = strip f_src and c_snk = strip f_snk in
      let dc = Affine.sub c_src c_snk in
      let involved =
        List.filteri
          (fun k _ -> List.nth coeffs_src k <> 0 || List.nth coeffs_snk k <> 0)
          indices
      in
      match involved with
      | [] -> (
          (* ZIV *)
          match Affine.is_const dc with
          | Some 0 -> Constraints []
          | Some _ -> Independent
          | None ->
              if
                Symbolic.prove_gt ctx dc Affine.zero
                || Symbolic.prove_lt ctx dc Affine.zero
              then Independent
              else Constraints [])
      | [ v ] -> (
          (* SIV on loop v:  a*i + c_src = b*i' + c_snk *)
          let k = ref 0 in
          List.iteri (fun i name -> if String.equal name v then k := i) indices;
          let a = List.nth coeffs_src !k and b = List.nth coeffs_snk !k in
          if a = b && a <> 0 then
            (* strong SIV: i' - i = dc / a *)
            match Affine.is_const dc with
            | Some c ->
                if c mod a <> 0 then Independent
                else Constraints [ (v, of_dist (c / a)) ]
            | None ->
                if Symbolic.prove_eq ctx dc Affine.zero then
                  Constraints [ (v, of_dist 0) ]
                else if
                  (* sign of d = dc / a *)
                  (a > 0 && Symbolic.prove_gt ctx dc Affine.zero)
                  || (a < 0 && Symbolic.prove_lt ctx dc Affine.zero)
                then Constraints [ (v, { lt = true; eq = false; gt = false; dist = None }) ]
                else if
                  (a > 0 && Symbolic.prove_lt ctx dc Affine.zero)
                  || (a < 0 && Symbolic.prove_gt ctx dc Affine.zero)
                then Constraints [ (v, { lt = false; eq = false; gt = true; dist = None }) ]
                else Constraints [ (v, any_dir) ]
          else Constraints [ (v, any_dir) ] (* weak SIV: no direction info *))
      | _ -> (
          (* MIV: GCD test on the constant part when the symbolic parts
             cancel. *)
          match Affine.is_const dc with
          | Some c ->
              let g =
                List.fold_left gcd 0 (coeffs_src @ List.map (fun x -> -x) coeffs_snk)
              in
              if g <> 0 && c mod g <> 0 then Independent else Constraints []
          | None -> Constraints []))

(* The loops of an access strictly inside [l] (physical identity). *)
let loops_below (l : Stmt.loop) (a : Ir_util.access) =
  let rec drop = function
    | [] -> []
    | x :: rest -> if x == l then rest else drop rest
  in
  drop a.loops

let rename_section v fresh (s : Section.t) =
  let by = Affine.var fresh in
  let rename_dim (d : Section.dim) =
    {
      d with
      Section.los = List.map (Affine.subst v by) d.Section.los;
      his = List.map (Affine.subst v by) d.Section.his;
    }
  in
  { s with Section.dims = List.map rename_dim s.Section.dims }

let hi_facts ctx ~idx (l : Stmt.loop) =
  let arms =
    match Affine.of_expr l.hi with
    | Some a -> [ a ]
    | None -> (
        match l.hi with
        | Expr.Min (a, b) -> List.filter_map Affine.of_expr [ a; b ]
        | _ -> [])
  in
  List.fold_left (fun c arm -> Symbolic.assume_le c (Affine.var idx) arm) ctx arms

(* Can loop [common.(c)] really carry a dependence from [src] to [snk]?
   Compare the section [src] touches at one iteration (the loop index
   symbolic) with the section [snk] touches at any strictly later
   iteration (index renamed to a fresh symbol constrained to be larger).
   Provable disjointness refutes the carrier — this is the section-based
   refinement that standard distance/direction abstractions lack (paper
   §3.3). *)
let carried_possible ~ctx common c (src : Ir_util.access) (snk : Ir_util.access) =
  match List.nth_opt common c with
  | None -> true
  | Some (l : Stmt.loop) -> (
      match
        ( Section.of_ref ~ctx ~within:(loops_below l src) src.array src.subs,
          Section.of_ref ~ctx ~within:(loops_below l snk) snk.array snk.subs )
      with
      | Some s1, Some s2 ->
          let later = l.index ^ "'" in
          let s2 = rename_section l.index later s2 in
          let ctx' =
            Symbolic.assume_ge ctx (Affine.var later)
              (Affine.add (Affine.var l.index) (Affine.const 1))
          in
          let ctx' = hi_facts ctx' ~idx:later l in
          not (Section.disjoint ctx' s1 s2)
      | _ -> true)

(* Can a loop-independent dependence (same iteration of every common loop)
   exist?  Sections below the innermost common loop share all common
   indices symbolically. *)
let same_iteration_possible ~ctx common (src : Ir_util.access)
    (snk : Ir_util.access) =
  match List.rev common with
  | [] -> true
  | (l : Stmt.loop) :: _ -> (
      match
        ( Section.of_ref ~ctx ~within:(loops_below l src) src.array src.subs,
          Section.of_ref ~ctx ~within:(loops_below l snk) snk.array snk.subs )
      with
      | Some s1, Some s2 -> not (Section.disjoint ctx s1 s2)
      | _ -> true)

let section_disjoint ~ctx (a : Ir_util.access) (b : Ir_util.access) =
  match
    ( Section.of_access ~ctx ~within:a.loops a,
      Section.of_access ~ctx ~within:b.loops b )
  with
  | Some sa, Some sb -> Section.disjoint ctx sa sb
  | _ -> false

let kind_of (src : Ir_util.access) (snk : Ir_util.access) =
  match src.kind, snk.kind with
  | Ir_util.Write, Ir_util.Read -> Flow
  | Ir_util.Read, Ir_util.Write -> Anti
  | Ir_util.Write, Ir_util.Write -> Output
  | Ir_util.Read, Ir_util.Read -> Input

let between ~ctx (src : Ir_util.access) (snk : Ir_util.access) =
  if
    (not (String.equal src.array snk.array))
    || List.length src.subs <> List.length snk.subs
  then []
  else
    let common = common_loops src snk in
    (* Bounds facts of the common loops hold at both access instances —
       every execution of either statement is inside all of them.  Facts
       about deeper or sibling loops would not (a zero-trip inner loop
       still lets the outer statements run), which is why they are
       derived here per pair instead of trusted from the caller. *)
    let ctx = Symbolic.with_loops ctx common in
    if section_disjoint ~ctx src snk then []
    else
    let indices = List.map (fun (l : Stmt.loop) -> l.index) common in
    let base = List.map (fun _ -> any_dir) indices in
    let results =
      List.map2
        (fun s_src s_snk -> test_position ~ctx ~common ~src ~snk s_src s_snk)
        src.subs snk.subs
    in
    if List.exists (fun r -> r = Independent) results then []
    else
      let vector =
        List.fold_left
          (fun vec r ->
            match r with
            | Independent -> vec
            | Constraints cs ->
                List.mapi
                  (fun k e ->
                    match List.assoc_opt (List.nth indices k) cs with
                    | Some c -> intersect_elem e c
                    | None -> e)
                  vec)
          base results
      in
      if List.exists impossible vector then []
      else
        let kind = kind_of src snk in
        let n = List.length vector in
        let deps = ref [] in
        (* One dependence per possible carrier: loops before the carrier at
           distance 0, the carrier strictly positive. *)
        for c = 0 to n - 1 do
          let ok =
            List.for_all (fun k -> (List.nth vector k).eq) (List.init c (fun i -> i))
            && (List.nth vector c).lt
            && carried_possible ~ctx common c src snk
          in
          if ok then
            let dep_vector =
              List.mapi
                (fun k e ->
                  if k < c then of_dist 0
                  else if k = c then { e with eq = false; gt = false }
                  else e)
                vector
            in
            deps := { kind; source = src; sink = snk; vector = dep_vector; carrier = Some c } :: !deps
        done;
        (* Loop-independent dependence: all-zero vector and textual order. *)
        if
          List.for_all (fun e -> e.eq) vector
          && src.pos < snk.pos
          && same_iteration_possible ~ctx common src snk
        then
          deps :=
            {
              kind;
              source = src;
              sink = snk;
              vector = List.map (fun _ -> of_dist 0) vector;
              carrier = None;
            }
            :: !deps;
        List.rev !deps

(* One proof session per graph: [between] rebuilds the same loop
   context for every access pair, and the session lets those equal
   contexts share their answers. *)
let all ?(include_input = false) ~ctx block =
  Symbolic.with_session @@ fun () ->
  let accs = Array.of_list (Ir_util.accesses block) in
  let n = Array.length accs in
  let deps = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a = accs.(i) and b = accs.(j) in
      let relevant =
        (a.kind = Ir_util.Write || b.kind = Ir_util.Write || include_input)
        && (i <> j || a.kind = Ir_util.Write)
      in
      if relevant then deps := between ~ctx a b :: !deps
    done
  done;
  List.concat (List.rev !deps)

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let to_string dep =
  let ref_str (a : Ir_util.access) =
    if a.subs = [] then a.array
    else a.array ^ "(" ^ String.concat "," (List.map Expr.to_string a.subs) ^ ")"
  in
  let elem_str e =
    match e.dist with
    | Some d -> string_of_int d
    | None ->
        let s = (if e.lt then "<" else "") ^ (if e.eq then "=" else "")
                ^ if e.gt then ">" else "" in
        if s = "" then "!" else s
  in
  Printf.sprintf "%s: %s -> %s (%s)%s" (kind_to_string dep.kind)
    (ref_str dep.source) (ref_str dep.sink)
    (String.concat "," (List.map elem_str dep.vector))
    (match dep.carrier with
    | None -> " loop-independent"
    | Some c -> Printf.sprintf " carried by level %d" (c + 1))
