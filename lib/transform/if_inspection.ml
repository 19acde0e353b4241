type names = {
  counter : string;
  lb : string;
  ub : string;
  flag : string;
  range_index : string;
}

let default_names ~prefix ~used =
  let fresh base =
    Ir_util.fresh ~used (prefix ^ base)
  in
  (* fresh is stateless; make names distinct by accumulating. *)
  let counter = fresh "C" in
  let used = counter :: used in
  let lb = Ir_util.fresh ~used (prefix ^ "LB") in
  let used = lb :: used in
  let ub = Ir_util.fresh ~used (prefix ^ "UB") in
  let used = ub :: used in
  let flag = Ir_util.fresh ~used "FLAG" in
  let used = flag :: used in
  let range_index = Ir_util.fresh ~used (prefix ^ "N") in
  { counter; lb; ub; flag; range_index }

let names_in block ~prefix =
  default_names ~prefix
    ~used:
      (Ir_util.index_vars block
      @ List.map (fun (n, _, _) -> n) (Ir_util.arrays_of block)
      @ Ir_util.symbolic_params block)

let cond_arrays (c : Stmt.cond) =
  let rec of_f (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fconst _ | Stmt.Fvar _ | Stmt.Of_int _ -> []
    | Stmt.Ref (a, _) -> [ a ]
    | Stmt.Fbin (_, x, y) -> of_f x @ of_f y
    | Stmt.Fneg x -> of_f x
    | Stmt.Fcall (_, args) -> List.concat_map of_f args
  in
  let rec go = function
    | Stmt.Fcmp (_, x, y) -> of_f x @ of_f y
    | Stmt.Icmp _ -> []
    | Stmt.Not x -> go x
    | Stmt.And (x, y) | Stmt.Or (x, y) -> go x @ go y
  in
  List.sort_uniq String.compare (go c)

let cond_vars (c : Stmt.cond) =
  let rec of_f (fe : Stmt.fexpr) =
    match fe with
    | Stmt.Fconst _ -> []
    | Stmt.Fvar v -> [ v ]
    | Stmt.Of_int e -> Expr.free_vars e
    | Stmt.Ref (_, subs) -> List.concat_map Expr.free_vars subs
    | Stmt.Fbin (_, x, y) -> of_f x @ of_f y
    | Stmt.Fneg x -> of_f x
    | Stmt.Fcall (_, args) -> List.concat_map of_f args
  in
  let rec go = function
    | Stmt.Fcmp (_, x, y) -> of_f x @ of_f y
    | Stmt.Icmp (_, x, y) -> Expr.free_vars x @ Expr.free_vars y
    | Stmt.Not x -> go x
    | Stmt.And (x, y) | Stmt.Or (x, y) -> go x @ go y
  in
  List.sort_uniq String.compare (go c)

let written_arrays block =
  List.filter_map
    (fun (a : Ir_util.access) ->
      if a.kind = Ir_util.Write then Some a.array else None)
    (Ir_util.accesses block)
  |> List.sort_uniq String.compare

let apply ~names (l : Stmt.loop) =
  Obs.decide ~transform:"if-inspection" ~target:l.index
    ~evidence:
      (match l.body with
      | [ Stmt.If (guard, _, []) ] ->
          [
            ("guard_arrays", Obs.Str (String.concat ", " (cond_arrays guard)));
            ("ranges_counter", Obs.Str names.counter);
          ]
      | _ -> [])
  @@
  match l.body with
  | [ Stmt.If (guard, computation, []) ] ->
      let guard_arrays = cond_arrays guard in
      let body_writes = written_arrays computation in
      let inner_indices = Ir_util.index_vars computation in
      if List.exists (fun a -> List.mem a body_writes) guard_arrays then
        Error "the computation writes an array the guard reads"
      else if
        (* Scalars too: the inspector precomputes every guard value, so a
           computation that writes any variable the guard reads (directly
           or through a subscript) invalidates the recorded ranges. *)
        List.exists (fun x -> List.mem x body_writes) (cond_vars guard)
      then Error "the computation writes a variable the guard reads"
      else if List.exists (fun v -> List.mem v inner_indices) (cond_vars guard)
      then Error "the guard depends on an inner loop index"
      else begin
        let open Builder in
        let k = v l.index in
        let kc = v names.counter in
        let record_start =
          if_
            (Stmt.Icmp (Stmt.Eq, v names.flag, i 0))
            [
              Stmt.Iassign (names.counter, [], kc +! i 1);
              Stmt.Iassign (names.lb, [ kc ], k);
              Stmt.Iassign (names.flag, [], i 1);
            ]
        in
        let record_end =
          if_
            (Stmt.Icmp (Stmt.Eq, v names.flag, i 1))
            [
              Stmt.Iassign (names.ub, [ kc ], k -! i 1);
              Stmt.Iassign (names.flag, [], i 0);
            ]
        in
        let inspector =
          [
            Stmt.Iassign (names.counter, [], i 0);
            Stmt.Iassign (names.flag, [], i 0);
            Stmt.Loop { l with body = [ if_else guard [ record_start ] [ record_end ] ] };
            if_
              (Stmt.Icmp (Stmt.Eq, v names.flag, i 1))
              [
                Stmt.Iassign (names.ub, [ kc ], l.hi);
                Stmt.Iassign (names.flag, [], i 0);
              ];
          ]
        in
        let executor =
          do_ names.range_index (i 1) kc
            [
              Stmt.Loop
                {
                  l with
                  lo = Expr.idx names.lb [ v names.range_index ];
                  hi = Expr.idx names.ub [ v names.range_index ];
                  body = computation;
                };
            ]
        in
        Ok (inspector @ [ executor ])
      end
  | _ -> Error "IF-inspection expects a body that is a single guarded IF"

(* Cross-pair safety for [split_guarded]: a write access in one part and
   any access in the other part must be provably non-interfering across
   different iterations of the split loop. *)
let cross_safe ~ctx (l : Stmt.loop) (a : Ir_util.access) (b : Ir_util.access) =
  if not (String.equal a.array b.array) then true
  else if a.kind <> Ir_util.Write && b.kind <> Ir_util.Write then true
  else
    let identical_indexed =
      List.length a.subs = List.length b.subs
      && a.subs <> []
      && List.for_all2 Expr.equal a.subs b.subs
      && List.exists
           (fun sub ->
             match Affine.of_expr sub with
             | Some aff -> Affine.coeff aff l.index <> 0
             | None -> false)
           a.subs
    in
    identical_indexed
    ||
    match
      ( Section.of_ref ~ctx ~within:a.loops a.array a.subs,
        Section.of_ref ~ctx ~within:b.loops b.array b.subs )
    with
    | Some sa, Some sb -> Section.disjoint ctx sa sb
    | _ -> false

let split_guarded ~ctx ~names ~setup_len (l : Stmt.loop) =
  Obs.decide ~transform:"if-inspection-split" ~target:l.index
    ~evidence:
      [
        ("setup_len", Obs.Int setup_len);
        ("ranges_counter", Obs.Str names.counter);
      ]
  @@
  match l.body with
  | [ Stmt.If (guard, stmts, []) ] when List.length stmts > setup_len ->
      let rec split k = function
        | rest when k = 0 -> ([], rest)
        | [] -> ([], [])
        | s :: rest ->
            let setup, apply = split (k - 1) rest in
            (s :: setup, apply)
      in
      let setup, apply = split setup_len stmts in
      (* Safety: every write in apply against every access in guard/setup
         and vice versa. *)
      let accesses_of block = Ir_util.accesses [ Stmt.Loop { l with body = block } ] in
      let apply_accs = accesses_of apply in
      let setup_accs =
        accesses_of [ Stmt.If (guard, setup, []) ]
      in
      let offending =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                if cross_safe ~ctx l a b then None
                else Some (a.Ir_util.array ^ " vs " ^ b.Ir_util.array))
              setup_accs)
          apply_accs
      in
      if offending <> [] then
        Error
          ("unsafe to defer the apply part past later setups: "
          ^ String.concat ", " (List.sort_uniq String.compare offending))
      else begin
        let open Builder in
        let k = v l.index in
        let kc = v names.counter in
        let record_start =
          if_
            (Stmt.Icmp (Stmt.Eq, v names.flag, i 0))
            [
              Stmt.Iassign (names.counter, [], kc +! i 1);
              Stmt.Iassign (names.lb, [ kc ], k);
              Stmt.Iassign (names.flag, [], i 1);
            ]
        in
        let record_end =
          if_
            (Stmt.Icmp (Stmt.Eq, v names.flag, i 1))
            [
              Stmt.Iassign (names.ub, [ kc ], k -! i 1);
              Stmt.Iassign (names.flag, [], i 0);
            ]
        in
        let inspector_setup =
          [
            Stmt.Iassign (names.counter, [], i 0);
            Stmt.Iassign (names.flag, [], i 0);
            Stmt.Loop
              { l with body = [ if_else guard (setup @ [ record_start ]) [ record_end ] ] };
            if_
              (Stmt.Icmp (Stmt.Eq, v names.flag, i 1))
              [
                Stmt.Iassign (names.ub, [ kc ], l.hi);
                Stmt.Iassign (names.flag, [], i 0);
              ];
          ]
        in
        let executor : Stmt.loop =
          {
            index = names.range_index;
            lo = i 1;
            hi = kc;
            step = i 1;
            body =
              [
                Stmt.Loop
                  {
                    l with
                    lo = Expr.idx names.lb [ v names.range_index ];
                    hi = Expr.idx names.ub [ v names.range_index ];
                    body = apply;
                  };
              ];
          }
        in
        Ok (inspector_setup, executor)
      end
  | _ -> Error "split_guarded expects a body that is a single guarded IF"
