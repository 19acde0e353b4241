type edge = { from_stmt : int; to_stmt : int; dep : Dependence.t }

type t = {
  loop : Stmt.loop;
  n : int;
  edges : edge list;
  sccs : int list list;
}

(* An access inside [Loop l] analyzed as the block [ [Loop l] ] has a path
   beginning [I 0; I k; ...]: k is the body-statement index. *)
let body_stmt_of_path (path : Stmt.path) =
  match path with
  | Stmt.I 0 :: Stmt.I k :: _ -> Some k
  | _ -> None

let build ~ctx (l : Stmt.loop) =
  let w0 = Symbolic.work () in
  let deps = Dependence.all ~ctx [ Stmt.Loop l ] in
  let n = List.length l.body in
  let edges =
    List.filter_map
      (fun (dep : Dependence.t) ->
        match
          ( body_stmt_of_path dep.source.path,
            body_stmt_of_path dep.sink.path )
        with
        | Some a, Some b ->
            (* Keep dependences that cross iterations of [l] (carrier 0) or
               are loop-independent across statements.  Dependences carried
               by inner loops connect a statement to itself at this level
               and do not constrain distribution. *)
            let relevant =
              match dep.carrier with
              | Some 0 -> true
              | Some _ -> false
              | None -> a <> b
            in
            if relevant then Some { from_stmt = a; to_stmt = b; dep } else None
        | _ -> None)
      deps
  in
  let succ v =
    List.filter_map
      (fun e -> if e.from_stmt = v then Some e.to_stmt else None)
      edges
  in
  let sccs = Scc.compute ~n ~succ in
  if Obs.enabled () then begin
    let w = Symbolic.work_since w0 in
    Obs.instant ~cat:"analysis" "ddg"
      ~args:
        [
          ("loop", Obs.Str l.index);
          ("stmts", Obs.Int n);
          ("edges", Obs.Int (List.length edges));
          ("sccs", Obs.Int (List.length sccs));
          ( "recurrences",
            Obs.Int (List.length (List.filter (fun c -> List.length c > 1) sccs))
          );
          ("queries", Obs.Int w.Symbolic.queries);
          ("cache_hits", Obs.Int w.cache_hits);
          ("searches", Obs.Int w.searches);
          ("search_steps", Obs.Int w.search_steps);
        ]
  end;
  { loop = l; n; edges; sccs }

let scc_index g v =
  let rec go i = function
    | [] -> invalid_arg "Ddg.scc_index"
    | comp :: rest -> if List.mem v comp then i else go (i + 1) rest
  in
  go 0 g.sccs

let same_scc g a b = scc_index g a = scc_index g b

let preventing_edges g a b =
  if not (same_scc g a b) then []
  else
    let comp = List.nth g.sccs (scc_index g a) in
    List.filter_map
      (fun e ->
        if List.mem e.from_stmt comp && List.mem e.to_stmt comp then Some e.dep
        else None)
      g.edges

let distribution_order g =
  match g.sccs with
  | [ _ ] when g.n > 1 -> None
  | sccs -> Some sccs
