let check_partition n groups =
  let covered = List.concat groups in
  let sorted = List.sort Int.compare covered in
  if sorted <> List.init n (fun i -> i) then
    Error "groups must partition the body statements"
  else Ok ()

let build_loops (l : Stmt.loop) groups =
  let body = Array.of_list l.body in
  List.map
    (fun group ->
      let stmts = List.map (fun i -> body.(i)) (List.sort Int.compare group) in
      Stmt.Loop { l with body = stmts })
    groups

(* Legality of the split, with the number of backward edges
   [ignore_dep] licensed.  A dependence between statements of the same
   group never constrains the split; between groups, the direction must
   follow group order.  Edges within an SCC that spans two groups show
   up as one forward and one backward edge, so the backward-edge check
   subsumes the SCC condition.  Only a backward edge can be reversed,
   so [ignore_dep] (possibly a proof) is asked about backward edges
   alone, in edge order, up to the first it refuses: that edge is the
   violation. *)
let legality ~ignore_dep ~edges ~groups =
  let pos = Hashtbl.create 8 in
  List.iteri (fun gi group -> List.iter (fun s -> Hashtbl.replace pos s gi) group) groups;
  let rec scan ignored = function
    | [] -> (ignored, Ok ())
    | (e : Ddg.edge) :: rest ->
        if Hashtbl.find pos e.from_stmt <= Hashtbl.find pos e.to_stmt then
          scan ignored rest
        else if ignore_dep e.dep then scan (ignored + 1) rest
        else
          ( ignored,
            Error
              (Printf.sprintf
                 "dependence from statement %d to statement %d would be reversed: %s"
                 e.from_stmt e.to_stmt
                 (Dependence.to_string e.dep)) )
  in
  scan 0 edges

let groups_to_string groups =
  String.concat " | "
    (List.map (fun g -> String.concat "," (List.map string_of_int g)) groups)

let apply_with_override ~ctx ~ignore_dep (l : Stmt.loop) ~groups =
  let ( let* ) = Result.bind in
  let n = List.length l.body in
  let* () = check_partition n groups in
  let g = Ddg.build ~ctx l in
  let ignored, legal = legality ~ignore_dep ~edges:g.edges ~groups in
  Obs.decide ~transform:"distribute" ~target:l.index
    ~evidence:
      [
        ("groups", Obs.Str (groups_to_string groups));
        ("edges", Obs.Int (List.length g.edges));
        ("ignored_deps", Obs.Int ignored);
      ]
  @@ Result.map (fun () -> build_loops l groups) legal

let apply ~ctx l ~groups = apply_with_override ~ctx ~ignore_dep:(fun _ -> false) l ~groups

let auto ~ctx (l : Stmt.loop) =
  let g = Ddg.build ~ctx l in
  Obs.decide ~transform:"distribute-auto" ~target:l.index
    ~evidence:
      [
        ("stmts", Obs.Int g.n);
        ("edges", Obs.Int (List.length g.edges));
        ("sccs", Obs.Int (List.length g.sccs));
      ]
  @@
  match Ddg.distribution_order g with
  | None -> Error "the loop body is a single recurrence: distribution impossible"
  | Some groups -> Ok (build_loops l groups)
