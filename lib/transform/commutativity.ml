(* Derived commutativity via fractal symbolic analysis. *)

(* The immediate body statement of the carrying loop a dependence
   endpoint lies in. *)
let body_stmt_of_path (path : Stmt.path) =
  match path with
  | Stmt.I 0 :: Stmt.I k :: _ -> Some k
  | _ -> None

let theta_counter = ref 0

let fresh_theta base =
  incr theta_counter;
  Printf.sprintf "%s.%d" base !theta_counter

(* Facts about the integer scalars an instance reads, recovered from
   the body prefix that runs before it within the same iteration: e.g.
   after the pivot search at iteration [theta], [IMAX] lies in
   [[theta, N]].  Only sound for scalars the {e other} instance neither
   reads (the shared-exposed guard refused those) nor writes. *)
let range_facts ~ctx ~assigned l stmt_idx theta reader other =
  let prefix = List.filteri (fun i _ -> i < stmt_idx) (l : Stmt.loop).body in
  let prefix = Stmt.subst_block [ (l.index, Expr.var theta) ] prefix in
  let reads = Fsa.exposed_reads [ reader ] in
  let other_writes = Fsa.assigned_scalars [ other ] in
  List.fold_left
    (fun ctx (v, (iv : Fsa.interval)) ->
      if
        List.mem v reads && List.mem v assigned
        && not (List.mem v other_writes)
      then
        let ctx =
          match iv.ilo with
          | Some lo -> Symbolic.assume_ge ctx (Affine.var v) lo
          | None -> ctx
        in
        match iv.ihi with
        | Some hi -> Symbolic.assume_le ctx (Affine.var v) hi
        | None -> ctx
      else ctx)
    ctx
    (Fsa.int_ranges ~ctx prefix)

let derive_commute ~ctx (l : Stmt.loop) a b =
  let body = Array.of_list l.body in
  let sa = body.(a) and sb = body.(b) in
  let assigned = Fsa.assigned_scalars l.body in
  let ea = Fsa.exposed_reads [ sa ] and eb = Fsa.exposed_reads [ sb ] in
  let shared =
    List.filter (fun s -> List.mem s eb && List.mem s assigned) ea
  in
  if shared <> [] then
    ( false,
      Printf.sprintf
        "both instances read scalar %s, which the loop body assigns"
        (List.hd shared) )
  else begin
    let t1 = fresh_theta l.index and t2 = fresh_theta l.index in
    let p = Stmt.subst [ (l.index, Expr.var t1) ] sa in
    let q = Stmt.subst [ (l.index, Expr.var t2) ] sb in
    let ctx =
      Symbolic.with_loops ctx [ { l with index = t1 }; { l with index = t2 } ]
    in
    let ctx =
      Symbolic.assume_le ctx
        (Affine.add (Affine.var t1) (Affine.const 1))
        (Affine.var t2)
    in
    let ctx = range_facts ~ctx ~assigned l a t1 sa sb in
    let ctx = range_facts ~ctx ~assigned l b t2 sb sa in
    let ignore_scalars = Fsa.stmt_covered_scalars l.body in
    let r = Fsa.commute ~ignore_scalars ~ctx [ p ] [ q ] in
    match r.Fsa.verdict with
    | Fsa.Equivalent ->
        (true, String.concat "\n" (Fsa.proof_to_lines r.Fsa.proof))
    | Fsa.Unknown why -> (false, why)
  end

(* Shared by every derivation in the process; serve lanes derive
   concurrently, so every access holds [memo_mu] (never while
   proving). *)
let memo : (string, bool * string) Hashtbl.t = Hashtbl.create 16
let memo_mu = Mutex.create ()

let may_ignore ~ctx (l : Stmt.loop) (dep : Dependence.t) =
  let n = List.length l.body in
  match
    (body_stmt_of_path dep.source.path, body_stmt_of_path dep.sink.path)
  with
  | Some a, Some b when a <> b && a < n && b < n ->
      let key =
        Printf.sprintf "%d|%d|%s|%s" a b
          (Stmt.to_string (Stmt.Loop l))
          (String.concat ";" (List.map Affine.to_string (Symbolic.facts ctx)))
      in
      let ok, detail =
        match Mutex.protect memo_mu (fun () -> Hashtbl.find_opt memo key) with
        | Some r -> r
        | None ->
            let r = derive_commute ~ctx l a b in
            Mutex.protect memo_mu (fun () -> Hashtbl.replace memo key r);
            r
      in
      if ok then
        Obs.decision ~transform:"commutativity" ~target:l.index ~applied:true
          ~reason:
            "derived: fractal symbolic analysis proves the reordered \
             instances equivalent; the dependence between them may be \
             ignored for distribution"
          ~evidence:
            [
              ("dependence", Obs.Str (Dependence.to_string dep));
              ("stmts", Obs.Str (Printf.sprintf "%d <-> %d" a b));
              ("proof", Obs.Str detail);
            ]
          ();
      ok
  | _ -> false
