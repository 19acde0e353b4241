(* The block size every BLOCK DO steps by, a parameter like N. *)
let ks = Expr.var "KS"

(* Environment: for each enclosing BLOCK DO index, its upper bound. *)
type blocks = (string * Expr.t) list

let last_of (blocks : blocks) k =
  match List.assoc_opt k blocks with
  | Some hi -> Ok (Expr.min_ (Expr.add (Expr.var k) (Expr.pred ks)) hi)
  | None -> Error ("LAST(" ^ k ^ ") outside BLOCK DO " ^ k)

(* Replace LAST(k) pseudo-references in an expression. *)
let rec subst_last blocks (e : Expr.t) =
  let ( let* ) = Result.bind in
  match e with
  | Expr.Int _ | Expr.Var _ -> Ok e
  | Expr.Bin (op, a, b) ->
      let* a = subst_last blocks a in
      let* b = subst_last blocks b in
      Ok (Expr.Bin (op, a, b))
  | Expr.Min (a, b) ->
      let* a = subst_last blocks a in
      let* b = subst_last blocks b in
      Ok (Expr.min_ a b)
  | Expr.Max (a, b) ->
      let* a = subst_last blocks a in
      let* b = subst_last blocks b in
      Ok (Expr.max_ a b)
  | Expr.Idx ("LAST", [ Expr.Var k ]) -> last_of blocks k
  | Expr.Idx (name, subs) ->
      let* subs =
        List.fold_right
          (fun s acc ->
            let* acc = acc in
            let* s = subst_last blocks s in
            Ok (s :: acc))
          subs (Ok [])
      in
      Ok (Expr.Idx (name, subs))

let lower ext =
  let ( let* ) = Result.bind in
  let rec go blocks (s : Ext.stmt) =
    match s with
    | Ext.Exec stmt ->
        (* Plain statements may still mention LAST in bounds/subscripts. *)
        let result = ref (Ok ()) in
        let stmt' =
          Stmt.map_expr
            (fun e ->
              match subst_last blocks e with
              | Ok e' -> e'
              | Error m ->
                  if !result = Ok () then result := Error m;
                  e)
            stmt
        in
        let* () = !result in
        Ok stmt'
    | Ext.Do { index; lo; hi; body } ->
        let* lo = subst_last blocks lo in
        let* hi = subst_last blocks hi in
        let* body = go_block blocks body in
        Ok (Stmt.loop index lo hi body)
    | Ext.Block_do { index; lo; hi; body } ->
        let* lo = subst_last blocks lo in
        let* hi = subst_last blocks hi in
        let* body = go_block ((index, hi) :: blocks) body in
        Ok (Stmt.loop ~step:ks index lo hi body)
    | Ext.In_do { block_index; index; bounds; body } -> (
        match List.assoc_opt block_index blocks with
        | None -> Error ("IN " ^ block_index ^ " DO outside its BLOCK DO")
        | Some _ ->
            let* lo, hi =
              match bounds with
              | None ->
                  let* l = last_of blocks block_index in
                  Ok (Expr.var block_index, l)
              | Some (lo, hi) ->
                  let* lo = subst_last blocks lo in
                  let* hi = subst_last blocks hi in
                  Ok (lo, hi)
            in
            let* body = go_block blocks body in
            Ok (Stmt.loop index lo hi body))
  and go_block blocks body =
    List.fold_right
      (fun s acc ->
        let* acc = acc in
        let* s = go blocks s in
        Ok (s :: acc))
      body (Ok [])
  in
  go [] ext
