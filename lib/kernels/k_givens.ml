open Builder

let point_loop : Stmt.loop =
  let vl = v "L" and vj = v "J" and vk = v "K" in
  let rotate =
    do_ "K" vl (v "N")
      [
        setf "A1" (a2 "A" vl vk);
        setf "A2" (a2 "A" vj vk);
        set2 "A" vl vk ((fv "C" *. fv "A1") +. (fv "S" *. fv "A2"));
        set2 "A" vj vk ((Stmt.Fneg (fv "S") *. fv "A1") +. (fv "C" *. fv "A2"));
      ]
  in
  let guarded =
    if_
      (fne (a2 "A" vj vl) (fc 0.0))
      [
        setf "DEN"
          (sqrt_ ((a2 "A" vl vl *. a2 "A" vl vl) +. (a2 "A" vj vl *. a2 "A" vj vl)));
        setf "C" (a2 "A" vl vl /. fv "DEN");
        setf "S" (a2 "A" vj vl /. fv "DEN");
        rotate;
      ]
  in
  let j_loop = do_ "J" (vl +! i 1) (v "M") [ guarded ] in
  match do_ "L" (i 1) (v "N") [ j_loop ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let setup env ~bindings ~seed =
  let m = List.assoc "M" bindings and n = List.assoc "N" bindings in
  Env.add_farray env "A" [ (1, m); (1, n) ];
  Lcg.fill (Lcg.create seed) (Env.farray_data env "A") ~scale:2.0 ~shift:1.0

let kernel : Kernel_def.t =
  {
    name = "givens";
    description = "QR decomposition with Givens rotations (point algorithm)";
    block = [ Stmt.Loop point_loop ];
    params = [ "M"; "N" ];
    setup;
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "M"); (i 1, v "N") ]) ];
  }
