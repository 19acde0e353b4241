open Builder

let body =
  let vi = v "I" and vk = v "K" in
  [ set1 "F3" vi (a1 "F3" vi +. (fv "DT" *. a1 "F1" vk *. a1 "F2" (vi -! vk))) ]

let aconv_loop : Stmt.loop =
  let vi = v "I" in
  let inner = do_ "K" vi (Expr.min_ (vi +! v "N2") (v "N1")) body in
  match do_ "I" (i 0) (v "N3") [ inner ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let conv_loop : Stmt.loop =
  let vi = v "I" in
  let inner =
    do_ "K"
      (Expr.max_ (i 0) (vi -! v "N2"))
      (Expr.min_ vi (v "N1"))
      body
  in
  match do_ "I" (i 0) (v "N3") [ inner ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let setup env ~bindings ~seed =
  let n1 = List.assoc "N1" bindings
  and n2 = List.assoc "N2" bindings
  and n3 = List.assoc "N3" bindings in
  Env.add_farray env "F1" [ (0, max n1 n3) ];
  Env.add_farray env "F2" [ (-n2, max n2 n3) ];
  Env.add_farray env "F3" [ (0, n3) ];
  Env.set_fscalar env "DT" 0.01;
  let rng = Lcg.create seed in
  Lcg.fill rng (Env.farray_data env "F1") ~scale:1.0 ~shift:0.0;
  Lcg.fill rng (Env.farray_data env "F2") ~scale:1.0 ~shift:0.0

let make name description loop : Kernel_def.t =
  {
    name;
    description;
    block = [ Stmt.Loop loop ];
    params = [ "N1"; "N2"; "N3" ];
    setup;
    traced = [ "F1"; "F2"; "F3" ];
    shapes =
      [
        ("F1", [ (i 0, Expr.max_ (v "N1") (v "N3")) ]);
        ("F2", [ (i 0 -! v "N2", Expr.max_ (v "N2") (v "N3")) ]);
        ("F3", [ (i 0, v "N3") ]);
      ];
  }

let aconv = make "aconv" "adjoint convolution of two time series" aconv_loop
let conv = make "conv" "convolution of two time series" conv_loop
