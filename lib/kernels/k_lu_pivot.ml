open Builder

let abs_ e = Stmt.Fcall ("ABS", [ e ])

let point_loop : Stmt.loop =
  let vn = v "N" and vk = v "K" and vi = v "I" and vj = v "J" in
  let vmax = v "IMAX" in
  let find_pivot =
    [
      seti "IMAX" vk;
      setf "AMAX" (abs_ (a2 "A" vk vk));
      do_ "I" (vk +! i 1) vn
        [
          if_
            (Stmt.Fcmp (Stmt.Gt, abs_ (a2 "A" vi vk), fv "AMAX"))
            [ setf "AMAX" (abs_ (a2 "A" vi vk)); seti "IMAX" vi ];
        ];
    ]
  in
  let swap =
    do_ "J" (i 1) vn
      [
        setf "TAU" (a2 "A" vk vj);
        set2 "A" vk vj (a2 "A" vmax vj);
        set2 "A" vmax vj (fv "TAU");
      ]
  in
  let scale =
    do_ "I" (vk +! i 1) vn [ set2 "A" vi vk (a2 "A" vi vk /. a2 "A" vk vk) ]
  in
  let update =
    do_ "J" (vk +! i 1) vn
      [
        do_ "I" (vk +! i 1) vn
          [ set2 "A" vi vj (a2 "A" vi vj -. (a2 "A" vi vk *. a2 "A" vk vj)) ];
      ]
  in
  match do_ "K" (i 1) (vn -! i 1) (find_pivot @ [ swap; scale; update ]) with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let fill_matrix env ~n ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Lcg.fill (Lcg.create seed) (Env.farray_data env "A") ~scale:2.0 ~shift:1.0

let kernel : Kernel_def.t =
  {
    name = "lu_pivot";
    description = "LU decomposition with partial pivoting (point algorithm)";
    block = [ Stmt.Loop point_loop ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        fill_matrix env ~n ~seed);
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "N"); (i 1, v "N") ]) ];
  }
