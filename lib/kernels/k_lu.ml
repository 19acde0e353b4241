open Builder

let point_loop : Stmt.loop =
  let vn = v "N" and vk = v "K" and vi = v "I" and vj = v "J" in
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
  match do_ "K" (i 1) (vn -! i 1) [ scale; update ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

(* Entries uniform in [-0.5, 0.5), then n added to the diagonal: the
   same draws in the same order, and the same sums, as adding n while
   filling. *)
let fill_dominant rng a ~n =
  Lcg.fill rng a ~scale:1.0 ~shift:0.5;
  for d = 0 to n - 1 do
    let k = d * (n + 1) in
    a.(k) <- Stdlib.( +. ) a.(k) (float_of_int n)
  done

let fill_matrix env ~n ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  fill_dominant (Lcg.create seed) (Env.farray_data env "A") ~n

let kernel : Kernel_def.t =
  {
    name = "lu";
    description = "LU decomposition without pivoting (point algorithm)";
    block = [ Stmt.Loop point_loop ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        fill_matrix env ~n ~seed);
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "N"); (i 1, v "N") ]) ];
  }
