open Builder

let point =
  let vn = v "N" and vk = v "K" and vi = v "I" in
  let solve = set1 "X" vk (a1 "B" vk /. a2 "A" vk vk) in
  let update =
    do_ "I" (vk +! i 1) vn
      [ set1 "B" vi (a1 "B" vi -. (a2 "A" vi vk *. a1 "X" vk)) ]
  in
  do_ "K" (i 1) vn [ solve; update ]

let kernel : Kernel_def.t =
  {
    name = "trisolve";
    description = "forward substitution (lower-triangular solve)";
    block = [ point ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        Env.add_farray env "A" [ (1, n); (1, n) ];
        Env.add_farray env "B" [ (1, n) ];
        Env.add_farray env "X" [ (1, n) ];
        let rng = Lcg.create seed in
        K_lu.fill_dominant rng (Env.farray_data env "A") ~n;
        Lcg.fill rng (Env.farray_data env "B") ~scale:1.0 ~shift:0.0);
    traced = [ "A"; "B"; "X" ];
    shapes =
      [
        ("A", [ (i 1, v "N"); (i 1, v "N") ]);
        ("B", [ (i 1, v "N") ]);
        ("X", [ (i 1, v "N") ]);
      ];
  }
