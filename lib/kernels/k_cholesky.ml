open Builder

let point_loop : Stmt.loop =
  let vn = v "N" and vk = v "K" and vi = v "I" and vj = v "J" in
  let root = set2 "A" vk vk (sqrt_ (a2 "A" vk vk)) in
  let scale =
    do_ "I" (vk +! i 1) vn [ set2 "A" vi vk (a2 "A" vi vk /. a2 "A" vk vk) ]
  in
  let update =
    do_ "J" (vk +! i 1) vn
      [
        do_ "I" vj vn
          [ set2 "A" vi vj (a2 "A" vi vj -. (a2 "A" vi vk *. a2 "A" vj vk)) ];
      ]
  in
  match do_ "K" (i 1) vn [ root; scale; update ] with
  | Stmt.Loop l -> l
  | Stmt.Assign _ | Stmt.Iassign _ | Stmt.If _ -> assert false

let kernel : Kernel_def.t =
  {
    name = "cholesky";
    description = "Cholesky factorization (lower triangle, in place)";
    block = [ Stmt.Loop point_loop ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        Env.add_farray env "A" [ (1, n); (1, n) ];
        (* symmetric positive definite: M^T M + n*I.  M is drawn row by
           row into m.(k*n + r), then transposed in place so that column
           r of M is the contiguous m.(r*n .. r*n + n-1).  Each entry of
           the lower triangle is a k-ascending dot product of two such
           columns; the upper triangle mirrors it, which is bitwise what
           computing it would give, because float multiplication
           commutes and the order of the sum is the same. *)
        let m = Array.create_float (n * n) in
        Lcg.fill (Lcg.create seed) m ~scale:1.0 ~shift:0.5;
        for r = 0 to n - 1 do
          for k = r + 1 to n - 1 do
            let x = m.((k * n) + r) in
            m.((k * n) + r) <- m.((r * n) + k);
            m.((r * n) + k) <- x
          done
        done;
        let a = Env.farray_data env "A" in
        for c = 0 to n - 1 do
          for r = c to n - 1 do
            let acc = ref 0.0 in
            for k = 0 to n - 1 do
              acc := Stdlib.( +. ) !acc (Stdlib.( *. ) m.((r * n) + k) m.((c * n) + k))
            done;
            if r = c then a.((c * n) + r) <- Stdlib.( +. ) !acc (float_of_int n)
            else begin
              a.((c * n) + r) <- !acc;
              a.((r * n) + c) <- !acc
            end
          done
        done);
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "N"); (i 1, v "N") ]) ];
  }
