open Builder

let point =
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
  do_ "K" (i 1) vn [ root; scale; update ]

(* [a] := M^T M + n*I for the n x n matrix [m] stored by columns.  Each
   lower-triangle entry (r, c) is the k-ascending dot product of columns
   r and c summed from 0.0; the upper triangle mirrors it, which is
   bitwise what computing it would give, because float multiplication
   commutes and the order of the sum is the same.  Four rows against one
   column at a time: four independent accumulators share each load of
   column c.  Every unchecked offset is below n*n. *)
let gram a m n =
  let open Stdlib in
  let ug = Array.unsafe_get in
  for c = 0 to n - 1 do
    let mc = c * n in
    let r = ref c in
    while !r + 3 < n do
      let m0 = !r * n in
      let m1 = m0 + n in
      let m2 = m1 + n in
      let m3 = m2 + n in
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      for k = 0 to n - 1 do
        let x = ug m (mc + k) in
        s0 := !s0 +. (ug m (m0 + k) *. x);
        s1 := !s1 +. (ug m (m1 + k) *. x);
        s2 := !s2 +. (ug m (m2 + k) *. x);
        s3 := !s3 +. (ug m (m3 + k) *. x)
      done;
      a.(mc + !r) <- !s0;
      a.(mc + !r + 1) <- !s1;
      a.(mc + !r + 2) <- !s2;
      a.(mc + !r + 3) <- !s3;
      r := !r + 4
    done;
    for r = !r to n - 1 do
      let mr = r * n in
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (ug m (mr + k) *. ug m (mc + k))
      done;
      a.(mc + r) <- !s
    done
  done;
  for c = 0 to n - 1 do
    a.((c * n) + c) <- a.((c * n) + c) +. float_of_int n;
    for r = c + 1 to n - 1 do
      a.((r * n) + c) <- a.((c * n) + r)
    done
  done

let kernel : Kernel_def.t =
  {
    name = "cholesky";
    description = "Cholesky factorization (lower triangle, in place)";
    block = [ point ];
    params = [ "N" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        Env.add_farray env "A" [ (1, n); (1, n) ];
        (* symmetric positive definite: M^T M + n*I.  M is drawn row by
           row into m.(k*n + r), then transposed in place so that column
           r of M is the contiguous m.(r*n .. r*n + n-1). *)
        let m = Array.create_float (n * n) in
        Lcg.fill (Lcg.create seed) m ~scale:1.0 ~shift:0.5;
        for r = 0 to n - 1 do
          for k = r + 1 to n - 1 do
            let x = m.((k * n) + r) in
            m.((k * n) + r) <- m.((r * n) + k);
            m.((r * n) + k) <- x
          done
        done;
        gram (Env.farray_data env "A") m n);
    traced = [ "A" ];
    shapes = [ ("A", [ (i 1, v "N"); (i 1, v "N") ]) ];
  }
