open Builder

(* Point Householder QR (§5.3): one reflector per column K, applied to
   the whole trailing matrix.  M x N, M >= N; V holds the current
   reflector, S/S2/NRM/B are accumulator scalars.  The sign choice is
   simplified (v1 = a11 + ||a||), which is all the dependence structure
   needs — the blockability question never reaches numerics. *)
let point =
  let vk = v "K" and vi = v "I" and vj = v "J" in
  let norm_loop =
    do_ "I" vk (v "M") [ setf "S" (fv "S" +. (a2 "A" vi vk *. a2 "A" vi vk)) ]
  in
  let copy_loop = do_ "I" (vk +! i 1) (v "M") [ set1 "V" vi (a2 "A" vi vk) ] in
  let apply_loop =
    do_ "J" vk (v "N")
      [
        setf "S2" (fc 0.0);
        do_ "I" vk (v "M") [ setf "S2" (fv "S2" +. (a1 "V" vi *. a2 "A" vi vj)) ];
        do_ "I" vk (v "M")
          [ set2 "A" vi vj (a2 "A" vi vj -. (a1 "V" vi *. (fv "S2" /. fv "B"))) ];
      ]
  in
  do_ "K" (i 1) (v "N")
    [
      setf "S" (fc 0.0);
      norm_loop;
      setf "NRM" (sqrt_ (fv "S"));
      set1 "V" vk (a2 "A" vk vk +. fv "NRM");
      copy_loop;
      setf "B" (fv "NRM" *. (fv "NRM" +. a2 "A" vk vk));
      if_ (fne (fv "B") (fc 0.0)) [ apply_loop ];
    ]

(* Column K's reflector starts at A(K, K), so every K <= N needs a row. *)
let setup env ~bindings ~seed =
  let m = List.assoc "M" bindings and n = List.assoc "N" bindings in
  if n > m then invalid_arg (Printf.sprintf "needs M >= N (M = %d, N = %d)" m n);
  Env.add_farray env "A" [ (1, m); (1, n) ];
  Env.add_farray env "V" [ (1, m) ];
  Lcg.fill (Lcg.create seed) (Env.farray_data env "A") ~scale:2.0 ~shift:1.0

let kernel : Kernel_def.t =
  {
    name = "householder";
    description = "QR decomposition with Householder reflections (point algorithm)";
    block = [ point ];
    params = [ "M"; "N" ];
    setup;
    traced = [ "A" ];
    shapes =
      [ ("A", [ (i 1, v "M"); (i 1, v "N") ]); ("V", [ (i 1, v "M") ]) ];
  }

(* The compact-WY form's data: A (and V) as above, plus its scratch,
   declared from the shapes. *)
let wy block =
  let scratch =
    ("Y", [ (i 1, v "M"); (i 1, v "N") ])
    :: ("T", [ (i 1, v "KS"); (i 1, v "KS") ])
    :: List.map (fun a -> (a, [ (i 1, v "N") ])) [ "TAU"; "W"; "Z" ]
  in
  let setup env ~bindings ~seed =
    setup env ~bindings ~seed;
    let eval = Expr.eval (fun p -> List.assoc p bindings) (fun _ _ -> 0) in
    List.iter
      (fun (a, dims) -> Env.add_farray env a (List.map (fun (l, h) -> (eval l, eval h)) dims))
      scratch
  in
  {
    kernel with
    name = "compact_wy";
    description = "QR decomposition with Householder reflections (compact WY)";
    block;
    params = [ "M"; "N"; "KS" ];
    setup;
    shapes = kernel.shapes @ scratch;
  }

(* The WY form reassociates the point code's sums (§5.3), so the two
   agree to rounding only. *)
let wy_diff point wy =
  let a = Env.farray_data point "A" in
  let tol = Stdlib.(1e-12 *. (1.0 +. sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 a))) in
  Env.diff ~only:[ "A" ] ~tol point wy
