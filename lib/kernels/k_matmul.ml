open Builder

let nest =
  let vn = v "N" and vi = v "I" and vj = v "J" and vk = v "K" in
  let inner =
    do_ "I" (i 1) vn
      [ set2 "C" vi vj (a2 "C" vi vj +. (a2 "A" vi vk *. a2 "B" vk vj)) ]
  in
  do_ "J" (i 1) vn [ do_ "K" (i 1) vn [ if_ (fne (a2 "B" vk vj) (fc 0.0)) [ inner ] ] ]

(* B's nonzeros come in short runs so IF-inspection has ranges to find;
   [freq_pct] is the overall nonzero percentage. *)
let fill env ~n ~freq_pct ~seed =
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Env.add_farray env "B" [ (1, n); (1, n) ];
  Env.add_farray env "C" [ (1, n); (1, n) ];
  let rng = Lcg.create seed in
  Lcg.fill rng (Env.farray_data env "A") ~scale:1.0 ~shift:0.0;
  (* Column-major fill with run structure along K (the first index);
     B starts zeroed, so only the runs are written. *)
  let b = Env.farray_data env "B" in
  let run_len = 4 in
  let p_run = Stdlib.( /. ) (Stdlib.( /. ) (float_of_int freq_pct) 100.0) (float_of_int run_len) in
  for j = 1 to n do
    let k = ref 1 in
    while !k <= n do
      if Lcg.bool rng p_run then begin
        (* a run of nonzeros, each 0.5 + float rng 0.5 *)
        let len = min run_len (n - !k + 1) in
        Lcg.fill rng b ~pos:(!k - 1 + ((j - 1) * n)) ~len ~scale:0.5 ~shift:(-0.5);
        k := !k + len
      end
      else incr k
    done
  done

let kernel : Kernel_def.t =
  {
    name = "matmul";
    description = "SGEMM-style matrix multiply with a zero guard on B";
    block = [ nest ];
    params = [ "N"; "FREQ_PCT" ];
    setup =
      (fun env ~bindings ~seed ->
        let n = List.assoc "N" bindings in
        let freq_pct = List.assoc "FREQ_PCT" bindings in
        fill env ~n ~freq_pct ~seed);
    traced = [ "A"; "B"; "C" ];
    shapes =
      (let sq = [ (i 1, v "N"); (i 1, v "N") ] in
       [ ("A", sq); ("B", sq); ("C", sq) ]);
  }
