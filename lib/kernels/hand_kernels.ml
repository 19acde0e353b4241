(* The LU loops index [a] through these unchecked accessors; each entry
   point checks once that the flat array covers the n*n index space the
   loops stay inside. *)
let ug = Array.unsafe_get
let us = Array.unsafe_set

let check_square ~n a =
  if Array.length a < n * n then invalid_arg "Hand_kernels: array too small"

(* ---- LU without pivoting (§5.1, Table 3) -------------------------- *)

(* The point algorithm restricted to columns [k .. kend] (rows k..n). *)
let panel ~n a ~k ~kend =
  for kk = k to kend do
    let kkc = (kk - 1) * n in
    let piv = ug a (kkc + kk - 1) in
    for i = kk + 1 to n do
      us a (kkc + i - 1) (ug a (kkc + i - 1) /. piv)
    done;
    for j = kk + 1 to min kend n do
      let jc = (j - 1) * n in
      let akj = ug a (jc + kk - 1) in
      for i = kk + 1 to n do
        us a (jc + i - 1) (ug a (jc + i - 1) -. (ug a (kkc + i - 1) *. akj))
      done
    done
  done

let lu_sorensen ~block ~n a =
  check_square ~n a;
  let block = max 1 block in
  let k = ref 1 in
  while !k <= n - 1 do
    let kend = min (!k + block - 1) (n - 1) in
    panel ~n a ~k:!k ~kend;
    for j = kend + 1 to n do
      let jc = (j - 1) * n in
      for kk = !k to kend do
        let kkc = (kk - 1) * n in
        let akj = ug a (jc + kk - 1) in
        for i = kk + 1 to n do
          us a (jc + i - 1) (ug a (jc + i - 1) -. (ug a (kkc + i - 1) *. akj))
        done
      done
    done;
    k := !k + block
  done

(* The updates of steps [k .. kend] on columns [jlo .. jhi], four
   columns at a time with the accumulators in scalars; each element
   still sees the steps in increasing order. *)
let trailing_cols ~n a ~k ~kend ~jlo ~jhi =
  let one jc i =
    let x = ref (ug a (jc + i - 1)) in
    for kk = k to min kend (i - 1) do
      x := !x -. (ug a (((kk - 1) * n) + i - 1) *. ug a (jc + kk - 1))
    done;
    us a (jc + i - 1) !x
  in
  let j = ref jlo in
  while !j + 3 <= jhi do
    let j0 = (!j - 1) * n in
    let j1 = j0 + n and j2 = j0 + (2 * n) and j3 = j0 + (3 * n) in
    for i = k + 1 to n do
      let s0 = ref (ug a (j0 + i - 1))
      and s1 = ref (ug a (j1 + i - 1))
      and s2 = ref (ug a (j2 + i - 1))
      and s3 = ref (ug a (j3 + i - 1)) in
      for kk = k to min kend (i - 1) do
        let aik = ug a (((kk - 1) * n) + i - 1) in
        s0 := !s0 -. (aik *. ug a (j0 + kk - 1));
        s1 := !s1 -. (aik *. ug a (j1 + kk - 1));
        s2 := !s2 -. (aik *. ug a (j2 + kk - 1));
        s3 := !s3 -. (aik *. ug a (j3 + kk - 1))
      done;
      us a (j0 + i - 1) !s0;
      us a (j1 + i - 1) !s1;
      us a (j2 + i - 1) !s2;
      us a (j3 + i - 1) !s3
    done;
    j := !j + 4
  done;
  for j = !j to jhi do
    for i = k + 1 to n do
      one ((j - 1) * n) i
    done
  done

let lu_recursive ?(base = 16) ~n a =
  check_square ~n a;
  let base = max 1 base in
  let rec go ~k0 ~k1 =
    if k1 - k0 + 1 <= base then panel ~n a ~k:k0 ~kend:k1
    else begin
      let mid = (k0 + k1) / 2 in
      go ~k0 ~k1:mid;
      trailing_cols ~n a ~k:k0 ~kend:mid ~jlo:(mid + 1) ~jhi:k1;
      go ~k0:(mid + 1) ~k1
    end
  in
  if n > 1 then go ~k0:1 ~k1:n

(* ---- Householder QR (§5.3) ---------------------------------------- *)

(* The reflector for column k (rows k..m): v has an implicit 1 at row k
   and its tail stored below the diagonal.  Returns tau such that
   H = I - tau * v * v^T annihilates A(k+1..m, k). *)
let reflector ~m a k =
  let kc = (k - 1) * m in
  let alpha = a.(kc + k - 1) in
  let norm2 = ref 0.0 in
  for i = k + 1 to m do
    let x = a.(kc + i - 1) in
    norm2 := !norm2 +. (x *. x)
  done;
  if !norm2 = 0.0 then 0.0
  else begin
    let beta =
      let r = sqrt ((alpha *. alpha) +. !norm2) in
      if alpha >= 0.0 then -.r else r
    in
    let scale = 1.0 /. (alpha -. beta) in
    for i = k + 1 to m do
      a.(kc + i - 1) <- a.(kc + i - 1) *. scale
    done;
    a.(kc + k - 1) <- beta;
    (beta -. alpha) /. beta
  end

(* Apply H = I - tau*v*v^T (v from column k) to column j, rows k..m. *)
let apply_reflector ~m a ~k ~tau j =
  if tau <> 0.0 then begin
    let kc = (k - 1) * m and jc = (j - 1) * m in
    let w = ref a.(jc + k - 1) in
    for i = k + 1 to m do
      w := !w +. (a.(kc + i - 1) *. a.(jc + i - 1))
    done;
    let w = tau *. !w in
    a.(jc + k - 1) <- a.(jc + k - 1) -. w;
    for i = k + 1 to m do
      a.(jc + i - 1) <- a.(jc + i - 1) -. (a.(kc + i - 1) *. w)
    done
  end

let householder_point ~m ~n a =
  for k = 1 to n do
    let tau = reflector ~m a k in
    for j = k + 1 to n do
      apply_reflector ~m a ~k ~tau j
    done
  done

(* Compact WY: W = V^T C;  W := T^T W;  C -= V W. *)
let householder_wy ~block ~m ~n a =
  let block = max 1 block in
  let taus = Array.make (n + 1) 0.0 in
  let bT = Array.make (block * block) 0.0 in
  let w = Array.make (block * n) 0.0 in
  let kb = ref 1 in
  while !kb <= n do
    let bend = min (!kb + block - 1) n in
    let bs = bend - !kb + 1 in
    for k = !kb to bend do
      let tau = reflector ~m a k in
      taus.(k) <- tau;
      for j = k + 1 to bend do
        apply_reflector ~m a ~k ~tau j
      done
    done;
    (* T (bs x bs, column-major in bT): T(i,i) = tau_i and
       T(1..i-1, i) = -tau_i * T(1..i-1, 1..i-1) * (V_{1..i-1}^T v_i). *)
    for i = 1 to bs do
      let ki = !kb + i - 1 in
      let tau = taus.(ki) in
      bT.(((i - 1) * block) + i - 1) <- tau;
      if i > 1 then begin
        let z = Array.make (i - 1) 0.0 in
        for p = 1 to i - 1 do
          let cp = (!kb + p - 2) * m and ci = (ki - 1) * m in
          (* v_i is 1 at row ki and zero above it *)
          let acc = ref a.(cp + ki - 1) in
          for r = ki + 1 to m do
            acc := !acc +. (a.(cp + r - 1) *. a.(ci + r - 1))
          done;
          z.(p - 1) <- !acc
        done;
        for r = 1 to i - 1 do
          let acc = ref 0.0 in
          for p = r to i - 1 do
            acc := !acc +. (bT.(((p - 1) * block) + r - 1) *. z.(p - 1))
          done;
          bT.(((i - 1) * block) + r - 1) <- -.tau *. !acc
        done
      end
    done;
    let ntrail = n - bend in
    (* W(p, j) = v_p^T c_j *)
    for j = 1 to ntrail do
      let jc = (bend + j - 1) * m in
      for p = 1 to bs do
        let kp = !kb + p - 1 in
        let cp = (kp - 1) * m in
        let acc = ref a.(jc + kp - 1) in
        for r = kp + 1 to m do
          acc := !acc +. (a.(cp + r - 1) *. a.(jc + r - 1))
        done;
        w.(((j - 1) * block) + p - 1) <- !acc
      done
    done;
    (* W := T^T W (T^T is lower triangular) *)
    for j = 1 to ntrail do
      let wc = (j - 1) * block in
      for p = bs downto 1 do
        let acc = ref 0.0 in
        for q = 1 to p do
          acc := !acc +. (bT.(((p - 1) * block) + q - 1) *. w.(wc + q - 1))
        done;
        w.(wc + p - 1) <- !acc
      done
    done;
    (* C -= V W *)
    for j = 1 to ntrail do
      let jc = (bend + j - 1) * m and wc = (j - 1) * block in
      for p = 1 to bs do
        let kp = !kb + p - 1 in
        let cp = (kp - 1) * m in
        let wpj = w.(wc + p - 1) in
        a.(jc + kp - 1) <- a.(jc + kp - 1) -. wpj;
        for r = kp + 1 to m do
          a.(jc + r - 1) <- a.(jc + r - 1) -. (a.(cp + r - 1) *. wpj)
        done
      done
    done;
    kb := !kb + block
  done
