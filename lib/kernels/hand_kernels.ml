(* The loops index [a] through these unchecked accessors; the entry
   point checks once that the flat array covers the n*n index space the
   loops stay inside. *)
let ug = Array.unsafe_get
let us = Array.unsafe_set

let check_square ~n a =
  if Array.length a < n * n then invalid_arg "Hand_kernels: array too small"

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
