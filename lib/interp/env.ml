exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type ('a, 'elt) arr = { dims : (int * int) array; strides : int array; data : 'elt }

type farr = (float, float array) arr
type iarr = (int, int array) arr

type t = {
  farrays : (string, farr) Hashtbl.t;
  iarrays : (string, iarr) Hashtbl.t;
  fscalars : (string, float) Hashtbl.t;
  iscalars : (string, int) Hashtbl.t;
}

let create () =
  {
    farrays = Hashtbl.create 8;
    iarrays = Hashtbl.create 8;
    fscalars = Hashtbl.create 8;
    iscalars = Hashtbl.create 8;
  }

let total_and_strides dims =
  (* Column-major: first dimension has stride 1. *)
  let n = Array.length dims in
  let strides = Array.make n 1 in
  let total = ref 1 in
  for k = 0 to n - 1 do
    strides.(k) <- !total;
    let lo, hi = dims.(k) in
    if hi < lo then error "empty array dimension";
    total := !total * (hi - lo + 1)
  done;
  (!total, strides)

let add_farray env name dims =
  let dims = Array.of_list dims in
  let total, strides = total_and_strides dims in
  Hashtbl.replace env.farrays name { dims; strides; data = Array.make total 0.0 }

let add_iarray env name dims =
  let dims = Array.of_list dims in
  let total, strides = total_and_strides dims in
  Hashtbl.replace env.iarrays name { dims; strides; data = Array.make total 0 }

let set_fscalar env name x = Hashtbl.replace env.fscalars name x
let set_iscalar env name x = Hashtbl.replace env.iscalars name x

let missing what name = error "undefined %s %s" what name

let find_farr env name =
  match Hashtbl.find_opt env.farrays name with
  | Some a -> a
  | None -> missing "REAL array" name

let find_iarr env name =
  match Hashtbl.find_opt env.iarrays name with
  | Some a -> a
  | None -> missing "INTEGER array" name

let farray_dims env name = Array.to_list (find_farr env name).dims

let offset (type elt) (a : ('a, elt) arr) name idx =
  let n = Array.length a.dims in
  if List.length idx <> n then error "%s expects %d subscripts" name n;
  let off = ref 0 in
  List.iteri
    (fun k i ->
      let lo, hi = a.dims.(k) in
      if i < lo || i > hi then
        error "%s subscript %d = %d out of bounds [%d,%d]" name (k + 1) i lo hi;
      off := !off + ((i - lo) * a.strides.(k)))
    idx;
  !off

let get_f env name idx =
  let a = find_farr env name in
  a.data.(offset a name idx)

let set_f env name idx x =
  let a = find_farr env name in
  a.data.(offset a name idx) <- x

let get_i env name idx =
  let a = find_iarr env name in
  a.data.(offset a name idx)

let set_i env name idx x =
  let a = find_iarr env name in
  a.data.(offset a name idx) <- x

let fscalar env name =
  match Hashtbl.find_opt env.fscalars name with
  | Some x -> x
  | None -> missing "REAL scalar" name

let iscalar env name =
  match Hashtbl.find_opt env.iscalars name with
  | Some x -> x
  | None -> missing "INTEGER scalar" name

let has_iscalar env name = Hashtbl.mem env.iscalars name
let has_fscalar env name = Hashtbl.mem env.fscalars name
let iarray_dims env name = Array.to_list (find_iarr env name).dims

let linear_index env name idx =
  match Hashtbl.find_opt env.farrays name with
  | Some a -> offset a name idx
  | None -> offset (find_iarr env name) name idx

let fill_farray env name f =
  let data = (find_farr env name).data in
  for off = 0 to Array.length data - 1 do
    data.(off) <- f ()
  done

let farray_data env name = (find_farr env name).data
let iarray_data env name = (find_iarr env name).data

let copy env =
  let dup = create () in
  Hashtbl.iter
    (fun k (a : farr) ->
      Hashtbl.replace dup.farrays k { a with data = Array.copy a.data })
    env.farrays;
  Hashtbl.iter
    (fun k (a : iarr) ->
      Hashtbl.replace dup.iarrays k { a with data = Array.copy a.data })
    env.iarrays;
  Hashtbl.iter (Hashtbl.replace dup.fscalars) env.fscalars;
  Hashtbl.iter (Hashtbl.replace dup.iscalars) env.iscalars;
  dup

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let diff ?only ?(tol = 0.0) a b =
  let mismatch = ref None in
  let note msg = if !mismatch = None then mismatch := Some msg in
  let selected name =
    match only with None -> true | Some names -> List.mem name names
  in
  let keys_equal what ta tb =
    let keep = List.filter selected in
    let ka = keep (sorted_keys ta) and kb = keep (sorted_keys tb) in
    if ka <> kb then note (Printf.sprintf "%s sets differ" what)
  in
  keys_equal "REAL array" a.farrays b.farrays;
  (match only with
  | Some _ -> ()
  | None -> keys_equal "INTEGER array" a.iarrays b.iarrays);
  if !mismatch = None then begin
    Hashtbl.iter
      (fun name (fa : farr) ->
        match Hashtbl.find_opt b.farrays name with
        | None -> ()
        | Some fb when not (selected name) -> ignore fb
        | Some fb ->
            if fa.dims <> fb.dims then note (name ^ ": dims differ")
            else
              Array.iteri
                (fun i x ->
                  let y = fb.data.(i) in
                  (* Bitwise, not structural: [Float.equal] conflates
                     -0.0 with 0.0 and all NaN payloads with each
                     other, which is exactly what a cross-backend
                     differential must distinguish. *)
                  let bits_eq =
                    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
                  in
                  let ok =
                    if tol = 0.0 then bits_eq
                    else Float.abs (x -. y) <= tol || bits_eq
                  in
                  if not ok then
                    note
                      (Printf.sprintf "%s[linear %d]: %.17g vs %.17g" name i x y))
                fa.data)
      a.farrays;
    Hashtbl.iter
      (fun name (ia : iarr) ->
        match Hashtbl.find_opt b.iarrays name, only with
        | None, _ | _, Some _ -> ()
        | Some ib, None ->
            if ia.dims <> ib.dims then note (name ^ ": dims differ")
            else
              Array.iteri
                (fun i x ->
                  if ib.data.(i) <> x then
                    note
                      (Printf.sprintf "%s[linear %d]: %d vs %d" name i x
                         ib.data.(i)))
                ia.data)
      a.iarrays
  end;
  !mismatch

let equal ?only ?tol a b = diff ?only ?tol a b = None
