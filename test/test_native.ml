(* What the benchmark tables time: the registry's variants and the §6
   sources (Figure 11, compact-WY Householder), compiled natively, and
   the one hand-written kernel, Hand_kernels' recursive LU.

   - Every table's variants agree bitwise with the interpreter's run of
     the point IR, over random sizes, blocks and seeds; the compact-WY
     form, which reassociates, agrees bitwise with its own interpreted
     IR and with point to a stated tolerance.
   - native_compare (the tables' timing path) verifies every blockable
     entry on both backends.
   - The point algorithms themselves compute what they claim: LU
     reconstructs A, pivoting bounds the multipliers, the convolution and
     the guarded product match their definitions, Givens and Householder
     triangularize and preserve the Frobenius norm. *)

open Helpers

let entry name = Option.get (Blockability.find name)

let gen_cfg = QCheck2.Gen.(triple (int_range 1 40) (int_range 1 12) (int_range 0 999))

(* Index of element (i, j) of an [m]-row column-major array. *)
let at ~m i j = ((j - 1) * m) + i - 1

let interp_point (e : Blockability.entry) ~bindings ~seed =
  Kernel_def.run e.kernel ~bindings ~seed

(* ---- variants bit-identical ---------------------------------------- *)

(* Derivations and compiled plugins are shared by every case: one
   derivation and one compile per entry, process-wide. *)
let compiled : (string, Backend.compiled) Hashtbl.t = Hashtbl.create 8

let compiled_variant (e : Blockability.entry) =
  match Hashtbl.find_opt compiled e.name with
  | Some c -> c
  | None ->
      let { Blocker.result; _ } = ok_or_fail "derive" (Blockability.derive e) in
      let bp = Blueprint.of_block ~shapes:e.kernel.Kernel_def.shapes [ result ] in
      let c =
        ok_or_fail "compile" (Jit.compile_blueprint ~name:(e.name ^ "_transformed") bp)
      in
      Hashtbl.replace compiled e.name c;
      c

(* The compiled transformed variant of [name] at [bindings] (plus
   [extra], e.g. the block size) is bitwise equal to the interpreted
   point algorithm on the same initial data. *)
let compiled_matches_point name ?(extra = []) ~bindings ~seed () =
  let e = entry name in
  let reference = interp_point e ~bindings ~seed in
  let c = compiled_variant e in
  let bindings = extra @ bindings in
  let env = Kernel_def.make_env e.kernel ~bindings ~seed in
  e.extra_setup env ~bindings;
  match c.Backend.bk_run env with
  | Error m -> QCheck2.Test.fail_reportf "%s: native run failed: %s" name m
  | Ok () -> (
      match Env.diff ~only:e.kernel.Kernel_def.traced reference env with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s: %s" name m)

let lower_at ext ~block =
  ok_or_fail "lower" (Lower.lower ~block_size:block ~machine:Arch.rs6000_540 ext)

(* A §6 source lowered at [block] and packaged by [kernel] with its data
   and shapes, compiled on [backend]; the artifact cache's memo makes a
   repeat a lookup. *)
let lowered kernel ext ~block backend =
  let module B = (val backend : Backend.S) in
  let (k : Kernel_def.t) = kernel [ lower_at ext ~block ] in
  let bp = Blueprint.of_block ~shapes:k.shapes k.block in
  (k, ok_or_fail "compile" (B.compile_blueprint ~name:k.name bp))

(* The compiled block run on its package's data at [bindings] leaves
   [A] bitwise equal to [reference]'s. *)
let lowered_matches ((k : Kernel_def.t), (c : Backend.compiled)) ~bindings ~seed
    reference =
  let env = Kernel_def.make_env k ~bindings ~seed in
  match c.bk_run env with
  | Error m -> QCheck2.Test.fail_reportf "%s on %s: run failed: %s" k.name c.bk_tag m
  | Ok () -> (
      match Env.diff ~only:[ "A" ] reference env with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s on %s: %s" k.name c.bk_tag m)

(* T3: Figure 11 ("1") compiled on both backends, the hand "Rec", and
   the derived "2" and "2+". *)
let lu_variants_exact (n, b, seed) =
  let e = entry "lu" in
  let bindings = [ ("N", n) ] in
  let reference = interp_point e ~bindings ~seed in
  let fig11 block = { K_lu.kernel with name = "fig11_lu"; block } in
  let hand =
    let env = Kernel_def.make_env e.kernel ~bindings ~seed in
    Hand_kernels.lu_recursive ~base:b ~n (Env.farray_data env "A");
    match Env.diff ~only:[ "A" ] reference env with
    | None -> true
    | Some m -> QCheck2.Test.fail_reportf "hand LU n=%d b=%d: %s" n b m
  in
  hand
  && List.for_all
       (fun backend ->
         lowered_matches
           (lowered fig11 Ext.fig11_blocked_lu ~block:b backend)
           ~bindings ~seed reference)
       Backend.all
  && List.for_all
       (fun name ->
         compiled_matches_point name ~extra:[ ("KS", b) ] ~bindings ~seed ())
       [ "lu"; "lu_opt" ]

(* T4: the derived "1" and "1+". *)
let lu_pivot_variants_exact (n, b, seed) =
  List.for_all
    (fun name ->
      compiled_matches_point name ~extra:[ ("KS", b) ] ~bindings:[ ("N", n) ]
        ~seed ())
    [ "lu_pivot"; "lu_pivot_opt" ]

(* T1.  The derivations assume N2 >= 3, the unroll factor less one. *)
let conv_variants_exact (n1, n2, seed) =
  let bindings = [ ("N1", n1); ("N2", n2 + 2); ("N3", n1 + 5) ] in
  List.for_all
    (fun name -> compiled_matches_point name ~bindings ~seed ())
    [ "aconv"; "conv" ]

(* T2. *)
let matmul_variants_exact (n, freq, seed) =
  compiled_matches_point "matmul"
    ~bindings:[ ("N", n); ("FREQ_PCT", freq * 8) ]
    ~seed ()

(* T5. *)
let givens_variants_exact (m_extra, n, seed) =
  compiled_matches_point "givens" ~bindings:[ ("M", n + m_extra); ("N", n) ] ~seed ()

let require_native () =
  match Jit.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "native codegen unavailable: %s" m

let native_qcase name prop =
  qcase ~count:30 name gen_cfg (fun cfg ->
      require_native ();
      prop cfg)

(* ---- native_compare ------------------------------------------------ *)

let native_compare_registry () =
  List.iter
    (fun (e : Blockability.entry) ->
      if e.blockable then
        List.iter
          (fun backend ->
            let module B = (val backend : Backend.S) in
            ignore
              (ok_or_fail
                 (Printf.sprintf "%s on %s" e.name B.tag)
                 (Blockability.native_compare ~backend e)))
          Backend.all)
    Blockability.entries

(* One route: a call looks the stored derivation up once and derives at
   most once, so two calls record at most one derivation's decision
   events (9 for lu_opt) between them.  Earlier cases may have derived
   lu_opt in this process already; then the first call records none
   either. *)
let native_compare_derives_once () =
  require_native ();
  let lookups () =
    let s =
      List.find
        (fun (s : Artifact_cache.stats) -> s.kind_name = "derivation")
        (Artifact_cache.all_stats ())
    in
    s.builds + s.disk_hits + s.memo_hits
  in
  let call () =
    let mem, events = Obs.memory () in
    let l0 = lookups () in
    Obs.set_sink mem;
    Fun.protect
      ~finally:(fun () -> Obs.set_sink Obs.null)
      (fun () ->
        ignore
          (ok_or_fail "native_compare"
             (Blockability.native_compare (entry "lu_opt"))));
    ( List.length
        (List.filter (fun (e : Obs.event) -> e.cat = "decision") (events ())),
      lookups () - l0 )
  in
  let d1, l1 = call () in
  let d2, l2 = call () in
  check_int "first call: one derivation lookup" 1 l1;
  check_int "second call: one derivation lookup" 1 l2;
  check_int "second call: no decisions" 0 d2;
  check_bool
    (Printf.sprintf "at most one derivation's decisions (%d)" d1)
    true (d1 + d2 <= 9)

(* ---- the point algorithms ------------------------------------------ *)

let lu_factors_correct () =
  let n = 24 in
  let e = entry "lu" in
  let a0 =
    Env.farray_data (Kernel_def.make_env e.kernel ~bindings:[ ("N", n) ] ~seed:11) "A"
  in
  let f = Env.farray_data (interp_point e ~bindings:[ ("N", n) ] ~seed:11) "A" in
  let worst = ref 0.0 in
  for i = 1 to n do
    for j = 1 to n do
      let acc = ref 0.0 in
      for k = 1 to min i j do
        let l_ik = if k = i then 1.0 else f.(at ~m:n i k) in
        acc := !acc +. (l_ik *. f.(at ~m:n k j))
      done;
      worst := Float.max !worst (Float.abs (!acc -. a0.(at ~m:n i j)))
    done
  done;
  check_bool (Printf.sprintf "LU reconstructs A (err %.2g)" !worst) true
    (!worst < 1e-10 *. float_of_int n)

let pivot_growth_bounded () =
  let n = 30 in
  let f =
    Env.farray_data (interp_point (entry "lu_pivot") ~bindings:[ ("N", n) ] ~seed:5) "A"
  in
  let ok = ref true in
  for j = 1 to n do
    for i = j + 1 to n do
      if Float.abs f.(at ~m:n i j) > 1.0 +. 1e-12 then ok := false
    done
  done;
  check_bool "multipliers bounded" true !ok

let conv_matches_definition () =
  let n1 = 15 and n2 = 6 and n3 = 20 in
  let env =
    interp_point (entry "conv") ~bindings:[ ("N1", n1); ("N2", n2); ("N3", n3) ] ~seed:3
  in
  let dt = Env.fscalar env "DT" in
  let f1 = Env.farray_data env "F1"
  and f2 = Env.farray_data env "F2"
  and f3 = Env.farray_data env "F3" in
  (* F1 and F3 start at index 0, F2 at -N2 *)
  let worst = ref 0.0 in
  for i = 0 to n3 do
    let acc = ref 0.0 in
    for k = 0 to n1 do
      if i - k >= 0 && i - k <= n2 then
        acc := !acc +. (dt *. f1.(k) *. f2.(i - k + n2))
    done;
    worst := Float.max !worst (Float.abs (!acc -. f3.(i)))
  done;
  check_bool "conv matches definition" true (!worst < 1e-12)

let matmul_matches_dense () =
  let n = 20 in
  let env =
    interp_point (entry "matmul") ~bindings:[ ("N", n); ("FREQ_PCT", 60) ] ~seed:9
  in
  let a = Env.farray_data env "A"
  and b = Env.farray_data env "B"
  and c = Env.farray_data env "C" in
  let worst = ref 0.0 in
  for i = 1 to n do
    for j = 1 to n do
      let acc = ref 0.0 in
      for k = 1 to n do
        acc := !acc +. (a.(at ~m:n i k) *. b.(at ~m:n k j))
      done;
      worst := Float.max !worst (Float.abs (!acc -. c.(at ~m:n i j)))
    done
  done;
  check_bool "matmul matches dense" true (!worst < 1e-10)

let frobenius a = sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 a)

(* The upper triangle of the first [n] rows of an [m]-row factored
   array, as an n x n array. *)
let r_of ~m ~n a =
  Array.init (n * n) (fun idx ->
      let i = (idx mod n) + 1 and j = (idx / n) + 1 in
      if i <= j then a.(at ~m i j) else 0.0)

let givens_triangularizes () =
  let m = 30 and n = 18 in
  let bindings = [ ("M", m); ("N", n) ] in
  let e = entry "givens" in
  let a0 = Env.farray_data (Kernel_def.make_env e.kernel ~bindings ~seed:21) "A" in
  let g = Env.farray_data (interp_point e ~bindings ~seed:21) "A" in
  let ok = ref true in
  for j = 1 to n do
    for i = j + 1 to m do
      if Float.abs g.(at ~m i j) > 1e-10 then ok := false
    done
  done;
  check_bool "below-diagonal zeroed" true !ok;
  check_bool "norm preserved" true
    (Float.abs (frobenius g -. frobenius a0) < 1e-9 *. frobenius a0)

(* ---- Householder (§5.3): point and its compact-WY form --------- *)

(* The WY form, written in the §6 language, on the point kernel's data
   ([m >= n + 1]), with a random block size. *)
let compact_wy = List.hd (Parser.program Ext.compact_wy)
let gen_householder = QCheck2.Gen.(pair gen_cfg (int_range 1 8))

let householder_block_matches_point ((m_extra, n, seed), ks) =
  let bindings = [ ("M", n + m_extra); ("N", n) ] in
  let point = interp_point (entry "householder") ~bindings ~seed in
  let compiled = List.map (lowered K_householder.wy compact_wy ~block:ks) Backend.all in
  let bindings = ("KS", ks) :: bindings in
  let wy = Kernel_def.run (fst (List.hd compiled)) ~bindings ~seed in
  (match K_householder.wy_diff point wy with
  | None -> true
  | Some m -> QCheck2.Test.fail_reportf "WY vs point (KS=%d): %s" ks m)
  && List.for_all (fun c -> lowered_matches c ~bindings ~seed wy) compiled

let householder_norm_preserved () =
  let m = 40 and n = 25 in
  let bindings = [ ("KS", 8); ("M", m); ("N", n) ] in
  let k = K_householder.wy [ lower_at compact_wy ~block:8 ] in
  let a0 = Env.farray_data (Kernel_def.make_env k ~bindings ~seed:31) "A" in
  let h = Env.farray_data (Kernel_def.run k ~bindings ~seed:31) "A" in
  let below = ref 0.0 in
  for j = 1 to n do
    for i = j + 1 to m do
      below := Float.max !below (Float.abs h.(at ~m i j))
    done
  done;
  check_bool (Printf.sprintf "R is triangular (%.2g below)" !below) true
    (!below < 1e-12 *. frobenius a0);
  check_bool "orthogonal transform preserves norm" true
    (Float.abs (frobenius (r_of ~m ~n h) -. frobenius a0) < 1e-9 *. frobenius a0)

let suite =
  ( "native",
    [
      native_qcase "LU variants bit-identical" lu_variants_exact;
      native_qcase "pivoting LU variants bit-identical" lu_pivot_variants_exact;
      case "LU reconstructs A" lu_factors_correct;
      case "pivot multipliers bounded" pivot_growth_bounded;
      native_qcase "convolution variants bit-identical" conv_variants_exact;
      case "conv matches its definition" conv_matches_definition;
      native_qcase "matmul variants bit-identical" matmul_variants_exact;
      case "guarded matmul matches dense" matmul_matches_dense;
      native_qcase "Givens variants bit-identical" givens_variants_exact;
      case "Givens triangularizes and preserves norm" givens_triangularizes;
      qcase ~count:25 "Householder block matches point" gen_householder (fun cfg ->
          require_native ();
          householder_block_matches_point cfg);
      case "Householder norm preservation" householder_norm_preserved;
      case "native_compare verifies every blockable entry on both backends"
        native_compare_registry;
      case "native_compare looks its derivation up once per call"
        native_compare_derives_once;
    ] )
