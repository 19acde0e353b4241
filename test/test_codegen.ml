(* The native code generator: emission, the JIT pipeline, and bitwise
   agreement with the interpreter.  The golden emitted sources are
   pinned in codegen_emit.t; these tests exercise behaviour. *)

open Helpers
module B = Builder

let entry name = Option.get (Blockability.find name)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let require_native () =
  match Jit.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "native codegen unavailable: %s" m

let require_cc () =
  match Cc.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "C backend unavailable: %s" m

(* A private cache dir makes the first compile a real compiler run even
   if an earlier test run left artifacts on disk. *)
let with_private_cache f =
  let saved = Artifact_cache.dir () in
  let tmp = Filename.temp_file "blockc-cache-test" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o700;
  Unix.putenv "BLOCKC_JIT_CACHE" tmp;
  Fun.protect ~finally:(fun () -> Unix.putenv "BLOCKC_JIT_CACHE" saved) f

(* [f ()] with the environment variable [var] set to [value], restored
   after.  [""] is how a test unsets one: Unix has no unsetenv, and the
   compiler lookups read an empty value as unset. *)
let with_env var value f =
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var saved) f

(* [f ()] on another thread, failing the test if it has not returned
   within [s] seconds: a compile that blocks forever fails the test
   instead of hanging the suite. *)
let within ~s what f =
  let result = Atomic.make None in
  let (_ : Thread.t) =
    Thread.create
      (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
      ()
  in
  let deadline = Unix.gettimeofday () +. s in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "%s: still blocked after %.0f s" what s;
        Thread.delay 0.01;
        wait ()
  in
  wait ()

(* Fresh kernel-shaped environments for hand-rolled blocks. *)
let simple_env ~n =
  let env = Env.create () in
  Env.add_farray env "A" [ (1, n); (1, n) ];
  Env.set_iscalar env "N" n;
  let rng = Lcg.create 7 in
  Env.fill_farray env "A" (fun _ -> Lcg.float rng 1.0);
  env

let emit_ok ?unsafe ?shapes ~name block =
  ok_or_fail "emit" (Emit.source ?unsafe ?shapes ~name block)

(* Blueprint-normalize, compile (or fetch) and run a block natively. *)
let native_run ?shapes ~name block env =
  match Jit.compile_blueprint ~name (Blueprint.of_block ?shapes block) with
  | Error m -> Error m
  | Ok c -> c.Backend.bk_run env

(* ---- hoisted offsets and promoted elements ----------------------- *)

(* A random affine subscript [ci*I + cj*J + c0] of a reference inside
   [DO I = 1, N; DO J = 1, M]: coefficients in -2..2 (zero included),
   offsets in -3..3. *)
let gen_sub =
  QCheck2.Gen.(
    map3 (fun ci cj c0 -> (ci, cj, c0)) (int_range (-2) 2) (int_range (-2) 2)
      (int_range (-3) 3))

let sub_expr (ci, cj, c0) =
  Expr.(add (add (mul (int ci) (var "I")) (mul (int cj) (var "J"))) (int c0))

(* Per dimension, the exact range a set of subscripts covers over the
   iteration space (affine, so the corners bound it). *)
let tight_dims ~n ~m subs_list =
  let rank = List.length (List.hd subs_list) in
  List.init rank (fun k ->
      let vals =
        List.concat_map
          (fun subs ->
            let ci, cj, c0 = List.nth subs k in
            List.concat_map
              (fun i -> List.map (fun j -> (ci * i) + (cj * j) + c0) [ 1; m ])
              [ 1; n ])
          subs_list
      in
      (List.fold_left min max_int vals, List.fold_left max min_int vals))

(* Arrays X1..X3 of random rank 1-3.  Each is written at one subscript
   list [s] and read at [s] and at [s] shifted by a constant in the first
   subscript (the shared-base case): [X(s) = X(s)*0.5 + X(s') + (100*I + J)]
   in the J loop, plus one I-level update of X1.  Declared with tight
   bounds, without shapes, so every access is checked: an offset that
   differs from the direct formula either raises or lands on another
   element, and the interpreter comparison sees both. *)
let gen_hoist_case =
  QCheck2.Gen.(
    let gen_array =
      let* rank = int_range 1 3 in
      let* subs = list_repeat rank gen_sub in
      let* shift = int_range (-2) 2 in
      pure (subs, shift)
    in
    triple (list_repeat 3 gen_array) (int_range 1 4) (int_range 1 4))

let hoisted_offsets_match (arrays, n, m) =
  let name k = Printf.sprintf "X%d" (k + 1) in
  let shifted (subs, shift) =
    match subs with
    | (ci, cj, c0) :: rest -> (ci, cj, c0 + shift) :: rest
    | [] -> []
  in
  let at k subs = Stmt.Ref (name k, List.map sub_expr subs) in
  let update ~j1 k ((subs, _) as a) =
    (* at the I level, J is pinned to 1: a corner of the covered range *)
    let pin =
      List.map (fun (ci, cj, c0) -> if j1 then (ci, 0, c0 + cj) else (ci, cj, c0))
    in
    Stmt.Assign
      ( name k,
        List.map sub_expr (pin subs),
        B.((at k (pin subs) *. fc 0.5)
           +. at k (pin (shifted a))
           +. Stmt.Of_int
                Expr.(add (mul (int 100) (var "I")) (if j1 then int 0 else var "J"))) )
  in
  let block =
    [
      B.do_ "I" (B.i 1) (B.v "N")
        [
          update ~j1:true 0 (List.hd arrays);
          B.do_ "J" (B.i 1) (B.v "M") (List.mapi (update ~j1:false) arrays);
        ];
    ]
  in
  let fresh () =
    let env = Env.create () in
    Env.set_iscalar env "N" n;
    Env.set_iscalar env "M" m;
    List.iteri
      (fun k ((subs, _) as a) ->
        Env.add_farray env (name k) (tight_dims ~n ~m [ subs; shifted a ]);
        let rng = Lcg.create (k + 1) in
        Env.fill_farray env (name k) (fun _ -> Lcg.float rng 1.0))
      arrays;
    env
  in
  let env_i = fresh () in
  Exec.run env_i block;
  let env_n = fresh () in
  ok_or_fail "native run" (native_run ~name:"hoist_prop" block env_n);
  (match Env.diff ~only:(List.mapi (fun k _ -> name k) arrays) env_i env_n with
  | None -> ()
  | Some msg ->
      QCheck2.Test.fail_reportf "%s@.%s" msg (Stmt.block_to_string block));
  (Emit.counts block).Emit.hoisted > 0

(* [DO J = 1, N; DO I = lo, hi, step; S(J) = S(J) + X(I)]: S(J) is an
   invariant read-modify-write element, the inner loop's only reference
   to S, and proven in bounds by the declared shapes. *)
let rmw_nest ?step lo hi =
  [
    B.do_ "J" (B.i 1) (B.v "N")
      [
        B.do_ ?step "I" lo hi
          [ B.set1 "S" (B.v "J") B.(a1 "S" (v "J") +. a1 "X" (v "I")) ];
      ];
  ]

let rmw_shapes = [ ("S", [ (B.i 1, B.v "N") ]); ("X", [ (B.i 1, B.v "N") ]) ]

let rmw_env ~n ~hi =
  let env = Env.create () in
  Env.set_iscalar env "N" n;
  Env.set_iscalar env "HI" hi;
  Env.add_farray env "S" [ (1, n) ];
  Env.add_farray env "X" [ (1, n) ];
  let rng = Lcg.create 3 in
  Env.fill_farray env "S" (fun _ -> Lcg.float rng 1.0);
  Env.fill_farray env "X" (fun _ -> Lcg.float rng 1.0);
  env

(* Interpreter and native run of [block] from equal environments; the
   native result, with both final S arrays required bitwise equal (also
   after a failure, which both must report). *)
let rmw_compare block ~n ~hi =
  let env_i = rmw_env ~n ~hi and env_n = rmw_env ~n ~hi in
  let interp =
    match Exec.run env_i block with () -> Ok () | exception Env.Error m -> Error m
  in
  let native = native_run ~shapes:rmw_shapes ~name:"rmw" block env_n in
  check_bool "both fail or neither" (Result.is_ok interp) (Result.is_ok native);
  (match Env.diff ~only:[ "S" ] env_i env_n with
  | None -> ()
  | Some m -> Alcotest.fail m);
  (native, env_n)

(* Raw-pointer accesses in emitted C: an array's identifier ([a_x] or
   [ia_x]) directly followed by a subscript. *)
let raw_in_c src =
  let n = String.length src in
  let ident c = match c with 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false in
  let rec go i count =
    if i >= n then count
    else if ident src.[i] && (i = 0 || not (ident src.[i - 1])) then begin
      let j = ref i in
      while !j < n && ident src.[!j] do incr j done;
      let id = String.sub src i (!j - i) in
      let raw =
        !j < n
        && src.[!j] = '['
        && (String.starts_with ~prefix:"a_" id || String.starts_with ~prefix:"ia_" id)
      in
      go !j (if raw then count + 1 else count)
    end
    else go (i + 1) count
  in
  go 0 0

(* ---- the emitter revision ---------------------------------------- *)

(* The OCaml the emitter writes for three point kernels, pinned beside
   the revision it belongs to.  A change to the emitted text fails the
   test below until these digests are re-pinned; when the change is the
   emitter's (not the kernels' IR), bump [Emit.revision] with them, or a
   warm artifact cache keeps serving plugins built from the old text. *)
let pinned_revision = "3"

let pinned_emission =
  [
    ("lu", "936b7781ee33ff2fbd4cdd12905ae54e");
    ("matmul", "cd296a79f7e723a64c3b903dc8720e38");
    ("conv", "4cf3d6f54ac836743382e06874e67054");
  ]

(* The same for the C emitter and [Emit_c.revision]. *)
let pinned_c_revision = "1"

let pinned_c_emission =
  [
    ("lu", "1a97a08518504414dec31182cce03fa4");
    ("matmul", "935dfc0024b9a7110b751a6b428c0539");
    ("conv", "21a4ecf28a040019fdd306e0bfb62643");
  ]

(* The C compiler under a name of its own: a wrapper that compiles with
   the real one but reports a version line no other test's compiler
   has.  Artifact keys include that line, so a blueprint compiled
   through the wrapper gets a key this process has not loaded yet,
   however many times the shared cache served the blueprint before. *)
let fresh_cc dir =
  let real = Result.get_ok (Native.compiler ~var:"BLOCKC_CC" "cc") in
  let path = Filename.concat dir "fresh-cc" in
  Artifact_cache.write_file path
    (Printf.sprintf
       "#!/bin/sh\n\
        if [ \"$1\" = --version ]; then echo 'fresh-cc %s'; exit 0; fi\n\
        exec %s \"$@\"\n"
       (Filename.basename dir) (Filename.quote real));
  Unix.chmod path 0o755;
  path

let c_corrupt () =
  (List.find
     (fun (s : Artifact_cache.stats) -> s.kind_name = "c")
     (Artifact_cache.all_stats ()))
    .corrupt

let suite =
  ( "codegen",
    [
      case "emission succeeds for every kernel (point + transformed)" (fun () ->
          List.iter
            (fun (e : Blockability.entry) ->
              let shapes = e.kernel.Kernel_def.shapes in
              ignore
                (emit_ok ~shapes ~name:(e.name ^ "_point")
                   e.kernel.Kernel_def.block);
              match Blockability.derive e with
              | Error _ -> () (* householder: expected negative result *)
              | Ok { result; _ } ->
                  ignore
                    (emit_ok ~shapes ~name:(e.name ^ "_transformed") [ result ]))
            Blockability.entries);
      case "in-bounds proofs fire for lu (and are re-checked at run time)"
        (fun () ->
          let e = entry "lu" in
          let src =
            emit_ok ~shapes:e.kernel.Kernel_def.shapes ~name:"lu_point"
              e.kernel.Kernel_def.block
          in
          let has needle = contains src needle in
          check_bool "unsafe_get" true (has "Array.unsafe_get");
          check_bool "unsafe_set" true (has "Array.unsafe_set");
          check_bool "dims re-checked" true (has "declared shape");
          check_bool "assumption re-checked" true (has "assume N >= 1"));
      case "unsafe:false disables unchecked accesses" (fun () ->
          let e = entry "lu" in
          let src =
            emit_ok ~unsafe:false ~shapes:e.kernel.Kernel_def.shapes
              ~name:"lu_point" e.kernel.Kernel_def.block
          in
          check_bool "no unsafe accesses" false (contains src "unsafe_"));
      case "unknown intrinsic is rejected" (fun () ->
          let block = [ Stmt.Assign ("S", [], Stmt.Fcall ("TANH", [ B.fc 1.0 ])) ] in
          match Emit.source ~name:"bad" block with
          | Ok _ -> Alcotest.fail "expected an emission error"
          | Error m ->
              check_bool "names the intrinsic" true (contains m "TANH"));
      case "assignment to a loop index is rejected" (fun () ->
          let block =
            [ B.do_ "I" (B.i 1) (B.v "N") [ Stmt.Iassign ("I", [], B.i 0) ] ]
          in
          match Emit.source ~name:"bad" block with
          | Ok _ -> Alcotest.fail "expected an emission error"
          | Error _ -> ());
      case "native lu runs bitwise equal to the interpreter" (fun () ->
          require_native ();
          let e = entry "lu" in
          let bindings = [ ("N", 20) ] in
          let env_i = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          Exec.run env_i e.kernel.Kernel_def.block;
          let env_n = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          ok_or_fail "native run"
            (native_run ~shapes:e.kernel.Kernel_def.shapes ~name:"lu_point"
               e.kernel.Kernel_def.block env_n);
          match Env.diff ~only:[ "A" ] env_i env_n with
          | None -> ()
          | Some m -> Alcotest.fail m);
      case "native conv handles non-unit lower bounds bitwise" (fun () ->
          require_native ();
          let e = entry "conv" in
          let bindings = e.Blockability.default_bindings in
          let env_i = Kernel_def.make_env e.kernel ~bindings ~seed:5 in
          Exec.run env_i e.kernel.Kernel_def.block;
          let env_n = Kernel_def.make_env e.kernel ~bindings ~seed:5 in
          ok_or_fail "native run"
            (native_run ~shapes:e.kernel.Kernel_def.shapes ~name:"conv_point"
               e.kernel.Kernel_def.block env_n);
          match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_n with
          | None -> ()
          | Some m -> Alcotest.fail m);
      case "scalar results are written back to the environment" (fun () ->
          require_native ();
          let block =
            [
              Stmt.Iassign ("T", [], Expr.(mul (var "N") (int 2)));
              Stmt.Assign ("S", [], B.(fc 1.5 +. fc 2.0));
            ]
          in
          let env = simple_env ~n:4 in
          ok_or_fail "native run" (native_run ~name:"writeback" block env);
          check_int "T" 8 (Env.iscalar env "T");
          check_bool "S" true (Float.equal (Env.fscalar env "S") 3.5));
      case "zero-step loop fails like the interpreter" (fun () ->
          require_native ();
          let block =
            [
              Stmt.Loop
                {
                  index = "I";
                  lo = Expr.int 1;
                  hi = Expr.var "N";
                  step = Expr.int 0;
                  body = [ Stmt.Assign ("S", [], B.fc 1.0) ];
                };
            ]
          in
          let env = simple_env ~n:4 in
          match native_run ~name:"zerostep" block env with
          | Ok () -> Alcotest.fail "expected a zero-step error"
          | Error m ->
              check_bool "message" true (contains m "zero step"));
      case "broken ocamlopt degrades to a clear error" (fun () ->
          (* A unique scalar name makes a unique blueprint, so neither
             the memo nor the on-disk cache can satisfy the request. *)
          let probe = "FALLBACK_PROBE_NO_SUCH_COMPILER" in
          let block = [ Stmt.Assign (probe, [], B.fc 1.0) ] in
          (match
             with_env "BLOCKC_OCAMLOPT" "/bin/false" (fun () ->
                 Jit.compile_blueprint ~name:"probe" (Blueprint.of_block block))
           with
          | Ok _ -> Alcotest.fail "expected a compile failure"
          | Error m ->
              check_bool "the compiler ran and failed" true
                (contains m "ocamlopt failed (exit "));
          (* The interpreter path is unaffected. *)
          let env = simple_env ~n:2 in
          Exec.run env block;
          check_bool "interpreter still works" true
            (Float.equal (Env.fscalar env probe) 1.0));
      case "a compiler variable naming a missing file is named in the error"
        (fun () ->
          let bp = Blueprint.of_block [ B.setf "MISSING_PROBE" (B.fc 1.0) ] in
          List.iter
            (fun (var, (module Bk : Backend.S)) ->
              with_env var "/nonexistent/compiler" @@ fun () ->
              let expected = var ^ "=/nonexistent/compiler: no such file" in
              (match Bk.available () with
              | Ok () -> Alcotest.failf "%s: available" Bk.tag
              | Error m -> check_string (Bk.tag ^ ": available") expected m);
              match Bk.compile_blueprint ~name:"missing" bp with
              | Ok _ -> Alcotest.failf "%s: compiled" Bk.tag
              | Error m -> check_string (Bk.tag ^ ": compile") expected m)
            [
              ("BLOCKC_OCAMLOPT", (module Backend.Ocaml : Backend.S));
              ("BLOCKC_CC", (module Backend.C : Backend.S));
            ]);
      case "a compiled kernel binds its blueprint's hoisted sizes itself"
        (fun () ->
          require_native ();
          require_cc ();
          let e = entry "lu_opt" in
          let bindings = [ ("N", 40) ] in
          List.iter
            (fun backend ->
              let c =
                ok_or_fail "compile"
                  (Blockability.compile ~backend e Blockability.Transformed)
              in
              check_bool "the blueprint hoists BP1" true
                (List.mem_assoc "BP1" c.c_bp.Blueprint.bindings);
              let make () =
                Blockability.env e Blockability.Transformed ~bindings ~seed:9
              in
              let env_i = make () and env_n = make () in
              Exec.run env_i c.c_block;
              ok_or_fail
                (c.c_cm.Backend.bk_tag ^ " run without bindings")
                (c.c_cm.Backend.bk_run env_n);
              match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_n with
              | None -> ()
              | Some m -> Alcotest.failf "%s: %s" c.c_cm.Backend.bk_tag m)
            Backend.all);
      case "native_compare verifies and times the lu pair" (fun () ->
          require_native ();
          let r =
            ok_or_fail "native_compare"
              (Blockability.native_compare (entry "lu"))
          in
          check_int "point samples" Measure.samples r.Blockability.nt_point.n;
          check_int "transformed samples" Measure.samples
            r.Blockability.nt_transformed.n);
      case "native_compare reports the householder negative result" (fun () ->
          match Blockability.native_compare (entry "householder") with
          | Ok _ -> Alcotest.fail "householder must not block"
          | Error m ->
              check_bool "cites §5.3" true (contains m "5.3"));
      case
        "blueprint: one kernel at two sizes is one key, one ocamlopt run, \
         bitwise"
        (fun () ->
          require_native ();
          let e = entry "lu" in
          let shapes = e.kernel.Kernel_def.shapes in
          (* Concretize N so the two blocks really differ (the symbolic
             registry IR is size-independent already); the blueprint
             must hoist both back to one structure. *)
          let concretize n =
            let s = [ ("N", Expr.int n) ] in
            ( Stmt.subst_block s e.kernel.Kernel_def.block,
              List.map
                (fun (a, dims) ->
                  ( a,
                    List.map
                      (fun (lo, hi) -> (Expr.subst s lo, Expr.subst s hi))
                      dims ))
                shapes )
          in
          let block24, shapes24 = concretize 24
          and block28, shapes28 = concretize 28 in
          let bp24 = Blueprint.of_block ~shapes:shapes24 block24
          and bp28 = Blueprint.of_block ~shapes:shapes28 block28 in
          check_string "one blueprint key" bp24.Blueprint.key
            bp28.Blueprint.key;
          (* A private cache dir makes the first compile a real ocamlopt
             run even if an earlier test run left artifacts on disk. *)
          let saved = Artifact_cache.dir () in
          let tmp = Filename.temp_file "blockc-bp-test" "" in
          Sys.remove tmp;
          Unix.mkdir tmp 0o700;
          Unix.putenv "BLOCKC_JIT_CACHE" tmp;
          Fun.protect
            ~finally:(fun () -> Unix.putenv "BLOCKC_JIT_CACHE" saved)
            (fun () ->
              let c0 = Jit.compiler_invocations () in
              let l24 =
                ok_or_fail "compile 24"
                  (Jit.compile_blueprint ~name:"lu_n24" bp24)
              in
              let l28 =
                ok_or_fail "compile 28"
                  (Jit.compile_blueprint ~name:"lu_n28" bp28)
              in
              check_int "exactly one ocamlopt invocation" 1
                (Jit.compiler_invocations () - c0);
              check_bool "second compile is a memo hit" true
                (l28.Backend.bk_disposition = Artifact_cache.Memo);
              check_string "one artifact" l24.Backend.bk_artifact
                l28.Backend.bk_artifact;
              (* Bitwise vs the interpreter at both sizes, each kernel
                 binding its own blueprint's hoisted sizes. *)
              List.iter
                (fun (n, block, (c : Backend.compiled)) ->
                  let bindings = [ ("N", n) ] in
                  let env_i =
                    Kernel_def.make_env e.kernel ~bindings ~seed:11
                  in
                  Exec.run env_i block;
                  let env_n =
                    Kernel_def.make_env e.kernel ~bindings ~seed:11
                  in
                  ok_or_fail "native run" (c.Backend.bk_run env_n);
                  match Env.diff ~only:[ "A" ] env_i env_n with
                  | None -> ()
                  | Some m -> Alcotest.failf "N=%d: %s" n m)
                [ (24, block24, l24); (28, block28, l28) ]));
      case "artifacts load once: A, B, A is one load per path" (fun () ->
          (* Loading a plugin again would re-run its initializer over
             static data it already set up (the debug runtime aborts in
             caml_initialize), so nothing is ever evicted and reloaded. *)
          require_native ();
          require_cc ();
          with_private_cache @@ fun () ->
          let mem, events = Obs.memory () in
          Obs.set_sink mem;
          Fun.protect ~finally:(fun () -> Obs.set_sink Obs.null) @@ fun () ->
          List.iter
            (fun (module Bk : Backend.S) ->
              List.iter
                (fun c ->
                  let bp =
                    Blueprint.of_block [ Stmt.Assign ("S", [], B.fc c) ]
                  in
                  ignore
                    (ok_or_fail "compile"
                       (Bk.compile_blueprint ~name:"once" bp)))
                [ 1.125; 2.125; 1.125 ])
            Backend.all;
          let loads =
            List.filter_map
              (fun (e : Obs.event) ->
                match (e.kind, e.name, e.args) with
                | ( Obs.Begin,
                    "cache.load",
                    [ ("kind", Obs.Str ("ocaml" | "c")); ("path", Obs.Str p) ] )
                  ->
                    Some p
                | _ -> None)
              (events ())
          in
          check_int "two artifacts per backend" 4
            (List.length (List.sort_uniq compare loads));
          check_int "each loaded once" 4 (List.length loads));
      case "a memo hit names the file it was loaded from" (fun () ->
          (* BLOCKC_JIT_CACHE changes between the two compiles: the
             process holds the plugin loaded from the first cache, and
             the second cache has no file for it *)
          require_native ();
          let bp = Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 13.0625) ] in
          let compile () =
            ok_or_fail "compile" (Jit.compile_blueprint ~name:"memo_path" bp)
          in
          let first = with_private_cache compile in
          check_bool "built" true
            (first.Backend.bk_disposition = Artifact_cache.Compiled);
          with_private_cache @@ fun () ->
          let again = compile () in
          check_bool "memo hit" true
            (again.Backend.bk_disposition = Artifact_cache.Memo);
          check_string "the first cache's file" first.Backend.bk_artifact
            again.Backend.bk_artifact;
          check_bool "which exists" true (Sys.file_exists again.Backend.bk_artifact));
      case "blueprint keys see scalar kinds; both kinds run bitwise on C"
        (fun () ->
          require_cc ();
          (* FLAG is INTEGER in one block and REAL in the other; the two
             print alike. *)
          let int_flag =
            [
              Stmt.Iassign ("FLAG", [], B.i 0);
              Stmt.Assign
                ("S", [], Stmt.Fbin (Stmt.FAdd, Stmt.Of_int (B.v "FLAG"), B.fc 1.5));
            ]
          and real_flag =
            [
              Stmt.Assign ("FLAG", [], Stmt.Of_int (B.i 0));
              Stmt.Assign
                ("S", [], Stmt.Fbin (Stmt.FAdd, Stmt.Fvar "FLAG", B.fc 1.5));
            ]
          in
          check_string "they print alike" (Stmt.block_to_string int_flag)
            (Stmt.block_to_string real_flag);
          let bp_int = Blueprint.of_block int_flag
          and bp_real = Blueprint.of_block real_flag in
          check_bool "different keys" false
            (String.equal bp_int.Blueprint.key bp_real.Blueprint.key);
          List.iter
            (fun (block, (bp : Blueprint.t)) ->
              let env_i = simple_env ~n:4 and env_c = simple_env ~n:4 in
              Exec.run env_i block;
              let l =
                ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"kinds" bp)
              in
              ok_or_fail "cc run" (l.Backend.bk_run env_c);
              let scalars env =
                ( Env.has_iscalar env "FLAG",
                  Env.has_fscalar env "FLAG",
                  Int64.bits_of_float (Env.fscalar env "S") )
              in
              check_bool "FLAG and S as the interpreter leaves them" true
                (scalars env_i = scalars env_c))
            [ (int_flag, bp_int); (real_flag, bp_real) ]);
      case "concurrent compiles of one blueprint are single-flighted"
        (fun () ->
          require_native ();
          let saved = Artifact_cache.dir () in
          let tmp = Filename.temp_file "blockc-flight-test" "" in
          Sys.remove tmp;
          Unix.mkdir tmp 0o700;
          Unix.putenv "BLOCKC_JIT_CACHE" tmp;
          Fun.protect
            ~finally:(fun () -> Unix.putenv "BLOCKC_JIT_CACHE" saved)
            (fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 7.0625) ]
              in
              let c0 = Jit.compiler_invocations () in
              let ds =
                List.init 3 (fun _ ->
                    Domain.spawn (fun () ->
                        Jit.compile_blueprint ~name:"flight_probe" bp))
              in
              let keys =
                List.map
                  (fun d ->
                    (ok_or_fail "compile" (Domain.join d)).Backend.bk_key)
                  ds
              in
              check_int "one ocamlopt for three requests" 1
                (Jit.compiler_invocations () - c0);
              List.iter (check_string "same key" (List.hd keys)) keys));
      qcase ~count:60 "blueprint specialization is the exact inverse of \
                       hoisting" Gen_prog.gen (fun p ->
          let bp = Blueprint.of_block p.Gen_prog.block in
          let back = Blueprint.specialize bp in
          String.equal
            (Stmt.block_to_string p.Gen_prog.block)
            (Stmt.block_to_string back));
      case "C backend runs lu and conv bitwise equal to the interpreter"
        (fun () ->
          require_cc ();
          List.iter
            (fun (name, seed) ->
              let e = entry name in
              let bindings = e.Blockability.default_bindings in
              let env_i = Kernel_def.make_env e.kernel ~bindings ~seed in
              Exec.run env_i e.kernel.Kernel_def.block;
              let env_c = Kernel_def.make_env e.kernel ~bindings ~seed in
              let bp =
                Blueprint.of_block ~shapes:e.kernel.Kernel_def.shapes
                  e.kernel.Kernel_def.block
              in
              let l =
                ok_or_fail "cc compile"
                  (Cc.compile_blueprint ~name:(name ^ "_c") bp)
              in
              ok_or_fail "cc run" (l.Backend.bk_run ~bindings env_c);
              match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_c with
              | None -> ()
              | Some m -> Alcotest.failf "%s: %s" name m)
            [ ("lu", 11); ("conv", 5); ("givens", 3) ]);
      case "C raw-access count matches the emitted source" (fun () ->
          List.iter
            (fun name ->
              let e = entry name in
              let shapes = e.kernel.Kernel_def.shapes
              and block = e.kernel.Kernel_def.block in
              let counted unsafe =
                let src =
                  ok_or_fail "emit c" (Emit_c.source ~unsafe ~shapes ~name block)
                in
                (Emit_c.raw_accesses ~unsafe ~shapes block, raw_in_c src)
              in
              let n, in_src = counted true in
              check_int (name ^ ": counted as emitted") in_src n;
              check_bool (name ^ ": proofs fire") true (n > 0);
              check_int (name ^ ": none unproven") 0 (fst (counted false)))
            [ "lu"; "matmul"; "conv"; "givens" ]);
      case "C backend writes scalars and INTEGER arrays back" (fun () ->
          require_cc ();
          let block =
            [
              Stmt.Iassign ("T", [], Expr.(mul (var "N") (int 2)));
              Stmt.Iassign ("K", [ B.i 2 ], Expr.(add (var "N") (int 1)));
              Stmt.Assign ("S", [], B.(fc 1.5 +. fc 2.0));
            ]
          in
          let env = simple_env ~n:4 in
          Env.add_iarray env "K" [ (1, 3) ];
          let bp = Blueprint.of_block block in
          let l = ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"wb" bp) in
          ok_or_fail "cc run" (l.Backend.bk_run env);
          check_int "T" 8 (Env.iscalar env "T");
          check_int "K(2)" 5 (Env.get_i env "K" [ 2 ]);
          check_bool "S" true (Float.equal (Env.fscalar env "S") 3.5));
      case "C backend fails like the interpreter (zero step, negative SQRT)"
        (fun () ->
          require_cc ();
          let run block =
            let env = simple_env ~n:4 in
            let bp = Blueprint.of_block block in
            let l =
              ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"fail" bp)
            in
            l.Backend.bk_run env
          in
          (match
             run
               [
                 Stmt.Loop
                   {
                     index = "I";
                     lo = Expr.int 1;
                     hi = Expr.var "N";
                     step = Expr.int 0;
                     body = [ Stmt.Assign ("S", [], B.fc 1.0) ];
                   };
               ]
           with
          | Ok () -> Alcotest.fail "zero step accepted"
          | Error m -> check_bool "zero step message" true (contains m "zero step"));
          match
            run [ Stmt.Assign ("S", [], Stmt.Fcall ("SQRT", [ B.fc (-4.0) ])) ]
          with
          | Ok () -> Alcotest.fail "negative SQRT accepted"
          | Error m ->
              check_bool "sqrt message" true (contains m "SQRT of negative"));
      case "C artifacts are cached (memo + disk) and keyed per backend"
        (fun () ->
          require_cc ();
          with_private_cache (fun () ->
              let bp =
                Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 9.0625) ]
              in
              let c0 = Cc.invocations () in
              let l1 =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"cache" bp)
              in
              let l2 =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"cache" bp)
              in
              check_int "one cc run" 1 (Cc.invocations () - c0);
              check_bool "memo hit" true
                (l2.Backend.bk_disposition = Artifact_cache.Memo);
              check_bool "so artifact" true
                (Filename.check_suffix l1.Backend.bk_artifact ".so");
              check_bool "disk stats count .so" true
                ((Artifact_cache.disk_stats ()).Artifact_cache.entries >= 1)));
      case "C memo hits keep the vectorization remarks, which name the kept \
            source" (fun () ->
          require_cc ();
          with_private_cache (fun () ->
              (* two scalar results: their write-back is one vector store *)
              let bp =
                Blueprint.of_block
                  [ B.setf "S" (B.fc 13.0625); B.setf "T" (B.fc 14.0625) ]
              in
              let compile () =
                ok_or_fail "compile" (Cc.compile_blueprint ~name:"remarks" bp)
              in
              let l1 = compile () in
              check_bool "the compiler reported vectorized code" true
                (l1.Backend.bk_remarks <> []);
              let stem =
                Filename.concat (Artifact_cache.dir ())
                  ("bk_" ^ l1.Backend.bk_key)
              in
              List.iter
                (fun r ->
                  check_bool ("names the kept source: " ^ r) true
                    (String.starts_with ~prefix:(stem ^ ".c:") r);
                  check_bool ("names no build directory: " ^ r) false
                    (contains r ".tmp-"))
                l1.Backend.bk_remarks;
              check_bool "the kept source exists" true
                (Sys.file_exists (stem ^ ".c"));
              Sys.remove (stem ^ ".vec");
              let l2 = compile () in
              check_bool "memo hit" true
                (l2.Backend.bk_disposition = Artifact_cache.Memo);
              check_bool "same remarks without the .vec file" true
                (l2.Backend.bk_remarks = l1.Backend.bk_remarks)));
      case "a build that raises leaves no backend wedged" (fun () ->
          require_native ();
          require_cc ();
          let saved = Artifact_cache.dir () in
          (* a cache directory below a regular file: writing the source
             raises Sys_error *)
          let file = Filename.temp_file "blockc-wedge-test" "" in
          Unix.putenv "BLOCKC_JIT_CACHE" (Filename.concat file "cache");
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "BLOCKC_JIT_CACHE" saved;
              try Sys.remove file with Sys_error _ -> ())
          @@ fun () ->
          let bp =
            Blueprint.of_block [ Stmt.Assign ("S", [], B.fc 11.0625) ]
          in
          let ocaml () =
            Result.map ignore (Jit.compile_blueprint ~name:"wedge" bp)
          in
          let c () =
            Result.map ignore (Cc.compile_blueprint ~name:"wedge" bp)
          in
          List.iter
            (fun (what, compile) ->
              for i = 1 to 2 do
                let what = Printf.sprintf "%s call %d" what i in
                check_bool (what ^ " is an Error") true
                  (Result.is_error (within ~s:10.0 what compile))
              done)
            [ ("ocaml", ocaml); ("c", c) ];
          (* fixed: the same directory can now be created *)
          Sys.remove file;
          List.iter
            (fun (what, compile) ->
              check_bool (what ^ " compiles once fixed") true
                (Result.is_ok (within ~s:60.0 what compile)))
            [ ("ocaml", ocaml); ("c", c) ]);
      case "backend registry resolves tags" (fun () ->
          check_bool "ocaml" true (Option.is_some (Backend.of_tag "ocaml"));
          check_bool "c" true (Option.is_some (Backend.of_tag "c"));
          check_bool "unknown" true (Option.is_none (Backend.of_tag "rust"));
          check_bool "names" true (Backend.names = [ "ocaml"; "c" ]));
      case "BLOCKC_JIT_DISK_CAP prunes oldest artifacts and counts evictions"
        (fun () ->
          require_native ();
          with_private_cache (fun () ->
              let saved_cap =
                Option.value (Sys.getenv_opt "BLOCKC_JIT_DISK_CAP") ~default:""
              in
              Unix.putenv "BLOCKC_JIT_DISK_CAP" "1";
              Fun.protect
                ~finally:(fun () ->
                  Unix.putenv "BLOCKC_JIT_DISK_CAP" saved_cap)
                (fun () ->
                  let e0 = Artifact_cache.disk_evictions () in
                  let compile c =
                    ok_or_fail "compile"
                      (Jit.compile_blueprint ~name:"cap_probe"
                         (Blueprint.of_block [ Stmt.Assign ("S", [], B.fc c) ]))
                  in
                  let _l1 = compile 4.125 in
                  let l2 = compile 5.125 in
                  (* The cap (1 byte) forces every artifact but the one
                     just written out of the cache. *)
                  let stats = Artifact_cache.disk_stats () in
                  check_int "only the newest artifact remains" 1
                    stats.Artifact_cache.entries;
                  check_bool "evictions counted" true
                    (Artifact_cache.disk_evictions () - e0 >= 1);
                  check_bool "survivor is the newest" true
                    (Sys.file_exists l2.Backend.bk_artifact))));
      qcase ~count:12 "hoisted offsets equal the direct formula (ranks 1-3)"
        gen_hoist_case
        (fun c ->
          require_native ();
          hoisted_offsets_match c);
      case "an invariant element under a checked access is not promoted"
        (fun () ->
          require_native ();
          let block = rmw_nest (B.v "J") (B.v "HI") in
          check_int "promoted" 0
            (Emit.counts ~shapes:rmw_shapes block).Emit.promoted;
          (* X(N+1) is out of bounds: the run fails where the interpreter
             does, with S(1) holding the sum so far in both. *)
          match rmw_compare block ~n:6 ~hi:8 with
          | Ok (), _ -> Alcotest.fail "expected an out-of-bounds error"
          | Error m, _ ->
              check_string "the checked access's error"
                "out of bounds: index out of bounds" m);
      case "a promoted loop with zero trips writes nothing" (fun () ->
          require_native ();
          (* I = J+1..N runs zero times at J = N; with step 2 it also
             does at J = N-1. *)
          List.iter
            (fun step ->
              let block = rmw_nest ?step B.(v "J" +! i 1) (B.v "N") in
              check_int "promoted" 1
                (Emit.counts ~shapes:rmw_shapes block).Emit.promoted;
              let before = Env.farray_data (rmw_env ~n:6 ~hi:0) "S" in
              match rmw_compare block ~n:6 ~hi:0 with
              | Error m, _ -> Alcotest.fail m
              | Ok (), env ->
                  check_bool "S(N) untouched" true
                    (Int64.equal
                       (Int64.bits_of_float before.(5))
                       (Int64.bits_of_float (Env.farray_data env "S").(5))))
            [ None; Some (B.i 2) ]);
      case "emitted OCaml is pinned to Emit.revision" (fun () ->
          check_string "the pins' revision" pinned_revision Emit.revision;
          List.iter
            (fun (name, digest) ->
              let e = entry name in
              let src =
                emit_ok ~shapes:e.kernel.Kernel_def.shapes ~name:"pin"
                  e.kernel.Kernel_def.block
              in
              check_string
                (name ^ " point: emitted text changed (bump Emit.revision)")
                digest
                (Digest.to_hex (Digest.string src)))
            pinned_emission);
      case "the emitter revision keys plugins: an older one's is rebuilt"
        (fun () ->
          require_native ();
          with_private_cache @@ fun () ->
          let bp =
            Blueprint.of_block [ Stmt.Assign ("REVISION_PROBE", [], B.fc 2.5) ]
          in
          let new_key = Jit.key ~revision:Emit.revision bp in
          check_bool "two revisions, two keys" false
            (String.equal (Jit.key ~revision:"1" bp) new_key);
          (* Before the emitter had a revision, the key was the OCaml
             version and the blueprint key alone: the name under which a
             cache filled by that emitter holds this blueprint's plugin. *)
          let unrevisioned =
            Digest.to_hex
              (Digest.string
                 (Sys.ocaml_version ^ "\x00blueprint\x00" ^ bp.Blueprint.key))
          in
          check_bool "not the unrevisioned key" false
            (String.equal unrevisioned new_key);
          (* Store there (and under revision 1) a plugin that behaves
             differently from what this emitter writes for the blueprint,
             so a load of it would show in the result. *)
          let old_source =
            emit_ok ~name:"old" [ Stmt.Assign ("REVISION_PROBE", [], B.fc 1.5) ]
          in
          let ocamlopt =
            Result.get_ok (Native.compiler ~var:"BLOCKC_OCAMLOPT" "ocamlopt")
          in
          List.iter
            (fun old_key ->
              let stem =
                Filename.concat (Artifact_cache.dir ()) ("bk_" ^ old_key)
              in
              Out_channel.with_open_bin (stem ^ ".ml") (fun oc ->
                  output_string oc old_source);
              check_int "old plugin built" 0
                (Sys.command
                   (Printf.sprintf "%s -shared -w -a -o %s %s"
                      (Filename.quote ocamlopt)
                      (Filename.quote (stem ^ ".cmxs"))
                      (Filename.quote (stem ^ ".ml")))))
            [
              unrevisioned; Jit.key ~revision:"1" bp; Jit.key ~revision:"2" bp;
            ];
          let c0 = Jit.compiler_invocations () in
          let l = ok_or_fail "compile" (Jit.compile_blueprint ~name:"revision" bp) in
          check_bool "rebuilt, not loaded" true
            (l.Backend.bk_disposition = Artifact_cache.Compiled);
          check_int "one ocamlopt run" 1 (Jit.compiler_invocations () - c0);
          check_string "under the new key" new_key l.Backend.bk_key;
          let env = simple_env ~n:1 in
          ok_or_fail "run" (l.Backend.bk_run env);
          check_bool "runs" true (Float.equal (Env.fscalar env "REVISION_PROBE") 2.5));
      case "emitted C is pinned to Emit_c.revision" (fun () ->
          check_string "the pins' revision" pinned_c_revision Emit_c.revision;
          List.iter
            (fun (name, digest) ->
              let e = entry name in
              let src =
                ok_or_fail "emit c"
                  (Emit_c.source ~shapes:e.kernel.Kernel_def.shapes ~name:"pin"
                     e.kernel.Kernel_def.block)
              in
              check_string
                (name ^ " point: emitted C changed (bump Emit_c.revision)")
                digest
                (Digest.to_hex (Digest.string src)))
            pinned_c_emission);
      case "the C key names what built an object: an older formula's is \
            never served" (fun () ->
          require_cc ();
          with_private_cache @@ fun () ->
          let compiler = Result.get_ok (Native.compiler ~var:"BLOCKC_CC" "cc") in
          let version = Cc.version compiler in
          let bp =
            Blueprint.of_block [ Stmt.Assign ("C_REVISION_PROBE", [], B.fc 2.5) ]
          in
          let new_key = Cc.key ~version ~revision:Emit_c.revision bp in
          check_bool "two revisions, two keys" false
            (String.equal (Cc.key ~version ~revision:"0" bp) new_key);
          (* Before the key named the emitter revision and the flags, it
             was the compiler's version line and the blueprint key: the
             name under which a cache filled then holds this blueprint's
             object. *)
          let old_key =
            Digest.to_hex
              (Digest.string (version ^ "\x00c-backend\x00" ^ bp.Blueprint.key))
          in
          check_bool "not the old key" false (String.equal old_key new_key);
          (* Store there, built the old way, an object that behaves
             differently from what this emitter writes for the
             blueprint, so a load of it would show in the result. *)
          let stem = Filename.concat (Artifact_cache.dir ()) ("bk_" ^ old_key) in
          Artifact_cache.write_file (stem ^ ".c")
            (ok_or_fail "emit c"
               (Emit_c.source ~name:"old"
                  [ Stmt.Assign ("C_REVISION_PROBE", [], B.fc 1.5) ]));
          check_int "old object built" 0
            (Sys.command
               (Printf.sprintf
                  "%s -std=c99 -O2 -shared -fPIC -ffp-contract=off -o %s %s -lm"
                  (Filename.quote compiler)
                  (Filename.quote (stem ^ ".so"))
                  (Filename.quote (stem ^ ".c"))));
          let c0 = Cc.invocations () in
          let l = ok_or_fail "compile" (Cc.compile_blueprint ~name:"revision" bp) in
          check_bool "rebuilt, not loaded" true
            (l.Backend.bk_disposition = Artifact_cache.Compiled);
          check_int "one cc run" 1 (Cc.invocations () - c0);
          check_string "under the new key" new_key l.Backend.bk_key;
          let env = simple_env ~n:1 in
          ok_or_fail "run" (l.Backend.bk_run env);
          check_bool "runs" true
            (Float.equal (Env.fscalar env "C_REVISION_PROBE") 2.5));
      case "an object importing a missing symbol fails to load and is rebuilt"
        (fun () ->
          require_cc ();
          with_private_cache @@ fun () ->
          let cc = fresh_cc (Artifact_cache.dir ()) in
          let e = entry "lu" in
          let bindings = e.Blockability.default_bindings in
          let bp =
            Blueprint.of_block ~shapes:e.kernel.Kernel_def.shapes
              e.kernel.Kernel_def.block
          in
          let key =
            Cc.key ~version:(Cc.version cc) ~revision:Emit_c.revision bp
          in
          (* Linked like every object, without libc: nothing marks the
             import unresolvable until the load binds it. *)
          let stem = Filename.concat (Artifact_cache.dir ()) ("bk_" ^ key) in
          Artifact_cache.write_file (stem ^ ".c")
            "extern int blockc_no_such_symbol(void);\n\
             int blockc_cc_kernel(void) { return blockc_no_such_symbol(); }\n";
          check_int "planted object built" 0
            (Sys.command
               (Printf.sprintf "%s %s -o %s %s" (Filename.quote cc)
                  (String.concat " " Cc.flags)
                  (Filename.quote (stem ^ ".so"))
                  (Filename.quote (stem ^ ".c"))));
          let corrupt0 = c_corrupt () in
          let l =
            ok_or_fail "compile"
              (with_env "BLOCKC_CC" cc (fun () ->
                   Cc.compile_blueprint ~name:"lu" bp))
          in
          check_int "counted corrupt once" 1 (c_corrupt () - corrupt0);
          check_bool "rebuilt" true
            (l.Backend.bk_disposition = Artifact_cache.Compiled);
          check_bool "the recorded load error names the symbol" true
            (List.exists
               (fun (ev : Obs.event) ->
                 ev.name = "cache.corrupt"
                 &&
                 match List.assoc_opt "error" ev.args with
                 | Some (Obs.Str m) -> contains m "blockc_no_such_symbol"
                 | _ -> false)
               (Obs.Recorder.recent ()));
          let env_i = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          Exec.run env_i e.kernel.Kernel_def.block;
          let env_c = Kernel_def.make_env e.kernel ~bindings ~seed:11 in
          ok_or_fail "cc run" (l.Backend.bk_run ~bindings env_c);
          match Env.diff ~only:e.kernel.Kernel_def.traced env_i env_c with
          | None -> ()
          | Some m -> Alcotest.fail m);
      case "C NaN and infinity literals keep their bits" (fun () ->
          require_native ();
          require_cc ();
          let values =
            [
              Float.nan;
              Int64.float_of_bits 0xfff8_0000_0000_0005L;
              Int64.float_of_bits 0x7ff0_0000_0000_0002L;
              Float.infinity;
              Float.neg_infinity;
            ]
          in
          let name k = Printf.sprintf "LIT%d" k in
          let block = List.mapi (fun k x -> B.setf (name k) (B.fc x)) values in
          let env_i = simple_env ~n:1
          and env_o = simple_env ~n:1
          and env_c = simple_env ~n:1 in
          Exec.run env_i block;
          let bp = Blueprint.of_block block in
          let p =
            ok_or_fail "ocaml compile" (Jit.compile_blueprint ~name:"literals" bp)
          in
          ok_or_fail "plugin run" (p.Backend.bk_run env_o);
          let l =
            ok_or_fail "cc compile" (Cc.compile_blueprint ~name:"literals" bp)
          in
          ok_or_fail "cc run" (l.Backend.bk_run env_c);
          List.iteri
            (fun k x ->
              let bits env = Int64.bits_of_float (Env.fscalar env (name k)) in
              check_bool (name k ^ ": the interpreter's bits") true
                (Int64.equal (bits env_i) (Int64.bits_of_float x));
              check_bool (name k ^ ": the plugin's bits") true
                (Int64.equal (bits env_o) (bits env_i));
              check_bool (name k ^ ": the object's bits") true
                (Int64.equal (bits env_c) (bits env_i)))
            values);
      case "build directories of dead processes are swept; live ones stay"
        (fun () ->
          require_native ();
          with_private_cache @@ fun () ->
          let d = Artifact_cache.dir () in
          (* a pid that named a process a moment ago: a reaped child's *)
          let child =
            Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout
              Unix.stderr
          in
          ignore (Unix.waitpid [] child);
          let fabricate pid =
            let t = Filename.concat d (Printf.sprintf ".tmp-%d-999999" pid) in
            Unix.mkdir t 0o700;
            Artifact_cache.write_file (Filename.concat t "bk_half.ml") "(* cut short *)";
            t
          in
          let dead = fabricate child
          and own = fabricate (Unix.getpid ())
          and init = fabricate 1 in
          ignore
            (ok_or_fail "compile"
               (Jit.compile_blueprint ~name:"sweep"
                  (Blueprint.of_block [ B.setf "SWEEP_PROBE" (B.fc 6.125) ])));
          check_bool "the reaped child's directory is gone" false
            (Sys.file_exists dead);
          check_bool "this process's directory stays" true (Sys.file_exists own);
          check_bool "pid 1's directory stays" true (Sys.file_exists init));
    ] )
