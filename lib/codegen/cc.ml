(* System-cc back end for emitted kernels.

   The pipeline is [cc] with {!flags} on the {!Emit_c} output, then
   [dlopen] through the cc_stubs shim.  Objects live in the
   {!Artifact_cache} with the OCaml plugins, keyed by blueprint digest
   x {!Emit_c.revision} x {!flags} x [cc --version], so a toolchain
   upgrade, a new emitter or a new flag invalidates exactly the C half
   of the cache. *)

external cc_load : string -> nativeint = "blockc_cc_load"

external cc_run :
  nativeint ->
  float array array
  * int array
  * int array array
  * int array
  * float array
  * int array ->
  string = "blockc_cc_run"

(* A loaded object: its entry point, its marshaling manifest and the
   vectorization remarks of its build. *)
type kernel = {
  entry : nativeint;
  mf : Emit_c.manifest;
  remarks : string list;
}

let tag = "c"

(* ---- compiler discovery ------------------------------------------ *)

let compiler () = Native.compiler ~var:"BLOCKC_CC" "cc"
let available () = Result.map ignore (compiler ())

(* First line of [cc --version]: part of the cache key.  Spawning the
   compiler costs milliseconds in every new process, so the line is
   kept in the cache, keyed by the compiler's path and a stat of the
   file it resolves to: replacing the compiler (or re-pointing a
   symlink to another one) changes the key. *)
let probe : string Artifact_cache.kind =
  Artifact_cache.kind "cc_probe" ~prefix:"cc_" ~ext:".version"

let version compiler =
  let id =
    match Unix.stat compiler with
    | st ->
        Printf.sprintf "%d:%d:%d:%h" st.Unix.st_dev st.Unix.st_ino
          st.Unix.st_size st.Unix.st_mtime
    | exception Unix.Unix_error _ -> ""
  in
  let key = Digest.to_hex (Digest.string (compiler ^ "\x00" ^ id)) in
  let build tmp =
    let ic =
      Unix.open_process_args_in compiler [| compiler; "--version" |]
    in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    Artifact_cache.write_file
      (Filename.concat tmp ("cc_" ^ key ^ ".version"))
      (line ^ "\n");
    Ok ()
  in
  (* a line cut short has lost its newline *)
  let load path =
    match String.split_on_char '\n' (Artifact_cache.read_file path) with
    | [ line; "" ] -> Ok line
    | _ -> Error "truncated version probe"
  in
  match Artifact_cache.get probe ~key ~build ~load with
  | Ok e -> e.Artifact_cache.value
  | Error _ -> ""

(* ---- compile + load ---------------------------------------------- *)

(* [-ffp-contract=off] is load-bearing: it is what makes the object
   bitwise-comparable with the interpreter and the OCaml plugin (no FMA
   contraction of a*b+c).  [-pipe] hands the assembly to [as] through a
   pipe rather than a file; the object is byte-identical.  [-nostdlib]
   links neither libc, libm nor the C start files, whose link cost
   twice the rest of it (EXPERIMENTS, COLD-COMPILE): the object's few
   imports resolve against the host process, which links libc and
   libm, when the stub dlopens it. *)
let flags =
  [
    "-std=c99"; "-O2"; "-pipe"; "-shared"; "-fPIC"; "-ffp-contract=off";
    "-nostdlib";
  ]

let key ~version ~revision (bp : Blueprint.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            version; "c-backend"; "emit_c"; revision; "flags";
            String.concat " " flags; "blueprint"; bp.Blueprint.key;
          ]))

let kind : kernel Artifact_cache.kind =
  Artifact_cache.kind "c" ~prefix:"bk_" ~ext:".so" ~keep:[ ".c"; ".vec" ]

let invocations () = (Artifact_cache.stats kind).builds

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The compiler's vectorization report ([-fopt-info-vec=FILE]), kept
   next to the cached object as [bk_<key>.vec] so warm loads can still
   answer "which loops vectorized?".  Only the remark lines themselves
   survive the filter; an absent or empty file (flag unsupported, or
   nothing vectorized) is just [].  Each remark names the source kept
   beside the object, whatever directory the compiler saw it in (an
   object built before the compiler ran on relative names reported a
   build directory that no longer exists). *)
let vec_remarks so =
  let stem = Filename.remove_extension so in
  let src = Filename.basename stem ^ ".c:" in
  Artifact_cache.read_file (stem ^ ".vec")
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         match (find_sub l "vectoriz", find_sub l src) with
         | None, _ -> None
         | Some _, None -> Some l
         | Some _, Some i ->
             Some
               (Filename.concat (Filename.dirname so)
                  (String.sub l i (String.length l - i))))

(* The calling convention: the manifest orders the environment's
   arrays and scalars into the kernel's fixed ABI. *)
let call k env ~geti ~getf =
  let mf = k.mf in
  let fa =
    Array.of_list
      (List.map (fun (n, _) -> Env.farray_data env n) mf.Emit_c.m_farrays)
  in
  let fdim =
    Array.concat
      (List.map
         (fun (n, _) -> Native.flat_dims (Env.farray_dims env n))
         mf.Emit_c.m_farrays)
  in
  let ia =
    Array.of_list
      (List.map (fun (n, _) -> Env.iarray_data env n) mf.Emit_c.m_iarrays)
  in
  let idim =
    Array.concat
      (List.map
         (fun (n, _) -> Native.flat_dims (Env.iarray_dims env n))
         mf.Emit_c.m_iarrays)
  in
  let fsc = Array.of_list (List.map getf mf.Emit_c.m_fscalars) in
  let isc = Array.of_list (List.map geti mf.Emit_c.m_iscalars) in
  let msg = cc_run k.entry (fa, fdim, ia, idim, fsc, isc) in
  if msg = "" then begin
    (* Scalar results back into the environment, mirroring the OCaml
       plugins' seti/setf write-backs. *)
    List.iteri
      (fun i n ->
        if List.mem n mf.Emit_c.m_fsc_w then Env.set_fscalar env n fsc.(i))
      mf.Emit_c.m_fscalars;
    List.iteri
      (fun i n ->
        if List.mem n mf.Emit_c.m_isc_w then Env.set_iscalar env n isc.(i))
      mf.Emit_c.m_iscalars;
    Ok ()
  end
  else Error msg

let compile_blueprint ~name (bp : Blueprint.t) =
  Obs.span ~cat:"jit" "cc.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () ->
  match compiler () with
  | Error _ as e -> e
  | Ok compiler ->
      let key = key ~version:(version compiler) ~revision:Emit_c.revision bp in
      let build tmp =
        match
          Emit_c.source ~unsafe:bp.Blueprint.unsafe ~shapes:bp.Blueprint.shapes
            ~name bp.Blueprint.block
        with
        | Error m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
        | Ok src -> (
            Obs.span ~cat:"jit" "cc.compile"
              ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
            @@ fun () ->
            let stem = "bk_" ^ key in
            Artifact_cache.write_file (Filename.concat tmp (stem ^ ".c")) src;
            let cc extra =
              Native.compile ~tool:"cc" ~name ~compiler tmp
                (flags @ extra @ [ "-o"; stem ^ ".so"; stem ^ ".c" ])
            in
            (* First attempt asks for the vectorization report;
               compilers that reject the flag (it is a GCC spelling) get
               a clean retry without it. *)
            match cc [ "-fopt-info-vec=" ^ stem ^ ".vec" ] with
            | Ok () -> Ok ()
            | Error _ ->
                (try Sys.remove (Filename.concat tmp (stem ^ ".vec"))
                 with Sys_error _ -> ());
                cc [])
      in
      let load so =
        match Emit_c.manifest bp.Blueprint.block with
        | Error m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
        | Ok _ when Artifact_cache.truncated_elf so ->
            Error (name ^ ": truncated object")
        | Ok mf -> (
            match cc_load so with
            | entry -> Ok { entry; mf; remarks = vec_remarks so }
            | exception Failure m ->
                Error (Printf.sprintf "%s: dlopen failed: %s" name m))
      in
      Artifact_cache.get kind ~key ~build ~load
      |> Result.map (fun (e : kernel Artifact_cache.entry) ->
             Native.kernel ~tag ~key ~span:"cc.run" ~remarks:e.value.remarks bp
               e call)
