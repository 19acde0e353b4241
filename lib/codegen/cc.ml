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

type fn = { entry : nativeint; mf : Emit_c.manifest }

type loaded = {
  key : string;
  so : string;
  cached : bool;
  disposition : Artifact_cache.disposition;
  compile_s : float;
  vec_remarks : string list;
  fn : fn;
}

(* ---- compiler discovery ------------------------------------------ *)

let compiler () =
  match Sys.getenv_opt "BLOCKC_CC" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
      let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
      List.find_map
        (fun dir ->
          if dir = "" then None
          else
            let p = Filename.concat dir "cc" in
            if Sys.file_exists p then Some p else None)
        (String.split_on_char ':' path)

let available () =
  match compiler () with
  | Some _ -> Ok ()
  | None -> Error "cc not found on PATH (set BLOCKC_CC)"

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

let kind : (fn * string list) Artifact_cache.kind =
  Artifact_cache.kind "c" ~prefix:"bk_" ~ext:".so" ~keep:[ ".c"; ".vec" ]

let invocations () = (Artifact_cache.stats kind).builds

let first_lines ?(n = 4) s =
  let lines = String.split_on_char '\n' (String.trim s) in
  String.concat " | " (List.filteri (fun i _ -> i < n) lines)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The compiler's vectorization report ([-fopt-info-vec=FILE]), kept
   next to the cached object as [bk_<key>.vec] so warm loads can still
   answer "which loops vectorized?".  Only the remark lines themselves
   survive the filter; an absent or empty file (flag unsupported, or
   nothing vectorized) is just []. *)
let vec_remarks_of vecf =
  Artifact_cache.read_file vecf
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l <> "" && contains_sub l "vectoriz" then Some l else None)

let compile_blueprint ?cc ~name (bp : Blueprint.t) =
  Obs.span ~cat:"jit" "cc.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () ->
  let cc = match cc with None -> compiler () | some -> some in
  match cc with
  | None -> Error "cc not found on PATH (set BLOCKC_CC)"
  | Some compiler -> (
      let key = key ~version:(version compiler) ~revision:Emit_c.revision bp in
      let build tmp =
        match
          Emit_c.source ~unsafe:bp.Blueprint.unsafe ~shapes:bp.Blueprint.shapes
            ~name bp.Blueprint.block
        with
        | Error m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
        | Ok src ->
            Obs.span ~cat:"jit" "cc.compile"
              ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
            @@ fun () ->
            let stem = Filename.concat tmp ("bk_" ^ key) in
            let errf = stem ^ ".err" in
            Artifact_cache.write_file (stem ^ ".c") src;
            let cmd extra =
              Printf.sprintf "%s %s%s -o %s %s 2> %s"
                (Filename.quote compiler) (String.concat " " flags) extra
                (Filename.quote (stem ^ ".so"))
                (Filename.quote (stem ^ ".c"))
                (Filename.quote errf)
            in
            (* First attempt asks for the vectorization report;
               compilers that reject the flag (it is a GCC spelling) get
               a clean retry without it. *)
            let rc =
              let vec = " -fopt-info-vec=" ^ Filename.quote (stem ^ ".vec") in
              match Sys.command (cmd vec) with
              | 0 -> 0
              | _ ->
                  (try Sys.remove (stem ^ ".vec") with Sys_error _ -> ());
                  Sys.command (cmd "")
            in
            if rc = 0 then Ok ()
            else
              Error
                (Printf.sprintf "%s: cc failed (exit %d): %s" name rc
                   (first_lines (Artifact_cache.read_file errf)))
      in
      let load so =
        match Emit_c.manifest bp.Blueprint.block with
        | Error m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
        | Ok _ when Artifact_cache.truncated_elf so ->
            Error (name ^ ": truncated object")
        | Ok mf -> (
            match cc_load so with
            | entry ->
                Ok
                  ( { entry; mf },
                    vec_remarks_of (Filename.remove_extension so ^ ".vec") )
            | exception Failure m ->
                Error (Printf.sprintf "%s: dlopen failed: %s" name m))
      in
      Artifact_cache.get kind ~key ~build ~load
      |> Result.map (fun (e : (fn * string list) Artifact_cache.entry) ->
             let fn, vec_remarks = e.value in
             {
               key;
               so = e.path;
               cached = e.disposition <> Artifact_cache.Compiled;
               disposition = e.disposition;
               compile_s = e.build_s;
               vec_remarks;
               fn;
             }))

(* ---- execution --------------------------------------------------- *)

let flat_dims dims =
  Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) dims)

let run ?(bindings = []) fn env =
  Obs.span ~cat:"jit" "cc.run"
  @@ fun () ->
  let mf = fn.mf in
  let geti n =
    match List.assoc_opt n bindings with
    | Some v -> v
    | None -> if Env.has_iscalar env n then Env.iscalar env n else 0
  in
  let getf n = if Env.has_fscalar env n then Env.fscalar env n else 0.0 in
  match
    let fa =
      Array.of_list
        (List.map (fun (n, _) -> Env.farray_data env n) mf.Emit_c.m_farrays)
    in
    let fdim =
      Array.concat
        (List.map
           (fun (n, _) -> flat_dims (Env.farray_dims env n))
           mf.Emit_c.m_farrays)
    in
    let ia =
      Array.of_list
        (List.map (fun (n, _) -> Env.iarray_data env n) mf.Emit_c.m_iarrays)
    in
    let idim =
      Array.concat
        (List.map
           (fun (n, _) -> flat_dims (Env.iarray_dims env n))
           mf.Emit_c.m_iarrays)
    in
    let fsc = Array.of_list (List.map getf mf.Emit_c.m_fscalars) in
    let isc = Array.of_list (List.map geti mf.Emit_c.m_iscalars) in
    let msg = cc_run fn.entry (fa, fdim, ia, idim, fsc, isc) in
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
  with
  | r -> r
  | exception Env.Error m -> Error m
  | exception Failure m -> Error m