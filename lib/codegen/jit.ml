(* ocamlopt -shared + Dynlink back end for emitted kernels. *)

type fn =
  (string -> int)
  * (string -> float)
  * (string -> float array)
  * (string -> int array)
  * (string -> int array)
  * (string -> int array)
  * (string -> float -> unit)
  * (string -> int -> unit)
  -> unit

let tag = "ocaml"
let disposition_name = Artifact_cache.disposition_name

(* ---- compiler discovery ------------------------------------------ *)

let compiler () =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink cannot load native plugins"
  else Native.compiler ~var:"BLOCKC_OCAMLOPT" "ocamlopt"

let available () = Result.map ignore (compiler ())

(* ---- loading ------------------------------------------------------ *)

(* The plugin's initializer raises [Blockc_kernel run].  An exception
   value is a block whose first field is the constructor slot — itself a
   block whose first field is the constructor's name.  Validate the name
   before trusting the payload. *)
let extract (e : exn) : fn option =
  let r = Obj.repr e in
  if Obj.is_block r && Obj.size r = 2 && Obj.is_block (Obj.field r 0) then begin
    let slot = Obj.field r 0 in
    if
      Obj.size slot >= 1
      && Obj.is_block (Obj.field slot 0)
      && Obj.tag (Obj.field slot 0) = Obj.string_tag
    then begin
      let name : string = Obj.obj (Obj.field slot 0) in
      if name = "Blockc_kernel" || String.ends_with ~suffix:".Blockc_kernel" name
      then Some (Obj.obj (Obj.field r 1) : fn)
      else None
    end
    else None
  end
  else None

(* Dynlink keeps global state; serialize loads across domains. *)
let dynlink_mu = Mutex.create ()

let load ~name cmxs =
  if Artifact_cache.truncated_elf cmxs then Error (name ^ ": truncated plugin")
  else begin
    Mutex.lock dynlink_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock dynlink_mu)
      (fun () ->
        match Dynlink.loadfile_private cmxs with
        | () -> Error (name ^ ": plugin did not provide a kernel entry point")
        | exception
            Dynlink.Error (Dynlink.Library's_module_initializers_failed e) -> (
            match extract e with
            | Some fn -> Ok fn
            | None ->
                Error
                  (name ^ ": plugin failed to load: " ^ Printexc.to_string e))
        | exception Dynlink.Error err ->
            Error (name ^ ": dynlink: " ^ Dynlink.error_message err))
  end

(* ---- compilation -------------------------------------------------- *)

let kind : fn Artifact_cache.kind =
  Artifact_cache.kind "ocaml" ~prefix:"bk_" ~ext:".cmxs" ~keep:[ ".ml" ]

let compiler_invocations () = (Artifact_cache.stats kind).builds

(* Part of the key.  [-ccopt -nostdlib] leaves libc and the C start
   files out of the plugin's link, 9 of its 40 ms (EXPERIMENTS,
   COLD-COMPILE): its imports ([caml_*] and Stdlib symbols) resolve
   against the host at [Dynlink] time. *)
let flags = [ "-shared"; "-w"; "-a"; "-ccopt"; "-nostdlib" ]

let key ~revision (bp : Blueprint.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            Sys.ocaml_version; "emit"; revision; "flags";
            String.concat " " flags; "blueprint"; bp.Blueprint.key;
          ]))

(* The calling convention: the plugin's entry point takes the
   environment's readers and writers as one tuple. *)
let call (fn : fn) env ~geti ~getf =
  fn
    ( geti,
      getf,
      Env.farray_data env,
      Env.iarray_data env,
      (fun n -> Native.flat_dims (Env.farray_dims env n)),
      (fun n -> Native.flat_dims (Env.iarray_dims env n)),
      Env.set_fscalar env,
      Env.set_iscalar env );
  Ok ()

(* Build (or fetch) the plugin for a blueprint.  Emission only happens
   on a build.  The plugin's module name comes from its file name (the
   key), so the emitted text must not vary with the caller's diagnostic
   name — one blueprint, one source, one artifact. *)
let compile_blueprint ~name (bp : Blueprint.t) =
  let key = key ~revision:Emit.revision bp in
  Obs.span ~cat:"jit" "jit.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name); ("blueprint", Obs.Str bp.Blueprint.key) ]
  @@ fun () ->
  match compiler () with
  | Error _ as e -> e
  | Ok compiler ->
      let build tmp =
        let ename = "bp_" ^ String.sub bp.Blueprint.key 0 12 in
        match
          Obs.span ~cat:"jit" "jit.emit" ~args:[ ("kernel", Obs.Str ename) ]
          @@ fun () ->
          Emit.source ~unsafe:bp.Blueprint.unsafe ~shapes:bp.Blueprint.shapes
            ~name:ename bp.Blueprint.block
        with
        | Error _ as e -> e
        | Ok source ->
            Obs.span ~cat:"jit" "jit.compile"
              ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
            @@ fun () ->
            let stem = "bk_" ^ key in
            Artifact_cache.write_file (Filename.concat tmp (stem ^ ".ml")) source;
            Native.compile ~tool:"ocamlopt" ~name ~compiler tmp
              (flags @ [ "-o"; stem ^ ".cmxs"; stem ^ ".ml" ])
      in
      Artifact_cache.get kind ~key ~build ~load:(load ~name)
      |> Result.map (fun e ->
             Native.kernel ~tag ~key ~span:"jit.run" bp e call)
