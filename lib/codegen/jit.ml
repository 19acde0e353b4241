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

type disposition = Artifact_cache.disposition = Memo | Disk | Compiled

type loaded = {
  key : string;
  cmxs : string;
  cached : bool;
  disposition : disposition;
  compile_s : float;
  fn : fn;
}

let disposition_name = Artifact_cache.disposition_name

(* ---- compiler discovery ------------------------------------------ *)

let find_ocamlopt () =
  match Sys.getenv_opt "BLOCKC_OCAMLOPT" with
  | Some p -> if Sys.file_exists p then Some p else None
  | None ->
      let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
      List.find_map
        (fun dir ->
          if dir = "" then None
          else
            let p = Filename.concat dir "ocamlopt" in
            if Sys.file_exists p then Some p else None)
        (String.split_on_char ':' path)

let available () =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink cannot load native plugins"
  else
    match find_ocamlopt () with
    | Some _ -> Ok ()
    | None -> Error "ocamlopt not found on PATH (set BLOCKC_OCAMLOPT)"

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

let first_lines ?(n = 4) s =
  let lines = String.split_on_char '\n' (String.trim s) in
  String.concat " | " (List.filteri (fun i _ -> i < n) lines)

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

(* Build (or fetch) the plugin for a blueprint.  Emission only happens
   on a build, so the warm path is a hash lookup and nothing else.  The
   plugin's module name comes from its file name (the key), so the
   emitted text must not vary with the caller's diagnostic name — one
   blueprint, one source, one artifact. *)
let compile_blueprint ?ocamlopt ~name (bp : Blueprint.t) =
  let key = key ~revision:Emit.revision bp in
  Obs.span ~cat:"jit" "jit.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name); ("blueprint", Obs.Str bp.Blueprint.key) ]
  @@ fun () ->
  let compiler =
    match ocamlopt with Some p -> Some p | None -> find_ocamlopt ()
  in
  match (Dynlink.is_native, compiler) with
  | false, _ -> Error "bytecode host: Dynlink cannot load native plugins"
  | true, None -> Error "ocamlopt not found on PATH (set BLOCKC_OCAMLOPT)"
  | true, Some compiler -> (
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
            let stem = Filename.concat tmp ("bk_" ^ key) in
            Artifact_cache.write_file (stem ^ ".ml") source;
            let cmd =
              Printf.sprintf "%s %s -o %s %s 2> %s"
                (Filename.quote compiler) (String.concat " " flags)
                (Filename.quote (stem ^ ".cmxs"))
                (Filename.quote (stem ^ ".ml"))
                (Filename.quote (stem ^ ".err"))
            in
            match Sys.command cmd with
            | 0 -> Ok ()
            | rc ->
                Error
                  (Printf.sprintf "%s: ocamlopt failed (exit %d): %s" name rc
                     (first_lines (Artifact_cache.read_file (stem ^ ".err"))))
      in
      Artifact_cache.get kind ~key ~build ~load:(load ~name)
      |> Result.map (fun (e : fn Artifact_cache.entry) ->
             {
               key;
               cmxs = e.path;
               cached = e.disposition <> Compiled;
               disposition = e.disposition;
               compile_s = e.build_s;
               fn = e.value;
             }))

(* ---- execution ---------------------------------------------------- *)

let flat_dims dims =
  Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) dims)

let run ?(bindings = []) fn env =
  Obs.span ~cat:"jit" "jit.run"
  @@ fun () ->
  let geti n =
    match List.assoc_opt n bindings with
    | Some v -> v
    | None -> if Env.has_iscalar env n then Env.iscalar env n else 0
  in
  let getf n = if Env.has_fscalar env n then Env.fscalar env n else 0.0 in
  let getfa = Env.farray_data env in
  let getia = Env.iarray_data env in
  let getfd n = flat_dims (Env.farray_dims env n) in
  let getid n = flat_dims (Env.iarray_dims env n) in
  let setf = Env.set_fscalar env in
  let seti = Env.set_iscalar env in
  match fn (geti, getf, getfa, getia, getfd, getid, setf, seti) with
  | () -> Ok ()
  | exception Env.Error m -> Error m
  | exception Failure m -> Error m
  | exception Division_by_zero -> Error "division by zero"
  | exception Invalid_argument m -> Error ("out of bounds: " ^ m)
