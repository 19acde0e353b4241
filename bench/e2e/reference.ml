(* Reference digests from the interpreter.

   The environment is built the way [Serve] builds it for an
   [execute]/[batch] item, and the digest has serve's definition, so a
   response is correct exactly when its digest equals the one
   [Exec.run] produces on the same variant's IR. *)

let entry kernel =
  match Blockability.find kernel with
  | Some e -> e
  | None -> invalid_arg ("unknown kernel " ^ kernel)

(* [Serve.env_for]: the kernel's set-up, then the entry's scratch
   arrays; the transformed variant also binds the entry's extra
   parameters (block sizes), with the caller's values taking
   precedence. *)
let env_for (e : Blockability.entry) ~variant ~bindings ~seed =
  let bindings = if bindings = [] then e.Blockability.default_bindings else bindings in
  let bindings =
    if variant = "transformed" then e.Blockability.extra_bindings @ bindings
    else bindings
  in
  let env = Kernel_def.make_env e.Blockability.kernel ~bindings ~seed in
  e.Blockability.extra_setup env ~bindings;
  env

(* [Serve.digest_env]: MD5 of the marshalled [(name, float array)] list
   of the kernel's traced arrays. *)
let digest (e : Blockability.entry) env =
  let arrays =
    List.map (fun a -> (a, Env.farray_data env a)) e.Blockability.kernel.Kernel_def.traced
  in
  Digest.to_hex (Digest.string (Marshal.to_string arrays []))

let derived = Hashtbl.create 8

(* The IR a variant runs; derivation is memoized per process, as serve
   does. *)
let block (e : Blockability.entry) variant =
  if variant = "point" then e.Blockability.kernel.Kernel_def.block
  else
    match Hashtbl.find_opt derived e.Blockability.name with
    | Some b -> b
    | None -> (
        match Blockability.derive e with
        | Error m -> failwith ("derivation of " ^ e.Blockability.name ^ " failed: " ^ m)
        | Ok { Blocker.result; _ } ->
            Hashtbl.replace derived e.Blockability.name [ result ];
            [ result ])

let compute ~kernel ~variant ~bindings ~seed =
  let e = entry kernel in
  let blk = block e variant in
  let env = env_for e ~variant ~bindings ~seed in
  Exec.run env blk;
  digest e env

let bindings_key bs = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) bs)

(* Digests for [items], read from [dir] when this build computed them
   before.  The key includes a digest of the running executable, which
   links the interpreter, the kernels and the transformations, so a
   rebuild with different code never reads a stale reference. *)
let table ~dir items ~seed =
  Fs.mkdirs dir;
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let t = Hashtbl.create 64 in
  List.iter
    (fun (kernel, variant, bindings) ->
      let key =
        Digest.to_hex
          (Digest.string
             (String.concat "\x00"
                [ build; kernel; variant; bindings_key bindings; string_of_int seed ]))
      in
      let path = Filename.concat dir key in
      let d =
        match Fs.read_file path with
        | Some d when String.length d = 32 -> d
        | _ ->
            let d = compute ~kernel ~variant ~bindings ~seed in
            Fs.write_atomic path d;
            d
      in
      Hashtbl.replace t (kernel, variant, bindings) d)
    items;
  t
