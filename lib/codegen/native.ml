(* The compile step both native backends share: see native.mli. *)

type compiled = {
  bk_tag : string;
  bk_key : string;
  bk_artifact : string;
  bk_disposition : Artifact_cache.disposition;
  bk_compile_s : float;
  bk_remarks : string list;
  bk_run : ?bindings:(string * int) list -> Env.t -> (unit, string) result;
}

let compiler ~var name =
  match Sys.getenv_opt var with
  | Some p when p <> "" ->
      if Sys.file_exists p then Ok p
      else Error (Printf.sprintf "%s=%s: no such file" var p)
  | _ -> (
      let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
      match
        List.find_map
          (fun dir ->
            if dir = "" then None
            else
              let p = Filename.concat dir name in
              if Sys.file_exists p then Some p else None)
          (String.split_on_char ':' path)
      with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "%s not found on PATH (set %s)" name var))

let first_lines s =
  let lines = String.split_on_char '\n' (String.trim s) in
  String.concat " | " (List.filteri (fun i _ -> i < 4) lines)

(* A path into the build directory, which is deleted after the build,
   would differ per process and name a missing file wherever the
   compiler recorded it (a plugin embeds its source's name, a remark
   names its file).  So the compiler runs inside the directory on
   relative names, and only its own path is made absolute. *)
let compile ~tool ~name ~compiler dir args =
  let compiler =
    if Filename.is_relative compiler then
      Filename.concat (Sys.getcwd ()) compiler
    else compiler
  in
  let cmd =
    Printf.sprintf "cd %s && exec %s %s 2> stderr" (Filename.quote dir)
      (Filename.quote compiler)
      (String.concat " " (List.map Filename.quote args))
  in
  match Sys.command cmd with
  | 0 -> Ok ()
  | rc ->
      Error
        (Printf.sprintf "%s: %s failed (exit %d): %s" name tool rc
           (first_lines
              (Artifact_cache.read_file (Filename.concat dir "stderr"))))

let flat_dims dims =
  Array.of_list (List.concat_map (fun (lo, hi) -> [ lo; hi ]) dims)

let kernel ~tag ~key ~span ?(remarks = []) (bp : Blueprint.t)
    (e : _ Artifact_cache.entry) call =
  let hoisted = bp.Blueprint.bindings in
  let run ?(bindings = []) env =
    Obs.span ~cat:"jit" span @@ fun () ->
    let geti n =
      match List.assoc_opt n bindings with
      | Some v -> v
      | None -> (
          match List.assoc_opt n hoisted with
          | Some v -> v
          | None -> if Env.has_iscalar env n then Env.iscalar env n else 0)
    in
    let getf n = if Env.has_fscalar env n then Env.fscalar env n else 0.0 in
    match call e.Artifact_cache.value env ~geti ~getf with
    | r -> r
    | exception Env.Error m -> Error m
    | exception Failure m -> Error m
    | exception Division_by_zero -> Error "division by zero"
    | exception Invalid_argument m -> Error ("out of bounds: " ^ m)
  in
  {
    bk_tag = tag;
    bk_key = key;
    bk_artifact = e.path;
    bk_disposition = e.disposition;
    bk_compile_s = e.build_s;
    bk_remarks = remarks;
    bk_run = run;
  }
