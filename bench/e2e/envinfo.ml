(* The environment block of every result file, and the toolchain
   check that refuses a partial run. *)

module J = Json_min

(* First line a command prints, or [None] when it cannot run. *)
let first_line ?(env = Unix.environment ()) prog args =
  match Unix.open_process_args_full prog (Array.of_list (prog :: args)) env with
  | exception Unix.Unix_error _ -> None
  | (out, inp, err) as p ->
      close_out inp;
      let line = try Some (String.trim (input_line out)) with End_of_file -> None in
      (try while true do ignore (input_line out) done with End_of_file -> ());
      (try while true do ignore (input_line err) done with End_of_file -> ());
      (match Unix.close_process_full p with Unix.WEXITED 0 -> line | _ -> None)

let read_trimmed path = Option.map String.trim (Fs.read_file path)

(* Data and unified cache sizes of cpu0, by level, as the kernel
   reports them ("48K"). *)
let cache_size ~level ~types =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  List.find_map
    (fun idx ->
      let f k = read_trimmed (Filename.concat (Filename.concat dir idx) k) in
      match (f "level", f "type") with
      | Some l, Some t when l = string_of_int level && List.mem t types -> f "size"
      | _ -> None)
    (List.sort compare (Fs.files dir))

let cpu_model () =
  Option.bind (Fs.read_file "/proc/cpuinfo") (fun s ->
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.starts_with ~prefix:"model name" l ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' s))

(* Only a checkout's own .git: git must not walk up out of it. *)
let git_head () =
  if Sys.file_exists ".git" then
    first_line "git"
      ~env:(Array.append [| "GIT_DIR=.git" |] (Unix.environment ()))
      [ "rev-parse"; "HEAD" ]
  else None

let opt = function Some s -> J.String s | None -> J.Null

let collect ~seed =
  J.Object
    [
      ( "nproc",
        match first_line "nproc" [] with
        | Some n -> J.String n
        | None -> J.String (string_of_int (Domain.recommended_domain_count ())) );
      ("cpu_model", opt (cpu_model ()));
      ("l1d", opt (cache_size ~level:1 ~types:[ "Data" ]));
      ("l2", opt (cache_size ~level:2 ~types:[ "Unified"; "Data" ]));
      ("ocamlopt", opt (first_line "ocamlopt" [ "-version" ]));
      ("cc", opt (first_line "cc" [ "--version" ]));
      ("ocaml_version", J.String Sys.ocaml_version);
      ("daemon_flags", J.Array (List.map (fun f -> J.String f) Session.daemon_flags));
      ("blockability_domains", J.Number (float_of_int Session.domains));
      ("seed", J.Number (float_of_int seed));
      ("git_head", opt (git_head ()));
    ]

(* Why a full run is impossible here, if it is. *)
let missing_toolchain ~blockc =
  if not (Sys.file_exists blockc) then Some ("blockc not found at " ^ blockc)
  else
    match (Backend.Ocaml.available (), Backend.C.available ()) with
    | Error m, _ -> Some ("OCaml backend unavailable: " ^ m)
    | _, Error m -> Some ("C backend unavailable: " ^ m)
    | Ok (), Ok () ->
        if Client.vm_hwm_kb (Unix.getpid ()) = None then
          Some "/proc/<pid>/status has no VmHWM: peak memory cannot be read"
        else None
