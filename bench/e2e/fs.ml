(* File helpers; everything the benchmark writes lives under its output
   directory in the checkout. *)

let rec mkdirs p =
  if not (Sys.file_exists p) then begin
    let parent = Filename.dirname p in
    if parent <> p then mkdirs parent;
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

(* Reads to end of file: /proc and /sys files report no length. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          let b = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec go () =
            let n = input ic chunk 0 4096 in
            if n > 0 then begin
              Buffer.add_subbytes b chunk 0 n;
              go ()
            end
          in
          go ();
          Some (Buffer.contents b))

(* Write then rename, so a killed run never leaves a truncated file. *)
let write_atomic path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
  Sys.rename tmp path

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let files dir = try Array.to_list (Sys.readdir dir) with Sys_error _ -> []

(* Bytes of compiled artifacts ([bk_*.so] objects, [bk_*.cmxs]
   plugins) in a cache directory. *)
let artifact_bytes dir =
  List.fold_left
    (fun acc f ->
      if
        String.starts_with ~prefix:"bk_" f
        && (Filename.check_suffix f ".so" || Filename.check_suffix f ".cmxs")
      then acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (files dir)
