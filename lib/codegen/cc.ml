(* System-cc back end for emitted kernels.

   The pipeline is [cc -std=c99 -O2 -shared -fPIC -ffp-contract=off]
   on the {!Emit_c} output, then [dlopen] through the cc_stubs shim.
   Objects live in the same content-addressed cache as the OCaml
   plugins ([Jit.cache_dir]), keyed by blueprint digest x backend tag
   x [cc --version], so a toolchain upgrade invalidates exactly the C
   half of the cache.  [-ffp-contract=off] is load-bearing: it is what
   makes the object bitwise-comparable with the interpreter and the
   OCaml plugin (no FMA contraction of a*b+c). *)

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
  disposition : Jit.disposition;
  compile_s : float;
  vec_remarks : string list;
  fn : fn;
}

(* ---- compiler discovery ------------------------------------------ *)

let find_cc () =
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
  match find_cc () with
  | Some _ -> Ok ()
  | None -> Error "cc not found on PATH (set BLOCKC_CC)"

(* First line of [cc --version], memoized: part of the cache key, so
   it must be stable for the life of the process and cheap after the
   first call. *)
let version_mu = Mutex.create ()
let version_memo : (string, string) Hashtbl.t = Hashtbl.create 1

let cc_version compiler =
  Mutex.lock version_mu;
  let v =
    match Hashtbl.find_opt version_memo compiler with
    | Some v -> v
    | None ->
        let v =
          try
            let ic =
              Unix.open_process_in
                (Filename.quote compiler ^ " --version 2>/dev/null")
            in
            let line = try input_line ic with End_of_file -> "" in
            ignore (Unix.close_process_in ic);
            line
          with Unix.Unix_error _ | Sys_error _ -> ""
        in
        Hashtbl.replace version_memo compiler v;
        v
  in
  Mutex.unlock version_mu;
  v

(* ---- compile + load ---------------------------------------------- *)

let invocation_count = ref 0

let invocation_counter =
  lazy
    (Obs.Metrics.counter ~help:"Actual cc runs (C-backend compiles)"
       "cc.invocations")

(* One coarse lock around compile-or-fetch: the C backend has no
   serve-style concurrent-compile workload yet, so single-flighting per
   key is not worth the machinery Jit needs.  The memo keeps each
   object's vectorization remarks next to its entry point, so a memo
   hit reads no file. *)
let mu = Mutex.create ()
let memo : (string, fn * string list) Hashtbl.t = Hashtbl.create 16

let invocations () =
  Mutex.lock mu;
  let n = !invocation_count in
  Mutex.unlock mu;
  n

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error _ -> ""

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
  read_file vecf
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l <> "" && contains_sub l "vectoriz" then Some l else None)

let rec mkdirs p =
  if not (Sys.file_exists p) then begin
    let parent = Filename.dirname p in
    if parent <> p then mkdirs parent;
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

let compile_blueprint ?cc ~name (bp : Blueprint.t) =
  Obs.span ~cat:"jit" "cc.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () ->
  let compiler =
    match cc with
    | Some c -> Some c
    | None -> find_cc ()
  in
  match compiler with
  | None -> Error "cc not found on PATH (set BLOCKC_CC)"
  | Some compiler -> (
      match Emit_c.manifest bp.Blueprint.block with
      | Error m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
      | Ok mf -> (
          let key =
            Digest.to_hex
              (Digest.string
                 (cc_version compiler ^ "\x00c-backend\x00" ^ bp.Blueprint.key))
          in
          let dir = Jit.cache_dir () in
          let base = "bk_" ^ key in
          let so = Filename.concat dir (base ^ ".so") in
          let vecf = Filename.concat dir (base ^ ".vec") in
          let memo_hit (fn, vec_remarks) =
            Ok
              {
                key;
                so;
                cached = true;
                disposition = Jit.Memo;
                compile_s = 0.0;
                vec_remarks;
                fn;
              }
          in
          let build () =
            mkdirs dir;
            let on_disk = Sys.file_exists so in
            let t0 = Unix.gettimeofday () in
            let built =
              if on_disk then Ok ()
              else
                match
                  Emit_c.source ~unsafe:bp.Blueprint.unsafe
                    ~shapes:bp.Blueprint.shapes ~name bp.Blueprint.block
                with
                | Error _ as e -> e
                | Ok src ->
                    Obs.span ~cat:"jit" "cc.compile"
                      ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
                    @@ fun () ->
                    let c = Filename.concat dir (base ^ ".c") in
                    let tmp = Filename.concat dir (base ^ ".tmp.so") in
                    let errf = Filename.concat dir (base ^ ".err") in
                    write_file c src;
                    let cmd extra =
                      Printf.sprintf
                        "%s -std=c99 -O2 -shared -fPIC -ffp-contract=off%s \
                         -o %s %s -lm 2> %s"
                        (Filename.quote compiler) extra (Filename.quote tmp)
                        (Filename.quote c) (Filename.quote errf)
                    in
                    incr invocation_count;
                    Obs.Metrics.incr (Lazy.force invocation_counter);
                    (* First attempt asks for the vectorization report;
                       compilers that reject the flag (it is a GCC
                       spelling) get a clean retry without it. *)
                    (try Sys.remove vecf with Sys_error _ -> ());
                    let rc =
                      match
                        Sys.command
                          (cmd (" -fopt-info-vec=" ^ Filename.quote vecf))
                      with
                      | 0 -> 0
                      | _ ->
                          (try Sys.remove vecf with Sys_error _ -> ());
                          Sys.command (cmd "")
                    in
                    if rc <> 0 then
                      Error
                        (Printf.sprintf "%s: cc failed (exit %d): %s" name rc
                           (first_lines (read_file errf)))
                    else begin
                      Sys.rename tmp so;
                      Jit.prune_disk_cache ~keep:[ base ^ ".so" ] ();
                      Ok ()
                    end
            in
            let compile_s = Unix.gettimeofday () -. t0 in
            match built with
            | Error _ as e -> e
            | Ok () -> (
                match cc_load so with
                | entry ->
                    let fn = { entry; mf } in
                    let vec_remarks = vec_remarks_of vecf in
                    Hashtbl.replace memo key (fn, vec_remarks);
                    Ok
                      {
                        key;
                        so;
                        cached = on_disk;
                        disposition =
                          (if on_disk then Jit.Disk else Jit.Compiled);
                        compile_s;
                        vec_remarks;
                        fn;
                      }
                | exception Failure m ->
                    Error (Printf.sprintf "%s: dlopen failed: %s" name m))
          in
          Mutex.lock mu;
          let memoized = Hashtbl.find_opt memo key in
          Mutex.unlock mu;
          match memoized with
          | Some m -> memo_hit m
          | None -> (
              (* The lock is released on every exit, exceptions included
                 (a cache directory that cannot be written raises), or
                 every later C lookup would block on it. *)
              Mutex.lock mu;
              match
                Fun.protect
                  ~finally:(fun () -> Mutex.unlock mu)
                  (fun () ->
                    (* Re-probe under the lock: another thread may have
                       loaded it while we waited. *)
                    match Hashtbl.find_opt memo key with
                    | Some m -> memo_hit m
                    | None -> build ())
              with
              | r -> r
              | exception e -> Error (name ^ ": " ^ Printexc.to_string e))))

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