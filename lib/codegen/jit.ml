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

type disposition = Memo | Disk | Compiled

type loaded = {
  key : string;
  cmxs : string;
  cached : bool;
  disposition : disposition;
  compile_s : float;
  fn : fn;
}

let disposition_name = function
  | Memo -> "memo"
  | Disk -> "disk"
  | Compiled -> "compiled"

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

let cache_dir () =
  let dir =
    Option.value (Sys.getenv_opt "BLOCKC_JIT_CACHE")
      ~default:(Filename.concat "_build" ".jitcache")
  in
  if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir

let rec mkdirs p =
  if not (Sys.file_exists p) then begin
    let parent = Filename.dirname p in
    if parent <> p then mkdirs parent;
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

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

(* ---- emission ----------------------------------------------------- *)

let emit ?unsafe ?shapes ~name blk =
  Obs.span ~cat:"jit" "jit.emit" ~args:[ ("kernel", Obs.Str name) ]
  @@ fun () -> Emit.source ?unsafe ?shapes ~name blk

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
  Obs.span ~cat:"jit" "jit.load"
    ~args:[ ("kernel", Obs.Str name); ("cmxs", Obs.Str cmxs) ]
  @@ fun () ->
  Mutex.lock dynlink_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock dynlink_mu)
    (fun () ->
      match Dynlink.loadfile_private cmxs with
      | () -> Error (name ^ ": plugin did not provide a kernel entry point")
      | exception Dynlink.Error (Dynlink.Library's_module_initializers_failed e)
        -> (
          match extract e with
          | Some fn -> Ok fn
          | None ->
              Error (name ^ ": plugin failed to load: " ^ Printexc.to_string e))
      | exception Dynlink.Error err ->
          Error (name ^ ": dynlink: " ^ Dynlink.error_message err))

(* ---- the in-process memo (bounded, shared, single-flight) --------- *)

(* One lock guards the memo and the in-flight set.  Compilation and
   loading happen outside the lock; a request whose key is already being
   built waits on [built_cond] instead of racing a second ocamlopt —
   the single-flight guarantee the serve daemon relies on. *)
let mu = Mutex.create ()
let built_cond = Condition.create ()

type slot = { sfn : fn; mutable last_used : int }

let memo : (string, slot) Hashtbl.t = Hashtbl.create 16
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 4
let clock = ref 0
let invocations = ref 0
let evictions = ref 0
let dedup_hits = ref 0
let memo_hit_count = ref 0
let disk_hit_count = ref 0
let disk_eviction_count = ref 0

let memo_cap () =
  match Option.bind (Sys.getenv_opt "BLOCKC_JIT_MEMO_CAP") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 64

let compiler_invocations () =
  Mutex.lock mu;
  let n = !invocations in
  Mutex.unlock mu;
  n

let memo_evictions () =
  Mutex.lock mu;
  let n = !evictions in
  Mutex.unlock mu;
  n

let memo_size () =
  Mutex.lock mu;
  let n = Hashtbl.length memo in
  Mutex.unlock mu;
  n

let dedup_waits () =
  Mutex.lock mu;
  let n = !dedup_hits in
  Mutex.unlock mu;
  n

let memo_hits () =
  Mutex.lock mu;
  let n = !memo_hit_count in
  Mutex.unlock mu;
  n

let disk_hits () =
  Mutex.lock mu;
  let n = !disk_hit_count in
  Mutex.unlock mu;
  n

let disk_evictions () =
  Mutex.lock mu;
  let n = !disk_eviction_count in
  Mutex.unlock mu;
  n

(* Scan the on-disk artifact cache.  The directory may not exist yet
   (nothing compiled) or race with a concurrent compile renaming a tmp
   file in — both are fine, the scan is advisory introspection. *)
type disk_cache = { entries : int; bytes : int; oldest_age_s : float }

(* A cache artifact: an OCaml plugin or a C-backend shared object. *)
let is_artifact n =
  String.length n > 4
  && String.sub n 0 3 = "bk_"
  && (Filename.check_suffix n ".cmxs" || Filename.check_suffix n ".so")

let disk_stats () =
  let dir = cache_dir () in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  let now = Unix.gettimeofday () in
  let entries = ref 0 and bytes = ref 0 and oldest = ref 0.0 in
  Array.iter
    (fun n ->
      if is_artifact n then
        match Unix.stat (Filename.concat dir n) with
        | st ->
            incr entries;
            bytes := !bytes + st.Unix.st_size;
            oldest := Float.max !oldest (now -. st.Unix.st_mtime)
        | exception Unix.Unix_error _ -> ())
    names;
  { entries = !entries; bytes = !bytes; oldest_age_s = !oldest }

let eviction_counter =
  lazy
    (Obs.Metrics.counter ~help:"LRU evictions from the in-process JIT memo"
       "jit.memo_evictions")

let dedup_counter =
  lazy
    (Obs.Metrics.counter
       ~help:"Compiles coalesced onto another request already building the \
              same blueprint"
       "jit.compile_dedup_hits")

let memo_hit_counter =
  lazy
    (Obs.Metrics.counter ~help:"Kernel lookups satisfied by the in-process memo"
       "jit.memo_hits")

let disk_hit_counter =
  lazy
    (Obs.Metrics.counter
       ~help:"Kernel lookups satisfied by an on-disk cmxs artifact"
       "jit.disk_hits")

let disk_eviction_counter =
  lazy
    (Obs.Metrics.counter
       ~help:"Artifacts deleted from the on-disk cache by BLOCKC_JIT_DISK_CAP \
              LRU pruning"
       "jit.disk_evictions")

let disk_cap () =
  match
    Option.bind (Sys.getenv_opt "BLOCKC_JIT_DISK_CAP") int_of_string_opt
  with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* LRU-by-mtime pruning of the on-disk cache, called after each fresh
   compile.  Artifacts ([bk_*.cmxs], [bk_*.so]) are deleted oldest
   first until total artifact bytes fit under BLOCKC_JIT_DISK_CAP;
   each deletion also removes the artifact's source and stderr
   siblings ([.ml]/[.c]/[.err]).  [keep] protects the artifact just
   written, so a cap smaller than one plugin still leaves the current
   kernel runnable.  Best-effort: stat/unlink races with concurrent
   compiles are ignored. *)
let prune_disk_cache ~keep () =
  match disk_cap () with
  | None -> ()
  | Some cap ->
      let dir = cache_dir () in
      let names = try Sys.readdir dir with Sys_error _ -> [||] in
      let arts =
        Array.to_list names
        |> List.filter_map (fun n ->
               if is_artifact n && not (List.mem n keep) then
                 match Unix.stat (Filename.concat dir n) with
                 | st -> Some (n, st.Unix.st_size, st.Unix.st_mtime)
                 | exception Unix.Unix_error _ -> None
               else None)
        |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
      in
      let kept_bytes =
        List.fold_left
          (fun acc n ->
            match Unix.stat (Filename.concat dir n) with
            | st -> acc + st.Unix.st_size
            | exception Unix.Unix_error _ -> acc)
          0 keep
      in
      let total =
        List.fold_left (fun acc (_, sz, _) -> acc + sz) kept_bytes arts
      in
      let excess = ref (total - cap) in
      List.iter
        (fun (n, sz, _) ->
          if !excess > 0 then begin
            let stem = Filename.remove_extension (Filename.concat dir n) in
            (try Sys.remove (Filename.concat dir n) with Sys_error _ -> ());
            List.iter
              (fun ext ->
                let p = stem ^ ext in
                try if Sys.file_exists p then Sys.remove p
                with Sys_error _ -> ())
              [ ".ml"; ".c"; ".err" ];
            excess := !excess - sz;
            Mutex.lock mu;
            incr disk_eviction_count;
            Mutex.unlock mu;
            Obs.Metrics.incr (Lazy.force disk_eviction_counter)
          end)
        arts

(* Caller holds [mu]. *)
let memo_touch slot =
  incr clock;
  slot.last_used <- !clock

(* Caller holds [mu].  Evict least-recently-used entries down to the
   cap; the serve daemon compiles unboundedly many distinct blueprints
   over its lifetime and must not hold every closure forever. *)
let memo_insert key fn =
  incr clock;
  Hashtbl.replace memo key { sfn = fn; last_used = !clock };
  let cap = memo_cap () in
  while Hashtbl.length memo > cap do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, best) when best.last_used <= s.last_used -> acc
          | _ -> Some (k, s))
        memo None
    in
    match victim with
    | None -> assert false (* the table has more than [cap >= 1] entries *)
    | Some (k, _) ->
        Hashtbl.remove memo k;
        incr evictions;
        Obs.Metrics.incr (Lazy.force eviction_counter)
  done

(* ---- compilation -------------------------------------------------- *)

let first_lines ?(n = 4) s =
  let lines = String.split_on_char '\n' (String.trim s) in
  String.concat " | " (List.filteri (fun i _ -> i < n) lines)

(* Build (or fetch) the plugin for [key].  [source] is only forced on a
   memo miss, so the warm path is a hash lookup and nothing else. *)
let compile_keyed ?ocamlopt ~name ~key (source : unit -> (string, string) result)
    =
  if not Dynlink.is_native then
    Error "bytecode host: Dynlink cannot load native plugins"
  else
    let compiler =
      match ocamlopt with Some p -> Some p | None -> find_ocamlopt ()
    in
    match compiler with
    | None -> Error "ocamlopt not found on PATH (set BLOCKC_OCAMLOPT)"
    | Some compiler -> (
        let cmxs_path () =
          Filename.concat (cache_dir ()) ("bk_" ^ key ^ ".cmxs")
        in
        let rec claim waited =
          match Hashtbl.find_opt memo key with
          | Some slot ->
              memo_touch slot;
              incr memo_hit_count;
              Obs.Metrics.incr (Lazy.force memo_hit_counter);
              `Memo slot.sfn
          | None ->
              if Hashtbl.mem in_flight key then begin
                if not waited then begin
                  incr dedup_hits;
                  Obs.Metrics.incr (Lazy.force dedup_counter)
                end;
                Condition.wait built_cond mu;
                claim true
              end
              else begin
                Hashtbl.add in_flight key ();
                `Ours
              end
        in
        Mutex.lock mu;
        let claimed = claim false in
        Mutex.unlock mu;
        match claimed with
        | `Memo fn ->
            Ok
              {
                key;
                cmxs = cmxs_path ();
                cached = true;
                disposition = Memo;
                compile_s = 0.0;
                fn;
              }
        | `Ours -> (
            (* Whatever happens below, the key leaves [in_flight]: a
               build that raised (say the cache directory cannot be
               written) would otherwise leave every later request for
               it waiting on [built_cond] forever. *)
            let release () =
              Mutex.lock mu;
              Hashtbl.remove in_flight key;
              Condition.broadcast built_cond;
              Mutex.unlock mu
            in
            let build () =
              let dir = cache_dir () in
              mkdirs dir;
              let base = "bk_" ^ key in
              let ml = Filename.concat dir (base ^ ".ml") in
              let cmxs = Filename.concat dir (base ^ ".cmxs") in
              let on_disk = Sys.file_exists cmxs in
              let t0 = Unix.gettimeofday () in
              let built =
                if on_disk then Ok ()
                else
                  match source () with
                  | Error _ as e -> e
                  | Ok source ->
                      Obs.span ~cat:"jit" "jit.compile"
                        ~args:[ ("kernel", Obs.Str name); ("key", Obs.Str key) ]
                      @@ fun () ->
                      write_file ml source;
                      let tmp = Filename.concat dir (base ^ ".tmp.cmxs") in
                      let errf = Filename.concat dir (base ^ ".err") in
                      let cmd =
                        Printf.sprintf "%s -shared -w -a -o %s %s 2> %s"
                          (Filename.quote compiler) (Filename.quote tmp)
                          (Filename.quote ml) (Filename.quote errf)
                      in
                      Mutex.lock mu;
                      incr invocations;
                      Mutex.unlock mu;
                      let rc = Sys.command cmd in
                      if rc <> 0 then
                        Error
                          (Printf.sprintf "%s: ocamlopt failed (exit %d): %s"
                             name rc
                             (first_lines (read_file errf)))
                      else begin
                        Sys.rename tmp cmxs;
                        prune_disk_cache ~keep:[ base ^ ".cmxs" ] ();
                        Ok ()
                      end
              in
              let compile_s = Unix.gettimeofday () -. t0 in
              match built with
              | Error _ as e -> e
              | Ok () -> (
                  match load ~name cmxs with
                  | Error _ as e -> e
                  | Ok fn ->
                      Ok
                        {
                          key;
                          cmxs;
                          cached = on_disk;
                          disposition = (if on_disk then Disk else Compiled);
                          compile_s;
                          fn;
                        })
            in
            match build () with
            | exception e ->
                release ();
                Error (name ^ ": " ^ Printexc.to_string e)
            | Error _ as e ->
                release ();
                e
            | Ok l ->
                Mutex.lock mu;
                memo_insert key l.fn;
                if l.cached then begin
                  incr disk_hit_count;
                  Obs.Metrics.incr (Lazy.force disk_hit_counter)
                end;
                Hashtbl.remove in_flight key;
                Condition.broadcast built_cond;
                Mutex.unlock mu;
                Ok l))

let compile ?ocamlopt ~name source =
  let key =
    Digest.to_hex (Digest.string (Sys.ocaml_version ^ "\x00" ^ source))
  in
  compile_keyed ?ocamlopt ~name ~key (fun () -> Ok source)

(* The plugin's module name comes from its file name (the key), so the
   emitted text must not vary with the caller's diagnostic name — one
   blueprint, one source, one artifact. *)
let compile_blueprint ?ocamlopt ~name (bp : Blueprint.t) =
  let key =
    Digest.to_hex
      (Digest.string (Sys.ocaml_version ^ "\x00blueprint\x00" ^ bp.Blueprint.key))
  in
  let source () =
    emit ~unsafe:bp.Blueprint.unsafe ~shapes:bp.Blueprint.shapes
      ~name:("bp_" ^ String.sub bp.Blueprint.key 0 12)
      bp.Blueprint.block
  in
  Obs.span ~cat:"jit" "jit.compile_blueprint"
    ~args:[ ("kernel", Obs.Str name); ("blueprint", Obs.Str bp.Blueprint.key) ]
  @@ fun () -> compile_keyed ?ocamlopt ~name ~key source

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

let run_block ?unsafe ?shapes ~name blk env =
  let bp = Blueprint.of_block ?unsafe ?shapes blk in
  match compile_blueprint ~name bp with
  | Error m -> Error m
  | Ok { fn; _ } -> run ~bindings:bp.Blueprint.bindings fn env
