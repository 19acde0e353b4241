(* One content-addressed cache for plugins, C objects, compiler probes
   and derived IR: see artifact_cache.mli. *)

type disposition = Memo | Disk | Compiled

let disposition_name = function
  | Memo -> "memo"
  | Disk -> "disk"
  | Compiled -> "compiled"

let dir () =
  let d =
    Option.value (Sys.getenv_opt "BLOCKC_JIT_CACHE")
      ~default:(Filename.concat "_build" ".jitcache")
  in
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

let rec mkdirs p =
  if not (Sys.file_exists p) then begin
    let parent = Filename.dirname p in
    if parent <> p then mkdirs parent;
    try Sys.mkdir p 0o755 with Sys_error _ -> ()
  end

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* dlopen maps an object's segments without checking that the file is
   long enough, and touching a page past its end is a SIGBUS.  The
   linker writes the section header table last, so an ELF object cut
   short has lost it.  Other object formats are not checked. *)
let truncated_elf path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> true
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let h = Bytes.create 64 in
          Unix.read fd h 0 64 < 64
          || Bytes.sub_string h 0 6 = "\x7fELF\x02\x01"
             && Int64.to_int (Bytes.get_int64_le h 0x28)
                + (Bytes.get_uint16_le h 0x3a * Bytes.get_uint16_le h 0x3c)
                > (Unix.fstat fd).Unix.st_size)

let readdir d = try Sys.readdir d with Sys_error _ -> [||]
let remove p = try Sys.remove p with Sys_error _ -> ()

(* A build directory holds files only. *)
let remove_dir d =
  Array.iter (fun f -> remove (Filename.concat d f)) (readdir d);
  try Sys.rmdir d with Sys_error _ -> ()

(* ---- kinds and counters ------------------------------------------- *)

(* Counter slots, in [stats] order after [loaded]. *)
let s_memo = 0
let s_disk = 1
let s_build = 2
let s_corrupt = 3
let s_wait = 4
let counter_names =
  [| "memo_hits"; "disk_hits"; "builds"; "corrupt"; "dedup_waits" |]

type 'a kind = {
  name : string;
  prefix : string;
  ext : string;
  keep : string list;
  table : (string, 'a * string) Hashtbl.t; (* value, path it was loaded from *)
  in_flight : (string, unit) Hashtbl.t;
  counts : int array;
  metrics : Obs.Metrics.counter array;
}

type stats = {
  kind_name : string;
  loaded : int;
  memo_hits : int;
  disk_hits : int;
  builds : int;
  corrupt : int;
  dedup_waits : int;
}

(* One lock guards every kind's table, in-flight set and counters;
   builds and loads run outside it.  A caller whose key is in flight
   waits on [done_cond]. *)
let mu = Mutex.create ()
let done_cond = Condition.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let registry : (unit -> stats) list ref = ref []

(* Caller holds [mu]. *)
let bump k slot =
  k.counts.(slot) <- k.counts.(slot) + 1;
  Obs.Metrics.incr k.metrics.(slot)

let stats_unlocked k =
  let c = k.counts in
  {
    kind_name = k.name;
    loaded = Hashtbl.length k.table;
    memo_hits = c.(s_memo);
    disk_hits = c.(s_disk);
    builds = c.(s_build);
    corrupt = c.(s_corrupt);
    dedup_waits = c.(s_wait);
  }

let stats k = locked (fun () -> stats_unlocked k)
let all_stats () = locked (fun () -> List.rev_map (fun f -> f ()) !registry)

let kind ?(keep = []) name ~prefix ~ext =
  let k =
    {
      name;
      prefix;
      ext;
      keep;
      table = Hashtbl.create 16;
      in_flight = Hashtbl.create 4;
      counts = Array.make (Array.length counter_names) 0;
      metrics =
        Array.map
          (fun c ->
            Obs.Metrics.counter
              (Obs.Metrics.labelled ("artifact_cache." ^ c) [ ("kind", name) ]))
          counter_names;
    }
  in
  locked (fun () -> registry := (fun () -> stats_unlocked k) :: !registry);
  k

(* ---- the directory ------------------------------------------------ *)

type disk = { entries : int; bytes : int; oldest_age_s : float }

let evictions = Atomic.make 0
let disk_evictions () = Atomic.get evictions

let eviction_counter =
  Obs.Metrics.counter
    ~help:"Artifacts deleted from the on-disk cache by BLOCKC_JIT_DISK_CAP"
    "artifact_cache.disk_evictions"

(* A compiled artifact: an OCaml plugin or a C object. *)
let is_artifact n =
  String.starts_with ~prefix:"bk_" n
  && (Filename.check_suffix n ".cmxs" || Filename.check_suffix n ".so")

(* (name, size, mtime) of every artifact in the directory. *)
let artifacts d =
  Array.to_list (readdir d)
  |> List.filter_map (fun n ->
         if not (is_artifact n) then None
         else
           match Unix.stat (Filename.concat d n) with
           | st -> Some (n, st.Unix.st_size, st.Unix.st_mtime)
           | exception Unix.Unix_error _ -> None)

let disk_stats () =
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun acc (_, size, mtime) ->
      {
        entries = acc.entries + 1;
        bytes = acc.bytes + size;
        oldest_age_s = Float.max acc.oldest_age_s (now -. mtime);
      })
    { entries = 0; bytes = 0; oldest_age_s = 0.0 }
    (artifacts (dir ()))

(* Oldest first until the artifacts fit under the cap.  Best-effort:
   races with other processes' builds are ignored. *)
let prune ~keep () =
  match
    Option.bind (Sys.getenv_opt "BLOCKC_JIT_DISK_CAP") int_of_string_opt
  with
  | Some cap when cap >= 1 ->
      let d = dir () in
      let arts = artifacts d in
      let excess =
        ref (List.fold_left (fun acc (_, size, _) -> acc + size) 0 arts - cap)
      in
      let names = readdir d in
      List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) arts
      |> List.iter (fun (n, size, _) ->
             if !excess > 0 && not (List.mem n keep) then begin
               let stem = Filename.remove_extension n ^ "." in
               Array.iter
                 (fun f ->
                   if String.starts_with ~prefix:stem f then
                     remove (Filename.concat d f))
                 names;
               excess := !excess - size;
               Atomic.incr evictions;
               Obs.Metrics.incr eviction_counter
             end)
  | _ -> ()

(* ---- get ---------------------------------------------------------- *)

type 'a entry = {
  value : 'a;
  path : string;
  disposition : disposition;
  build_s : float;
}

let build_seq = Atomic.make 0

(* A build whose process was killed leaves its [.tmp-<pid>-<n>]
   directory behind.  One is abandoned when its pid is not ours and
   names no live process: [kill pid 0] fails with ESRCH (EPERM is a
   live process of another user).  Pids are only comparable within one
   pid namespace, which processes sharing a cache directory share. *)
let abandoned name =
  match String.split_on_char '-' name with
  | [ ".tmp"; pid; n ] -> (
      match (int_of_string_opt pid, int_of_string_opt n) with
      | Some pid, Some _ when pid > 0 && pid <> Unix.getpid () -> (
          match Unix.kill pid 0 with
          | () -> false
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
          | exception Unix.Unix_error _ -> false)
      | _ -> false)
  | _ -> false

(* Directories this process has swept, under [mu]. *)
let swept : (string, unit) Hashtbl.t = Hashtbl.create 1

let sweep_once d =
  let first =
    locked (fun () ->
        let first = not (Hashtbl.mem swept d) in
        Hashtbl.replace swept d ();
        first)
  in
  if first then
    Array.iter
      (fun n -> if abandoned n then remove_dir (Filename.concat d n))
      (readdir d)

(* Build into a private directory, then rename the side files and,
   last, the artifact into the cache. *)
let build_into k ~key ~path build =
  let d = Filename.dirname path in
  mkdirs d;
  sweep_once d;
  let tmp =
    Filename.concat d
      (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
         (Atomic.fetch_and_add build_seq 1))
  in
  Sys.mkdir tmp 0o700;
  locked (fun () -> bump k s_build);
  let stem = k.prefix ^ key in
  Fun.protect
    ~finally:(fun () -> remove_dir tmp)
    (fun () ->
      let t0 = Obs.now_ns () in
      match build tmp with
      | Error _ as e -> e
      | Ok () ->
          List.iter
            (fun ext ->
              let f = stem ^ ext in
              if Sys.file_exists (Filename.concat tmp f) then
                Sys.rename (Filename.concat tmp f) (Filename.concat d f))
            k.keep;
          Sys.rename (Filename.concat tmp (stem ^ k.ext)) path;
          prune ~keep:[ Filename.basename path ] ();
          Ok (float_of_int (Obs.now_ns () - t0) /. 1e9))

let fetch k ~key ~path ~build ~load =
  let load () =
    Obs.span ~cat:"cache" "cache.load"
      ~args:[ ("kind", Obs.Str k.name); ("path", Obs.Str path) ]
      (fun () -> try load path with e -> Error (Printexc.to_string e))
  in
  let fresh () =
    match build_into k ~key ~path build with
    | Error _ as e -> e
    | Ok build_s ->
        Result.map
          (fun value -> { value; path; disposition = Compiled; build_s })
          (load ())
  in
  if not (Sys.file_exists path) then fresh ()
  else
    match load () with
    | Ok value -> Ok { value; path; disposition = Disk; build_s = 0.0 }
    | Error m ->
        locked (fun () -> bump k s_corrupt);
        Obs.Recorder.note ~cat:"cache" "cache.corrupt"
          ~args:
            [
              ("kind", Obs.Str k.name);
              ("path", Obs.Str path);
              ("error", Obs.Str m);
            ];
        remove path;
        fresh ()

let get k ~key ~build ~load =
  let path = Filename.concat (dir ()) (k.prefix ^ key ^ k.ext) in
  let rec claim waited =
    match Hashtbl.find_opt k.table key with
    | Some hit ->
        bump k s_memo;
        Some hit
    | None when Hashtbl.mem k.in_flight key ->
        if not waited then bump k s_wait;
        Condition.wait done_cond mu;
        claim true
    | None ->
        Hashtbl.replace k.in_flight key ();
        None
  in
  match locked (fun () -> claim false) with
  | Some (value, path) -> Ok { value; path; disposition = Memo; build_s = 0.0 }
  | None ->
      (* Whatever happens, the key leaves [in_flight]: a build that
         raised would otherwise leave its waiters blocked forever. *)
      let r =
        try fetch k ~key ~path ~build ~load
        with e -> Error (Printexc.to_string e)
      in
      locked (fun () ->
          (match r with
          | Ok e ->
              Hashtbl.replace k.table key (e.value, e.path);
              if e.disposition = Disk then bump k s_disk
          | Error _ -> ());
          Hashtbl.remove k.in_flight key;
          Condition.broadcast done_cond);
      r
