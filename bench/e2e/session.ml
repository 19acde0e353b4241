(* What every run shares: the daemon's command line and environment,
   request lines, and the set-up a daemon gets before it is timed. *)

module J = Json_min

let daemon_flags = [ "serve"; "--workers"; "2" ]
let domains = 2

type ctx = {
  blockc : string;
  work : string;  (** per-run scratch: caches, TMPDIR, daemon stderr *)
  refs : (string * string * (string * int) list, string) Hashtbl.t;
  data_seed : int;
  tally : Client.tally;
  mutable next_id : int;
  mutable next_dir : int;
}

let fresh_dir ctx label =
  ctx.next_dir <- ctx.next_dir + 1;
  let d = Filename.concat ctx.work (Printf.sprintf "%s-%03d" label ctx.next_dir) in
  Fs.mkdirs d;
  d

(* The caller's environment minus anything that would reconfigure
   blockc (a BLOCKC_PROFILE_HZ sampler, a memo cap, a trace sink), plus
   the benchmark's settings.  TMPDIR keeps ocamlopt's and cc's
   temporaries inside the checkout. *)
let child_env ~work ~cache =
  let ours = [ "BLOCKC_"; "BLOCKABILITY_"; "TMPDIR=" ] in
  let inherited =
    List.filter
      (fun v -> not (List.exists (fun p -> String.starts_with ~prefix:p v) ours))
      (Array.to_list (Unix.environment ()))
  in
  let tmp = Filename.concat work "tmp" in
  Fs.mkdirs tmp;
  Array.of_list
    (Printf.sprintf "BLOCKABILITY_DOMAINS=%d" domains
    :: ("BLOCKC_JIT_CACHE=" ^ cache) :: ("TMPDIR=" ^ tmp) :: inherited)

let spawn ctx ~cache =
  Client.spawn
    ~argv:(Array.of_list (ctx.blockc :: daemon_flags))
    ~env:(child_env ~work:ctx.work ~cache)
    ~stderr_path:(Filename.concat (fresh_dir ctx "daemon") "stderr")

(* ---- request lines ------------------------------------------------ *)

let num n = J.Number (float_of_int n)
let bindings_json bs = J.Object (List.map (fun (k, v) -> (k, num v)) bs)

let line ~id fields = J.to_string (J.Object (("id", num id) :: fields))

let compile_line ~id (kernel, variant, backend) =
  line ~id
    [
      ("op", J.String "compile");
      ("kernel", J.String kernel);
      ("variant", J.String variant);
      ("backend", J.String backend);
    ]

let request_line ~id ~data_seed (r : Workload.req) =
  line ~id
    ([
       ("op", J.String (if r.batch then "batch" else "execute"));
       ("kernel", J.String r.kernel);
       ("variant", J.String r.variant);
       ("backend", J.String r.backend);
     ]
    @ (if r.batch then [ ("bindings_list", J.Array (List.map bindings_json r.items)) ]
       else [ ("bindings", bindings_json (List.hd r.items)) ])
    @ [ ("seed", num data_seed) ])

let next_id ctx =
  ctx.next_id <- ctx.next_id + 1;
  ctx.next_id

let expected ctx (r : Workload.req) =
  Client.Digests
    (List.map (fun b -> Hashtbl.find ctx.refs (r.kernel, r.variant, b)) r.items)

(* ---- daemon sessions ---------------------------------------------- *)

(* Spawn a daemon and compile [mix] on it.  Returns the daemon and the
   set-up time: from spawn until the ping and every compile have been
   answered. *)
let start ctx ~cache ~mix =
  let t0 = Client.now_ns () in
  let d = spawn ctx ~cache in
  let untimed l = ignore (Client.call ctx.tally ~timed:false d l Client.Compiled) in
  untimed (line ~id:(next_id ctx) [ ("op", J.String "ping") ]);
  List.iter (fun m -> untimed (compile_line ~id:(next_id ctx) m)) mix;
  (d, Client.now_ns () - t0)

let send ?(timed = true) ctx d r =
  Client.call ctx.tally ~timed d
    (request_line ~id:(next_id ctx) ~data_seed:ctx.data_seed r)
    (expected ctx r)

(* A cache filled by one untimed round of [reqs] on its own daemon:
   what a restart reads. *)
let filled_cache ctx reqs =
  let cache = fresh_dir ctx "cache" in
  let d, _ = start ctx ~cache ~mix:[] in
  List.iter (fun r -> ignore (send ~timed:false ctx d r)) reqs;
  Client.shutdown d;
  cache

(* A throwaway session before anything is timed, so that ocamlopt, cc
   and the daemon binary are already in the OS file cache. *)
let warm_toolchains ctx =
  let d, _ =
    start ctx ~cache:(fresh_dir ctx "warm")
      ~mix:[ ("matmul", "point", "ocaml"); ("matmul", "point", "c") ]
  in
  Client.shutdown d
