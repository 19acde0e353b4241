(* NDJSON compile/execute server on its request lanes: see serve.mli. *)

module J = Json_min

(* Json_min escapes string contents on output, so raw messages (with
   quotes, newlines, compiler stderr) can be wrapped directly. *)
let wrap ?id ok fields =
  let fields = ("ok", J.Bool ok) :: fields in
  J.Object (match id with None -> fields | Some id -> ("id", id) :: fields)

let errorf ?id fmt =
  Printf.ksprintf (fun m -> wrap ?id false [ ("error", J.String m) ]) fmt

(* ---- request telemetry ------------------------------------------- *)

(* Per-request stage attribution, filled in by the handlers as the
   request flows through compile and execute; mutated only by the
   request's own lane (batch fan-out measures the whole parallel
   region, not per-item, precisely to keep this single-writer).  The
   GC fields are [Gc.counters]/[Gc.quick_stat] deltas captured around the whole op
   dispatch on the worker lane. *)
type timing = {
  mutable t_compile_ns : int;
  mutable t_exec_ns : int;
  mutable t_minor_gcs : int;
  mutable t_major_gcs : int;
  mutable t_promoted_words : int;
  mutable t_allocated_words : int;
}

let new_timing () =
  {
    t_compile_ns = 0;
    t_exec_ns = 0;
    t_minor_gcs = 0;
    t_major_gcs = 0;
    t_promoted_words = 0;
    t_allocated_words = 0;
  }

(* One GC observation point.  Word counts come from [Gc.counters] (the
   only variant that is exact in native code — [quick_stat]'s word
   fields are refreshed only at minor collections, so a request that
   triggers no collection would read an allocation delta of zero);
   collection counts come from [quick_stat]. *)
type gc_probe = {
  p_minor_gcs : int;
  p_major_gcs : int;
  p_minor_w : float;
  p_promoted_w : float;
  p_major_w : float;
}

let gc_probe () =
  let g = Gc.quick_stat () in
  let minor_w, promoted_w, major_w = Gc.counters () in
  {
    p_minor_gcs = g.Gc.minor_collections;
    p_major_gcs = g.Gc.major_collections;
    p_minor_w = minor_w;
    p_promoted_w = promoted_w;
    p_major_w = major_w;
  }

(* Allocation since process start, in words: everything allocated lands
   in the minor heap or directly in the major heap, and promotion would
   otherwise be double-counted. *)
let allocated_words p = p.p_minor_w +. p.p_major_w -. p.p_promoted_w

let record_gc_delta tm p0 p1 =
  tm.t_minor_gcs <- p1.p_minor_gcs - p0.p_minor_gcs;
  tm.t_major_gcs <- p1.p_major_gcs - p0.p_major_gcs;
  tm.t_promoted_words <- int_of_float (p1.p_promoted_w -. p0.p_promoted_w);
  tm.t_allocated_words <-
    int_of_float (allocated_words p1 -. allocated_words p0)

let ok_of resp = Option.value (J.bool_field "ok" resp) ~default:true

(* Labelled error accounting: [serve.errors] total plus one
   [serve.errors{class=...}] counter per failure class ("parse",
   "missing_op", "unknown_op", "request", "internal"). *)
let count_error cls =
  Obs.Metrics.incr (Obs.Metrics.counter "serve.errors");
  Obs.Metrics.incr
    (Obs.Metrics.counter (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))

(* Request latency (queue wait + handling) in the overall and per-op
   log-linear histograms; the metrics op renders their p50/p90/p99. *)
let observe_request ~op ~ns =
  Obs.Metrics.incr
    (Obs.Metrics.counter ~help:"Requests handled (any op, any outcome)"
       "serve.requests");
  Obs.Metrics.observe
    (Obs.Metrics.histogram
       ~help:"Request latency: queue wait plus handling, nanoseconds"
       "serve.request.ns")
    ns;
  Obs.Metrics.observe
    (Obs.Metrics.histogram (Obs.Metrics.labelled "serve.request.ns" [ ("op", op) ]))
    ns

(* Per-request GC cost distributions, fed from the [timing] deltas.
   Registered eagerly at module init: a [lazy] here would be forced
   concurrently from worker domains, and [Lazy.force] is not
   domain-safe (a racing force raises [CamlinternalLazy.Undefined]). *)
let gc_minor_hist =
  Obs.Metrics.histogram ~help:"Minor collections triggered per request"
    "serve.gc.minor_gcs"

let gc_major_hist =
  Obs.Metrics.histogram ~help:"Major collections triggered per request"
    "serve.gc.major_gcs"

let gc_promoted_hist =
  Obs.Metrics.histogram ~help:"Words promoted to the major heap per request"
    "serve.gc.promoted_words"

let gc_alloc_hist =
  Obs.Metrics.histogram ~help:"Words allocated per request"
    "serve.gc.allocated_words"

let observe_gc tm =
  Obs.Metrics.observe gc_minor_hist tm.t_minor_gcs;
  Obs.Metrics.observe gc_major_hist tm.t_major_gcs;
  Obs.Metrics.observe gc_promoted_hist tm.t_promoted_words;
  Obs.Metrics.observe gc_alloc_hist tm.t_allocated_words

(* Structured slow/alloc-heavy request log: requests breaching either
   threshold land in the flight recorder (and a counter), so a [dump]
   after a latency incident names the offending ops without tracing. *)
let slow_request_ns =
  Option.bind (Sys.getenv_opt "BLOCKC_SLOW_REQUEST_NS") int_of_string_opt

let alloc_heavy_words =
  Option.bind (Sys.getenv_opt "BLOCKC_ALLOC_HEAVY_WORDS") int_of_string_opt

let note_heavy ~op ~total_ns tm =
  let breach lim v = match lim with Some t -> t >= 0 && v >= t | None -> false in
  let slow = breach slow_request_ns total_ns in
  let heavy = breach alloc_heavy_words tm.t_allocated_words in
  if slow || heavy then begin
    Obs.Metrics.incr
      (Obs.Metrics.counter
         ~help:"Requests breaching BLOCKC_SLOW_REQUEST_NS or \
                BLOCKC_ALLOC_HEAVY_WORDS"
         "serve.slow_requests");
    Obs.Recorder.note ~cat:"serve" "serve.slow_request"
      ~args:
        [
          ("op", Obs.Str op);
          ("ns", Obs.Int total_ns);
          ("allocated_words", Obs.Int tm.t_allocated_words);
          ("minor_gcs", Obs.Int tm.t_minor_gcs);
          ("major_gcs", Obs.Int tm.t_major_gcs);
          ("slow", Obs.Bool slow);
          ("alloc_heavy", Obs.Bool heavy);
        ]
  end

let with_telemetry ~trace_hex ~queue_ns ~tm ~total_ns resp =
  match resp with
  | J.Object kvs ->
      J.Object
        (kvs
        @ [
            ("trace_id", J.String trace_hex);
            ( "server",
              (* GC fields stay flat inside this object (no nesting):
                 clients strip or match the whole block with {[^}]*}. *)
              J.Object
                [
                  ("queue_ns", J.int queue_ns);
                  ("compile_ns", J.int tm.t_compile_ns);
                  ("exec_ns", J.int tm.t_exec_ns);
                  ("total_ns", J.int total_ns);
                  ("minor_gcs", J.int tm.t_minor_gcs);
                  ("major_gcs", J.int tm.t_major_gcs);
                  ("promoted_words", J.int tm.t_promoted_words);
                  ("allocated_words", J.int tm.t_allocated_words);
                ] );
          ])
  | other -> other

(* ---- request decoding ------------------------------------------- *)

let request_id req = J.field "id" req

let bindings_of_json j =
  match j with
  | J.Object kvs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (k, v) :: rest -> (
            match J.as_int v with
            | Some n -> go ((k, n) :: acc) rest
            | None -> Error ("binding " ^ k ^ " is not an integer"))
      in
      go [] kvs
  | _ -> Error "bindings must be an object of integers"

let bindings_field req =
  match J.field "bindings" req with
  | None -> Ok []
  | Some j -> bindings_of_json j

let seed_field req = Option.value (J.int_field "seed" req) ~default:42

(* ---- kernel / variant plumbing ---------------------------------- *)

let kernel_of req =
  match J.string_field "kernel" req with
  | None -> Error "missing \"kernel\""
  | Some name -> (
      match Blockability.find name with
      | Some e -> Ok e
      | None ->
          Error
            ("unknown kernel \"" ^ name ^ "\" (known: "
            ^ String.concat ", " (Blockability.names ())
            ^ ")"))

let variant_of req =
  match Option.value (J.string_field "variant" req) ~default:"point" with
  | "point" -> Ok Blockability.Point
  | "transformed" -> Ok Blockability.Transformed
  | v -> Error ("unknown variant \"" ^ v ^ "\" (point | transformed)")

(* Requests select a code generator with a ["backend"] field (default
   "ocaml"); both backends memoize compiles per blueprint key, so the
   field only costs a compile the first time a (kernel, variant,
   backend) triple is seen. *)
let backend_of req =
  let tag = Option.value (J.string_field "backend" req) ~default:"ocaml" in
  match Backend.of_tag tag with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown backend \"%s\" (%s)" tag
           (String.concat " | " Backend.names))

let compile_variant ~tm ~backend entry variant =
  let t0 = Obs.now_ns () in
  Fun.protect ~finally:(fun () ->
      tm.t_compile_ns <- tm.t_compile_ns + (Obs.now_ns () - t0))
  @@ fun () -> Blockability.compile ~backend entry variant

(* The bitwise-comparison handle: an MD5 of the kernel's traced REAL
   arrays after the run.  Two runs agree on this digest iff they agree
   bitwise on every result array.  Its definition is the MD5 of
   [Marshal.to_string [(name, array); ...] []], which clients compute;
   [Marshal_digest] streams those bytes without building the string. *)
let digest_env entry env =
  let arrays =
    List.map
      (fun a -> (a, Env.farray_data env a))
      entry.Blockability.kernel.Kernel_def.traced
  in
  Digest.to_hex (Marshal_digest.float_arrays arrays)

(* A set-up failure ([Blockability.env]'s [Error]) is the request's
   fault. *)
let run_one ?tm (c : Blockability.compiled) ~bindings ~seed =
  match Blockability.env c.c_entry c.c_variant ~bindings ~seed with
  | Error m -> Error m
  | Ok env -> (
      let t0 = Obs.now_ns () in
      let r = c.c_cm.Backend.bk_run env in
      let dt = Obs.now_ns () - t0 in
      (match tm with
      | Some tm -> tm.t_exec_ns <- tm.t_exec_ns + dt
      | None -> ());
      match r with
      | Error m -> Error m
      | Ok () -> Ok (digest_env c.c_entry env, dt))

(* ---- per-op handlers -------------------------------------------- *)

let handle_kernels ?id () =
  let one (e : Blockability.entry) =
    J.Object
      [
        ("name", J.String e.Blockability.name);
        ("paper_ref", J.String e.Blockability.paper_ref);
        ( "params",
          J.Array
            (List.map
               (fun p -> J.String p)
               e.Blockability.kernel.Kernel_def.params) );
        ("default_bindings", J.int_object e.Blockability.default_bindings);
        ("blockable", J.Bool e.Blockability.blockable);
      ]
  in
  wrap ?id true
    [ ("kernels", J.Array (List.map one Blockability.entries)) ]

let handle_derive ?id req =
  match kernel_of req with
  | Error m -> errorf ?id "%s" m
  | Ok entry -> (
      let name = entry.Blockability.name in
      match Blockability.derive entry with
      | Error reason ->
          (* The paper's negative results: rejection is the correct
             outcome for a non-blockable kernel, not a server error. *)
          wrap ?id true
            [
              ("kernel", J.String name);
              ("blockable", J.Bool false);
              ("reason", J.String reason);
            ]
      | Ok { Blocker.result; steps } ->
          let step (s : Blocker.trace_step) =
            J.Object
              [
                ("name", J.String s.Blocker.name);
                ("detail", J.String s.Blocker.detail);
              ]
          in
          wrap ?id true
            [
              ("kernel", J.String name);
              ("blockable", J.Bool true);
              ("steps", J.Array (List.map step steps));
              ("result", J.String (Stmt.block_to_string [ result ]));
            ])

let handle_compile ~tm ?id req =
  match (kernel_of req, variant_of req, backend_of req) with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> errorf ?id "%s" m
  | Ok entry, Ok variant, Ok backend -> (
      match compile_variant ~tm ~backend entry variant with
      | Error m -> errorf ?id "%s" m
      | Ok c -> wrap ?id true (Blockability.compiled_fields c))

let handle_execute ~tm ?id req =
  match
    (kernel_of req, variant_of req, bindings_field req, backend_of req)
  with
  | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _ | _, _, _, Error m
    ->
      errorf ?id "%s" m
  | Ok entry, Ok variant, Ok bindings, Ok backend -> (
      match compile_variant ~tm ~backend entry variant with
      | Error m -> errorf ?id "%s" m
      | Ok c -> (
          match run_one ~tm c ~bindings ~seed:(seed_field req) with
          | Error m -> errorf ?id "%s" m
          | Ok (digest, run_ns) ->
              wrap ?id true
                ([
                   ("kernel", J.String entry.Blockability.name);
                   ( "variant",
                     J.String (Blockability.variant_name variant) );
                   ("backend", J.String c.c_cm.Backend.bk_tag);
                   ("digest", J.String digest);
                   ("run_s", J.Number (float_of_int run_ns /. 1e9));
                 ]
                @ Blockability.disposition_fields c)))

let batch_items entry req =
  match (J.field "bindings_list" req, J.field "sizes" req) with
  | Some (J.Array items), None ->
      let rec go acc i = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
            match bindings_of_json j with
            | Ok bs -> go (bs :: acc) (i + 1) rest
            | Error m -> Error (Printf.sprintf "item %d: %s" i m))
      in
      go [] 0 items
  | None, Some (J.Array sizes) ->
      (* Shorthand: bind every kernel parameter to the one integer. *)
      let params = entry.Blockability.kernel.Kernel_def.params in
      let rec go acc i = function
        | [] -> Ok (List.rev acc)
        | j :: rest -> (
            match J.as_int j with
            | Some n -> go (List.map (fun p -> (p, n)) params :: acc) (i + 1) rest
            | None -> Error (Printf.sprintf "size %d is not an integer" i))
      in
      go [] 0 sizes
  | _ ->
      Error
        "batch needs \"bindings_list\" (array of binding objects) or \
         \"sizes\" (array of integers)"

let batch_size_metric = Obs.Metrics.histogram "serve.batch_size"

let handle_batch ~exec_pool ~tm ?id req =
  match (kernel_of req, variant_of req, backend_of req) with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> errorf ?id "%s" m
  | Ok entry, Ok variant, Ok backend -> (
      match batch_items entry req with
      | Error m -> errorf ?id "%s" m
      | Ok [] -> errorf ?id "empty batch"
      | Ok items -> (
          match compile_variant ~tm ~backend entry variant with
          | Error m -> errorf ?id "%s" m
          | Ok c ->
              let seed = seed_field req in
              let items = Array.of_list items in
              let n = Array.length items in
              Obs.Metrics.observe batch_size_metric n;
              let results = Array.make n (Error "not run") in
              let t0 = Obs.now_ns () in
              Obs.span ~cat:"serve" "serve.batch"
                ~args:
                  [
                    ("kernel", Obs.Str entry.Blockability.name);
                    ("n", Obs.Int n);
                  ]
                (fun () ->
                  (* Item costs grow as n^3, so equal halves would leave
                     one lane waiting on the other: lanes claim shrinking
                     chunks, down to single items.  In the daemon
                     [exec_pool] is the request lanes' own pool, and the
                     lanes parked waiting for a line join this region. *)
                  Parallel.for_ ~pool:exec_pool
                    ~chunking:(Parallel.Guided { min_chunk = 1 })
                    ~lo:0 ~hi:(n - 1)
                    (fun clo chi ->
                      for i = clo to chi do
                        (* Per-item timing + GC delta, measured on the
                           executing lane (quick_stat counters are
                           domain-local; slot i has a single writer). *)
                        results.(i) <-
                          (try
                             let g0 = gc_probe () in
                             match run_one c ~bindings:items.(i) ~seed with
                             | Error _ as e -> e
                             | Ok (digest, dt) ->
                                 let g1 = gc_probe () in
                                 let itm = new_timing () in
                                 record_gc_delta itm g0 g1;
                                 Ok (digest, dt, itm)
                           with e -> Error (Printexc.to_string e))
                      done));
              let run_ns = Obs.now_ns () - t0 in
              (* whole-fan-out wall time: per-item adds would race *)
              tm.t_exec_ns <- tm.t_exec_ns + run_ns;
              let bad = ref None in
              Array.iteri
                (fun i r ->
                  match (r, !bad) with
                  | Error m, None ->
                      bad := Some (Printf.sprintf "item %d: %s" i m)
                  | _ -> ())
                results;
              (match !bad with
              | Some m -> errorf ?id "%s" m
              | None ->
                  let oks =
                    Array.to_list results |> List.map Result.get_ok
                  in
                  let digests = List.map (fun (d, _, _) -> J.String d) oks in
                  let item_json (digest, dt, itm) =
                    J.Object
                      [
                        ("digest", J.String digest);
                        ("ns", J.int dt);
                        ("minor_gcs", J.int itm.t_minor_gcs);
                        ("major_gcs", J.int itm.t_major_gcs);
                        ("promoted_words", J.int itm.t_promoted_words);
                        ("allocated_words", J.int itm.t_allocated_words);
                      ]
                  in
                  wrap ?id true
                    ([
                       ("kernel", J.String entry.Blockability.name);
                       ( "variant",
                     J.String (Blockability.variant_name variant) );
                       ("backend", J.String c.c_cm.Backend.bk_tag);
                       ("n", J.int n);
                     ]
                    @ Blockability.disposition_fields c
                    @ [
                        ("digests", J.Array digests);
                        ("items", J.Array (List.map item_json oks));
                        ("run_s", J.Number (float_of_int run_ns /. 1e9));
                      ]))))

let handle_simulate ?id req =
  match (kernel_of req, bindings_field req) with
  | Error m, _ | _, Error m -> errorf ?id "%s" m
  | Ok entry, Ok bindings -> (
      let bindings =
        if bindings = [] then entry.Blockability.default_bindings
        else bindings
      in
      match
        Blockability.simulate ~bindings ~seed:(seed_field req)
          ~machine:Arch.rs6000_540 entry
      with
      | Error m -> errorf ?id "%s" m
      | Ok s ->
          wrap ?id true
            [
              ("kernel", J.String entry.Blockability.name);
              ( "point_misses",
                J.int s.Blockability.point_stats.Cache.misses );
              ( "transformed_misses",
                J.int s.Blockability.transformed_stats.Cache.misses );
              ("point_cycles", J.int s.Blockability.point_cycles);
              ( "transformed_cycles",
                J.int s.Blockability.transformed_cycles );
            ])

let handle_status ?id () =
  let module A = Artifact_cache in
  let d = A.disk_stats () in
  let kinds = A.all_stats () in
  let kind (s : A.stats) =
    ( s.A.kind_name,
      J.Object
        [
          ("loaded", J.int s.A.loaded);
          ("memo_hits", J.int s.A.memo_hits);
          ("disk_hits", J.int s.A.disk_hits);
          ("builds", J.int s.A.builds);
          ("corrupt", J.int s.A.corrupt);
          ("dedup_waits", J.int s.A.dedup_waits);
        ] )
  in
  wrap ?id true
    [
      ("cache", J.Object (List.map kind kinds));
      ("cache_dir", J.String (A.dir ()));
      ("disk_entries", J.int d.A.entries);
      ("disk_bytes", J.int d.A.bytes);
      ("disk_oldest_age_s", J.Number d.A.oldest_age_s);
      ("disk_evictions", J.int (A.disk_evictions ()));
      ("cc_available", J.Bool (Result.is_ok (Cc.available ())));
      ("sampler_running", J.Bool (Obs.Sampler.running ()));
      ("sampler_hz", J.Number (Obs.Sampler.hz ()));
      ("sampler_samples", J.int (Obs.Sampler.samples ()));
    ]

(* The flame op: first call (or a ["hz"] field) starts the sampler if
   it is not already running — profiling on demand, no restart — and
   every call returns the folded-stack accumulation so far.  A
   ["reset":true] drops the accumulation after rendering, giving
   interval profiles. *)
let handle_flame ?id req =
  let hz =
    match J.number_field "hz" req with Some f when f > 0. -> Some f | _ -> None
  in
  Obs.Sampler.ensure ?hz ();
  let resp =
    wrap ?id true
      [
        ("hz", J.Number (Obs.Sampler.hz ()));
        ("samples", J.int (Obs.Sampler.samples ()));
        ("folded", J.String (Obs.Sampler.folded_text ()));
      ]
  in
  if J.bool_field "reset" req = Some true then Obs.Sampler.reset ();
  resp

let handle_metrics ?id () =
  wrap ?id true
    [
      ("metrics", J.String (Obs.Metrics.prometheus ()));
      ("metrics_enabled", J.Bool (Obs.Metrics.enabled ()));
    ]

let handle_dump ?id () =
  let events = Obs.Recorder.recent () in
  wrap ?id true
    [
      ("capacity", J.int (Obs.Recorder.capacity ()));
      ("n", J.int (List.length events));
      ("events", J.Array (List.map Obs.json_of_event events));
    ]

(* ---- dispatch ---------------------------------------------------- *)

let handle_request ?(queue_ns = 0) ~exec_pool req =
  let id = request_id req in
  (* Every request runs under a trace context: the fresh root the lane
     installed when it took the line, or a fresh root when the handler
     is driven directly. *)
  let ctx =
    match Obs.Ctx.current () with
    | Some _ as c -> c
    | None -> Some (Obs.Ctx.fresh ())
  in
  Obs.Ctx.with_ctx ctx @@ fun () ->
  let trace_hex =
    match ctx with Some c -> Obs.Ctx.id_hex c.Obs.Ctx.trace_id | None -> ""
  in
  let tm = new_timing () in
  let t0 = Obs.now_ns () in
  let g0 = gc_probe () in
  let op_name, (resp, stop), bad_op =
    match J.string_field "op" req with
    | None -> ("(none)", (errorf ?id "missing \"op\"", false), Some "missing_op")
    | Some op ->
        let result =
          Obs.span ~cat:"serve" "serve.request"
            ~args:[ ("op", Obs.Str op) ]
            (fun () ->
              match op with
              | "ping" -> ((wrap ?id true [ ("pong", J.Bool true) ], false), None)
              | "shutdown" ->
                  ((wrap ?id true [ ("stopping", J.Bool true) ], true), None)
              | "kernels" -> ((handle_kernels ?id (), false), None)
              | "status" -> ((handle_status ?id (), false), None)
              | "metrics" -> ((handle_metrics ?id (), false), None)
              | "flame" -> ((handle_flame ?id req, false), None)
              | "dump" -> ((handle_dump ?id (), false), None)
              | "derive" -> ((handle_derive ?id req, false), None)
              | "compile" -> ((handle_compile ~tm ?id req, false), None)
              | "execute" -> ((handle_execute ~tm ?id req, false), None)
              | "batch" -> ((handle_batch ~exec_pool ~tm ?id req, false), None)
              | "simulate" -> ((handle_simulate ?id req, false), None)
              | op -> ((errorf ?id "unknown op \"%s\"" op, false), Some "unknown_op"))
        in
        let (resp, stop), cls = result in
        (op, (resp, stop), cls)
  in
  record_gc_delta tm g0 (gc_probe ());
  let total_ns = queue_ns + (Obs.now_ns () - t0) in
  let ok = ok_of resp in
  observe_request ~op:op_name ~ns:total_ns;
  observe_gc tm;
  note_heavy ~op:op_name ~total_ns tm;
  if not ok then
    count_error (Option.value bad_op ~default:"request");
  Obs.Recorder.note ~cat:"serve" "serve.request"
    ~args:
      (("op", Obs.Str op_name) :: ("ok", Obs.Bool ok)
       :: ("ns", Obs.Int total_ns)
       ::
       (match J.string_field "error" resp with
       | Some m when not ok -> [ ("error", Obs.Str m) ]
       | _ -> []));
  (with_telemetry ~trace_hex ~queue_ns ~tm ~total_ns resp, stop)

let handle_line ?queue_ns ~exec_pool line =
  match J.parse line with
  | Error e ->
      count_error "parse";
      Obs.Recorder.note ~cat:"serve" "serve.parse_error"
        ~args:[ ("error", Obs.Str e) ];
      (J.to_string (errorf "parse error: %s" e), false)
  | Ok req -> (
      match handle_request ?queue_ns ~exec_pool req with
      | resp, stop -> (J.to_string resp, stop)
      | exception e ->
          let msg = Printexc.to_string e in
          count_error "internal";
          Obs.Recorder.note ~cat:"serve" "serve.internal_error"
            ~args:[ ("error", Obs.Str msg) ];
          (* a handler blew up: flush the flight recorder for post-hoc
             context (the dump op only helps when the client asks) *)
          prerr_string (Obs.Recorder.dump ());
          Stdlib.flush stderr;
          ( J.to_string (errorf ?id:(request_id req) "internal error: %s" msg),
            false ))

(* ---- server loops ------------------------------------------------ *)

let is_shutdown line =
  match J.parse line with
  | Ok req -> J.string_field "op" req = Some "shutdown"
  | Error _ -> false

(* Lines read but not yet taken by a lane, stamped with their read
   time.  The reader thread pushes and closes; lanes take through
   [Pool.await].  The lanes' pool guards it: [take] polls under the
   pool's lock, and every change goes through [Pool.wake]. *)
type inbox = {
  lines : (int * string) Queue.t;
  mutable closed : bool; (* no line will be pushed any more *)
  mutable handling : int; (* lines taken and not yet answered *)
}

let depth_gauge =
  Obs.Metrics.gauge
    ~help:"Items currently enqueued (set on every push and take)"
    "serve.depth"

let queue_wait_timer =
  Obs.Metrics.timer ~help:"Time items spent queued before a consumer took them"
    "serve.queue_wait"

(* [Some (Some line)]: a line to handle; [Some None]: input is over and
   every line is answered; [None]: nothing yet.  A lane without a line
   stays parked until the last request is answered, so it can still
   join that request's batch. *)
let take inbox () =
  match Queue.take_opt inbox.lines with
  | Some l ->
      inbox.handling <- inbox.handling + 1;
      Obs.Metrics.set_gauge depth_gauge (Queue.length inbox.lines);
      Some (Some l)
  | None -> if inbox.closed && inbox.handling = 0 then Some None else None

(* The reader: a systhread on the calling (lane 0) domain, so it adds no
   domain to the stop-the-world set.  [input_line] releases the domain
   lock while it blocks; a line that arrives while lane 0 runs OCaml
   code waits for lane 0 to yield (at most one tick).  It stops at EOF
   or after a shutdown line, leaving the rest of the input unread. *)
let read_lines lanes inbox ic =
  let close () = Pool.wake lanes (fun () -> inbox.closed <- true; true) in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> close ()
    | line ->
        let line = String.trim line in
        if line = "" then loop ()
        else begin
          Pool.wake lanes (fun () ->
              Queue.push (Obs.now_ns (), line) inbox.lines;
              Obs.Metrics.set_gauge depth_gauge (Queue.length inbox.lines);
              true);
          if is_shutdown line then close () else loop ()
        end
  in
  loop ()

let run_channel lanes ic oc =
  let inbox = { lines = Queue.create (); closed = false; handling = 0 } in
  let out_mu = Mutex.create () in
  let stopping = Atomic.make false in
  let respond s =
    Mutex.lock out_mu;
    output_string oc s;
    output_char oc '\n';
    flush oc;
    Mutex.unlock out_mu
  in
  let reader = Thread.create (read_lines lanes inbox) ic in
  (* Lane utilization: each lane accumulates its request-handling wall
     time into a cumulative per-lane gauge, so a scraper can diff
     successive values against wall clock.  Lane ids come from a
     dispenser — Pool lanes have no public index. *)
  let lane_ids = Atomic.make 0 in
  Pool.run lanes (fun () ->
      let lane = Atomic.fetch_and_add lane_ids 1 in
      let busy_gauge =
        Obs.Metrics.gauge
          ~help:"Cumulative busy nanoseconds of one serve request lane"
          (Obs.Metrics.labelled "serve.lane_busy_ns"
             [ ("lane", string_of_int lane) ])
      in
      let rec loop () =
        match Pool.await lanes (take inbox) with
        | None -> ()
        | Some (read_ns, line) ->
            (* the last answer releases the parked lanes, even if
               writing it failed *)
            Fun.protect
              ~finally:(fun () ->
                Pool.wake lanes (fun () ->
                    inbox.handling <- inbox.handling - 1;
                    inbox.closed && inbox.handling = 0))
              (fun () ->
                let t0 = Obs.now_ns () in
                let queue_ns = max 0 (t0 - read_ns) in
                Obs.Metrics.record_ns queue_wait_timer queue_ns;
                let resp, stop =
                  Obs.Ctx.with_ctx
                    (Some (Obs.Ctx.fresh ()))
                    (fun () -> handle_line ~queue_ns ~exec_pool:lanes line)
                in
                Obs.Metrics.set_gauge busy_gauge
                  (Obs.Metrics.gauge_value busy_gauge + (Obs.now_ns () - t0));
                if stop then Atomic.set stopping true;
                respond resp);
            loop ()
      in
      loop ());
  Thread.join reader;
  Atomic.get stopping

(* The daemon always serves with metrics on (the metrics op is useless
   otherwise) and keeps at least the flight recorder listening: when no
   sink was installed by --trace / BLOCKABILITY_TRACE, spans are
   mirrored into the bounded ring — "recorder only" mode — so a dump
   after a failure has context without full-tracing cost. *)
let enable_telemetry () =
  Obs.Metrics.set_enabled true;
  if not (Obs.enabled ()) then Obs.set_sink (Obs.Recorder.sink ());
  (* Continuous profiling opt-in: BLOCKC_PROFILE_HZ starts the span-
     stack sampler at daemon startup (the flame op can also start it
     on demand later). *)
  Obs.Sampler.init_from_env ()

let run_stdio ?(workers = 2) () =
  enable_telemetry ();
  let lanes = Pool.create ~name:"serve" ~domains:workers () in
  let (_ : bool) = run_channel lanes stdin stdout in
  Pool.shutdown lanes

(* A leftover socket file from a crashed daemon would make every
   restart fail with EADDRINUSE, but blindly unlinking would silently
   hijack the path from a daemon that is still alive.  Distinguish the
   two with a connect probe: a live daemon accepts (refuse to start); a
   stale file refuses the connection (unlink and proceed). *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) ->
              false)
    in
    if live then
      failwith
        (Printf.sprintf "socket %s is in use by a running daemon" path);
    try Sys.remove path with Sys_error _ -> ()
  end

let run_socket ?(workers = 2) path =
  enable_telemetry ();
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let lanes = Pool.create ~name:"serve" ~domains:workers () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      Pool.shutdown lanes)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let stopped = run_channel lanes ic oc in
        (try close_out oc with Sys_error _ -> ());
        if not stopped then accept_loop ()
      in
      accept_loop ())
