(* The serve daemon's request handlers, driven directly (no process,
   no socket): protocol shape, error paths, and batched-vs-sequential
   bitwise agreement.  The cram test serve_cli.t covers the stdio
   loop end to end. *)

open Helpers

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let pool = lazy (Pool.create ~domains:1 ())

let request line = fst (Serve.handle_line ~exec_pool:(Lazy.force pool) line)

let parsed line =
  ok_or_fail "response parses" (Json_min.parse (request line))

let str name j =
  match Json_min.string_field name j with
  | Some s -> s
  | None -> Alcotest.failf "response field %s is not a string" name

let bool_field name j =
  match Json_min.bool_field name j with
  | Some b -> b
  | None -> Alcotest.failf "response field %s is not a bool" name

let int_field name j =
  match Json_min.int_field name j with
  | Some n -> n
  | None -> Alcotest.failf "response field %s is not an integer" name

let require_native () =
  match Jit.available () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "native codegen unavailable: %s" m

(* [Marshal_digest] against its definition, over every length code
   Marshal picks between: arrays of 0, 1, 255, 256 and 65536 floats
   (empty atom, 8-bit and 32-bit lengths), names of 1, 31, 32, 255 and
   256 bytes (small, 8-bit and 32-bit strings), 1 to 3 entries. *)
let streamed_digest_matches_marshal () =
  let rng = Lcg.create 5 in
  let arr n = Array.init n (fun _ -> Lcg.float rng 2.0 -. 1.0) in
  let name len = String.init len (fun i -> Char.chr (65 + (i mod 26))) in
  let check what l =
    check_string what
      (Digest.to_hex (Digest.string (Marshal.to_string l [])))
      (Digest.to_hex (Marshal_digest.float_arrays l))
  in
  check "no entries" [];
  List.iter
    (fun n ->
      List.iter
        (fun len ->
          check (Printf.sprintf "array %d, name %d" n len) [ (name len, arr n) ])
        [ 1; 31; 32; 255; 256 ])
    [ 0; 1; 255; 256; 65536 ];
  check "two entries" [ ("A", arr 256); (name 40, arr 3) ];
  check "three entries" [ (name 300, arr 255); ("B", arr 1); ("X", arr 65536) ];
  (* special floats travel as raw bits *)
  check "nan, infinities, signed zeros"
    [ ("F", [| nan; infinity; neg_infinity; -0.0; 0.0; Float.min_float |]) ];
  (* a repeated array is a back-reference in Marshal's output *)
  let shared = arr 10 in
  check "shared array" [ ("A", shared); ("B", shared) ];
  let e = Option.get (Blockability.find "trisolve") in
  let env = Kernel_def.make_env e.Blockability.kernel ~bindings:[ ("N", 40) ] ~seed:3 in
  check "trisolve environment"
    (List.map (fun a -> (a, Env.farray_data env a)) e.Blockability.kernel.Kernel_def.traced)

(* Serve [lines] with [Serve.run_channel] on a [lanes]-lane pool over
   Unix pipes, as the daemon does stdin/stdout; returns the response
   lines in the order they were written and whether a shutdown was
   processed.  A thread drains the responses, so none can block on a
   full pipe. *)
let serve_over_pipes ~lanes lines =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let requests = Unix.out_channel_of_descr in_w in
  List.iter (fun l -> output_string requests (l ^ "\n")) lines;
  close_out requests;
  let responses = Unix.in_channel_of_descr out_r in
  let collected = ref [] in
  let collector =
    Thread.create
      (fun () ->
        try
          while true do
            collected := input_line responses :: !collected
          done
        with End_of_file -> ())
      ()
  in
  let ic = Unix.in_channel_of_descr in_r in
  let oc = Unix.out_channel_of_descr out_w in
  let pool = Pool.create ~name:"lanes-test" ~domains:lanes () in
  let stopped =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Serve.run_channel pool ic oc)
  in
  close_out oc;
  Thread.join collector;
  close_in ic;
  close_in responses;
  (List.rev_map (fun l -> ok_or_fail "response parses" (Json_min.parse l))
     !collected,
   stopped)

let id_of = int_field "id"

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  f ()

let lane_tests =
  [
    case "lanes: a ping after a cold compile is answered first" (fun () ->
        require_native ();
        (match Cc.available () with
        | Ok () -> ()
        | Error m -> Alcotest.failf "C backend unavailable: %s" m);
        (* a private cache, and a (kernel, variant, backend) no other
           test compiles (the native suite compiles every blockable
           entry on both backends): the compile runs cc *)
        let saved = Artifact_cache.dir () in
        let tmp = Filename.temp_file "blockc-lanes-test" "" in
        Sys.remove tmp;
        Unix.putenv "BLOCKC_JIT_CACHE" tmp;
        Fun.protect ~finally:(fun () -> Unix.putenv "BLOCKC_JIT_CACHE" saved)
        @@ fun () ->
        let resps, stopped =
          serve_over_pipes ~lanes:2
            [
              {|{"id":1,"op":"compile","kernel":"householder","variant":"point","backend":"c"}|};
              {|{"id":2,"op":"ping"}|};
            ]
        in
        check_bool "no shutdown" false stopped;
        check_bool "both answered, ping first" true
          (List.map id_of resps = [ 2; 1 ]);
        check_string "the compile was cold" "compiled"
          (str "disposition" (List.nth resps 1)));
    case "lanes: a batch runs on both lanes, digests as sequential" (fun () ->
        require_native ();
        with_metrics @@ fun () ->
        let sizes = [ 160; 96; 150; 100; 140; 110; 130; 120; 155; 105; 145;
                      115; 135; 125; 158; 98 ] in
        let sizes_json = String.concat "," (List.map string_of_int sizes) in
        (* every domain that ran a chunk has a par.lane_busy_ns gauge *)
        let busy_domains () =
          String.split_on_char '\n' (Obs.Metrics.prometheus ())
          |> List.filter (fun l ->
                 String.starts_with ~prefix:"blockc_par_lane_busy_ns{" l
                 && not (String.ends_with ~suffix:" 0" l))
        in
        (* Which lanes take chunks is the scheduler's choice: on a loaded
           host the parked lane can wake after the other one has run
           every chunk.  So the batch is served again, at most 20 times,
           until two domains have run its chunks; the checks below read
           that run, and fail if no run got there. *)
        let rec serve_batch attempt =
          Obs.Metrics.reset ();
          let mem, events = Obs.memory () in
          Obs.set_sink mem;
          let resps, stopped =
            Fun.protect ~finally:(fun () -> Obs.set_sink Obs.null) @@ fun () ->
            serve_over_pipes ~lanes:2
              [
                Printf.sprintf {|{"id":1,"op":"batch","kernel":"lu","sizes":[%s]}|}
                  sizes_json;
                {|{"id":2,"op":"shutdown"}|};
              ]
          in
          if List.length (busy_domains ()) >= 2 || attempt = 20 then
            (resps, stopped, events)
          else serve_batch (attempt + 1)
        in
        let resps, stopped, events = serve_batch 1 in
        check_bool "shutdown processed" true stopped;
        (* lines read but not yet taken: the depth gauge and the wait
           timer *)
        let depth = Obs.Metrics.gauge "serve.depth" in
        let wait = Obs.Metrics.timer "serve.queue_wait" in
        check_bool "depth saw a queued line" true
          (Obs.Metrics.gauge_peak depth >= 1);
        check_int "depth settles at 0" 0 (Obs.Metrics.gauge_value depth);
        check_int "one queue_wait sample per line" 2 (Obs.Metrics.calls wait);
        check_bool "waits are non-negative across domains" true
          (Obs.Metrics.total_ns wait >= 0);
        let batch = List.find (fun r -> id_of r = 1) resps in
        check_bool "batch ok" true (bool_field "ok" batch);
        check_bool "two domains ran batch chunks" true
          (List.length (busy_domains ()) >= 2);
        (* the joining lane ran its chunks on the batch's trace *)
        let trace = str "trace_id" batch in
        let chunks =
          List.filter
            (fun (e : Obs.event) ->
              e.kind = Obs.Begin && e.name = "par.chunk"
              && Obs.Ctx.id_hex e.trace = trace)
            (events ())
        in
        check_bool "chunk spans on two domain tracks" true
          (List.length
             (List.sort_uniq compare
                (List.map (fun (e : Obs.event) -> e.track) chunks))
          >= 2);
        let sequential =
          List.map
            (fun n ->
              str "digest"
                (parsed
                   (Printf.sprintf
                      {|{"op":"execute","kernel":"lu","bindings":{"N":%d}}|} n)))
            sizes
        in
        match Json_min.field "digests" batch with
        | Some (Json_min.Array ds) ->
            List.iter2 (check_string "digest") sequential
              (List.map (function Json_min.String s -> s | _ -> "?") ds)
        | _ -> Alcotest.fail "no digests array");
    case "lanes: a line after shutdown gets no answer" (fun () ->
        let resps, stopped =
          serve_over_pipes ~lanes:2
            [
              {|{"id":1,"op":"ping"}|};
              {|{"id":2,"op":"shutdown"}|};
              {|{"id":3,"op":"ping"}|};
            ]
        in
        check_bool "shutdown processed" true stopped;
        check_bool "ids before the shutdown answered once each" true
          (List.sort compare (List.map id_of resps) = [ 1; 2 ]));
  ]

let suite =
  ( "serve",
    lane_tests @ [
      case "streamed digest equals MD5 of Marshal.to_string"
        streamed_digest_matches_marshal;
      case "an empty-array binding is a request error, not internal"
        (fun () ->
          Obs.Metrics.set_enabled true;
          Fun.protect ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Metrics.reset ())
          @@ fun () ->
          Obs.Metrics.reset ();
          let labelled cls =
            Obs.Metrics.count
              (Obs.Metrics.counter
                 (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))
          in
          let r = parsed {|{"op":"execute","kernel":"lu","bindings":{"N":0}}|} in
          check_bool "execute refused" false (bool_field "ok" r);
          check_string "execute names the cause" "empty array dimension"
            (str "error" r);
          check_bool "execute carries telemetry" true
            (String.length (str "trace_id" r) > 0);
          let r =
            parsed
              {|{"op":"batch","kernel":"lu","bindings_list":[{"N":0},{"N":4}]}|}
          in
          check_bool "batch refused" false (bool_field "ok" r);
          check_string "batch names the item and the cause"
            "item 0: empty array dimension" (str "error" r);
          check_int "both counted as request errors" 2 (labelled "request");
          check_int "none counted as internal" 0 (labelled "internal"));
      case "ping echoes the id and pongs" (fun () ->
          let r = parsed {|{"id":41,"op":"ping"}|} in
          check_bool "ok" true (bool_field "ok" r);
          check_bool "pong" true (bool_field "pong" r);
          match Json_min.field "id" r with
          | Some (Json_min.Number n) ->
              check_int "id" 41 (int_of_float n)
          | _ -> Alcotest.fail "id not echoed");
      case "malformed JSON is an error response, not a crash" (fun () ->
          let r = parsed "{nope" in
          check_bool "ok:false" false (bool_field "ok" r);
          check_bool "names the parse error" true
            (contains (str "error" r) "parse error"));
      case "missing op and unknown kernel are reported" (fun () ->
          let r = parsed {|{"id":1}|} in
          check_bool "missing op" true (contains (str "error" r) "op");
          let r = parsed {|{"op":"compile","kernel":"nope"}|} in
          check_bool "unknown kernel" true
            (contains (str "error" r) "unknown kernel");
          check_bool "lists known kernels" true (contains (str "error" r) "lu"));
      case "kernels op lists the registry with blockability" (fun () ->
          let r = parsed {|{"op":"kernels"}|} in
          match Json_min.field "kernels" r with
          | Some (Json_min.Array ks) ->
              let find name =
                List.find_opt
                  (fun k ->
                    match Json_min.field "name" k with
                    | Some (Json_min.String s) -> s = name
                    | _ -> false)
                  ks
              in
              check_bool "has lu" true (find "lu" <> None);
              let hh = Option.get (find "householder") in
              check_bool "householder marked non-blockable" false
                (bool_field "blockable" hh)
          | _ -> Alcotest.fail "no kernels array");
      case "derive reports the householder rejection as a result" (fun () ->
          let r = parsed {|{"op":"derive","kernel":"householder"}|} in
          check_bool "ok" true (bool_field "ok" r);
          check_bool "blockable:false" false (bool_field "blockable" r);
          check_bool "carries the reason" true
            (String.length (str "reason" r) > 0));
      case "shutdown acknowledges and stops" (fun () ->
          let resp, stop =
            Serve.handle_line
              ~exec_pool:(Lazy.force pool)
              {|{"id":9,"op":"shutdown"}|}
          in
          check_bool "stop" true stop;
          let r = ok_or_fail "parses" (Json_min.parse resp) in
          check_bool "stopping" true (bool_field "stopping" r));
      case "repeat compiles share one blueprint key and memoize" (fun () ->
          require_native ();
          let line = {|{"op":"compile","kernel":"trisolve","variant":"transformed"}|} in
          let r1 = parsed line in
          check_bool "ok" true (bool_field "ok" r1);
          let r2 = parsed line in
          check_string "one blueprint" (str "blueprint" r1)
            (str "blueprint" r2);
          check_string "memo on repeat" "memo" (str "disposition" r2));
      case "requests select a backend; digests are backend-independent"
        (fun () ->
          require_native ();
          let r = parsed {|{"op":"compile","kernel":"trisolve"}|} in
          check_bool "ok" true (bool_field "ok" r);
          check_string "default backend" "ocaml" (str "backend" r);
          check_bool "no cmxs alias" true (Json_min.field "cmxs" r = None);
          let r = parsed {|{"op":"compile","kernel":"trisolve","backend":"x"}|} in
          check_bool "unknown backend refused" false (bool_field "ok" r);
          check_bool "error names the tags" true
            (contains (str "error" r) "ocaml | c");
          match Cc.available () with
          | Error _ -> ()
          | Ok () ->
              let exec backend =
                parsed
                  (Printf.sprintf
                     {|{"op":"execute","kernel":"trisolve","backend":"%s","bindings":{"N":9}}|}
                     backend)
              in
              let ro = exec "ocaml" and rc = exec "c" in
              check_bool "c execute ok" true (bool_field "ok" rc);
              check_string "backend echoed" "c" (str "backend" rc);
              check_string "same digest across backends" (str "digest" ro)
                (str "digest" rc));
      case "batch digests match sequential executes bitwise" (fun () ->
          require_native ();
          let exec n =
            str "digest"
              (parsed
                 (Printf.sprintf
                    {|{"op":"execute","kernel":"trisolve","bindings":{"N":%d}}|}
                    n))
          in
          let sequential = List.map exec [ 8; 12 ] in
          let r =
            parsed {|{"op":"batch","kernel":"trisolve","sizes":[8,12]}|}
          in
          check_bool "ok" true (bool_field "ok" r);
          match Json_min.field "digests" r with
          | Some (Json_min.Array ds) ->
              let batched =
                List.map
                  (function Json_min.String s -> s | _ -> "?")
                  ds
              in
              List.iter2 (check_string "digest") sequential batched
          | _ -> Alcotest.fail "no digests array");
      case "batch items carry per-item timing and GC deltas" (fun () ->
          require_native ();
          let r =
            parsed {|{"op":"batch","kernel":"trisolve","sizes":[8,12,16]}|}
          in
          check_bool "ok" true (bool_field "ok" r);
          match (Json_min.field "items" r, Json_min.field "digests" r) with
          | Some (Json_min.Array items), Some (Json_min.Array ds) ->
              check_int "one item per request entry" 3 (List.length items);
              List.iter2
                (fun itm d ->
                  check_bool "item digest matches the digests array" true
                    (Json_min.field "digest" itm = Some d);
                  List.iter
                    (fun k ->
                      match Json_min.field k itm with
                      | Some (Json_min.Number n) ->
                          check_bool (k ^ " non-negative") true (n >= 0.0)
                      | _ -> Alcotest.failf "item field %s missing" k)
                    [
                      "ns";
                      "minor_gcs";
                      "major_gcs";
                      "promoted_words";
                      "allocated_words";
                    ])
                items ds
          | _ -> Alcotest.fail "no items / digests arrays");
      case "empty and malformed batches are rejected" (fun () ->
          let r = parsed {|{"op":"batch","kernel":"lu","sizes":[]}|} in
          check_bool "empty rejected" false (bool_field "ok" r);
          let r = parsed {|{"op":"batch","kernel":"lu"}|} in
          check_bool "no items rejected" false (bool_field "ok" r);
          check_bool "explains the two spellings" true
            (contains (str "error" r) "bindings_list"));
      case "every response carries trace and timing telemetry" (fun () ->
          let r = parsed {|{"id":5,"op":"ping"}|} in
          let trace = str "trace_id" r in
          check_bool "trace_id is a non-empty hex string" true
            (String.length trace > 0
            && String.for_all
                 (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
                 trace);
          match Json_min.field "server" r with
          | Some (Json_min.Object timing) ->
              List.iter
                (fun k ->
                  match List.assoc_opt k timing with
                  | Some (Json_min.Number ns) ->
                      check_bool (k ^ " non-negative") true (ns >= 0.0)
                  | _ -> Alcotest.failf "server.%s missing" k)
                [
                  "queue_ns";
                  "compile_ns";
                  "exec_ns";
                  "total_ns";
                  "minor_gcs";
                  "major_gcs";
                  "promoted_words";
                  "allocated_words";
                ]
          | _ -> Alcotest.fail "no server timing object");
      case "requests that allocate report GC deltas" (fun () ->
          (* derive walks the whole transformation pipeline: plenty of
             minor-heap traffic, so allocated_words must come out > 0 *)
          let r = parsed {|{"op":"derive","kernel":"lu"}|} in
          check_bool "ok" true (bool_field "ok" r);
          match Json_min.field "server" r with
          | Some (Json_min.Object timing) -> (
              match List.assoc_opt "allocated_words" timing with
              | Some (Json_min.Number w) ->
                  check_bool "allocated_words positive" true (w > 0.0)
              | _ -> Alcotest.fail "server.allocated_words missing")
          | _ -> Alcotest.fail "no server timing object");
      case "status reports JIT cache shape and sampler state" (fun () ->
          let r = parsed {|{"op":"status"}|} in
          check_bool "ok" true (bool_field "ok" r);
          let num k =
            match Json_min.field k r with
            | Some (Json_min.Number n) -> n
            | _ -> Alcotest.failf "status field %s is not a number" k
          in
          List.iter
            (fun k -> check_bool (k ^ " non-negative") true (num k >= 0.0))
            [
              "disk_entries";
              "disk_bytes";
              "disk_oldest_age_s";
              "disk_evictions";
              "sampler_hz";
              "sampler_samples";
            ];
          (* the counters live under "cache" only *)
          List.iter
            (fun k -> check_bool (k ^ " not copied") true (Json_min.field k r = None))
            [
              "compiler_invocations";
              "memo_size";
              "memo_hits";
              "disk_hits";
              "dedup_waits";
              "cc_invocations";
            ];
          (match Json_min.field "cache" r with
          | Some (Json_min.Object kinds) ->
              check_bool "one object per kind" true
                (List.sort compare (List.map fst kinds)
                = [ "c"; "cc_probe"; "derivation"; "ocaml" ]);
              List.iter
                (fun (kind, counters) ->
                  List.iter
                    (fun k ->
                      match Json_min.field k counters with
                      | Some (Json_min.Number n) ->
                          check_bool (kind ^ "." ^ k ^ " non-negative") true
                            (n >= 0.0)
                      | _ -> Alcotest.failf "cache.%s.%s is not a number" kind k)
                    [
                      "loaded";
                      "memo_hits";
                      "disk_hits";
                      "builds";
                      "corrupt";
                      "dedup_waits";
                    ])
                kinds
          | _ -> Alcotest.fail "no cache object");
          (match Json_min.field "cc_available" r with
          | Some (Json_min.Bool _) -> ()
          | _ -> Alcotest.fail "cc_available is not a bool");
          (match Json_min.field "sampler_running" r with
          | Some (Json_min.Bool _) -> ()
          | _ -> Alcotest.fail "sampler_running is not a bool");
          check_bool "cache dir named" true (String.length (str "cache_dir" r) > 0));
      case "flame op starts the sampler and renders folded stacks" (fun () ->
          if Obs.Sampler.running () then Obs.Sampler.stop ();
          Obs.Sampler.reset ();
          Fun.protect ~finally:(fun () ->
              Obs.Sampler.stop ();
              Obs.Sampler.reset ())
          @@ fun () ->
          let r = parsed {|{"op":"flame","hz":250}|} in
          check_bool "ok" true (bool_field "ok" r);
          check_bool "sampler left running" true (Obs.Sampler.running ());
          (match Json_min.field "hz" r with
          | Some (Json_min.Number hz) ->
              check_bool "requested rate honoured" true (hz = 250.0)
          | _ -> Alcotest.fail "no hz field");
          (match Json_min.field "samples" r with
          | Some (Json_min.Number n) -> check_bool "samples count" true (n >= 0.0)
          | _ -> Alcotest.fail "no samples field");
          (match Json_min.field "folded" r with
          | Some (Json_min.String _) -> ()
          | _ -> Alcotest.fail "no folded field");
          (* give the ticker a good pile, then a reset readout drops it:
             after stopping, the survivor count must be far below what
             the pile had grown to *)
          Unix.sleepf 0.1;
          let before = Obs.Sampler.samples () in
          check_bool "ticker accumulated samples" true (before > 0);
          let r2 = parsed {|{"op":"flame","reset":true}|} in
          check_bool "reset readout ok" true (bool_field "ok" r2);
          (* a repeat flame with no hz keeps the running rate (ensure) *)
          let r3 = parsed {|{"op":"flame"}|} in
          (match Json_min.field "hz" r3 with
          | Some (Json_min.Number hz) ->
              check_bool "rate sticky while running" true (hz = 250.0)
          | _ -> Alcotest.fail "no hz field on repeat");
          Obs.Sampler.stop ();
          check_bool "reset dropped the accumulation" true
            (Obs.Sampler.samples () < before));
      case "failures increment the labelled error counters" (fun () ->
          Obs.Metrics.set_enabled true;
          Fun.protect ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Metrics.reset ())
          @@ fun () ->
          Obs.Metrics.reset ();
          let labelled cls =
            Obs.Metrics.count
              (Obs.Metrics.counter
                 (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))
          in
          ignore (request "{nope");
          ignore (request {|{"id":1}|});
          ignore (request {|{"op":"frobnicate"}|});
          ignore (request {|{"op":"compile","kernel":"nope"}|});
          check_int "parse error counted" 1 (labelled "parse");
          check_int "missing op counted" 1 (labelled "missing_op");
          check_int "unknown op counted" 1 (labelled "unknown_op");
          check_int "bad request counted" 1 (labelled "request");
          check_int "total across classes" 4
            (Obs.Metrics.count (Obs.Metrics.counter "serve.errors")));
      case "metrics op exposes per-op latency quantiles" (fun () ->
          Obs.Metrics.set_enabled true;
          Fun.protect ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Metrics.reset ())
          @@ fun () ->
          Obs.Metrics.reset ();
          ignore (request {|{"op":"ping"}|});
          let r = parsed {|{"op":"metrics"}|} in
          check_bool "ok" true (bool_field "ok" r);
          check_bool "metrics_enabled" true (bool_field "metrics_enabled" r);
          (* Json_min decodes escapes on parse, so the exposition text
             arrives with its real quotes and newlines *)
          let text = str "metrics" r in
          check_bool "request counter present" true
            (contains text "blockc_serve_requests_total");
          check_bool "overall latency summary present" true
            (contains text "blockc_serve_request_ns{quantile=");
          check_bool "per-op p99 present" true
            (contains text
               {|blockc_serve_request_ns{op="ping",quantile="0.99"}|}));
      case "dump op flushes the flight recorder" (fun () ->
          Obs.Recorder.clear ();
          ignore (request {|{"id":7,"op":"ping"}|});
          let r = parsed {|{"op":"dump"}|} in
          check_bool "ok" true (bool_field "ok" r);
          match (Json_min.field "events" r, Json_min.field "capacity" r) with
          | Some (Json_min.Array evs), Some (Json_min.Number cap) ->
              check_bool "ring noted the requests" true (List.length evs >= 1);
              check_int "capacity reported" (Obs.Recorder.capacity ())
                (int_of_float cap);
              let ping =
                List.find_opt
                  (fun ev ->
                    match Json_min.field "args" ev with
                    | Some args -> (
                        match Json_min.field "op" args with
                        | Some (Json_min.String s) -> s = "ping"
                        | _ -> false)
                    | _ -> false)
                  evs
              in
              check_bool "ping noted with its op" true (ping <> None);
              check_bool "events carry a trace id" true
                (String.length (str "trace" (Option.get ping)) > 0)
          | _ -> Alcotest.fail "no events array / capacity");
      case "the json sink writes each event as dump shows it" (fun () ->
          Obs.Recorder.clear ();
          let path = Filename.temp_file "obs" ".jsonl" in
          let oc = open_out path in
          Obs.set_sink (Obs.tee (Obs.jsonl oc) (Obs.Recorder.sink ()));
          (Fun.protect ~finally:(fun () -> Obs.set_sink Obs.null) @@ fun () ->
           Obs.Ctx.with_ctx (Some (Obs.Ctx.fresh ())) @@ fun () ->
           Obs.span "phase" ~cat:"driver"
             ~args:
               [
                 ("loop", Obs.Str {|K "1"|});
                 ("n", Obs.Int 3);
                 ("x", Obs.Float 0.1);
                 ("ok", Obs.Bool true);
               ]
             (fun () -> Obs.instant "inner"));
          close_out oc;
          let lines = In_channel.with_open_bin path In_channel.input_all in
          Sys.remove path;
          let lines = List.filter (( <> ) "") (String.split_on_char '\n' lines) in
          match Json_min.field "events" (parsed {|{"op":"dump"}|}) with
          | Some (Json_min.Array evs) ->
              check_int "begin, instant, end" 3 (List.length lines);
              List.iter2 (check_string "one encoding") lines
                (List.map Json_min.to_string evs)
          | _ -> Alcotest.fail "no events array");
      case "a compile response is the compile encoder's body" (fun () ->
          require_native ();
          let e = Option.get (Blockability.find "lu_opt") in
          let compile () =
            ok_or_fail "compile"
              (Blockability.compile ~backend:(module Backend.Ocaml) e
                 Blockability.Transformed)
          in
          (* two memo hits on each side: the same disposition, no time *)
          ignore (compile ());
          let c = compile () in
          match parsed {|{"id":3,"op":"compile","kernel":"lu_opt","variant":"transformed"}|} with
          | Json_min.Object (("id", _) :: ("ok", Json_min.Bool true) :: rest) ->
              check_string "body"
                (Json_min.to_string (Json_min.Object (Blockability.compiled_fields c)))
                (Json_min.to_string
                   (Json_min.Object
                      (List.filter (fun (k, _) -> k <> "trace_id" && k <> "server") rest)))
          | r -> Alcotest.failf "unexpected response %s" (Json_min.to_string r));
      case "simulate op gives blockc simulate's counts; profile is unknown" (fun () ->
          let r = parsed {|{"op":"simulate","kernel":"lu"}|} in
          check_bool "ok" true (bool_field "ok" r);
          List.iter
            (fun (k, v) -> check_int k v (int_field k r))
            [
              ("point_misses", 36);
              ("transformed_misses", 36);
              ("point_cycles", 18628);
              ("transformed_cycles", 18628);
            ];
          let r = parsed {|{"op":"profile","kernel":"lu"}|} in
          check_bool "profile refused" false (bool_field "ok" r);
          check_string "one name per op" {|unknown op "profile"|} (str "error" r));
      case "simulate answers an unknown parameter as execute does" (fun () ->
          Obs.Metrics.set_enabled true;
          Fun.protect ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Metrics.reset ())
          @@ fun () ->
          Obs.Metrics.reset ();
          let answer op =
            parsed
              (Printf.sprintf
                 {|{"op":"%s","kernel":"aconv","bindings":{"N":200}}|} op)
          in
          let execute = answer "execute" and simulate = answer "simulate" in
          check_bool "simulate refused" false (bool_field "ok" simulate);
          check_string "execute names what the kernel takes"
            "no parameter N (takes N1, N2, N3)" (str "error" execute);
          check_string "simulate, the same" (str "error" execute)
            (str "error" simulate);
          check_int "no internal error"
            0
            (Obs.Metrics.count
               (Obs.Metrics.counter
                  (Obs.Metrics.labelled "serve.errors" [ ("class", "internal") ]))));
      case "bindings are sized as on the command line" (fun () ->
          require_native ();
          with_metrics @@ fun () ->
          let labelled cls =
            Obs.Metrics.count
              (Obs.Metrics.counter
                 (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))
          in
          let execute kernel bindings =
            parsed
              (Printf.sprintf
                 {|{"op":"execute","kernel":"%s","variant":"transformed","bindings":%s}|}
                 kernel bindings)
          in
          let r = execute "lu" {|{"N":24,"KZ":3}|} in
          check_bool "an unknown name is refused" false (bool_field "ok" r);
          check_string "naming what lu takes" "no parameter KZ (takes N, KS)"
            (str "error" r);
          check_int "as a request error" 1 (labelled "request");
          check_int "not an internal one" 0 (labelled "internal");
          check_string "a lowercase name binds as its uppercase"
            (str "digest" (execute "lu" {|{"N":24}|}))
            (str "digest" (execute "lu" {|{"n":24}|}));
          check_string "KS alone takes N from the defaults"
            (str "digest" (execute "lu" {|{"N":24,"KS":4}|}))
            (str "digest" (execute "lu" {|{"KS":4}|}));
          let r = execute "aconv" {|{"N1":100}|} in
          check_bool "a partial binding runs" true (bool_field "ok" r);
          check_string "with the other sizes' defaults"
            (str "digest" (execute "aconv" {|{"N1":100,"N2":9,"N3":50}|}))
            (str "digest" r));
      case "simulate answers an empty-array size as execute does" (fun () ->
          Obs.Metrics.set_enabled true;
          Fun.protect ~finally:(fun () ->
              Obs.Metrics.set_enabled false;
              Obs.Metrics.reset ())
          @@ fun () ->
          Obs.Metrics.reset ();
          let answer op =
            parsed
              (Printf.sprintf {|{"op":"%s","kernel":"lu","bindings":{"N":0}}|} op)
          in
          let execute = answer "execute" and simulate = answer "simulate" in
          check_bool "simulate refused" false (bool_field "ok" simulate);
          check_string "execute names the cause" "empty array dimension"
            (str "error" execute);
          check_string "simulate, the same" (str "error" execute)
            (str "error" simulate);
          check_int "no internal error"
            0
            (Obs.Metrics.count
               (Obs.Metrics.counter
                  (Obs.Metrics.labelled "serve.errors" [ ("class", "internal") ]))));
      case "a transformed run outside the derivation's facts is refused" (fun () ->
          with_metrics @@ fun () ->
          let labelled cls =
            Obs.Metrics.count
              (Obs.Metrics.counter
                 (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))
          in
          let conv variant =
            parsed
              (Printf.sprintf
                 {|{"op":"execute","kernel":"conv","variant":"%s",%s}|}
                 variant {|"bindings":{"N1":40,"N2":1,"N3":50}|})
          in
          check_bool "point runs" true (bool_field "ok" (conv "point"));
          let r = conv "transformed" in
          check_bool "transformed refused" false (bool_field "ok" r);
          check_string "names the fact" "the derivation assumes N2 >= 3"
            (str "error" r);
          let r =
            parsed {|{"op":"simulate","kernel":"lu","bindings":{"N":8,"KS":0}}|}
          in
          check_string "simulate names the fact" "the derivation assumes KS >= 1"
            (str "error" r);
          check_int "both counted as request errors" 2 (labelled "request");
          check_int "none counted as internal" 0 (labelled "internal"));
      case "a QR with more columns than rows is a request error" (fun () ->
          require_native ();
          with_metrics @@ fun () ->
          let labelled cls =
            Obs.Metrics.count
              (Obs.Metrics.counter
                 (Obs.Metrics.labelled "serve.errors" [ ("class", cls) ]))
          in
          let execute kernel variant backend =
            parsed
              (Printf.sprintf
                 {|{"op":"execute","kernel":"%s","variant":"%s","backend":"%s","bindings":{"M":3,"N":5}}|}
                 kernel variant backend)
          in
          List.iter
            (fun backend ->
              check_bool ("givens point runs on " ^ backend) true
                (bool_field "ok" (execute "givens" "point" backend));
              check_string ("givens transformed on " ^ backend)
                "the derivation assumes M >= N"
                (str "error" (execute "givens" "transformed" backend));
              check_string ("householder on " ^ backend) "needs M >= N (M = 3, N = 5)"
                (str "error" (execute "householder" "point" backend)))
            [ "ocaml"; "c" ];
          check_int "counted as request errors" 4 (labelled "request");
          check_int "none counted as internal" 0 (labelled "internal"));
      case "batch fan-out is one connected trace" (fun () ->
          require_native ();
          let mem, events = Obs.memory () in
          Obs.set_sink mem;
          let p2 = Pool.create ~domains:2 () in
          Fun.protect ~finally:(fun () ->
              Obs.set_sink Obs.null;
              Pool.shutdown p2)
          @@ fun () ->
          let resp, _ =
            Serve.handle_line ~exec_pool:p2
              {|{"op":"batch","kernel":"trisolve","sizes":[8,10,12,14]}|}
          in
          let r = ok_or_fail "parses" (Json_min.parse resp) in
          check_bool "ok" true (bool_field "ok" r);
          let evs = events () in
          (* exactly one trace id across every event of the request *)
          let traces =
            List.sort_uniq compare
              (List.filter_map
                 (fun (e : Obs.event) ->
                   if e.trace <> 0 then Some e.trace else None)
                 evs)
          in
          check_int "one distinct trace" 1 (List.length traces);
          check_string "the response names that trace"
            (Obs.Ctx.id_hex (List.hd traces))
            (str "trace_id" r);
          (* and the span tree is connected: request -> batch -> chunks *)
          let find_begin name =
            List.find
              (fun (e : Obs.event) -> e.kind = Obs.Begin && e.name = name)
              evs
          in
          let req = find_begin "serve.request" in
          let batch = find_begin "serve.batch" in
          check_int "batch is a child of the request" req.span_id batch.parent;
          let chunks =
            List.filter
              (fun (e : Obs.event) ->
                e.kind = Obs.Begin && e.name = "par.chunk")
              evs
          in
          check_bool "fan-out produced chunk spans" true (chunks <> []);
          List.iter
            (fun (c : Obs.event) ->
              check_int "chunk is a child of the batch" batch.span_id c.parent)
            chunks;
          (* which lanes claim chunks is scheduling-dependent, but every
             chunk span must name the domain it actually ran on *)
          check_bool "chunk spans carry their domain track" true
            (List.for_all (fun (e : Obs.event) -> e.track >= 0) chunks));
      case "repeated derive requests keep the live heap flat" (fun () ->
          (* Proof caches live and die with the contexts and sessions of
             one derivation: nothing may pile up across requests. *)
          let line = {|{"op":"derive","kernel":"lu"}|} in
          let live () =
            Gc.full_major ();
            (Gc.stat ()).Gc.live_words
          in
          check_bool "first derive ok" true (bool_field "ok" (parsed line));
          let first = live () in
          for _ = 2 to 50 do
            ignore (request line)
          done;
          let last = live () in
          if float_of_int last > 1.05 *. float_of_int first then
            Alcotest.failf
              "live heap grew from %d to %d words over 49 more derive requests"
              first last);
    ] )
