open Helpers

(* The observability layer: event/span semantics, sink round-trips,
   decision tracing through the real compiler drivers, metrics, the
   per-array cache statistics, and the bench regression gate. *)

let span_nesting () =
  with_memory_sink @@ fun events ->
  let v =
    Obs.span "outer" (fun () ->
        Obs.instant "mid";
        Obs.span "inner" (fun () -> ());
        7)
  in
  check_int "span returns its body's value" 7 v;
  let evs = events () in
  let tags =
    List.map
      (fun (e : Obs.event) ->
        ( e.name,
          (match e.kind with
          | Obs.Begin -> "B"
          | Obs.End -> "E"
          | Obs.Instant -> "I"),
          e.depth ))
      evs
  in
  Alcotest.(check (list (triple string string int)))
    "emission order and depths"
    [
      ("outer", "B", 0);
      ("mid", "I", 1);
      ("inner", "B", 1);
      ("inner", "E", 1);
      ("outer", "E", 0);
    ]
    tags;
  (* timestamps are non-decreasing *)
  let rec mono = function
    | (a : Obs.event) :: (b :: _ as rest) ->
        check_bool "timestamps non-decreasing" true (a.ts <= b.ts);
        mono rest
    | _ -> ()
  in
  mono evs

let span_exception_closes () =
  with_memory_sink @@ fun events ->
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let evs = events () in
  check_int "Begin and End both emitted" 2 (List.length evs);
  check_bool "End emitted on exception" true
    (match List.rev evs with
    | (e : Obs.event) :: _ -> e.kind = Obs.End
    | [] -> false);
  Obs.instant "after";
  check_bool "depth back to 0 after exception" true
    (match List.rev (events ()) with
    | (e : Obs.event) :: _ -> e.depth = 0
    | [] -> false)

let null_sink_is_off () =
  Obs.set_sink Obs.null;
  check_bool "disabled under null" false (Obs.enabled ());
  (* and the whole event path stays allocation-free: spans just run the
     body, instants return immediately *)
  Obs.span "s" (fun () -> Obs.instant "i");
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.instant "hot"
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "no allocation on disabled instants (%.0f words)" allocated)
    true
    (allocated < 64.0)

let jsonl_round_trip () =
  let path = Filename.temp_file "obs" ".jsonl" in
  let oc = open_out path in
  Obs.set_sink (Obs.jsonl oc);
  Obs.span "phase" ~cat:"driver"
    ~args:[ ("loop", Obs.Str "K"); ("n", Obs.Int 3) ]
    (fun () ->
      Obs.decision ~transform:"t" ~target:"K" ~applied:false ~reason:{|no "x"|}
        ());
  Obs.set_sink Obs.null;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  check_int "one JSON object per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json_min.parse line with
      | Ok (Json_min.Object kvs) ->
          check_bool "has name" true (List.mem_assoc "name" kvs);
          check_bool "has ts" true (List.mem_assoc "ts" kvs)
      | Ok _ -> Alcotest.fail "event line is not an object"
      | Error m -> Alcotest.failf "unparseable event line: %s" m)
    lines

let chrome_round_trip () =
  let path = Filename.temp_file "obs" ".json" in
  let oc = open_out path in
  Obs.set_sink (Obs.chrome oc);
  Obs.span "phase" (fun () -> Obs.instant "i");
  Obs.flush ();
  Obs.set_sink Obs.null;
  close_out oc;
  let ic = open_in path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Json_min.parse doc with
  | Ok (Json_min.Object kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json_min.Array evs) ->
          check_int "B, I, E trace events" 3 (List.length evs)
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "chrome trace is not an object"
  | Error m -> Alcotest.failf "unparseable chrome trace: %s" m

(* ---- multi-domain tracing ---- *)

(* Regression: span depth used to be one process-global counter, so a
   worker domain opening a span while the main domain was inside one
   started at depth 1 (or worse, tore the counter).  Depth is now
   domain-local state. *)
let two_domain_depth_isolation () =
  with_memory_sink @@ fun events ->
  let worker_go = Atomic.make false and worker_done = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get worker_go) do
          Domain.cpu_relax ()
        done;
        Obs.span "worker" (fun () -> Obs.instant "w.mid");
        Atomic.set worker_done true)
  in
  Obs.span "main" (fun () ->
      (* release the worker only once this domain is at depth 1 *)
      Atomic.set worker_go true;
      while not (Atomic.get worker_done) do
        Domain.cpu_relax ()
      done;
      Obs.instant "m.mid");
  Domain.join d;
  let evs = events () in
  let find name kind =
    List.find (fun (e : Obs.event) -> e.name = name && e.kind = kind) evs
  in
  let wb = find "worker" Obs.Begin and mb = find "main" Obs.Begin in
  check_int "worker span starts at its own depth 0" 0 wb.depth;
  check_int "worker instant nests to 1" 1 (find "w.mid" Obs.Instant).depth;
  check_int "main instant unaffected by the worker" 1
    (find "m.mid" Obs.Instant).depth;
  check_bool "domains emit on distinct tracks" true (wb.track <> mb.track)

(* Regression: timestamps came from Sys.time (CPU time, ~1ms
   granularity), so back-to-back events got identical stamps and
   sub-millisecond spans rendered as zero-width.  The clock is now the
   real wall clock at microsecond resolution. *)
let wall_clock_advances () =
  with_memory_sink @@ fun events ->
  Obs.instant "t0";
  (* a few hundred microseconds of real work between the two events *)
  let s = String.make 100_000 'x' in
  let acc = ref "" in
  for _ = 1 to 20 do
    acc := Digest.string s
  done;
  ignore !acc;
  Obs.instant "t1";
  match events () with
  | [ a; b ] ->
      check_bool
        (Printf.sprintf "back-to-back events are %d ns apart" (b.ts - a.ts))
        true
        (b.ts - a.ts > 0)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let chrome_multi_domain () =
  let path = Filename.temp_file "obs" ".json" in
  let oc = open_out path in
  Obs.set_sink (Obs.chrome oc);
  let worker () =
    for i = 1 to 10 do
      Obs.span "w.span" (fun () -> Obs.instant ~args:[ ("i", Obs.Int i) ] "w.i")
    done
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  worker ();
  Domain.join d1;
  Domain.join d2;
  Obs.flush ();
  Obs.set_sink Obs.null;
  close_out oc;
  let ic = open_in path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Json_min.parse doc with
  | Error m -> Alcotest.failf "unparseable chrome trace: %s" m
  | Ok (Json_min.Object kvs) -> (
      match List.assoc_opt "traceEvents" kvs with
      | Some (Json_min.Array evs) ->
          check_int "all 90 events present" 90 (List.length evs);
          let num k ev =
            match ev with
            | Json_min.Object fields -> (
                match List.assoc_opt k fields with
                | Some (Json_min.Number x) -> x
                | _ -> Alcotest.failf "event without numeric %S" k)
            | _ -> Alcotest.fail "trace event is not an object"
          in
          let tids = List.sort_uniq compare (List.map (num "tid") evs) in
          check_bool "at least two domain tracks" true (List.length tids >= 2);
          (* per-track timestamps are non-decreasing in emission order *)
          let last = Hashtbl.create 4 in
          List.iter
            (fun ev ->
              let tid = num "tid" ev and ts = num "ts" ev in
              (match Hashtbl.find_opt last tid with
              | Some prev ->
                  check_bool "per-track ts non-decreasing" true (prev <= ts)
              | None -> ());
              Hashtbl.replace last tid ts)
            evs
      | _ -> Alcotest.fail "no traceEvents array")
  | Ok _ -> Alcotest.fail "chrome trace is not an object"

(* ---- decision tracing through the real drivers ---- *)

let decisions events =
  List.filter (fun (e : Obs.event) -> String.equal e.cat "decision") events

let arg_bool k (e : Obs.event) =
  match List.assoc_opt k e.args with Some (Obs.Bool b) -> Some b | _ -> None

let lu_decision_trace () =
  with_memory_sink @@ fun events ->
  let entry = Option.get (Blockability.find "lu") in
  check_bool "lu derives" true (Result.is_ok (Blockability.derive entry));
  let ds = decisions (events ()) in
  let applied name =
    List.exists
      (fun (e : Obs.event) ->
        String.equal e.name name && arg_bool "applied" e = Some true)
      ds
  in
  check_bool "strip-mine applied" true (applied "strip-mine");
  check_bool "index-set-split applied" true (applied "index-set-split");
  check_bool "distribute applied" true (applied "distribute");
  check_bool "interchange applied" true (applied "interchange");
  (* the split evidence names the split loop and point (§ Fig. 3) *)
  check_bool "split evidence recorded" true
    (List.exists
       (fun (e : Obs.event) ->
         String.equal e.name "index-set-split"
         && List.mem_assoc "split_point" e.args
         && List.mem_assoc "split_loop" e.args)
       ds)

let lu_pivot_commutativity_trace () =
  with_memory_sink @@ fun events ->
  let entry = Option.get (Blockability.find "lu_pivot") in
  check_bool "lu_pivot derives" true (Result.is_ok (Blockability.derive entry));
  check_bool "commutativity event emitted (§5.2)" true
    (List.exists
       (fun (e : Obs.event) ->
         String.equal e.name "commutativity"
         && arg_bool "applied" e = Some true)
       (decisions (events ())))

(* The pivoting derivation asks FSA only about dependences a split would
   reverse, and distributes each distinct split once: 9 commutativity
   and 4 distribute decisions (333 and 29 when every edge of every
   attempt was asked about).  Both counts hold with the process-wide
   proof memo warm or cold; the fsa count does not, so it is not
   checked. *)
let lu_pivot_asks_few_questions () =
  with_memory_sink @@ fun events ->
  let entry = Option.get (Blockability.find "lu_pivot") in
  check_bool "lu_pivot derives" true (Result.is_ok (Blockability.derive entry));
  let count name =
    List.length
      (List.filter (fun (e : Obs.event) -> String.equal e.name name) (decisions (events ())))
  in
  let at_most name bound =
    let n = count name in
    if n > bound then Alcotest.failf "%d %s decisions (at most %d)" n name bound
  in
  at_most "commutativity" 20;
  at_most "distribute" 6

let householder_rejection_trace () =
  with_memory_sink @@ fun events ->
  let entry = Option.get (Blockability.find "householder") in
  check_bool "householder entry is marked non-blockable" false
    entry.Blockability.blockable;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Blockability.derive entry with
  | Ok _ -> Alcotest.fail "householder must not derive (§5.3)"
  | Error m -> check_bool "reason mentions §5.3" true (contains m "5.3"));
  check_bool "rejection decision emitted" true
    (List.exists
       (fun (e : Obs.event) ->
         String.equal e.name "block"
         && arg_bool "applied" e = Some false)
       (decisions (events ())))

(* One decision per pipeline step for every registry kernel: applied,
   skipped, or (Householder's cache blocking) refused.  A step that is
   skipped leaves no applied decision of an attempt behind: where cache
   blocking finds no recurrence, nothing was strip-mined. *)
let pipeline_steps_per_kernel () =
  let expected =
    (* cache blocking, IF-inspection, register blocking *)
    [
      ("lu", ("applied", "skipped", "skipped"));
      ("lu_opt", ("applied", "skipped", "applied"));
      ("lu_pivot", ("applied", "skipped", "skipped"));
      ("lu_pivot_opt", ("applied", "skipped", "applied"));
      ("trisolve", ("applied", "skipped", "skipped"));
      ("cholesky", ("applied", "skipped", "skipped"));
      ("matmul", ("skipped", "applied", "skipped"));
      ("givens", ("skipped", "applied", "skipped"));
      ("aconv", ("skipped", "skipped", "applied"));
      ("conv", ("skipped", "skipped", "applied"));
      ("householder", ("rejected", "skipped", "skipped"));
    ]
  in
  check_int "every registry kernel" (List.length Blockability.entries)
    (List.length expected);
  List.iter
    (fun (name, (cache, inspect, register)) ->
      with_memory_sink @@ fun events ->
      ignore (Blockability.derive (Option.get (Blockability.find name)));
      let ds = decisions (events ()) in
      let verdict step =
        match
          List.filter (fun (e : Obs.event) -> e.name = "pipeline." ^ step) ds
        with
        | [ e ] -> (
            match (arg_bool "applied" e, arg_bool "skipped" e) with
            | Some true, _ -> "applied"
            | _, Some true -> "skipped"
            | _ -> "rejected")
        | l -> Printf.sprintf "%d decisions" (List.length l)
      in
      Alcotest.(check (list string))
        (name ^ ": cache blocking, IF-inspection, register blocking")
        [ cache; inspect; register ]
        (List.map verdict [ "cache-blocking"; "if-inspection"; "register-blocking" ]);
      if cache = "skipped" then
        check_bool (name ^ ": nothing strip-mined") false
          (List.exists (fun (e : Obs.event) -> e.name = "strip-mine") ds))
    expected

(* A loop no step can block is refused, and the answer names each
   step's reason. *)
let pipeline_refuses_a_plain_loop () =
  with_memory_sink @@ fun events ->
  let open Builder in
  let block = [ do_ "I" (i 1) (v "N") [ set1 "A" (v "I") (a1 "A" (v "I") +. fc 1.0) ] ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Blocker.auto ~register:true ~facts:[ ("N", Affine.const 1) ] block with
  | Ok _ -> Alcotest.fail "a one-statement loop without a guard must not block"
  | Error m ->
      List.iter
        (fun reason -> check_bool reason true (contains m reason))
        [
          "cache-blocking: no recurrence";
          "if-inspection: no loop is guarded by an IF";
          "register-blocking: no region of I unrolls";
        ]);
  check_int "three skipped steps" 3
    (List.length
       (List.filter (fun e -> arg_bool "skipped" e = Some true) (decisions (events ()))))

(* The point kernel behind the negative result must itself be correct:
   interpreting it has to triangularize A (Householder reflections zero
   the subdiagonal of each processed column). *)
let point_householder_triangularizes () =
  let m = 10 and n = 7 in
  let env =
    Kernel_def.make_env K_householder.kernel
      ~bindings:[ ("M", m); ("N", n) ]
      ~seed:11
  in
  Exec.run env K_householder.kernel.Kernel_def.block;
  for k = 1 to n do
    for i = k + 1 to m do
      let v = Env.get_f env "A" [ i; k ] in
      if Float.abs v > 1e-9 then
        Alcotest.failf "A(%d,%d) = %g not annihilated" i k v
    done
  done

(* ---- metrics ---- *)

let metrics_basics () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.c" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check_int "counter" 5 (Obs.Metrics.count c);
  let h = Obs.Metrics.histogram "test.h" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 900 ];
  check_bool "histogram buckets ascend and sum" true
    (let bs = Obs.Metrics.buckets h in
     List.fold_left (fun acc (_, n) -> acc + n) 0 bs = 4
     && List.sort compare bs = bs);
  let t = Obs.Metrics.timer "test.t" in
  Obs.Metrics.record_ns t 500;
  let v = Obs.Metrics.time t (fun () -> 3) in
  check_int "timer passes value through" 3 v;
  check_int "timer calls" 2 (Obs.Metrics.calls t);
  check_bool "timer total includes both" true (Obs.Metrics.total_ns t >= 500);
  let exposition = String.split_on_char '\n' (Obs.Metrics.prometheus ()) in
  List.iter
    (fun line -> check_bool ("exposition has " ^ line) true (List.mem line exposition))
    [ "blockc_test_c_total 5"; "blockc_test_h_count 4"; "blockc_test_t_calls_total 2" ]

let pool_metrics_recorded () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  let pool = Pool.create ~domains:2 () in
  let acc = Atomic.make 0 in
  Parallel.for_ ~pool ~lo:1 ~hi:1000 (fun s e ->
      for i = s to e do
        ignore i;
        Atomic.incr acc
      done);
  Pool.shutdown pool;
  check_int "work all done" 1000 (Atomic.get acc);
  check_bool "regions counted" true
    (Obs.Metrics.count (Obs.Metrics.counter "pool.regions") >= 1);
  check_bool "chunks counted" true
    (Obs.Metrics.count (Obs.Metrics.counter "par.chunks") >= 2);
  check_bool "chunk sizes observed" true
    (Obs.Metrics.buckets (Obs.Metrics.histogram "par.chunk_size.static") <> []);
  check_bool "per-chunk timer ran" true
    (Obs.Metrics.calls (Obs.Metrics.timer "par.chunk") >= 2)

let histogram_quantiles () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram "test.q" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h (i * 1000)
  done;
  check_int "count" 1000 (Obs.Metrics.hist_count h);
  check_int "sum" (1000 * 1001 / 2 * 1000) (Obs.Metrics.hist_sum h);
  check_int "max exact" 1_000_000 (Obs.Metrics.hist_max h);
  (* log-linear buckets: 16 sub-buckets per octave, so a quantile's
     upper bound overshoots its true value by < 1/16 *)
  let p50 = Obs.Metrics.percentile h 0.5 in
  check_bool
    (Printf.sprintf "p50 within a bucket of 500000 (%d)" p50)
    true
    (p50 >= 500_000 && p50 <= 540_000);
  let p99 = Obs.Metrics.percentile h 0.99 in
  check_bool
    (Printf.sprintf "p99 within a bucket of 990000 (%d)" p99)
    true
    (p99 >= 990_000 && p99 <= 1_000_000);
  check_int "p100 clamps to the observed max" 1_000_000
    (Obs.Metrics.percentile h 1.0);
  check_int "empty histogram quantile is 0" 0
    (Obs.Metrics.percentile (Obs.Metrics.histogram "test.q.empty") 0.99)

let recorder_ring () =
  let old_cap = Obs.Recorder.capacity () in
  Fun.protect ~finally:(fun () -> Obs.Recorder.set_capacity old_cap)
  @@ fun () ->
  Obs.Recorder.set_capacity 8;
  (* notes land even with tracing fully disabled *)
  check_bool "tracing is off" false (Obs.enabled ());
  for i = 1 to 20 do
    Obs.Recorder.note ~args:[ ("i", Obs.Int i) ] "r.note"
  done;
  let evs = Obs.Recorder.recent () in
  check_int "ring bounded to capacity" 8 (List.length evs);
  let seq =
    List.map
      (fun (e : Obs.event) ->
        match List.assoc_opt "i" e.args with Some (Obs.Int i) -> i | _ -> -1)
      evs
  in
  Alcotest.(check (list int))
    "keeps the last 8, oldest first"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    seq;
  check_bool "dump renders a header and lines" true
    (String.length (Obs.Recorder.dump ()) > 0);
  Obs.Recorder.clear ();
  check_int "clear empties the ring" 0 (List.length (Obs.Recorder.recent ()));
  check_bool "dump of an empty ring is empty" true (Obs.Recorder.dump () = "");
  (* the ring as a sink: span traffic mirrors into it, and installing
     it flips [enabled] on without any output channel *)
  Obs.set_sink (Obs.Recorder.sink ());
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Obs.null)
    (fun () ->
      check_bool "recorder sink enables tracing" true (Obs.enabled ());
      Obs.span "r.span" (fun () -> ()));
  let kinds = List.map (fun (e : Obs.event) -> e.kind) (Obs.Recorder.recent ()) in
  check_bool "span Begin/End captured" true (kinds = [ Obs.Begin; Obs.End ]);
  Obs.Recorder.clear ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let prometheus_exposition () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  Obs.Metrics.incr
    (Obs.Metrics.counter
       (Obs.Metrics.labelled "test.errors" [ ("class", "parse") ]));
  Obs.Metrics.incr (Obs.Metrics.counter "test.errors");
  let h = Obs.Metrics.histogram "test.lat.ns" in
  List.iter (Obs.Metrics.observe h) [ 10; 20; 30; 40 ];
  let text = Obs.Metrics.prometheus () in
  let has needle =
    check_bool (Printf.sprintf "exposition has %S" needle) true
      (contains text needle)
  in
  has "blockc_test_errors_total{class=\"parse\"} 1";
  has "\nblockc_test_errors_total 1";
  has "# TYPE blockc_test_lat_ns summary";
  has "blockc_test_lat_ns{quantile=\"0.5\"}";
  has "blockc_test_lat_ns{quantile=\"0.99\"}";
  has "blockc_test_lat_ns_count 4";
  has "blockc_test_lat_ns_sum 100";
  has "# TYPE blockc_test_lat_ns_max gauge";
  (* label sets of one base name share a single TYPE line *)
  let type_lines = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun l ->
         if contains l "# TYPE blockc_test_errors_total" then incr type_lines);
  check_int "one TYPE line for the labelled family" 1 !type_lines

let prometheus_help_lines () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  Obs.Metrics.incr (Obs.Metrics.counter ~help:"Documented counter." "helpt");
  (* same family, different label set, different help text: first wins *)
  Obs.Metrics.incr
    (Obs.Metrics.counter ~help:"loser"
       (Obs.Metrics.labelled "helpt" [ ("k", "v") ]));
  Obs.Metrics.set_gauge
    (Obs.Metrics.gauge ~help:"A documented\nlevel." "helpt.depth")
    3;
  let text = Obs.Metrics.prometheus () in
  let has needle =
    check_bool (Printf.sprintf "exposition has %S" needle) true
      (contains text needle)
  in
  has "# HELP blockc_helpt_total Documented counter.\n\
       # TYPE blockc_helpt_total counter";
  (* newlines in the doc string are flattened to keep the exposition
     parseable, and the _peak suffix family shares the base's text *)
  has "# HELP blockc_helpt_depth A documented level.\n\
       # TYPE blockc_helpt_depth gauge";
  has "# HELP blockc_helpt_depth_peak A documented level.\n\
       # TYPE blockc_helpt_depth_peak gauge";
  check_bool "first help registration wins" false (contains text "loser");
  check_bool "undocumented families stay bare" false
    (contains text "# HELP blockc_test_")

(* ---- flight recorder: private rings and env-sized capacity ---- *)

let mk_ev i =
  {
    Obs.name = Printf.sprintf "p.%d" i;
    cat = "privring";
    kind = Obs.Instant;
    ts = i;
    depth = 0;
    track = 0;
    trace = 0;
    span_id = 0;
    parent = 0;
    args = [];
  }

let recorder_private_rings () =
  let r = Obs.Recorder.create ~capacity:4 () in
  check_int "capacity honoured" 4 (Obs.Recorder.ring_capacity r);
  check_int "fresh ring is empty" 0 (List.length (Obs.Recorder.recent_of r));
  for i = 1 to 10 do
    Obs.Recorder.record_to r (mk_ev i)
  done;
  let names =
    List.map (fun (e : Obs.event) -> e.name) (Obs.Recorder.recent_of r)
  in
  Alcotest.(check (list string))
    "keeps the last 4, oldest first"
    [ "p.7"; "p.8"; "p.9"; "p.10" ]
    names;
  check_bool "global ring untouched by a private ring" true
    (not
       (List.exists
          (fun (e : Obs.event) -> e.cat = "privring")
          (Obs.Recorder.recent ())));
  (* the sink adapter targets this ring only *)
  Obs.set_sink (Obs.Recorder.sink_of r);
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Obs.null)
    (fun () -> Obs.span "p.span" (fun () -> ()));
  check_bool "sink_of mirrors span traffic into the private ring" true
    (List.exists
       (fun (e : Obs.event) -> e.name = "p.span")
       (Obs.Recorder.recent_of r))

let recorder_env_capacity () =
  Unix.putenv "BLOCKC_RECORDER_CAP" "7";
  Fun.protect ~finally:(fun () -> Unix.putenv "BLOCKC_RECORDER_CAP" "")
  @@ fun () ->
  check_int "BLOCKC_RECORDER_CAP sizes fresh rings" 7
    (Obs.Recorder.ring_capacity (Obs.Recorder.create ()));
  Unix.putenv "BLOCKC_RECORDER_CAP" "0";
  check_int "non-positive value falls back to the default" 256
    (Obs.Recorder.ring_capacity (Obs.Recorder.create ()));
  Unix.putenv "BLOCKC_RECORDER_CAP" "nope";
  check_int "garbage falls back to the default" 256
    (Obs.Recorder.ring_capacity (Obs.Recorder.create ()));
  check_int "explicit capacity overrides the env" 3
    (Obs.Recorder.ring_capacity (Obs.Recorder.create ~capacity:3 ()))

(* ---- continuous profiler (span-stack sampler) ---- *)

let span_stack_gated () =
  if Obs.Sampler.running () then Obs.Sampler.stop ();
  Obs.span "sg.off" (fun () ->
      check_bool "no stack maintained while the sampler is off" true
        (Obs.span_stack () = []));
  Obs.Sampler.start ~hz:50. ();
  Fun.protect ~finally:(fun () ->
      Obs.Sampler.stop ();
      Obs.Sampler.reset ())
  @@ fun () ->
  Obs.span "sg.outer" (fun () ->
      Obs.span "sg.inner" (fun () ->
          Alcotest.(check (list string))
            "stack is innermost-first while sampling"
            [ "sg.inner"; "sg.outer" ] (Obs.span_stack ())));
  check_bool "stack unwinds after the spans close" true (Obs.span_stack () = [])

let sampler_folds_spans () =
  if Obs.Sampler.running () then Obs.Sampler.stop ();
  Obs.Sampler.reset ();
  Obs.Sampler.start ~hz:500. ();
  Fun.protect ~finally:(fun () ->
      Obs.Sampler.stop ();
      Obs.Sampler.reset ())
  @@ fun () ->
  check_bool "sampler reports running" true (Obs.Sampler.running ());
  check_bool "rate taken from start" true (Obs.Sampler.hz () = 500.);
  let hit () =
    List.exists
      (fun (stack, _) -> stack = "samp.outer;samp.inner")
      (Obs.Sampler.folded ())
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (hit ())) && Unix.gettimeofday () < deadline do
    Obs.span "samp.outer" (fun () ->
        Obs.span "samp.inner" (fun () -> Unix.sleepf 0.01))
  done;
  check_bool "sampler caught the nested stack, outermost first" true (hit ());
  check_bool "samples counted" true (Obs.Sampler.samples () > 0);
  check_bool "folded rows carry positive counts" true
    (List.for_all (fun (_, n) -> n > 0) (Obs.Sampler.folded ()));
  check_bool "folded text renders the stack row" true
    (contains (Obs.Sampler.folded_text ()) "samp.outer;samp.inner ");
  (* stop first so no tick races the reset check *)
  Obs.Sampler.stop ();
  check_bool "stopped" false (Obs.Sampler.running ());
  Obs.Sampler.reset ();
  check_int "reset drops accumulated samples" 0 (Obs.Sampler.samples ());
  check_bool "reset drops folded rows" true (Obs.Sampler.folded () = [])

(* ---- per-array cache stats ---- *)

let per_array_stats_sum () =
  let entry = Option.get (Blockability.find "lu") in
  match
    Blockability.simulate ~machine:Arch.small_test
      ~bindings:[ ("N", 48); ("KS", 4) ]
      entry
  with
  | Error m -> Alcotest.fail m
  | Ok r ->
      let sum f l = List.fold_left (fun acc (_, s) -> acc + f s) 0 l in
      check_int "accesses sum to aggregate" r.point_stats.accesses
        (sum (fun (s : Cache.stats) -> s.accesses) r.point_by_array);
      check_int "misses sum to aggregate" r.point_stats.misses
        (sum (fun (s : Cache.stats) -> s.misses) r.point_by_array);
      check_int "transformed accesses sum" r.transformed_stats.accesses
        (sum (fun (s : Cache.stats) -> s.accesses) r.transformed_by_array)

(* ---- bench regression gate ---- *)

(* A time cell of 11 equal samples of [secs]. *)
let secs_cell secs =
  Table.Time (Measure.summarize (List.init 11 (fun _ -> int_of_float (secs *. 1e9))))

let gate_table rows =
  let tbl =
    Table.create ~title:"t"
      [ ("K", Table.Left); ("Time", Table.Right); ("Speedup", Table.Right) ]
  in
  List.iter
    (fun (k, time, sp) -> Table.(add_row tbl [ Text k; time; Text (cell_f sp) ]))
    rows;
  tbl

let gate_doc rows =
  Table.json_of_tables
    [ ("g", gate_table (List.map (fun (k, secs, sp) -> (k, secs_cell secs, sp)) rows)) ]

let gate_passes_and_fails () =
  let baseline = gate_doc [ ("lu", 1.0, 1.8); ("mm", 0.004, 1.5) ] in
  (* same timings: passes *)
  (match Bench_gate.compare ~baseline ~current:baseline with
  | Error m -> Alcotest.fail m
  | Ok v ->
      check_bool "identical run passes" true (Bench_gate.ok v);
      check_int "compared both time cells" 2 v.compared);
  (* artificially slowed table: flagged, with the cell identified *)
  let slowed = gate_doc [ ("lu", 10.0, 1.8); ("mm", 0.004, 1.5) ] in
  (match Bench_gate.compare ~baseline ~current:slowed with
  | Error m -> Alcotest.fail m
  | Ok v -> (
      check_bool "slowdown flagged" false (Bench_gate.ok v);
      match v.Bench_gate.regressions with
      | [ r ] ->
          check_bool "right row" true (String.equal r.row_label "lu");
          check_bool "ratio is 10x" true (r.ratio > 9.0 && r.ratio < 11.0)
      | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l)));
  (* jitter within tolerance (and within slack for the ms cell) *)
  let jitter = gate_doc [ ("lu", 1.4, 1.8); ("mm", 0.005, 1.5) ] in
  match Bench_gate.compare ~baseline ~current:jitter with
  | Error m -> Alcotest.fail m
  | Ok v -> check_bool "jitter tolerated" true (Bench_gate.ok v)

let gate_structural_drift_warns () =
  let baseline =
    Table.json_of_tables
      [
        ("g", gate_table [ ("lu", secs_cell 1.0, 1.8) ]);
        ("h", gate_table [ ("mm", secs_cell 0.5, 1.5) ]);
      ]
  in
  match Bench_gate.compare ~baseline ~current:(gate_doc [ ("lu", 1.0, 1.8) ]) with
  | Error m -> Alcotest.fail m
  | Ok v ->
      check_bool "missing table is only a warning" true (Bench_gate.ok v);
      check_int "one warning" 1 (List.length v.Bench_gate.warnings)

(* A text cell that reads like a time is still text: only summaries
   are compared. *)
let gate_never_compares_text () =
  let doc text =
    Table.json_of_tables
      [ ("g", gate_table [ ("lu", secs_cell 1.0, 1.8); ("mm", Table.Text text, 1.5) ]) ]
  in
  match Bench_gate.compare ~baseline:(doc "4.59s") ~current:(doc "45.9s") with
  | Error m -> Alcotest.fail m
  | Ok v ->
      check_int "only the summary compared" 1 v.compared;
      check_bool "the tenfold text cell is not flagged" true (Bench_gate.ok v)

(* A run in another cell format (strings where the baseline has
   summaries) compares nothing, and that must not pass. *)
let gate_comparing_nothing_fails () =
  let strings =
    Table.json_of_tables
      [ ("g", gate_table [ ("lu", Table.Text "1.00s", 1.8); ("mm", Table.Text "4.00ms", 1.5) ]) ]
  in
  (match Bench_gate.compare ~baseline:(gate_doc [ ("lu", 1.0, 1.8) ]) ~current:strings with
  | Ok _ -> Alcotest.fail "a gate that compared no time cell passed"
  | Error _ -> ());
  (* a baseline with no time cells has nothing to miss *)
  match Bench_gate.compare ~baseline:strings ~current:strings with
  | Error m -> Alcotest.fail m
  | Ok v -> check_int "nothing to compare" 0 v.compared

(* Each drift step says how many cells it compared: a step across a
   change of cell format compares none. *)
let gate_drift_counts_cells () =
  let entry tables = Bench_gate.trajectory_entry ~date:"d" ~label:"l" ~tables in
  let strings =
    Table.json_of_tables [ ("g", gate_table [ ("lu", Table.Text "1.00s", 1.8) ]) ]
  in
  match
    Bench_gate.drift
      [ entry strings; entry (gate_doc [ ("lu", 1.0, 1.8) ]); entry (gate_doc [ ("lu", 2.0, 1.8) ]) ]
  with
  | Error m -> Alcotest.fail m
  | Ok steps ->
      Alcotest.(check (list (pair int int)))
        "compared and drifting per step"
        [ (0, 0); (1, 1) ]
        (List.map
           (fun s ->
             Bench_gate.(s.ds_verdict.compared, List.length s.ds_verdict.regressions))
           steps)

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting and ordering" `Quick span_nesting;
      Alcotest.test_case "span closes on exception" `Quick span_exception_closes;
      Alcotest.test_case "null sink: disabled and allocation-free" `Quick
        null_sink_is_off;
      Alcotest.test_case "jsonl sink round-trips through Json_min" `Quick
        jsonl_round_trip;
      Alcotest.test_case "chrome sink emits a trace_event document" `Quick
        chrome_round_trip;
      Alcotest.test_case "span depth is domain-local (2-domain regression)"
        `Quick two_domain_depth_isolation;
      Alcotest.test_case "wall clock gives non-zero event deltas" `Quick
        wall_clock_advances;
      Alcotest.test_case "chrome sink is coherent across domains" `Quick
        chrome_multi_domain;
      Alcotest.test_case "LU derivation leaves a decision trail" `Quick
        lu_decision_trace;
      Alcotest.test_case "LU pivot records commutativity (§5.2)" `Quick
        lu_pivot_commutativity_trace;
      Alcotest.test_case "LU pivot asks only the questions that can help" `Quick
        lu_pivot_asks_few_questions;
      Alcotest.test_case "Householder records its rejection (§5.3)" `Quick
        householder_rejection_trace;
      Alcotest.test_case "the pipeline records each kernel's steps" `Quick
        pipeline_steps_per_kernel;
      Alcotest.test_case "the pipeline refuses a loop no step blocks" `Quick
        pipeline_refuses_a_plain_loop;
      Alcotest.test_case "Householder point kernel triangularizes" `Quick
        point_householder_triangularizes;
      Alcotest.test_case "metrics counters/histograms/timers" `Quick
        metrics_basics;
      Alcotest.test_case "pool and chunk metrics recorded" `Quick
        pool_metrics_recorded;
      Alcotest.test_case "histogram quantiles (log-linear buckets)" `Quick
        histogram_quantiles;
      Alcotest.test_case "flight recorder ring semantics" `Quick recorder_ring;
      Alcotest.test_case "prometheus text exposition" `Quick
        prometheus_exposition;
      Alcotest.test_case "prometheus HELP lines from ?help docs" `Quick
        prometheus_help_lines;
      Alcotest.test_case "private recorder rings are independent" `Quick
        recorder_private_rings;
      Alcotest.test_case "BLOCKC_RECORDER_CAP sizes fresh rings" `Quick
        recorder_env_capacity;
      Alcotest.test_case "span stack gated on the sampler" `Quick
        span_stack_gated;
      Alcotest.test_case "sampler folds live span stacks" `Quick
        sampler_folds_spans;
      Alcotest.test_case "per-array cache stats sum to aggregate" `Quick
        per_array_stats_sum;
      Alcotest.test_case "bench gate passes/fails correctly" `Quick
        gate_passes_and_fails;
      Alcotest.test_case "bench gate warns on structural drift" `Quick
        gate_structural_drift_warns;
      Alcotest.test_case "bench gate never compares a text cell" `Quick
        gate_never_compares_text;
      Alcotest.test_case "bench gate comparing nothing fails" `Quick
        gate_comparing_nothing_fails;
      Alcotest.test_case "bench drift counts the cells of each step" `Quick
        gate_drift_counts_cells;
    ] )
