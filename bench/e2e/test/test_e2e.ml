open Bench_e2e
module J = Json_min

let close = Alcotest.float 1e-9

(* ---- stats -------------------------------------------------------- *)

let fl = List.map float_of_int
let one_to n = fl (List.init n (fun i -> i + 1))

let test_order_statistics () =
  Alcotest.check close "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (one_to 10) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0] *)
  let q1, q2, q3 = Stats.quartiles [ 16.; 1.; 8.; 2.; 4. ] in
  Alcotest.check close "q1 odd" 1.5 q1;
  Alcotest.check close "q2 odd" 4. q2;
  Alcotest.check close "q3 odd" 12. q3;
  Alcotest.check close "spread" (5.5 /. 5.5) (Stats.spread (one_to 10));
  Alcotest.check close "p90 of 1..100" 90.1
    (match Stats.p90 (one_to 100) with Ok v -> v | Error m -> Alcotest.fail m);
  Alcotest.check close "geomean" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  Alcotest.check close "geomean of one" 3. (Stats.geomean [ 3. ])

let test_p90_needs_100 () =
  match Stats.p90 (one_to 99) with
  | Ok v -> Alcotest.failf "p90 of 99 samples was computed: %g" v
  | Error reason ->
      Alcotest.(check bool) "reason names the sample count" true
        (String.starts_with ~prefix:"99 samples" reason)

let test_bounds () =
  let ok better ~rel ~floor ~base ~head = Stats.within better ~rel ~floor ~base ~head in
  let check name want got = Alcotest.(check bool) name want got in
  (* relative bound *)
  check "10% slower passes" true (ok Lower ~rel:0.1 ~floor:0. ~base:10. ~head:10.9);
  check "12% slower fails" false (ok Lower ~rel:0.1 ~floor:0. ~base:10. ~head:11.2);
  check "9% less throughput passes" true (ok Higher ~rel:0.1 ~floor:0. ~base:100. ~head:91.);
  check "11% less throughput fails" false (ok Higher ~rel:0.1 ~floor:0. ~base:100. ~head:89.);
  check "faster always passes" true (ok Lower ~rel:0. ~floor:0. ~base:10. ~head:1.);
  (* the absolute floor applies when it is larger than the relative bound *)
  check "0.09 ms worse on 0.4 ms passes under the floor" true
    (ok Lower ~rel:0.1 ~floor:0.1 ~base:0.4 ~head:0.49);
  check "0.11 ms worse on 0.4 ms fails" false (ok Lower ~rel:0.1 ~floor:0.1 ~base:0.4 ~head:0.51);
  check "relative wins on a large base" false (ok Lower ~rel:0.1 ~floor:0.1 ~base:10. ~head:11.2);
  (* fail_frac: a zero absolute bound *)
  let ff = Spec.fail_frac in
  let fail_ok ~base ~head = ok ff.Spec.better ~rel:ff.Spec.bound ~floor:ff.Spec.floor ~base ~head in
  check "no failures" true (fail_ok ~base:0. ~head:0.);
  check "any new failure regresses" false (fail_ok ~base:0. ~head:0.001)

(* ---- failure accounting -------------------------------------------- *)

(* A stand-in daemon: an error response, a wrong digest, then silence. *)
let fake_daemon =
  {|read l; echo '{"ok":false,"error":"boom"}'; read l; echo '{"ok":true,"digest":"0000"}'; read l; exec sleep 30|}

let test_failures_counted () =
  let tl = Client.tally () in
  let d =
    Client.spawn ~argv:[| "/bin/sh"; "-c"; fake_daemon |] ~env:(Unix.environment ())
      ~stderr_path:"/dev/null"
  in
  let want = Client.Digests [ "ffff" ] in
  let call () = ignore (Client.call ~timeout_s:0.5 tl ~timed:true d "{}" want) in
  call ();
  call ();
  call ();
  Alcotest.(check bool) "a silent daemon is killed" false d.Client.alive;
  call ();
  Alcotest.(check int) "attempted" 4 tl.Client.attempted;
  Alcotest.(check int) "error, mismatch, missing, dead daemon all fail" 4 tl.Client.failed;
  Alcotest.(check int) "each failure stays a latency sample" 4 (List.length tl.Client.samples);
  List.iter
    (fun ns ->
      Alcotest.(check int) "a failed sample sits at the timeout"
        (int_of_float (Client.default_timeout_s *. 1e9))
        ns)
    tl.Client.samples;
  let reasons = List.rev tl.Client.errors in
  Alcotest.(check string) "error response" "error response: boom" (List.nth reasons 0);
  Alcotest.(check bool) "mismatch" true
    (String.starts_with ~prefix:"digest mismatch" (List.nth reasons 1));
  Alcotest.(check string) "missing" "no response within the timeout" (List.nth reasons 2)

let test_pass_counted () =
  let tl = Client.tally () in
  let d =
    Client.spawn ~argv:[| "/bin/sh"; "-c"; {|read l; echo '{"ok":true,"digests":["a","b"]}'|} |]
      ~env:(Unix.environment ()) ~stderr_path:"/dev/null"
  in
  let ns = Client.call tl ~timed:true d "{}" (Client.Digests [ "a"; "b" ]) in
  Client.kill d;
  Alcotest.(check int) "no failure" 0 tl.Client.failed;
  Alcotest.(check (list int)) "the measured latency is the sample" [ ns ] tl.Client.samples

(* ---- reference digests -------------------------------------------- *)

let pool = lazy (Pool.create ~domains:1 ())

let test_reference_matches_serve () =
  let dir = Filename.concat (Sys.getcwd ()) "jitcache" in
  Unix.putenv "BLOCKC_JIT_CACHE" dir;
  let bindings = [ ("N", 24) ] in
  let backends =
    List.filter (fun (module B : Backend.S) -> Result.is_ok (B.available ())) Backend.all
  in
  Alcotest.(check bool) "some backend is available" true (backends <> []);
  List.iter
    (fun (module B : Backend.S) ->
      List.iter
        (fun variant ->
          let r =
            { Workload.kernel = "lu"; variant; backend = B.tag; items = [ bindings ]; batch = false }
          in
          let line = Session.request_line ~id:1 ~data_seed:7 r in
          let resp, _ = Serve.handle_line ~exec_pool:(Lazy.force pool) line in
          let want = Reference.compute ~kernel:"lu" ~variant ~bindings ~seed:7 in
          match Client.judge (Client.Digests [ want ]) (Client.Line resp) with
          | Ok () -> ()
          | Error m -> Alcotest.failf "%s/%s: %s (%s)" variant B.tag m resp)
        [ "point"; "transformed" ])
    backends

(* ---- workloads ------------------------------------------------------ *)

let test_streams () =
  let take w seed = Workload.cycle w (Workload.rng ~seed) in
  List.iter
    (fun w ->
      Alcotest.(check bool) (Workload.name w ^ " is seeded") true (take w 3 = take w 3))
    Workload.all;
  Alcotest.(check bool) "seeds differ" true (take Workload.Hot_exec 1 <> take Workload.Hot_exec 2);
  Alcotest.(check int) "catalogue" 38 (List.length Workload.catalogue);
  Alcotest.(check int) "hot-exec cycle" 20 (List.length (take Workload.Hot_exec 1));
  List.iter
    (fun (r : Workload.req) ->
      Alcotest.(check int) "batch length" Workload.batch_len (List.length r.items);
      List.iter
        (fun b ->
          Alcotest.(check bool) "batch size in the set" true
            (List.mem (List.assoc "N" b) Workload.batch_sizes))
        r.items)
    (take Workload.Batch_fanout 5);
  (* every request the stream can make has a reference item *)
  List.iter
    (fun w ->
      let items = Workload.reference_items w in
      let rng = Workload.rng ~seed:11 in
      for _ = 1 to 3 do
        List.iter
          (fun (r : Workload.req) ->
            List.iter
              (fun b ->
                Alcotest.(check bool) "reference exists" true
                  (List.mem (r.kernel, r.variant, b) items))
              r.items)
          (Workload.cycle w rng)
      done)
    Workload.all

(* ---- BENCHMARK.json ------------------------------------------------- *)

let test_benchmark_json () =
  let j =
    match Option.map J.parse (Fs.read_file "../../../BENCHMARK.json") with
    | Some (Ok j) -> j
    | _ -> Alcotest.fail "BENCHMARK.json missing or malformed"
  in
  let field = Client.field in
  let str j k = match field j k with Some (J.String s) -> s | _ -> "" in
  let arr k = match field j k with Some (J.Array l) -> l | _ -> [] in
  Alcotest.(check (list string)) "workloads"
    (List.map Workload.name Workload.all)
    (List.map (fun w -> str w "name") (arr "workloads"));
  let metric_list k = List.map (fun m -> (str m "name", str m "unit", str m "better")) (arr k) in
  let spec l = List.map (fun (m : Spec.metric) -> (m.name, m.unit_, Stats.better_name m.better)) l in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (spec Spec.e2e) (metric_list "end_to_end");
  Alcotest.check t "per_layer" (spec Spec.per_layer) (metric_list "per_layer");
  List.iter2
    (fun (m : Spec.metric) j ->
      Alcotest.check close (m.name ^ " bound") m.bound
        (match field j "bound" with Some (J.Number b) -> b | _ -> nan))
    Spec.e2e (arr "end_to_end")

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "order statistics on fixed vectors" `Quick test_order_statistics;
          Alcotest.test_case "p90 below 100 samples is missing" `Quick test_p90_needs_100;
          Alcotest.test_case "bounds: relative, floor, zero absolute" `Quick test_bounds;
        ] );
      ( "client",
        [
          Alcotest.test_case "failures count and stay samples" `Quick test_failures_counted;
          Alcotest.test_case "a passing request is one sample" `Quick test_pass_counted;
        ] );
      ( "reference",
        [ Alcotest.test_case "interpreter digest equals serve's" `Quick test_reference_matches_serve ] );
      ( "spec",
        [
          Alcotest.test_case "seeded streams" `Quick test_streams;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick test_benchmark_json;
        ] );
    ]
