open Helpers

let table_rendering () =
  let t = Table.create ~title:"T" [ ("A", Table.Left); ("B", Table.Right) ] in
  Table.(add_row t [ Text "x"; Text "10" ]);
  Table.(add_row t [ Text "longer"; Text "7" ]);
  let rendered = Table.render t in
  check_bool "has title" true (String.length rendered > 0);
  check_bool "right-aligned" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun line -> line = "x       10"));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.(add_row t [ Text "only one" ]))

let cells () =
  let ms l = Measure.summarize (List.map (fun x -> x * 1_000_000) l) in
  check_string "seconds" "12.46s ±0%"
    (Measure.to_string (Measure.summarize (List.init 11 (fun _ -> 12_460_000_000))));
  check_string "millis, with the spread" "10.00ms ±10%"
    (Measure.to_string (ms [ 9; 10; 10; 10; 11 ]));
  check_string "one sample has no spread" "2.50ms"
    (Measure.to_string (Measure.summarize [ 2_500_000 ]));
  check_string "ratio" "1.80" (Table.cell_f 1.8000001);
  (* a time cell renders as its summary, aligned by display width *)
  let t = Table.create [ ("K", Table.Left); ("Time", Table.Right) ] in
  Table.(add_row t [ Text "a"; Time (ms [ 9; 10; 10; 10; 11 ]) ]);
  Table.(add_row t [ Text "b"; Text "1.00ms" ]);
  check_bool "time cell rendered" true
    (List.mem "a  10.00ms ±10%" (String.split_on_char '\n' (Table.render t)));
  check_bool "aligned under it" true
    (List.mem ("b" ^ String.make 8 ' ' ^ "1.00ms") (String.split_on_char '\n' (Table.render t)))

(* ---- Measure ---- *)

(* bench/e2e's Stats vectors and the values Python's statistics module
   gives for them. *)
let measure_statistics () =
  let close = Alcotest.float 1e-9 in
  let one_to n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "odd median" 2. (Measure.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Measure.median [ 4.; 1.; 3.; 2. ]);
  let q1, q2, q3 = Measure.quartiles (one_to 10) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q2 of 1..10" 5.5 q2;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q2, q3 = Measure.quartiles [ 16.; 1.; 8.; 2.; 4. ] in
  Alcotest.check close "q1 of powers" 1.5 q1;
  Alcotest.check close "q2 of powers" 4. q2;
  Alcotest.check close "q3 of powers" 12. q3;
  let s = Measure.summarize (List.init 10 (fun i -> i + 1)) in
  check_int "n" 10 s.Measure.n;
  Alcotest.check close "summary median" 5.5 s.Measure.median_ns;
  Alcotest.check close "spread" 1. (Measure.spread s);
  match Measure.of_json (Measure.to_json s) with
  | Some s' -> check_bool "json round trip" true (s = s')
  | None -> Alcotest.fail "of_json refused to_json's output"

let measure_setup_outside_clock () =
  let arm () =
    Unix.sleepf 0.05;
    fun () -> Ok ()
  in
  match Measure.run [ arm ] with
  | Ok [ s ] ->
      check_int "samples" Measure.samples s.Measure.n;
      check_bool "median far below the 50 ms set-up" true
        (Measure.seconds s < 0.005)
  | Ok _ -> Alcotest.fail "one arm, one summary"
  | Error m -> Alcotest.fail m

let measure_interleaves () =
  let log = ref [] in
  let arm name () =
    log := ("set-up " ^ name) :: !log;
    fun () ->
      log := ("call " ^ name) :: !log;
      Ok ()
  in
  (match Measure.run [ arm "a"; arm "b"; arm "c" ] with
  | Ok l -> check_int "one summary per arm" 3 (List.length l)
  | Error m -> Alcotest.fail m);
  (* warm-up in arm order, then round r starts with arm r mod 3 *)
  let rotations = [| [ "a"; "b"; "c" ]; [ "b"; "c"; "a" ]; [ "c"; "a"; "b" ] |] in
  let expected =
    [ "a"; "b"; "c" ]
    @ List.concat (List.init Measure.samples (fun r -> rotations.(r mod 3)))
  in
  Alcotest.(check (list string))
    "round-robin with a rotating first arm"
    (List.concat_map (fun a -> [ "set-up " ^ a; "call " ^ a ]) expected)
    (List.rev !log)

let measure_errors () =
  let calls = ref 0 and failing_calls = ref 0 in
  let counted () () =
    incr calls;
    Ok ()
  in
  (* warm-up a, b; round 0 a, b; round 1 starts with b: its third call *)
  let failing () () =
    incr failing_calls;
    if !failing_calls = 3 then Error "boom" else Ok ()
  in
  (match Measure.run [ counted; failing ] with
  | Error m -> check_string "the arm's error" "boom" m
  | Ok _ -> Alcotest.fail "an arm's Error did not end the measurement");
  check_int "nothing runs after the error" 2 !calls;
  match Measure.run [ counted; (fun () -> failwith "no set-up") ] with
  | Error m -> check_string "a set-up's exception" "Failure(\"no set-up\")" m
  | Ok _ -> Alcotest.fail "a set-up's exception did not end the measurement"

let table_json_roundtrip () =
  (* the --json payload must survive a real parse, including escapes *)
  let t =
    Table.create ~title:"quotes \" and \\ and\nnewlines"
      [ ("A \"col\"", Table.Left); ("B", Table.Right) ]
  in
  Table.(add_row t [ Text "x\ty"; Text "10" ]);
  Table.(add_row t [ Text "plain"; Time (Measure.summarize [ 1; 2; 3 ]) ]);
  (match Json_min.parse (Json_min.to_string (Table.to_json t)) with
  | Ok v when v = Table.to_json t -> ()
  | Ok _ -> Alcotest.fail "to_json does not round-trip"
  | Error m -> Alcotest.failf "to_json not parseable: %s" m);
  let doc = Json_min.to_string (Table.json_of_tables [ ("t1", t); ("par", t) ]) in
  match Json_min.parse doc with
  | Error m -> Alcotest.failf "json_of_tables not parseable: %s" m
  | Ok (Json_min.Object [ ("tables", Json_min.Array entries) ]) ->
      check_int "two tables" 2 (List.length entries)
  | Ok _ -> Alcotest.fail "unexpected document shape"

let json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json_min.validate s with
      | Ok () -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "01"; "1 2"; "nul";
      "{\"a\":1,}"; "\"bad \\x escape\"";
    ];
  List.iter
    (fun s ->
      match Json_min.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "rejected valid %S: %s" s m)
    [
      "null"; "-1.5e-3"; "[]"; "{}"; " [ {\"a\" : [true, false]} ] ";
      "\"esc \\\\ \\u00e9\"";
    ]

let json_escape_roundtrip () =
  (* Escaping happens on output: any byte string survives
     String -> to_string -> parse, including control characters that
     would otherwise break NDJSON framing. *)
  let cases =
    [
      "plain";
      "quote \" backslash \\ slash /";
      "newline \n tab \t return \r";
      "backspace \b formfeed \012";
      "nul \000 esc \027 unit-sep \031";
      "cc: error: unterminated #if\n  12 | {\"nested\": true}\\";
      "";
    ]
  in
  List.iter
    (fun s ->
      let doc = Json_min.to_string (Json_min.Object [ (s, Json_min.String s) ]) in
      check_bool "one line" false (String.contains doc '\n');
      match Json_min.parse doc with
      | Ok (Json_min.Object [ (k, Json_min.String v) ]) ->
          check_string "key round-trips" s k;
          check_string "value round-trips" s v
      | Ok _ -> Alcotest.failf "unexpected shape for %S" s
      | Error m -> Alcotest.failf "re-parse of %S failed: %s" s m)
    cases;
  (* \u escapes decode to UTF-8 (with surrogate pairs combined) and
     re-escape only where JSON requires it. *)
  (match Json_min.parse "\"\\u00e9 \\u0001 \\ud83d\\ude00\"" with
  | Ok (Json_min.String v) ->
      check_string "utf-8 decode" "\xc3\xa9 \x01 \xf0\x9f\x98\x80" v
  | Ok _ | Error _ -> Alcotest.fail "\\u parse failed");
  match Json_min.parse "{\"a\\nb\":1}" with
  | Ok (Json_min.Object [ (k, _) ]) -> check_string "key decoded" "a\nb" k
  | Ok _ | Error _ -> Alcotest.fail "escaped key parse failed"

let lcg_determinism () =
  let a = Lcg.create 42 and b = Lcg.create 42 in
  let xs = List.init 50 (fun _ -> Lcg.int a 1000) in
  let ys = List.init 50 (fun _ -> Lcg.int b 1000) in
  check_bool "same seed, same stream" true (xs = ys);
  let c = Lcg.create 43 in
  let zs = List.init 50 (fun _ -> Lcg.int c 1000) in
  check_bool "different seed, different stream" true (xs <> zs)

let lcg_split_independent () =
  let a = Lcg.create 7 in
  let b = Lcg.split a in
  let xs = List.init 20 (fun _ -> Lcg.int a 100) in
  let ys = List.init 20 (fun _ -> Lcg.int b 100) in
  check_bool "split streams differ" true (xs <> ys)

(* The stream as it was when the state was a boxed [int64]: the first
   8 draws (all 48 bits each) of [create 42] and of its split. *)
let lcg_golden_stream () =
  let draws t = List.init 8 (fun _ -> Lcg.int t (1 lsl 48)) in
  let ints = Alcotest.(list int) in
  Alcotest.check ints "create 42"
    [
      175319072504813; 260315564617587; 32869277821308; 157706396718106;
      201340447291176; 115863284117990; 149985296185170; 115575942882951;
    ]
    (draws (Lcg.create 42));
  Alcotest.check ints "split (create 42)"
    [
      206061716511045; 24790149547242; 184792381089401; 129749526101633;
      197395984760219; 91693097653406; 235143891487615; 40504362302057;
    ]
    (draws (Lcg.split (Lcg.create 42)))

let lcg_fill_matches_draws () =
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun (scale, shift) ->
      let a = Array.make 40 nan in
      Lcg.fill (Lcg.create 9) a ~pos:3 ~len:30 ~scale ~shift;
      let rng = Lcg.create 9 in
      let b =
        Array.init 40 (fun i ->
            if i < 3 || i >= 33 then nan else Lcg.float rng scale -. shift)
      in
      check_bool "same bits as the loop" true (bits a = bits b))
    [ (1.0, 0.0); (1.0, 0.5); (2.0, 1.0); (0.5, -0.5) ];
  Alcotest.check_raises "range outside the array" (Invalid_argument "Lcg.fill")
    (fun () -> Lcg.fill (Lcg.create 1) (Array.make 4 0.0) ~pos:2 ~len:3 ~scale:1.0 ~shift:0.0)

let suite =
  ( "support",
    [
      case "table rendering" table_rendering;
      case "table cells" cells;
      case "table json roundtrip" table_json_roundtrip;
      case "measure: statistics match bench/e2e's Stats" measure_statistics;
      case "measure: set-up runs outside the clock" measure_setup_outside_clock;
      case "measure: arms interleave, the first arm rotating" measure_interleaves;
      case "measure: an arm's error ends the measurement" measure_errors;
      case "json_min rejects malformed" json_rejects_malformed;
      case "json_min escapes on output (round-trip)" json_escape_roundtrip;
      case "lcg determinism" lcg_determinism;
      case "lcg split" lcg_split_independent;
      case "lcg golden stream" lcg_golden_stream;
      case "lcg fill equals per-element draws" lcg_fill_matches_draws;
      qcase "lcg int in range"
        QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 99999))
        (fun (bound, seed) ->
          let rng = Lcg.create seed in
          let x = Lcg.int rng bound in
          x >= 0 && x < bound);
      qcase "lcg uniform in [0,1)" QCheck2.Gen.(int_range 0 99999) (fun seed ->
          let rng = Lcg.create seed in
          let x = Lcg.uniform rng in
          x >= 0.0 && x < 1.0);
    ] )
