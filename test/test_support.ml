open Helpers

let table_rendering () =
  let t = Table.create ~title:"T" [ ("A", Table.Left); ("B", Table.Right) ] in
  Table.add_row t [ "x"; "10" ];
  Table.add_row t [ "longer"; "7" ];
  let rendered = Table.render t in
  check_bool "has title" true (String.length rendered > 0);
  check_bool "right-aligned" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun line -> line = "x       10"));
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only one" ])

let cells () =
  check_string "seconds" "12.46s" (Table.cell_s 12.46);
  check_string "millis" "2.50ms" (Table.cell_s 0.0025);
  check_string "ratio" "1.80" (Table.cell_f 1.8000001)

let table_json_roundtrip () =
  (* the --json payload must survive a real parse, including escapes *)
  let t =
    Table.create ~title:"quotes \" and \\ and\nnewlines"
      [ ("A \"col\"", Table.Left); ("B", Table.Right) ]
  in
  Table.add_row t [ "x\ty"; "10" ];
  Table.add_row t [ "plain"; "1.80" ];
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
