type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let cp = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      cp := (!cp * 16) + d;
      advance ()
    done;
    !cp
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    (* opening quote consumed by caller; escapes are decoded, so the
       resulting [String] holds the actual bytes (UTF-8 for \u). *)
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char buf e;
                go ()
            | 'b' ->
                Buffer.add_char buf '\b';
                go ()
            | 'f' ->
                Buffer.add_char buf '\012';
                go ()
            | 'n' ->
                Buffer.add_char buf '\n';
                go ()
            | 'r' ->
                Buffer.add_char buf '\r';
                go ()
            | 't' ->
                Buffer.add_char buf '\t';
                go ()
            | 'u' ->
                let cp = hex4 () in
                let cp =
                  (* Combine a surrogate pair; a lone surrogate is
                     encoded as-is (WTF-8) so round-tripping never
                     loses information. *)
                  if
                    cp >= 0xD800 && cp <= 0xDBFF
                    && !pos + 6 <= n
                    && s.[!pos] = '\\'
                    && s.[!pos + 1] = 'u'
                  then begin
                    let save = !pos in
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    else begin
                      pos := save;
                      cp
                    end
                  end
                  else cp
                in
                add_utf8 buf cp;
                go ()
            | _ -> fail "bad escape character")
        | c when Char.code c < 0x20 -> fail "raw control character in string"
        | c ->
            Buffer.add_char buf c;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    (* RFC 8259 int part: "0", or a nonzero digit followed by digits *)
    (match peek () with
    | Some '0' ->
        advance ();
        (match peek () with
        | Some '0' .. '9' -> fail "leading zero"
        | _ -> ())
    | _ -> digits ());
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Object []
        end
        else begin
          let members = ref [] in
          let rec member () =
            skip_ws ();
            expect '"';
            let key = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            members := (key, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                member ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          member ();
          Object (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Array []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          Array (List.rev !items)
        end
    | Some '"' ->
        advance ();
        String (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Number (number ())
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

let validate s = Result.map (fun _ -> ()) (parse s)

let int n = Number (float_of_int n)
let int_object kvs = Object (List.map (fun (k, v) -> (k, int v)) kvs)

let field name = function
  | Object kvs -> List.assoc_opt name kvs
  | _ -> None

let as_int = function
  | Number f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let string_field name j =
  match field name j with Some (String s) -> Some s | _ -> None

let number_field name j =
  match field name j with Some (Number f) -> Some f | _ -> None

let bool_field name j =
  match field name j with Some (Bool b) -> Some b | _ -> None

let int_field name j = Option.bind (field name j) as_int

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* JSON string escaping on output: the two mandatory classes (quote,
   backslash) plus every control character — a cc stderr or a kernel
   error embedded in an NDJSON response must never break the framing. *)
let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Number f -> number_to_string f
  | String s -> escape_string s
  | Array items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Object fields ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> escape_string k ^ ":" ^ to_string v) fields)
      ^ "}"
