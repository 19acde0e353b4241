type align = Left | Right
type cell = Text of string | Time of Measure.summary

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : cell list list; (* reversed *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let text = function Text s -> s | Time m -> Measure.to_string m

(* Display width: UTF-8 continuation bytes (a time's "±") take no
   column. *)
let width s =
  String.fold_left
    (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
    0 s

let pad align w s =
  let n = width s in
  if n >= w then s
  else
    match align with
    | Left -> s ^ String.make (w - n) ' '
    | Right -> String.make (w - n) ' ' ^ s

let render t =
  let rows = List.rev_map (List.map text) t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (width (List.nth row i)))
          (width h) rows)
      t.headers
  in
  let buf = Buffer.create 256 in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (String.length title) '=');
      Buffer.add_char buf '\n'
  | None -> ());
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        let align = List.nth t.aligns i in
        Buffer.add_string buf (pad align (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  emit_row (List.map (fun w -> String.make w '-') widths);
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)

let to_json t =
  let array f l = Json_min.Array (List.map f l) in
  let cell = function Text s -> Json_min.String s | Time m -> Measure.to_json m in
  Json_min.Object
    [
      ( "title",
        match t.title with Some s -> Json_min.String s | None -> Json_min.Null );
      ("headers", array (fun h -> Json_min.String h) t.headers);
      ("rows", Json_min.Array (List.rev_map (array cell) t.rows));
    ]

let json_of_tables tables =
  Json_min.Object
    [
      ( "tables",
        Json_min.Array
          (List.map
             (fun (id, t) ->
               Json_min.Object [ ("id", Json_min.String id); ("table", to_json t) ])
             tables) );
    ]

let cell_f r = Printf.sprintf "%.2f" r
