type align = Left | Right

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reversed *)
}

let create ?title columns =
  { title; headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
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

let strings cells = Json_min.Array (List.map (fun c -> Json_min.String c) cells)

let to_json t =
  Json_min.Object
    [
      ( "title",
        match t.title with Some s -> Json_min.String s | None -> Json_min.Null );
      ("headers", strings t.headers);
      ("rows", Json_min.Array (List.rev_map strings t.rows));
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

let cell_s secs =
  if secs >= 10.0 then Printf.sprintf "%.2fs" secs
  else if secs >= 0.1 then Printf.sprintf "%.3fs" secs
  else Printf.sprintf "%.2fms" (secs *. 1000.0)

let cell_f r = Printf.sprintf "%.2f" r
