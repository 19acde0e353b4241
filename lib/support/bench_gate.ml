type regression = {
  table : string;
  row : int;
  row_label : string;
  header : string;
  base_s : float;
  cur_s : float;
  ratio : float;
}

type verdict = {
  compared : int;
  regressions : regression list;
  warnings : string list;
}

let parse_time_cell s =
  let s = String.trim s in
  let strip suffix =
    let n = String.length s and m = String.length suffix in
    if n > m && String.equal (String.sub s (n - m) m) suffix then
      float_of_string_opt (String.trim (String.sub s 0 (n - m)))
    else None
  in
  (* longest suffixes first: "ms" also ends in "s" *)
  match strip "ms" with
  | Some v -> Some (v /. 1e3)
  | None -> (
      match strip "us" with
      | Some v -> Some (v /. 1e6)
      | None -> (
          match strip "ns" with
          | Some v -> Some (v /. 1e9)
          | None -> strip "s"))

(* ---- pulling tables out of a Json_min value ---- *)

type table = { id : string; headers : string list; rows : string list list }

let as_string_list = function
  | Json_min.Array vs ->
      Some (List.map (function Json_min.String s -> s | _ -> "") vs)
  | _ -> None

let tables_of_json doc =
  match Json_min.field "tables" doc with
  | Some (Json_min.Array ts) ->
      let parse_one t =
        match (Json_min.field "id" t, Json_min.field "table" t) with
        | Some (Json_min.String id), Some tbl -> (
            let headers =
              Option.bind (Json_min.field "headers" tbl) as_string_list
            in
            match (headers, Json_min.field "rows" tbl) with
            | Some headers, Some (Json_min.Array rows) ->
                let rows = List.filter_map as_string_list rows in
                Ok { id; headers; rows }
            | _ -> Error ("table " ^ id ^ ": missing headers or rows"))
        | _ -> Error "table entry without id"
      in
      List.fold_left
        (fun acc t ->
          match (acc, parse_one t) with
          | Error _, _ -> acc
          | _, (Error _ as e) -> e
          | Ok l, Ok t -> Ok (t :: l))
        (Ok []) ts
      |> Result.map List.rev
  | _ -> Error "not a json_of_tables document: no \"tables\" array"

let compare ?(tolerance = 1.5) ?(slack_s = 0.002) ~baseline ~current () =
  match (tables_of_json baseline, tables_of_json current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok base_tables, Ok cur_tables ->
      let warnings = ref [] and regressions = ref [] and compared = ref 0 in
      let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
      List.iter
        (fun (bt : table) ->
          match List.find_opt (fun (ct : table) -> ct.id = bt.id) cur_tables with
          | None -> warn "table %s: in baseline but not in current run" bt.id
          | Some ct ->
              if List.length bt.rows <> List.length ct.rows then
                warn "table %s: %d baseline rows vs %d current rows" bt.id
                  (List.length bt.rows) (List.length ct.rows);
              List.iteri
                (fun ri brow ->
                  match List.nth_opt ct.rows ri with
                  | None -> ()
                  | Some crow ->
                      let row_label =
                        match brow with lbl :: _ -> lbl | [] -> ""
                      in
                      List.iteri
                        (fun ci bcell ->
                          match
                            ( parse_time_cell bcell,
                              Option.bind (List.nth_opt crow ci)
                                parse_time_cell )
                          with
                          | Some base_s, Some cur_s ->
                              incr compared;
                              if cur_s > (base_s *. tolerance) +. slack_s then
                                regressions :=
                                  {
                                    table = bt.id;
                                    row = ri;
                                    row_label;
                                    header =
                                      Option.value ~default:""
                                        (List.nth_opt bt.headers ci);
                                    base_s;
                                    cur_s;
                                    ratio = cur_s /. base_s;
                                  }
                                  :: !regressions
                          | _ -> ())
                        brow)
                bt.rows)
        base_tables;
      List.iter
        (fun (ct : table) ->
          if not (List.exists (fun (bt : table) -> bt.id = ct.id) base_tables)
          then warn "table %s: new in current run (no baseline)" ct.id)
        cur_tables;
      Ok
        {
          compared = !compared;
          regressions = List.rev !regressions;
          warnings = List.rev !warnings;
        }

let ok v = v.regressions = []

let report v =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "bench gate: %d time cell(s) compared, %d regression(s)\n"
    v.compared
    (List.length v.regressions);
  List.iter
    (fun r ->
      Printf.bprintf buf
        "  REGRESSION %s row %d (%s) column %S: %.4fs -> %.4fs (%.2fx)\n"
        r.table r.row r.row_label r.header r.base_s r.cur_s r.ratio)
    v.regressions;
  List.iter (fun w -> Printf.bprintf buf "  warning: %s\n" w) v.warnings;
  Buffer.contents buf

(* ---- perf trajectory ----------------------------------------------- *)

let load_trajectory path =
  if not (Sys.file_exists path) then Ok []
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if String.trim text = "" then Ok []
    else
      match Json_min.parse text with
      | Ok (Json_min.Array entries) -> Ok entries
      | Ok _ -> Error (path ^ ": trajectory must be a JSON array of run entries")
      | Error m -> Error (path ^ ": " ^ m)

let trajectory_entry ~date ~label ~tables =
  Json_min.Object
    [
      ("date", Json_min.String date);
      ("label", Json_min.String label);
      ("tables", tables);
    ]

let append_trajectory_entry ~date ~label ~tables entries =
  Json_min.to_string
    (Json_min.Array (entries @ [ trajectory_entry ~date ~label ~tables ]))
  ^ "\n"

(* ---- drift: neighbour comparison along the trajectory --------------- *)

type drift_step = { ds_from : string; ds_to : string; ds_verdict : verdict }

let entry_name e =
  let s name = Option.value (Json_min.string_field name e) ~default:"?" in
  s "date" ^ " [" ^ s "label" ^ "]"

let drift ?(tolerance = 1.2) ?(slack_s = 0.002) entries =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
        match (Json_min.field "tables" a, Json_min.field "tables" b) with
        | Some baseline, Some current -> (
            match compare ~tolerance ~slack_s ~baseline ~current () with
            | Error e ->
                Error
                  (Printf.sprintf "%s -> %s: %s" (entry_name a) (entry_name b)
                     e)
            | Ok v ->
                go
                  ({ ds_from = entry_name a;
                     ds_to = entry_name b;
                     ds_verdict = v }
                  :: acc)
                  rest)
        | _ ->
            Error ("trajectory entry " ^ entry_name a ^ ": no \"tables\""))
    | [] | [ _ ] -> Ok (List.rev acc)
  in
  go [] entries

let drift_report steps =
  let buf = Buffer.create 256 in
  let drifting =
    List.filter (fun s -> not (ok s.ds_verdict)) steps
  in
  Printf.bprintf buf
    "perf drift: %d adjacent step(s) along the trajectory, %d drifting\n"
    (List.length steps) (List.length drifting);
  List.iter
    (fun s ->
      List.iter
        (fun r ->
          Printf.bprintf buf
            "  DRIFT %s -> %s: %s row %d (%s) column %S: %.4fs -> %.4fs \
             (%.2fx)\n"
            s.ds_from s.ds_to r.table r.row r.row_label r.header r.base_s
            r.cur_s r.ratio)
        s.ds_verdict.regressions)
    drifting;
  Buffer.contents buf
