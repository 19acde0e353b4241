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

(* ---- pulling tables out of a Json_min value ---- *)

(* A row keeps its cells as written: a string, or a time summary. *)
type table = { id : string; headers : string list; rows : Json_min.t list list }

let tables_of_json doc =
  match Json_min.field "tables" doc with
  | Some (Json_min.Array ts) ->
      let parse_one t =
        match (Json_min.field "id" t, Json_min.field "table" t) with
        | Some (Json_min.String id), Some tbl -> (
            match (Json_min.field "headers" tbl, Json_min.field "rows" tbl) with
            | Some (Json_min.Array headers), Some (Json_min.Array rows) ->
                let headers =
                  List.map (function Json_min.String s -> s | _ -> "") headers
                in
                let rows =
                  List.filter_map
                    (function Json_min.Array cells -> Some cells | _ -> None)
                    rows
                in
                Ok { id; headers; rows }
            | _ -> Error ("table " ^ id ^ ": missing headers or rows"))
        | _ -> Error "table entry without id"
      in
      let rec all = function
        | [] -> Ok []
        | t :: ts -> Result.bind (parse_one t) (fun t -> Result.map (List.cons t) (all ts))
      in
      all ts
  | _ -> Error "not a json_of_tables document: no \"tables\" array"

let slack_s = 0.002

(* Only summaries are compared, by their medians: a text cell (a
   ratio, a count, a label) is never a time. *)
let compare_tables ~tolerance base_tables cur_tables =
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
                    match brow with Json_min.String lbl :: _ -> lbl | _ -> ""
                  in
                  List.iteri
                    (fun ci bcell ->
                      match
                        ( Measure.of_json bcell,
                          Option.bind (List.nth_opt crow ci) Measure.of_json )
                      with
                      | Some base, Some cur ->
                          incr compared;
                          let base_s = Measure.seconds base
                          and cur_s = Measure.seconds cur in
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
      if not (List.exists (fun (bt : table) -> bt.id = ct.id) base_tables) then
        warn "table %s: new in current run (no baseline)" ct.id)
    cur_tables;
  {
    compared = !compared;
    regressions = List.rev !regressions;
    warnings = List.rev !warnings;
  }

let compare ~baseline ~current =
  match (tables_of_json baseline, tables_of_json current) with
  | Error e, _ -> Error ("baseline: " ^ e)
  | _, Error e -> Error ("current: " ^ e)
  | Ok base_tables, Ok cur_tables ->
      let v = compare_tables ~tolerance:1.5 base_tables cur_tables in
      let timed (t : table) =
        List.exists (List.exists (fun c -> Measure.of_json c <> None)) t.rows
      in
      if v.compared = 0 && List.exists timed base_tables then
        Error "the baseline has time cells and this run matched none of them"
      else Ok v

let ok v = v.regressions = []

let report v =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "bench gate: %d time cell(s) compared, %d regression(s)\n"
    v.compared
    (List.length v.regressions);
  List.iter
    (fun r ->
      Printf.bprintf buf
        "  REGRESSION %s row %d (%s) column %S: median %.4fs -> %.4fs (%.2fx)\n"
        r.table r.row r.row_label r.header r.base_s r.cur_s r.ratio)
    v.regressions;
  List.iter (fun w -> Printf.bprintf buf "  warning: %s\n" w) v.warnings;
  Buffer.contents buf

(* ---- perf trajectory ----------------------------------------------- *)

let load_trajectory path =
  if not (Sys.file_exists path) then Ok []
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
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

(* ---- drift: neighbour comparison along the trajectory --------------- *)

type drift_step = { ds_from : string; ds_to : string; ds_verdict : verdict }

let entry_name e =
  let s name = Option.value (Json_min.string_field name e) ~default:"?" in
  s "date" ^ " [" ^ s "label" ^ "]"

let drift entries =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
        let tables e =
          Option.fold ~none:(Error "no \"tables\"") ~some:tables_of_json
            (Json_min.field "tables" e)
        in
        match (tables a, tables b) with
        | Ok base_tables, Ok cur_tables ->
            let v = compare_tables ~tolerance:1.2 base_tables cur_tables in
            go
              ({ ds_from = entry_name a; ds_to = entry_name b; ds_verdict = v }
              :: acc)
              rest
        | Error e, _ | _, Error e ->
            Error (Printf.sprintf "%s -> %s: %s" (entry_name a) (entry_name b) e))
    | [] | [ _ ] -> Ok (List.rev acc)
  in
  go [] entries

let drift_report steps =
  let buf = Buffer.create 256 in
  let drifting = List.filter (fun s -> not (ok s.ds_verdict)) steps in
  Printf.bprintf buf
    "perf drift: %d adjacent step(s) along the trajectory, %d drifting\n"
    (List.length steps) (List.length drifting);
  List.iter
    (fun s ->
      Printf.bprintf buf "  %s -> %s: %d compared, %d drifting\n" s.ds_from
        s.ds_to s.ds_verdict.compared
        (List.length s.ds_verdict.regressions);
      List.iter
        (fun r ->
          Printf.bprintf buf
            "    DRIFT %s row %d (%s) column %S: %.4fs -> %.4fs (%.2fx)\n"
            r.table r.row r.row_label r.header r.base_s r.cur_s r.ratio)
        s.ds_verdict.regressions)
    steps;
  Buffer.contents buf
