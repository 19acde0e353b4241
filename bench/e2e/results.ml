(* Result files: raw integer-ns samples, the metrics and the
   environment, as numbers, never as formatted strings. *)

module J = Json_min

let num f = J.Number f
let int n = J.Number (float_of_int n)
let ints l = J.Array (List.map int l)

let metric_json (name, v) =
  let unit_ = match Spec.find name with Some m -> m.Spec.unit_ | None -> "" in
  (name, J.Object [ ("value", num v); ("unit", J.String unit_) ])

(* The line the benchmark prints last. *)
let summary ~(tally : Client.tally) metrics =
  J.Object
    [
      ("correct", J.Bool (Client.correct tally));
      ("attempted", int tally.Client.attempted);
      ("failed", int tally.Client.failed);
      ("metrics", J.Object (List.map metric_json metrics));
    ]

let file ~workload ~seed ~trace ~seconds ~env ~ref_s ~(tally : Client.tally) ~metrics ~extra =
  J.Object
    ([
       ("schema", J.String "blockc-e2e/1");
       ("workload", J.String (Workload.name workload));
       ("seed", int seed);
       ("data_seed", int (Workload.data_seed seed));
       ("trace", int (if trace then 1 else 0));
       ("seconds", num seconds);
       ("env", env);
       ("ref_s", num ref_s);
       ("correct", J.Bool (Client.correct tally));
       ("attempted", int tally.Client.attempted);
       ("failed", int tally.Client.failed);
       ("errors", J.Array (List.rev_map (fun e -> J.String e) tally.Client.errors));
       ("samples_ns", ints (List.rev tally.Client.samples));
       ("metrics", J.Object (List.map metric_json metrics));
     ]
    @ extra)

(* ---- reading them back -------------------------------------------- *)

type run = {
  workload : string;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let field = Client.field

let load path =
  match Option.map J.parse (Fs.read_file path) with
  | Some (Ok j)
    when field j "schema" = Some (J.String "blockc-e2e/1")
         && field j "trace" = Some (J.Number 0.) ->
      let i k = match field j k with Some (J.Number x) -> int_of_float x | _ -> 0 in
      let values =
        match field j "metrics" with
        | Some (J.Object kvs) ->
            List.filter_map
              (fun (k, v) -> match field v "value" with Some (J.Number x) -> Some (k, x) | _ -> None)
              kvs
        | _ -> []
      in
      Some
        {
          workload = (match field j "workload" with Some (J.String w) -> w | _ -> "");
          attempted = i "attempted";
          failed = i "failed";
          values;
        }
  | _ -> None

(* A set of runs: a directory of result files, or one file. *)
let load_set path =
  let paths =
    if Sys.is_directory path then
      List.filter_map
        (fun f -> if Filename.check_suffix f ".json" then Some (Filename.concat path f) else None)
        (List.sort compare (Fs.files path))
    else [ path ]
  in
  List.filter_map load paths
