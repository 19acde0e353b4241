(* The traced run: the same prefix of a stream replayed three times from
   the same starting state (empty cache, or the filled one for
   restart), each in a fresh process so memos start empty:

   - layers: in-process, one span around each layer's public call;
   - handle: in-process, [Serve.handle_line] per request;
   - daemon: the real daemon over its pipe.

   Per request, daemon latency = layer spans + the replay's own glue
   + serve overhead (handle - layers) + daemon residual (daemon -
   handle), so the layers account for the latency and what they do
   not explain is printed as two named residuals. *)

module J = Json_min

let field = Client.field
let num_field j k = match field j k with Some (J.Number x) -> x | _ -> 0.
let list_field j k = match field j k with Some (J.Array l) -> l | _ -> []
let nums j k = List.map (function J.Number x -> x | _ -> 0.) (list_field j k)

(* Run [exe replay] in a fresh process; its JSON output, or the reason
   it produced none. *)
let child (ctx : Session.ctx) ~exe ~mode w ~seed ~cache =
  let dir = Session.fresh_dir ctx ("replay-" ^ mode) in
  let out = Filename.concat dir "out.json" in
  let log = Unix.openfile (Filename.concat dir "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [| exe; "replay"; "--mode"; mode; "--workload"; Workload.name w; "--seed"; string_of_int seed; "--out"; out |]
  in
  let pid =
    Unix.create_process_env exe argv (Session.child_env ~work:ctx.Session.work ~cache) null log log
  in
  Unix.close null;
  Unix.close log;
  let _, status = Unix.waitpid [] pid in
  match (status, Fs.read_file out) with
  | Unix.WEXITED 0, Some s -> (
      match J.parse s with Ok j -> Ok j | Error e -> Error ("replay output: " ^ e))
  | _ -> Error (Printf.sprintf "replay --mode %s failed; see %s/log" mode dir)

type replay = {
  spans : Span.t list;  (** layers replay *)
  requests : Span.t list;  (** its request roots, in order *)
  handle : (int * int) list;  (** (start, ns) per request *)
  daemon : (int * int) list;
  layers_json : J.t;
}

let run (ctx : Session.ctx) ~exe w ~seed =
  Session.warm_toolchains ctx;
  let prefix = Workload.traced_prefix w ~seed in
  let cache =
    match w with
    | Workload.Restart ->
        let c = Session.filled_cache ctx (Workload.cycle w (Workload.rng ~seed)) in
        fun () -> c
    | _ -> fun () -> Session.fresh_dir ctx "cache"
  in
  let tally = ctx.Session.tally in
  let fail m = Client.record tally ~timed:false ~ns:0 (Error m) in
  let layers = child ctx ~exe ~mode:"layers" w ~seed ~cache:(cache ()) in
  let handle = child ctx ~exe ~mode:"handle" w ~seed ~cache:(cache ()) in
  let daemon =
    let d, _ = Session.start ctx ~cache:(cache ()) ~mix:(Workload.mix w) in
    let lat = List.map (fun r -> let t0 = Client.now_ns () in (t0, Session.send ~timed:false ctx d r)) prefix in
    Client.shutdown d;
    lat
  in
  match (layers, handle) with
  | Error m, _ | _, Error m ->
      List.iter (fun _ -> fail m) prefix;
      None
  | Ok lj, Ok hj ->
      (* Judge both replays against the interpreter references. *)
      List.iter2
        (fun r j ->
          let outcome =
            match field j "error" with
            | Some (J.String m) -> Error m
            | _ ->
                let got = List.map (function J.String d -> d | _ -> "") (list_field j "digests") in
                if Client.Digests got = Session.expected ctx r then Ok ()
                else Error "layers replay: digest mismatch against the interpreter reference"
          in
          Client.record tally ~timed:false ~ns:0 outcome)
        prefix (list_field lj "requests");
      List.iter
        (fun j ->
          let resp = match j with J.String s -> s | _ -> "" in
          Client.record tally ~timed:false ~ns:0 (Client.judge Client.Compiled (Client.Line resp)))
        (list_field hj "setup");
      let handle =
        List.map2
          (fun r j ->
            let resp = match field j "response" with Some (J.String s) -> s | _ -> "" in
            Client.record tally ~timed:false ~ns:0
              (Client.judge (Session.expected ctx r) (Client.Line resp));
            let t0 = int_of_float (num_field j "t0") in
            (t0, int_of_float (num_field j "t1") - t0))
          prefix (list_field hj "requests")
      in
      let spans = List.map Span.of_json (list_field lj "spans") in
      let requests =
        List.filter (fun s -> s.Span.name = "request") spans
        |> List.sort (fun a b -> compare a.Span.trace b.Span.trace)
      in
      Some { spans; requests; handle; daemon; layers_json = lj }

let ms ns = float_of_int ns /. 1e6
let fl = List.map float_of_int
let med_or_zero = function [] -> 0. | xs -> Stats.median xs
let sum = List.fold_left ( + ) 0

let durs rp name =
  List.filter_map (fun s -> if s.Span.name = name then Some (Span.dur s) else None) rp.spans

let disposition s =
  match List.assoc_opt "disposition" s.Span.args with Some (J.String d) -> d | _ -> ""

let compile_spans rp =
  List.filter (fun s -> s.Span.name = "codegen.jit" || s.Span.name = "codegen.cc") rp.spans

(* Per-request differences, matched by position in the prefix. *)
let handle_ns rp = List.map snd rp.handle
let overheads rp = List.map2 (fun r h -> h - Span.dur r) rp.requests (handle_ns rp)
let residuals rp = List.map2 (fun (_, d) h -> d - h) rp.daemon (handle_ns rp)

(* Spans around one layer call each; [runtime] and [request] contain
   some of them. *)
let leaf_layers =
  [ "transform"; "codegen.blueprint"; "codegen.jit"; "codegen.cc"; "kernels"; "codegen.run"; "serve.digest" ]

(* The per-layer metrics, in [Spec.per_layer] order. *)
let metrics rp =
  let lj = rp.layers_json in
  let total name = ms (sum (durs rp name)) in
  (* A layer's share of the time requests spent inside layers, summed
     over fan-out lanes, so a batch's shares add up to one as well. *)
  let in_requests name =
    sum
      (List.filter_map
         (fun s -> if s.Span.name = name && s.Span.trace > 0 then Some (Span.dur s) else None)
         rp.spans)
  in
  let layer_ns = float_of_int (sum (List.map in_requests leaf_layers)) in
  let share name = float_of_int (in_requests name) /. layer_ns in
  let by_tag k tag = match field lj k with Some o -> num_field o tag | None -> 0. in
  let compiles = compile_spans rp in
  let hits = List.filter (fun s -> disposition s <> "compiled") compiles in
  let memo = List.filter (fun s -> disposition s = "memo") compiles in
  let alloc =
    List.filter_map
      (fun s ->
        if s.Span.name = "kernels" then
          match List.assoc_opt "alloc_words" s.Span.args with
          | Some (J.Number w) -> Some (w /. 1e6)
          | _ -> None
        else None)
      rp.spans
  in
  let serial = nums lj "serial_ns" and fanout = nums lj "fanout_ns" in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
  [
    ("transform.derive_ms.total", total "transform");
    ("transform.derive_ms.max", ms (List.fold_left max 0 (durs rp "transform")));
    ("codegen.blueprint_us.p50", med_or_zero (fl (durs rp "codegen.blueprint")) /. 1e3);
    ("codegen.emit_ms.ocaml.total", by_tag "emit_ns" "ocaml" /. 1e6);
    ("codegen.emit_ms.c.total", by_tag "emit_ns" "c" /. 1e6);
    ("codegen.src_kb.ocaml", by_tag "src_bytes" "ocaml" /. 1024.);
    ("codegen.src_kb.c", by_tag "src_bytes" "c" /. 1024.);
    ("codegen.jit_ms.total", total "codegen.jit");
    ("codegen.cc_ms.total", total "codegen.cc");
    ("codegen.memo_us.p50", med_or_zero (fl (List.map Span.dur memo)) /. 1e3);
    ( "codegen.cache_hit_ratio",
      float_of_int (List.length hits) /. float_of_int (max 1 (List.length compiles)) );
    ("codegen.compiler_runs", num_field lj "compiler_runs");
    ("kernels.bind_ms.p50", med_or_zero (fl (durs rp "kernels")) /. 1e6);
    ("kernels.bind_share", share "kernels");
    ("kernels.bind_alloc_mwords.p50", med_or_zero alloc);
    ("codegen.run_ms.p50", med_or_zero (fl (durs rp "codegen.run")) /. 1e6);
    ("codegen.run_share", share "codegen.run");
    ("serve.digest_us.p50", med_or_zero (fl (durs rp "serve.digest")) /. 1e3);
    ("runtime.fanout_ms.p50", med_or_zero fanout /. 1e6);
    ("runtime.serial_ms.p50", med_or_zero serial /. 1e6);
    ( "runtime.parallel_eff",
      med_or_zero serial /. (float_of_int Session.domains *. Float.max 1. (med_or_zero fanout)) );
    ("runtime.minor_gcs_per_batch", mean (nums lj "minor_gcs"));
    ("runtime.major_gcs_per_batch", mean (nums lj "major_gcs"));
    ("serve.handle_ms.p50", med_or_zero (fl (handle_ns rp)) /. 1e6);
    ("serve.overhead_ms.p50", med_or_zero (fl (overheads rp)) /. 1e6);
    ("daemon.residual_ms.p50", med_or_zero (fl (residuals rp)) /. 1e6);
    ("daemon.residual_s.total", float_of_int (sum (residuals rp)) /. 1e9);
    ("trace.span_overhead_ns", num_field lj "span_overhead_ns");
  ]

let sum_group pairs = List.map (fun (k, v) -> (k, sum v)) (Stats.group pairs)

(* Mean per request, in ms, of each part of the daemon's latency: the
   request's direct layer spans, the replay's glue between them, serve
   overhead and daemon residual.  The parts sum to the daemon latency
   exactly, by construction. *)
let accounting rp =
  let n = float_of_int (max 1 (List.length rp.requests)) in
  let parts =
    sum_group
      (List.concat_map
         (fun r ->
           let cs = List.filter (fun s -> s.Span.parent = r.Span.id) rp.spans in
           ("replay.glue", Span.self_ns r ~children:cs)
           :: List.map (fun c -> (c.Span.name, Span.dur c)) cs)
         rp.requests)
  in
  let mean_ms ns = ms ns /. n in
  let layer_parts =
    List.map
      (fun k -> (k, mean_ms (Option.value (List.assoc_opt k parts) ~default:0)))
      (leaf_layers @ [ "runtime"; "replay.glue" ])
  in
  ( layer_parts
    @ [
        ("serve.overhead", mean_ms (sum (overheads rp)));
        ("daemon.residual", mean_ms (sum (residuals rp)));
      ],
    mean_ms (sum (List.map snd rp.daemon)) )

(* Total self time of every span name, across all domains (fan-out
   lanes included), in ms. *)
let self_times rp =
  let kids = Hashtbl.of_seq (List.to_seq (Stats.group (List.map (fun s -> (s.Span.parent, s)) rp.spans))) in
  sum_group
    (List.map
       (fun s ->
         (s.Span.name, Span.self_ns s ~children:(Option.value (Hashtbl.find_opt kids s.Span.id) ~default:[])))
       rp.spans)
  |> List.map (fun (k, v) -> (k, ms v))

let dispositions rp =
  Stats.group (List.map (fun s -> (s.Span.name ^ "." ^ disposition s, Span.dur s)) (compile_spans rp))
  |> List.map (fun (k, v) ->
         ( k,
           J.Object
             [
               ("n", J.Number (float_of_int (List.length v)));
               ("p50_ms", J.Number (Stats.median (fl v) /. 1e6));
               ("total_ms", J.Number (ms (sum v)));
             ] ))

(* Median kernel run time per request type (fan-out lanes included),
   in ms: with [Workload.blocked_ratio], the in-process blocking gain to
   set beside the daemon's blocked_speedup. *)
let run_by_type rp =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) rp.spans;
  let rec root s =
    match Hashtbl.find_opt by_id s.Span.parent with Some p -> root p | None -> s
  in
  Stats.group
    (List.filter_map
       (fun s ->
         match (s.Span.name, List.assoc_opt "type" (root s).Span.args) with
         | "codegen.run", Some (J.String k) -> Some (k, Span.dur s)
         | _ -> None)
       rp.spans)
  |> List.map (fun (k, v) -> (k, Stats.median (fl v) /. 1e6))

let chrome rp =
  let synth pid name (t0, ns) i =
    Span.chrome_event ~pid
      { Span.name; trace = i + 1; id = 0; parent = 0; tid = 0; t0; t1 = t0 + ns; args = [] }
  in
  J.Object
    [
      ( "traceEvents",
        J.Array
          (List.map (Span.chrome_event ~pid:1) rp.spans
          @ List.mapi (fun i x -> synth 2 "serve.handle_line" x i) rp.handle
          @ List.mapi (fun i x -> synth 3 "daemon.request" x i) rp.daemon) );
      ("displayTimeUnit", J.String "ms");
    ]

let layers_report rp w ~seed =
  let parts, daemon = accounting rp in
  let obj l = J.Object (List.map (fun (k, v) -> (k, J.Number v)) l) in
  J.Object
    [
      ("workload", J.String (Workload.name w));
      ("seed", J.Number (float_of_int seed));
      ("requests", J.Number (float_of_int (List.length rp.requests)));
      ("daemon_latency_ms_mean", J.Number daemon);
      ("parts_ms_mean", obj parts);
      ("parts_sum_ms", J.Number (List.fold_left (fun a (_, v) -> a +. v) 0. parts));
      ( "unexplained_ms_mean",
        obj (List.filter (fun (k, _) -> k = "serve.overhead" || k = "daemon.residual") parts) );
      ("self_ms_total", obj (self_times rp));
      ("dispositions", J.Object (dispositions rp));
      ("run_ms_p50_by_type", obj (run_by_type rp));
      ( "run_blocked_ratio",
        match Workload.blocked_ratio (run_by_type rp) with Some r -> J.Number r | None -> J.Null );
      ("metrics", obj (metrics rp));
    ]

let print_accounting rp =
  let parts, daemon = accounting rp in
  Printf.printf "  mean daemon latency %.3f ms over %d requests:\n" daemon (List.length rp.requests);
  List.iter
    (fun (k, v) ->
      Printf.printf "    %-20s %10.3f ms  %5.1f%%\n" k v (100. *. v /. Float.max daemon 1e-9))
    parts
