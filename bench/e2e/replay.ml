(* In-process replays for the traced run, each in a fresh process whose
   environment (cache directory, TMPDIR, domain count) the parent set
   up exactly as for a daemon.

   [layers] calls each layer's public function in the order serve calls
   them and records a span around each call.  [handle] times
   [Serve.handle_line] on the same request lines.  Both write a JSON
   file the parent turns into metrics. *)

module J = Json_min

let num n = J.Number (float_of_int n)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let backend tag =
  match Backend.of_tag tag with Some b -> b | None -> invalid_arg ("backend " ^ tag)

let layer_of_backend = function "ocaml" -> "codegen.jit" | _ -> "codegen.cc"

let layers w ~seed =
  let data_seed = Workload.data_seed seed in
  let runs0 = Jit.compiler_invocations () + Cc.invocations () in
  (* [Serve.compile_variant]: derive (memoized per process, in the memo
     the probes below read too), normalize, compile or fetch. *)
  let compile (kernel, variant, tag) =
    let e = Reference.entry kernel in
    let block =
      if variant = "point" || Hashtbl.mem Reference.derived kernel then
        Reference.block e variant
      else Span.span "transform" (fun () -> Reference.block e variant)
    in
    let bp =
      Span.span "codegen.blueprint" (fun () ->
          Blueprint.of_block ~shapes:e.Blockability.kernel.Kernel_def.shapes block)
    in
    let module B = (val backend tag : Backend.S) in
    let cm =
      Span.span (layer_of_backend tag)
        ~args:(fun (cm : Backend.compiled) ->
          [ ("disposition", J.String (Jit.disposition_name cm.Backend.bk_disposition)) ])
        (fun () ->
          match B.compile_blueprint ~name:(kernel ^ "_" ^ variant) bp with
          | Ok cm -> cm
          | Error m -> failwith m)
    in
    (e, bp, cm)
  in
  (* One [execute] or batch item: bind, run, digest. *)
  let item (e, (bp : Blueprint.t), (cm : Backend.compiled)) variant bindings =
    let env =
      Span.span "kernels"
        ~args:(fun (_, w) -> [ ("alloc_words", J.Number w) ])
        (fun () ->
          let a0 = alloc_words () in
          let env = Reference.env_for e ~variant ~bindings ~seed:data_seed in
          (env, alloc_words () -. a0))
      |> fst
    in
    (match Span.span "codegen.run" (fun () -> cm.Backend.bk_run ~bindings:bp.Blueprint.bindings env) with
    | Ok () -> ()
    | Error m -> failwith m);
    Span.span "serve.digest" (fun () -> Reference.digest e env)
  in
  let pool = Pool.create ~name:"e2e" ~domains:Session.domains () in
  let fan_out f n =
    let here = Span.here () in
    Parallel.for_ ~pool ~lo:0 ~hi:(n - 1) (fun lo hi ->
        Span.within here (fun () ->
            for i = lo to hi do
              f i
            done))
  in
  let mix = Workload.mix w in
  List.iteri (fun i m -> Span.root ~trace:(-1 - i) "setup" (fun () -> ignore (compile m))) mix;
  let prefix = Workload.traced_prefix w ~seed in
  let results =
    List.mapi
      (fun i (r : Workload.req) ->
        match
          Span.root ~trace:(i + 1) "request"
            ~args:(fun _ -> [ ("type", J.String (Workload.key r)) ])
            (fun () ->
              let c = compile (r.kernel, r.variant, r.backend) in
              if r.batch then
                Span.span "runtime" (fun () ->
                    let items = Array.of_list r.items in
                    let out = Array.make (Array.length items) "" in
                    fan_out (fun k -> out.(k) <- item c r.variant items.(k)) (Array.length items);
                    Array.to_list out)
              else [ item c r.variant (List.hd r.items) ])
        with
        | ds -> J.Object [ ("digests", J.Array (List.map (fun d -> J.String d) ds)) ]
        | exception e -> J.Object [ ("error", J.String (Printexc.to_string e)) ])
      prefix
  in
  let compiler_runs = Jit.compiler_invocations () + Cc.invocations () - runs0 in
  (* Probes, outside any request. *)
  let blueprint (e : Blockability.entry) variant =
    Blueprint.of_block ~shapes:e.Blockability.kernel.Kernel_def.shapes (Reference.block e variant)
  in
  (* Emission: once per distinct blueprint and backend the replay used,
     whether or not the program had to emit it. *)
  let emitted =
    mix @ List.map (fun (r : Workload.req) -> (r.kernel, r.variant, r.backend)) prefix
    |> List.map (fun (kernel, variant, tag) ->
           let bp = blueprint (Reference.entry kernel) variant in
           ((tag, bp.Blueprint.key), (kernel ^ "_" ^ variant, bp)))
    |> Stats.group
    |> List.map (fun ((tag, _), uses) ->
           let name, (bp : Blueprint.t) = List.hd uses in
           let emit = if tag = "ocaml" then Emit.source else Emit_c.source in
           let t0 = Client.now_ns () in
           let src = emit ~unsafe:bp.unsafe ~shapes:bp.shapes ~name bp.block in
           let ns = Client.now_ns () - t0 in
           (tag, (ns, match src with Ok s -> String.length s | Error _ -> 0)))
  in
  let by_tag f =
    J.Object
      (List.map
         (fun t ->
           (t, num (List.fold_left (fun acc (t', x) -> if t' = t then acc + f x else acc) 0 emitted)))
         Workload.backends)
  in
  (* Runtime: the first 16 items of the prefix, fanned out on the pool
     and run serially, alternately, five times. *)
  let probe =
    List.concat_map (fun (r : Workload.req) -> List.map (fun b -> (r, b)) r.items) prefix
    |> List.filteri (fun i _ -> i < Workload.batch_len)
    |> List.map (fun ((r : Workload.req), b) ->
           let e = Reference.entry r.kernel in
           let bp = blueprint e r.variant in
           let module B = (val backend r.backend : Backend.S) in
           let cm = Result.get_ok (B.compile_blueprint ~name:r.kernel bp) in
           fun () ->
             let env = Reference.env_for e ~variant:r.variant ~bindings:b ~seed:data_seed in
             ignore (cm.Backend.bk_run ~bindings:bp.Blueprint.bindings env))
    |> Array.of_list
  in
  let serial = ref [] and fanout = ref [] and minor = ref [] and major = ref [] in
  for _ = 1 to 5 do
    let t0 = Client.now_ns () in
    Array.iter (fun f -> f ()) probe;
    serial := (Client.now_ns () - t0) :: !serial;
    let g0 = Gc.quick_stat () in
    let t0 = Client.now_ns () in
    Parallel.for_ ~pool ~lo:0 ~hi:(Array.length probe - 1) (fun lo hi ->
        for i = lo to hi do
          probe.(i) ()
        done);
    fanout := (Client.now_ns () - t0) :: !fanout;
    let g1 = Gc.quick_stat () in
    minor := (g1.Gc.minor_collections - g0.Gc.minor_collections) :: !minor;
    major := (g1.Gc.major_collections - g0.Gc.major_collections) :: !major
  done;
  let ints l = J.Array (List.map num l) in
  J.Object
    [
      ("requests", J.Array results);
      ("spans", J.Array (List.map Span.to_json (Span.all ())));
      ("compiler_runs", num compiler_runs);
      ("emit_ns", by_tag fst);
      ("src_bytes", by_tag snd);
      ("serial_ns", ints !serial);
      ("fanout_ns", ints !fanout);
      ("minor_gcs", ints !minor);
      ("major_gcs", ints !major);
      ("span_overhead_ns", J.Number (Span.overhead_ns ()));
    ]

let handle w ~seed =
  let data_seed = Workload.data_seed seed in
  let pool = Pool.default () in
  let call line = fst (Serve.handle_line ~exec_pool:pool line) in
  let setup =
    List.mapi (fun i m -> J.String (call (Session.compile_line ~id:(-1 - i) m))) (Workload.mix w)
  in
  let results =
    List.mapi
      (fun i r ->
        let line = Session.request_line ~id:(i + 1) ~data_seed r in
        let t0 = Client.now_ns () in
        let resp = call line in
        let t1 = Client.now_ns () in
        J.Object [ ("t0", num t0); ("t1", num t1); ("response", J.String resp) ])
      (Workload.traced_prefix w ~seed)
  in
  J.Object [ ("setup", J.Array setup); ("requests", J.Array results) ]

let main ~mode w ~seed ~out =
  let j = match mode with `Layers -> layers w ~seed | `Handle -> handle w ~seed in
  Fs.write_atomic out (J.to_string j)
