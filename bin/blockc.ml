(* blockc — command-line driver for the blockability toolkit.

   Subcommands: list, show, derive, verify, simulate, explain, profile,
   sections, parse, lower, compile, fuzz, serve, stats, top.  `blockc
   --explain KERNEL` is a shorthand for the explain subcommand.

   Exit convention (uniform across subcommands, see EXIT STATUS in the
   man pages): 0 = success; 1 = the tool ran but the answer is negative
   (derivation refused, verification diverged, lowering failed, the
   fuzzer found a counterexample); 2 = unusable input or invocation
   (unknown kernel or pass name, parse errors, runtime environment
   errors). *)

open Cmdliner
module J = Json_min

let exits =
  Cmd.Exit.info 0 ~doc:"on success."
  :: Cmd.Exit.info 1
       ~doc:
         "when the tool ran but the answer is negative: derivation refused, \
          verification diverged, lowering failed, or the fuzzer found a \
          counterexample."
  :: Cmd.Exit.info 2
       ~doc:
         "on unusable input or invocation: unknown kernel or pass name, parse \
          errors, or a runtime environment error."
  :: Cmd.Exit.defaults

(* Every kernel-taking command resolves the name itself: an unknown
   kernel must be a clean exit 2 with the catalogue on stderr — not a
   cmdliner usage dump. *)
let kernel_name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL")

let resolve_kernel name =
  match Blockability.find name with
  | Some e -> e
  | None ->
      Printf.eprintf "blockc: unknown kernel '%s'\nknown kernels: %s\n" name
        (String.concat ", " (Blockability.names ()));
      exit 2

let binding_conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ k; v ] -> (
        match int_of_string_opt v with
        | Some n -> Ok (k, n)
        | None -> Error (`Msg ("bad binding value: " ^ s)))
    | _ -> Error (`Msg ("bindings look like N=300, got " ^ s))
  in
  let print fmt (k, v) = Format.fprintf fmt "%s=%d" k v in
  Arg.conv (parse, print)

let bindings_arg =
  Arg.(
    value
    & opt_all binding_conv []
    & info [ "p"; "param" ] ~docv:"NAME=INT"
        ~doc:
          "Bind a problem parameter or the block size $(b,KS), in any \
           case; the last binding of a name wins.  Each name left \
           unbound takes the kernel's default.  A name the kernel does \
           not take exits 2.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload random seed.")

let machine_conv =
  let parse = function
    | "rs6000" -> Ok Arch.rs6000_540
    | "small" -> Ok Arch.small_test
    | "modern" -> Ok Arch.modern_l1
    | s -> Error (`Msg ("unknown machine " ^ s ^ " (rs6000|small|modern)"))
  in
  let print fmt (m : Arch.t) = Format.pp_print_string fmt m.name in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Arch.rs6000_540
    & info [ "machine" ] ~doc:"Cache model: rs6000, small, or modern.")

(* A name the kernel does not take, a size it cannot set up, or a size
   the derivation's facts exclude (the transformed environment refuses
   all three) is unusable input: exit 2 before anything runs. *)
let checked_bindings e bindings =
  match Blockability.env e Blockability.Transformed ~bindings ~seed:0 with
  | Error m ->
      Printf.eprintf "blockc: kernel %s: %s\n" e.Blockability.name m;
      exit 2
  | Ok _ -> bindings

(* ---- tracing flags (shared by the transformation-running commands) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", "text"); ("json", "json"); ("chrome", "chrome") ])) None
    & info [ "trace" ] ~docv:"FORMAT"
        ~doc:
          "Emit an observability trace: $(b,text) (human-readable lines), \
           $(b,json) (JSON objects, one per line) or $(b,chrome) (Chrome \
           trace_event; load the file in chrome://tracing or Perfetto). \
           Writes to stderr unless $(b,--trace-out) is given; $(b,chrome) \
           requires $(b,--trace-out).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"PATH" ~doc:"Write the trace to $(docv).")

(* Install the requested sink (or honour BLOCKABILITY_TRACE when no flag
   is given).  Returns an [Error] for usage mistakes so callers can turn
   it into a cmdliner usage error. *)
let setup_trace fmt out =
  match (fmt, out) with
  | None, None ->
      Obs.init_from_env ();
      Ok ()
  | None, Some _ -> Error "--trace-out is only meaningful with --trace"
  | Some "chrome", None ->
      Error
        "--trace chrome requires --trace-out PATH (the trace_event document \
         is written whole on exit and cannot stream to stderr)"
  | Some fmt, out -> (
      match
        match out with
        | None -> Ok stderr
        | Some p -> ( try Ok (open_out p) with Sys_error m -> Error m)
      with
      | Error m -> Error ("--trace-out: " ^ m)
      | Ok oc -> (
          match Obs.sink_of_name fmt oc with
          | Error m -> Error m
          | Ok sink ->
              Obs.set_sink sink;
              at_exit Obs.flush;
              Ok ()))

(* Wrap a command body so --trace/--trace-out are honoured and usage
   errors are reported through cmdliner. *)
let traced run =
  Term.ret
    Term.(
      const (fun fmt out k ->
          match setup_trace fmt out with
          | Error m -> `Error (true, m)
          | Ok () -> `Ok (k ()))
      $ trace_arg $ trace_out_arg $ run)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Blockability.entry) ->
        Printf.printf "%-10s %-28s %s\n" e.name e.paper_ref
          e.kernel.Kernel_def.description)
      Blockability.entries
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper's kernels." ~exits)
    Term.(const run $ const ())

(* ---- show ---- *)

let show_cmd =
  let run name =
    let e = resolve_kernel name in
    print_string
      (Fortran_pp.subroutine ~name:(String.uppercase_ascii e.Blockability.name)
         ~params:e.Blockability.kernel.Kernel_def.params
         e.Blockability.kernel.Kernel_def.block)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel's point algorithm." ~exits)
    Term.(const run $ kernel_name_arg)

(* ---- derive ---- *)

let derive_cmd =
  let run name () =
    match Blockability.derive (resolve_kernel name) with
    | Error m ->
        prerr_endline ("derivation failed: " ^ m);
        exit 1
    | Ok { Blocker.result; steps } ->
        List.iter
          (fun (s : Blocker.trace_step) ->
            Printf.printf "--- %s: %s\n" s.name s.detail)
          steps;
        print_string (Stmt.to_string result)
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Run the compiler driver on a kernel and print the result." ~exits)
    (traced Term.(const run $ kernel_name_arg))

(* ---- verify ---- *)

let verify_cmd =
  let run name bindings seed () =
    let e = resolve_kernel name in
    match Blockability.verify ~bindings:(checked_bindings e bindings) ~seed e with
    | Ok () -> print_endline "equivalent: transformed kernel matches the point kernel"
    | Error m ->
        prerr_endline m;
        exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Interpret point and transformed kernels and compare memory."
       ~exits)
    (traced Term.(const run $ kernel_name_arg $ bindings_arg $ seed_arg))

(* ---- simulate ---- *)

let print_by_array ~what by_array =
  List.iter
    (fun (name, (s : Cache.stats)) ->
      Printf.printf "  %-11s %-6s accesses %9d  misses %9d  miss-rate %5.2f%%\n"
        what name s.accesses s.misses
        (100.0 *. Cache.miss_ratio s))
    by_array

let simulate_cmd =
  let run name bindings seed machine () =
    let e = resolve_kernel name in
    match
      Blockability.simulate ~bindings:(checked_bindings e bindings) ~seed
        ~machine e
    with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok r ->
        let pr what (s : Cache.stats) cycles =
          Printf.printf "%-12s accesses %9d  misses %9d  miss-rate %5.2f%%  mem-cycles %10d\n"
            what s.accesses s.misses
            (100.0 *. Cache.miss_ratio s)
            cycles
        in
        Printf.printf "machine: %s\n" machine.Arch.name;
        pr "point" r.point_stats r.point_cycles;
        print_by_array ~what:"point" r.point_by_array;
        pr "transformed" r.transformed_stats r.transformed_cycles;
        print_by_array ~what:"transformed" r.transformed_by_array;
        Printf.printf "memory-cycle speedup: %.2f\n"
          (Cost.speedup ~baseline:r.point_cycles ~optimized:r.transformed_cycles)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Trace both kernels through the cache simulator." ~exits)
    (traced
       Term.(const run $ kernel_name_arg $ bindings_arg $ seed_arg $ machine_arg))

(* ---- explain ---- *)

let value_to_string = function
  | Obs.Str s -> s
  | Obs.Int n -> string_of_int n
  | Obs.Float f -> Printf.sprintf "%g" f
  | Obs.Bool b -> string_of_bool b

let args_suffix = function
  | [] -> ""
  | args ->
      Printf.sprintf " (%s)"
        (String.concat ", "
           (List.map (fun (k, v) -> k ^ "=" ^ value_to_string v) args))

let print_explain_event (ev : Obs.event) =
  let indent = String.make (2 * ev.depth) ' ' in
  match ev.kind with
  | Obs.End -> ()
  | Obs.Begin -> Printf.printf "%s>> %s%s\n" indent ev.name (args_suffix ev.args)
  | Obs.Instant when String.equal ev.cat "decision" ->
      let str k =
        match List.assoc_opt k ev.args with Some (Obs.Str s) -> s | _ -> ""
      in
      let flag k = List.assoc_opt k ev.args = Some (Obs.Bool true) in
      let applied = flag "applied" in
      let reason = str "reason" in
      let evidence =
        List.filter
          (fun (k, _) ->
            not (List.mem k [ "target"; "applied"; "reason"; "skipped" ]))
          ev.args
      in
      Printf.printf "%s%s %s(%s)%s\n" indent
        (if applied then "[applied ]"
         else if flag "skipped" then "[skipped ]"
         else "[rejected]")
        ev.name (str "target")
        (if applied && String.equal reason "legal" then ""
         else ": " ^ reason);
      List.iter
        (fun (k, v) ->
          Printf.printf "%s             %s = %s\n" indent k (value_to_string v))
        evidence
  | Obs.Instant ->
      Printf.printf "%s-- %s%s\n" indent ev.name (args_suffix ev.args)

let explain_run e bindings seed machine =
  let bindings = checked_bindings e bindings in
  Printf.printf "kernel: %s (%s)\n%s\n\n" e.Blockability.name
    e.Blockability.paper_ref e.Blockability.kernel.Kernel_def.description;
  (* Collect every event the derivation emits, on top of whatever sink
     --trace / BLOCKABILITY_TRACE installed. *)
  let mem, events = Obs.memory () in
  let prev = Obs.current_sink () in
  Obs.set_sink (if Obs.enabled () then Obs.tee prev mem else mem);
  let result = Blockability.derive e in
  Obs.set_sink prev;
  print_endline "decision trace:";
  List.iter print_explain_event (events ());
  match result with
  | Error m ->
      Printf.printf "\nverdict: NOT BLOCKABLE\n%s\n" m
  | Ok { Blocker.result = stmt; _ } -> (
      Printf.printf "\nverdict: blockable — final block structure:\n\n%s"
        (Stmt.to_string stmt);
      match Blockability.simulate ~bindings ~seed ~machine e with
      | Error m -> Printf.printf "\ncache report unavailable: %s\n" m
      | Ok r ->
          Printf.printf "\ncache report (machine %s):\n" machine.Arch.name;
          print_by_array ~what:"point" r.point_by_array;
          print_by_array ~what:"transformed" r.transformed_by_array;
          Printf.printf
            "  total       point misses %d -> transformed misses %d  \
             (memory-cycle speedup %.2f)\n"
            r.point_stats.misses r.transformed_stats.misses
            (Cost.speedup ~baseline:r.point_cycles
               ~optimized:r.transformed_cycles))

let explain_cmd =
  let run name bindings seed machine () =
    explain_run (resolve_kernel name) bindings seed machine
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay the compiler driver with decision tracing on and print \
          why each transformation was applied or rejected, the final \
          block structure, and a per-array cache report."
       ~exits)
    (traced
       Term.(const run $ kernel_name_arg $ bindings_arg $ seed_arg $ machine_arg))

(* ---- profile ---- *)

let sweep_conv =
  let parse s =
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i > 0
           && i + 2 < String.length s -> (
        let lo = String.sub s 0 i
        and hi = String.sub s (i + 2) (String.length s - i - 2) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo >= 1 && hi >= lo -> Ok (lo, hi)
        | _ -> Error (`Msg ("bad sweep range: " ^ s)))
    | _ -> Error (`Msg ("sweeps look like 4..64, got " ^ s))
  in
  let print fmt (lo, hi) = Format.fprintf fmt "%d..%d" lo hi in
  Arg.conv (parse, print)

let sweep_arg =
  Arg.(
    value
    & opt (some sweep_conv) None
    & info [ "sweep" ] ~docv:"B1..B2"
        ~doc:
          "Profile the transformed kernel at every power-of-two block \
           size in [B1, B2], each bound as KS after the $(b,-p) \
           bindings, and report the sweep (kernels with a KS block-size \
           parameter only).")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the whole profile as JSON on stdout.")

let sweep_blocks (lo, hi) =
  let rec go acc b = if b > hi then List.rev acc else go (b :: acc) (b * 2) in
  go [] lo

(* Render helpers ---------------------------------------------------- *)

let pct num den =
  if den = 0 then "-" else Printf.sprintf "%.2f%%" (100.0 *. float_of_int num /. float_of_int den)

let kind_str = function Ir_util.Read -> "read" | Ir_util.Write -> "write"

let nest_str (site : Exec.ref_site) =
  match site.Exec.ref_loops with [] -> "(top)" | l -> String.concat ">" l

let text_row tbl cells = Table.add_row tbl (List.map (fun s -> Table.Text s) cells)

let level_table (kp : Blockability.kernel_profile) =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s %s: per-level hierarchy stats" kp.kp_kernel
           kp.kp_variant)
      [
        ("Level", Table.Left); ("Accesses", Table.Right); ("Misses", Table.Right);
        ("Miss%", Table.Right); ("Evict", Table.Right); ("Cold", Table.Right);
        ("Capacity", Table.Right); ("Conflict", Table.Right);
      ]
  in
  List.iter
    (fun (name, (s : Cache.stats)) ->
      text_row tbl
        [
          name; string_of_int s.accesses; string_of_int s.misses;
          pct s.misses s.accesses; string_of_int s.evictions;
          string_of_int s.cold_misses; string_of_int s.capacity_misses;
          string_of_int s.conflict_misses;
        ])
    (kp.kp_levels @ [ ("TLB", kp.kp_tlb) ]);
  tbl

let ref_table (kp : Blockability.kernel_profile) =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s %s: per-reference miss attribution" kp.kp_kernel
           kp.kp_variant)
      [
        ("Id", Table.Right); ("Ref", Table.Left); ("Kind", Table.Left);
        ("Nest", Table.Left); ("Accesses", Table.Right); ("L1miss", Table.Right);
        ("L2miss", Table.Right); ("Mem", Table.Right); ("TLBmiss", Table.Right);
        ("Cold", Table.Right); ("Cap", Table.Right); ("Conf", Table.Right);
      ]
  in
  List.iter
    (fun (r : Trace.ref_profile) ->
      let c = r.counts in
      if c.Trace.c_accesses > 0 then
        text_row tbl
          [
            string_of_int r.site.Exec.ref_id; r.site.Exec.ref_text;
            kind_str r.site.Exec.ref_kind; nest_str r.site;
            string_of_int c.Trace.c_accesses; string_of_int c.Trace.c_l1_misses;
            string_of_int c.Trace.c_l2_misses; string_of_int c.Trace.c_mem;
            string_of_int c.Trace.c_tlb_misses; string_of_int c.Trace.c_cold;
            string_of_int c.Trace.c_capacity; string_of_int c.Trace.c_conflict;
          ])
    kp.kp_refs;
  tbl

let loop_table (kp : Blockability.kernel_profile) =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "%s %s: per-loop-nest rollup" kp.kp_kernel kp.kp_variant)
      [
        ("Nest", Table.Left); ("Accesses", Table.Right); ("L1miss", Table.Right);
        ("L1miss%", Table.Right); ("L2miss", Table.Right); ("TLBmiss", Table.Right);
      ]
  in
  List.iter
    (fun (nest, (c : Trace.ref_counts)) ->
      if c.Trace.c_accesses > 0 then
        text_row tbl
          [
            nest; string_of_int c.Trace.c_accesses;
            string_of_int c.Trace.c_l1_misses;
            pct c.Trace.c_l1_misses c.Trace.c_accesses;
            string_of_int c.Trace.c_l2_misses;
            string_of_int c.Trace.c_tlb_misses;
          ])
    kp.kp_loops;
  tbl

(* Reuse-distance histogram, log2-bucketed with ASCII bars. *)
let print_histogram (kp : Blockability.kernel_profile) =
  Printf.printf
    "reuse-distance histogram (%s %s; distances in L1 lines; cold = %d, \
     footprint = %d lines):\n"
    kp.kp_kernel kp.kp_variant kp.kp_cold kp.kp_footprint_lines;
  let bucket_of d = if d <= 0 then 0 else
      let rec go b n = if d < n then b else go (b + 1) (n * 2) in
      go 1 2
  in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (d, n) ->
      let b = bucket_of d in
      Hashtbl.replace buckets b ((try Hashtbl.find buckets b with Not_found -> 0) + n))
    kp.kp_hist;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) buckets [] |> List.sort Int.compare in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 kp.kp_hist in
  List.iter
    (fun b ->
      let n = Hashtbl.find buckets b in
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      let hi = (1 lsl b) - 1 in
      let label =
        if b = 0 then "0" else if lo = hi then string_of_int lo
        else Printf.sprintf "%d-%d" lo hi
      in
      let bar = String.make (max 1 (60 * n / max 1 total)) '#' in
      Printf.printf "  %12s %9d %s\n" label n bar)
    keys;
  if keys = [] then print_string "  (no reuses recorded)\n"

let print_validation (kp : Blockability.kernel_profile) =
  let v = kp.kp_validation in
  Printf.printf
    "model validation (%s %s): predicted L1 misses %d (stack-distance), \
     simulated %d, divergence %.2f%% (miss-ratio gap %.3f points)\n"
    kp.kp_kernel kp.kp_variant v.Cost.v_predicted v.Cost.v_simulated
    (100.0 *. v.Cost.v_divergence)
    (100.0 *. v.Cost.v_ratio_gap)

(* JSON emission ----------------------------------------------------- *)

(* A fixed-point figure, read back from its printed digits: the number a
   reader parses is the one the text shows. *)
let jfixed digits x =
  J.Number (float_of_string (Printf.sprintf "%.*f" digits x))

let json_of_stats (s : Cache.stats) =
  J.Object
    [
      ("accesses", J.int s.accesses); ("hits", J.int s.hits);
      ("misses", J.int s.misses);
      ("evictions", J.int s.evictions);
      ("cold_misses", J.int s.cold_misses);
      ("capacity_misses", J.int s.capacity_misses);
      ("conflict_misses", J.int s.conflict_misses);
    ]

let json_of_counts (c : Trace.ref_counts) =
  [
    ("accesses", J.int c.Trace.c_accesses);
    ("l1_misses", J.int c.Trace.c_l1_misses);
    ("l2_misses", J.int c.Trace.c_l2_misses);
    ("mem", J.int c.Trace.c_mem);
    ("tlb_misses", J.int c.Trace.c_tlb_misses);
    ("cold", J.int c.Trace.c_cold);
    ("capacity", J.int c.Trace.c_capacity);
    ("conflict", J.int c.Trace.c_conflict);
  ]

let json_of_profile (kp : Blockability.kernel_profile) =
  J.Object
    ([
       ("variant", J.String kp.kp_variant);
       ( "block",
         match kp.kp_block with Some b -> J.int b | None -> J.Null );
       ( "levels",
         J.Array
           (List.map
              (fun (name, s) ->
                J.Object
                  [ ("name", J.String name); ("stats", json_of_stats s) ])
              kp.kp_levels) );
       ("tlb", json_of_stats kp.kp_tlb);
       ("cycles", J.int kp.kp_cycles);
       ( "refs",
         J.Array
           (List.filter_map
              (fun (r : Trace.ref_profile) ->
                if r.counts.Trace.c_accesses = 0 then None
                else
                  Some
                    (J.Object
                       ([
                          ("id", J.int r.site.Exec.ref_id);
                          ("ref", J.String r.site.Exec.ref_text);
                          ("kind", J.String (kind_str r.site.Exec.ref_kind));
                          ("nest", J.String (nest_str r.site));
                        ]
                       @ json_of_counts r.counts)))
              kp.kp_refs) );
       ( "loops",
         J.Array
           (List.filter_map
              (fun (nest, c) ->
                if c.Trace.c_accesses = 0 then None
                else
                  Some (J.Object (("nest", J.String nest) :: json_of_counts c)))
              kp.kp_loops) );
       ( "reuse",
         J.Object
           [
             ("cold", J.int kp.kp_cold);
             ("footprint_lines", J.int kp.kp_footprint_lines);
             ( "histogram",
               J.Array
                 (List.map
                    (fun (d, n) -> J.Array [ J.int d; J.int n ])
                    kp.kp_hist) );
             ( "miss_curve",
               J.Array
                 (List.map
                    (fun (l, m) -> J.Array [ J.int l; J.int m ])
                    kp.kp_miss_curve) );
           ] );
       ( "validation",
         let v = kp.kp_validation in
         J.Object
           [
             ("predicted_misses", J.int v.Cost.v_predicted);
             ("simulated_misses", J.int v.Cost.v_simulated);
             ("divergence", jfixed 6 v.Cost.v_divergence);
             ("miss_ratio_gap", jfixed 6 v.Cost.v_ratio_gap);
           ] );
     ])

let l1_misses (kp : Blockability.kernel_profile) =
  (snd (List.hd kp.kp_levels)).Cache.misses

let print_profile kp =
  Table.print (level_table kp);
  Table.print (ref_table kp);
  Table.print (loop_table kp);
  print_histogram kp;
  print_validation kp;
  Printf.printf "memory cycles (per-level model): %d\n\n" kp.kp_cycles

let profile_cmd =
  let run name bindings seed machine sweep json () =
    let e = resolve_kernel name in
    (* A sweep's rows are checked at its smallest block size, the one
       the facts could exclude: a bad row exits 2 before anything
       runs, as bad bindings do. *)
    let bindings = checked_bindings e bindings in
    Option.iter
      (fun (lo, _) -> ignore (checked_bindings e (bindings @ [ ("KS", lo) ])))
      sweep;
    let fail m =
      prerr_endline ("blockc profile: " ^ m);
      exit 1
    in
    let point, transformed =
      match Blockability.profile ~bindings ~seed ~machine e with
      | Ok r -> r
      | Error m -> fail m
    in
    let sweep_results =
      match sweep with
      | None -> []
      | Some range -> (
          match
            Blockability.profile_sweep ~bindings ~seed ~machine
              ~blocks:(sweep_blocks range) e
          with
          | Ok r -> r
          | Error m -> fail m)
    in
    if json then
      print_endline
        (J.to_string
           (J.Object
              ([
                 ("kernel", J.String e.Blockability.name);
                 ("machine", J.String machine.Arch.name);
                 ("point", json_of_profile point);
                 ("transformed", json_of_profile transformed);
               ]
              @
              if sweep_results = [] then []
              else
                [
                  ( "sweep",
                    J.Array
                      (List.map (fun (_, kp) -> json_of_profile kp) sweep_results)
                  );
                  ( "recommended_block",
                    J.int
                      (Blocker.choose_block_size ~machine
                         ~sweep:
                           (List.map
                              (fun (b, kp) -> (b, l1_misses kp))
                              sweep_results)
                         ()) );
                ])))
    else begin
      Printf.printf "kernel: %s (%s)\nmachine: %s\n\n" e.Blockability.name
        e.Blockability.paper_ref machine.Arch.name;
      print_profile point;
      print_profile transformed;
      Printf.printf
        "point -> transformed: L1 misses %d -> %d, memory cycles %d -> %d \
         (speedup %.2f)\n"
        (l1_misses point) (l1_misses transformed) point.kp_cycles
        transformed.kp_cycles
        (Cost.speedup ~baseline:point.kp_cycles ~optimized:transformed.kp_cycles);
      if sweep_results <> [] then begin
        let tbl =
          Table.create ~title:"Block-size sweep (transformed variant)"
            [
              ("Block", Table.Right); ("L1miss", Table.Right);
              ("L2miss", Table.Right); ("Cycles", Table.Right);
              ("Predicted", Table.Right); ("Divergence", Table.Right);
            ]
        in
        List.iter
          (fun (b, (kp : Blockability.kernel_profile)) ->
            let l2 =
              match kp.kp_levels with
              | _ :: (_, (s : Cache.stats)) :: _ -> s.misses
              | _ -> 0
            in
            text_row tbl
              [
                string_of_int b; string_of_int (l1_misses kp); string_of_int l2;
                string_of_int kp.kp_cycles;
                string_of_int kp.kp_validation.Cost.v_predicted;
                Printf.sprintf "%.2f%%" (100.0 *. kp.kp_validation.Cost.v_divergence);
              ])
          sweep_results;
        Table.print tbl;
        let chosen =
          Blocker.choose_block_size ~machine
            ~sweep:(List.map (fun (b, kp) -> (b, l1_misses kp)) sweep_results)
            ()
        in
        Printf.printf
          "recommended block size: %d (sweep minimum; footprint heuristic \
           says %d)\n"
          chosen
          (Arch.block_size machine ())
      end
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a kernel through the multi-level memory hierarchy \
          (L1/L2/TLB): per-reference and per-loop-nest miss attribution, \
          exact reuse-distance histograms, miss-vs-cache-size curves and \
          the cost-model validation (stack-distance prediction vs \
          simulation).  $(b,--sweep B1..B2) additionally profiles every \
          power-of-two block size in the range and recommends one."
       ~exits)
    (traced
       Term.(
         const run $ kernel_name_arg $ bindings_arg $ seed_arg $ machine_arg
         $ sweep_arg $ json_flag))

(* ---- sections ---- *)

let sections_cmd =
  let run name =
    let block = (resolve_kernel name).Blockability.kernel.Kernel_def.block in
    let loops = List.map snd (Stmt.find_loops block) in
    let ctx =
      List.fold_left Symbolic.assume_pos
        (Symbolic.of_loop_context loops)
        (Ir_util.symbolic_params block)
    in
    List.iter
      (fun (a : Ir_util.access) ->
        if a.space = Ir_util.Float_data && a.subs <> [] then
          let kind = match a.kind with Ir_util.Write -> "write" | _ -> "read " in
          match Section.of_access ~ctx ~within:a.loops a with
          | Some s ->
              Printf.printf "%s %s(%s)  =>  %s\n" kind a.array
                (String.concat ", " (List.map Expr.to_string a.subs))
                (Section.to_string s)
          | None ->
              Printf.printf "%s %s(%s)  =>  (not affine)\n" kind a.array
                (String.concat ", " (List.map Expr.to_string a.subs)))
      (Ir_util.accesses block)
  in
  Cmd.v
    (Cmd.info "sections"
       ~doc:"Print the array section of every reference in a kernel." ~exits)
    Term.(const run $ kernel_name_arg)

(* ---- parse / lower ---- *)

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* To end of file, so a pipe ([/dev/stdin]) reads as a file does. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_cmd =
  let run path =
    match Parser.program (read_file path) with
    | prog -> List.iter (fun s -> print_string (Ext.to_string s)) prog
    | exception Parser.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 2
    | exception Lexer.Lex_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 2
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse a mini-Fortran file and echo the program."
       ~exits)
    Term.(const run $ file_arg)

let lower_cmd =
  let run path =
    match Parser.program (read_file path) with
    | exception Parser.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 2
    | exception Lexer.Lex_error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" path line message;
        exit 2
    | prog ->
        List.iter
          (fun s ->
            match Lower.lower s with
            | Ok stmt -> print_string (Stmt.to_string stmt)
            | Error m ->
                prerr_endline m;
                exit 1)
          prog
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:
         "Lower BLOCK DO / IN DO extensions to plain loops; every BLOCK DO \
          steps by the block-size parameter KS."
       ~exits)
    Term.(const run $ file_arg)

(* ---- compile ---- *)

let json_of_native (r : Blockability.native_result) =
  J.Object
    [
      ("backend", J.String r.nt_backend);
      ("point", Measure.to_json r.nt_point);
      ("transformed", Measure.to_json r.nt_transformed);
      ("speedup", jfixed 4 r.nt_speedup);
      ("point_cached", J.Bool r.nt_point_cached);
      ("transformed_cached", J.Bool r.nt_transformed_cached);
      ( "model_speedup",
        match r.nt_model_speedup with
        | None -> J.Null
        | Some x -> jfixed 4 x );
      ("bindings", J.int_object r.nt_bindings);
      ("verify_bindings", J.int_object r.nt_verify_bindings);
      (* a result exists only if the timed runs agreed *)
      ("verified_at_timed_size", J.Bool true);
    ]

let print_native (r : Blockability.native_result) =
  let show bs =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bs)
  in
  Printf.printf
    "verified: both variants bitwise equal to the interpreter (%s) [%s \
     backend]\n"
    (show r.nt_verify_bindings) r.nt_backend;
  Printf.printf
    "timed at: %s (median of %d interleaved runs per variant, quartiles in \
     brackets)\n"
    (show r.nt_bindings) r.nt_point.Measure.n;
  print_endline
    "verified at the timed size: point and transformed bitwise equal";
  let line label (m : Measure.summary) cached =
    Printf.printf "%-12s %10.6f s  [%.6f, %.6f]  [%s]\n" label
      (Measure.seconds m) (m.q1_ns /. 1e9) (m.q3_ns /. 1e9)
      (if cached then "jit cache hit" else "compiled")
  in
  line "point:" r.nt_point r.nt_point_cached;
  line "transformed:" r.nt_transformed r.nt_transformed_cached;
  Printf.printf "speedup: %.2fx%s\n" r.nt_speedup
    (match r.nt_model_speedup with
    | None -> ""
    | Some m -> Printf.sprintf "  (cache model predicts %.2fx)" m)

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("ocaml", "ocaml"); ("c", "c") ]) "ocaml"
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Native substrate: $(b,ocaml) (emitted OCaml, ocamlopt, Dynlink) \
           or $(b,c) (emitted C99, system cc, dlopen).  Both share the \
           blueprint cache and must agree bitwise with the interpreter.")

let resolve_backend tag =
  match Backend.of_tag tag with
  | Some b -> b
  | None ->
      Printf.eprintf "blockc: unknown backend '%s' (expected one of: %s)\n" tag
        (String.concat ", " Backend.names);
      exit 2

let compile_cmd =
  let emit_arg =
    Arg.(
      value
      & opt (some (enum [ ("ocaml", `Ocaml); ("c", `C) ])) None
      & info [ "emit" ] ~docv:"LANG"
          ~doc:
            "Print the generated source ($(b,ocaml) or $(b,c)) instead of \
             compiling it.")
  in
  let variant_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("point", Blockability.Point);
               ("transformed", Blockability.Transformed);
             ])
          Blockability.Point
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "Which variant to emit or compile when not using $(b,--run): \
             $(b,point) or $(b,transformed).")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Compile both variants, check each is bitwise equal to the \
             interpreter, then time them and report the native speedup \
             next to the cache model's prediction.")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"PATH"
          ~doc:
            "Run the span-stack sampler for the duration of the command \
             (rate from $(b,BLOCKC_PROFILE_HZ), default 97 Hz) and write \
             the folded-stack profile — flamegraph.pl / speedscope input \
             — to $(docv) ($(b,-) for stdout).")
  in
  let run name emit variant do_run backend bindings seed json flame () =
    let finish_flame =
      match flame with
      | None -> fun () -> ()
      | Some path ->
          Obs.Sampler.start ();
          fun () ->
            Obs.Sampler.stop ();
            let text = Obs.Sampler.folded_text () in
            if path = "-" then print_string text
            else begin
              let oc = open_out path in
              output_string oc text;
              close_out oc;
              Printf.eprintf
                "blockc compile: wrote %d folded stack(s) (%d samples at \
                 %g Hz) to %s\n"
                (List.length (Obs.Sampler.folded ()))
                (Obs.Sampler.samples ()) (Obs.Sampler.hz ()) path
            end
    in
    Fun.protect ~finally:finish_flame @@ fun () ->
    let e = resolve_kernel name in
    let backend = resolve_backend backend in
    let module B = (val backend : Backend.S) in
    let backend_or_exit () =
      match B.available () with
      | Ok () -> ()
      | Error m ->
          Printf.eprintf "blockc compile: %s\n" m;
          exit 2
    in
    if do_run then begin
      backend_or_exit ();
      match
        Blockability.native_compare ~backend
          ~bindings:(checked_bindings e bindings) ~seed e
      with
      | Error m ->
          prerr_endline ("blockc compile: " ^ m);
          exit 1
      | Ok r ->
          if json then print_endline (J.to_string (json_of_native r))
          else print_native r
    end
    else
      let jname =
        e.Blockability.name ^ "_" ^ Blockability.variant_name variant
      in
      let fail m =
        prerr_endline ("blockc compile: " ^ m);
        exit 1
      in
      match emit with
      | Some lang -> (
          let source =
            match lang with `Ocaml -> Emit.source | `C -> Emit_c.source
          in
          match Blockability.variant_block e variant with
          | Error m -> fail m
          | Ok (block, _, _) -> (
              match
                source ~shapes:e.Blockability.kernel.Kernel_def.shapes
                  ~name:jname block
              with
              | Error m -> fail m
              | Ok src -> print_string src))
      | None -> (
          backend_or_exit ();
          match Blockability.compile ~backend e variant with
          | Error m -> fail m
          | Ok c when json ->
              print_endline
                (J.to_string (J.Object (Blockability.compiled_fields c)))
          | Ok { c_bp = bp; c_cm = c; _ } ->
              Printf.printf "compiled %s -> %s (blueprint %s, %s, %.3fs)\n"
                jname c.Backend.bk_artifact
                (String.sub bp.Blueprint.key 0 12)
                (Artifact_cache.disposition_name c.Backend.bk_disposition)
                c.Backend.bk_compile_s)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Lower a kernel to native code: emit source ($(b,--emit ocaml) or \
          $(b,--emit c)), compile and cache the artifact on the selected \
          $(b,--backend), or with $(b,--run) verify both variants bitwise \
          against the interpreter and time them."
       ~exits)
    (traced
       Term.(
         const run $ kernel_name_arg $ emit_arg $ variant_arg $ run_flag
         $ backend_arg $ bindings_arg $ seed_arg $ json_flag
         $ flame_arg))

(* ---- fuzz ---- *)

let json_of_fuzz (s : Fuzz.summary) =
  J.Object
    [
      ("iters", J.int s.iters);
      ("seed", J.int s.seed);
      ("programs", J.int s.programs);
      ( "depth_counts",
        J.Array (Array.to_list (Array.map J.int s.depth_counts)) );
      ( "coverage",
        J.Object
          [
            ("rect", J.int s.rect);
            ("triangular", J.int s.triangular);
            ("trapezoidal", J.int s.trapezoidal);
            ("guarded", J.int s.guarded);
          ] );
      ( "oracle",
        J.Object
          [
            ("checked", J.int s.oracle_checked);
            ("violations", J.int s.oracle_violations);
          ] );
      ("reparsed", J.int s.reparsed);
      ( "native",
        J.Object
          [
            ("checked", J.int s.native_checked);
            ("c_checked", J.int s.native_c_checked);
            ("divergences", J.int s.native_divergences);
            ("blueprints", J.int s.native_blueprints);
            ("blueprint_reuses", J.int s.native_blueprint_reuses);
            ("unchecked", J.int s.native_emitted.Emit.unchecked);
            ("hoisted", J.int s.native_emitted.Emit.hoisted);
            ("promoted", J.int s.native_emitted.Emit.promoted);
            ("c_raw", J.int s.native_c_raw);
          ] );
      ( "passes",
        J.Array
          (List.map
             (fun (p : Fuzz.pass_stat) ->
               J.Object
                 [
                   ("name", J.String p.ps_name);
                   ("applied", J.int p.ps_applied);
                   ("rejected", J.int p.ps_rejected);
                   ("diverged", J.int p.ps_diverged);
                 ])
             s.passes) );
      ("failures", J.Array (List.map (fun f -> J.String f) s.failures));
      ("ok", J.Bool (Fuzz.ok s));
    ]

let print_fuzz (s : Fuzz.summary) =
  Printf.printf
    "fuzz: %d programs (seed %d, %d requested)\n\
     nest depth 1/2/3: %d/%d/%d\n\
     coverage: rectangular %d  triangular %d  trapezoidal %d  guarded %d\n\
     oracle cross-checks: %d (violations %d)  reparse checks: %d\n"
    s.programs s.seed s.iters s.depth_counts.(0) s.depth_counts.(1)
    s.depth_counts.(2) s.rect s.triangular s.trapezoidal s.guarded
    s.oracle_checked s.oracle_violations s.reparsed;
  if s.native_checked > 0 || s.native_divergences > 0 then
    Printf.printf
      "native cross-checks: %d%s (divergences %d, %d blueprints, %d reused)\n"
      s.native_checked
      (if s.native_c_checked > 0 then
         Printf.sprintf " [three-way, %d through the C backend]"
           s.native_c_checked
       else "")
      s.native_divergences s.native_blueprints s.native_blueprint_reuses;
  if s.native_checked > 0 then
    Printf.printf
      "native emission: %d unchecked accesses, %d hoisted bases, %d promoted \
       elements\n"
      s.native_emitted.Emit.unchecked s.native_emitted.Emit.hoisted
      s.native_emitted.Emit.promoted;
  if s.native_c_checked > 0 then
    Printf.printf "C emission: %d raw-pointer accesses\n" s.native_c_raw;
  let tbl =
    Table.create ~title:"Per-pass differential results"
      [
        ("Pass", Table.Left); ("Applied", Table.Right);
        ("Rejected", Table.Right); ("Diverged", Table.Right);
      ]
  in
  List.iter
    (fun (p : Fuzz.pass_stat) ->
      text_row tbl
        [
          p.ps_name; string_of_int p.ps_applied; string_of_int p.ps_rejected;
          string_of_int p.ps_diverged;
        ])
    s.passes;
  Table.print tbl;
  match s.failures with
  | [] -> Printf.printf "result: OK — no divergences, no oracle violations\n"
  | fs ->
      Printf.printf "result: FAIL — %d counterexample(s); replay with --seed %d\n"
        (List.length fs) s.seed;
      List.iteri (fun i f -> Printf.printf "\n--- counterexample %d ---\n%s\n" (i + 1) f) fs

let fuzz_cmd =
  let iters_arg =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"PASS"
          ~doc:
            "Run a single check: a transformation pass name, $(b,oracle), or \
             $(b,reparse).")
  in
  let native_flag =
    Arg.(
      value & flag
      & info [ "native" ]
          ~doc:
            "Also JIT-compile every generated program to native code and \
             check it bitwise against the interpreter (requires the \
             $(b,ocamlopt) toolchain; budget ~100ms per program on a cold \
             cache).")
  in
  let run iters seed only native backend json () =
    ignore (resolve_backend backend);
    (match only with
    | Some o when not (List.mem o Fuzz.pass_names) ->
        Printf.eprintf "blockc: unknown pass '%s'\nknown passes: %s\n" o
          (String.concat ", " Fuzz.pass_names);
        exit 2
    | _ -> ());
    match Fuzz.run ?only ~native ~backend ~iters ~seed () with
    | Error m ->
        Printf.eprintf "blockc fuzz: %s\n" m;
        exit 2
    | Ok s ->
        if json then print_endline (J.to_string (json_of_fuzz s))
        else print_fuzz s;
        if not (Fuzz.ok s) then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-test the transformation catalogue on random loop \
          nests: every legal application must leave the interpreter's \
          result bitwise unchanged, and the dependence analysis must stay \
          conservative against a brute-force oracle.  With $(b,--native \
          --backend c), every program additionally runs through both the \
          OCaml plugin and the dlopen'd C object — a three-way bitwise \
          differential against the interpreter.  A non-empty failure list \
          exits 1 and prints shrunk, replayable counterexamples."
       ~exits)
    (traced
       Term.(
         const run $ iters_arg $ seed_arg $ only_arg $ native_flag
         $ backend_arg $ json_flag))

(* ---- serve ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout; connections are served until a client sends \
             $(b,shutdown).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Request lanes (default 2): the daemon's domain count.  Each \
             lane handles one request at a time and, when it has none, \
             helps with another lane's $(b,batch).  $(b,BLOCKABILITY_DOMAINS) \
             does not apply.")
  in
  let run socket workers () =
    (match Jit.available () with
    | Ok () -> ()
    | Error m ->
        Printf.eprintf "blockc serve: %s\n" m;
        exit 2);
    match socket with
    | None -> Serve.run_stdio ~workers ()
    | Some path -> (
        (* a live daemon on the path is refused with Failure *)
        try Serve.run_socket ~workers path
        with Failure m ->
          Printf.eprintf "blockc serve: %s\n" m;
          exit 2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batched compile/execute request server: newline-delimited \
          JSON requests ($(b,ping), $(b,derive), $(b,compile), $(b,execute), \
          $(b,batch), $(b,simulate), $(b,status), $(b,shutdown)) over \
          stdin/stdout or a Unix socket, handled by $(b,--workers) request \
          lanes sharing one blueprint-keyed JIT cache."
       ~exits)
    (traced Term.(const run $ socket_arg $ workers_arg))

(* ---- stats and top: clients of a serve daemon's socket ---- *)

let stats_exchange path line =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect sock (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
  | () ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr sock in
          output_string oc line;
          output_char oc '\n';
          flush oc;
          let ic = Unix.in_channel_of_descr sock in
          match input_line ic with
          | resp -> Ok resp
          | exception End_of_file ->
              Error "connection closed before a response arrived")

(* Send one op; the response must say "ok":true. *)
let request path op =
  let req = J.to_string (J.Object [ ("op", J.String op) ]) in
  match stats_exchange path req with
  | Error _ as e -> e
  | Ok line -> (
      match J.parse line with
      | Error m -> Error ("unparseable response: " ^ m)
      | Ok resp when J.bool_field "ok" resp = Some true -> Ok resp
      | Ok _ -> Error ("daemon refused op " ^ op ^ ": " ^ line))

(* Every [period] seconds, [fetch] and [show] the [n]th result, until
   [iters] results are shown (0: forever).  A watch survives the daemon
   restarting or the socket vanishing: a failed fetch is retried with
   doubling backoff, with one warning line per outage, not an exit. *)
let watch ~cmd ~path ~period ~iters fetch show =
  let period = Float.max 0.1 period in
  let backoff = ref period and down = ref false and n = ref 0 in
  let continue () = iters <= 0 || !n < iters in
  while continue () do
    (match fetch () with
    | Ok x ->
        if !down then
          Printf.eprintf "blockc %s: reconnected to %s\n%!" cmd path;
        down := false;
        backoff := period;
        incr n;
        show !n x
    | Error m ->
        if not !down then begin
          Printf.eprintf "blockc %s: %s — retrying with backoff\n%!" cmd m;
          down := true
        end;
        backoff := Float.min 30.0 (!backoff *. 2.));
    if continue () then Unix.sleepf (if !down then !backoff else period)
  done

let text_field name resp =
  match J.string_field name resp with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "response has no %S field" name)

(* One flight-recorder event per line: timestamp, kind, track, name and
   the trace ids — the human-readable view of the [dump] op. *)
let render_dump resp =
  match J.field "events" resp with
  | Some (J.Array evs) ->
      let b = Buffer.create 1024 in
      (match (J.int_field "n" resp, J.int_field "capacity" resp) with
      | Some n, Some cap ->
          Buffer.add_string b
            (Printf.sprintf "# flight recorder: %d of %d slots\n" n cap)
      | _ -> ());
      List.iter
        (fun ev ->
          let str k = Option.value (J.string_field k ev) ~default:"?" in
          Buffer.add_string b
            (Printf.sprintf "%s %-2s t%d %-11s %s" (str "ts") (str "kind")
               (Option.value (J.int_field "track" ev) ~default:0)
               (str "cat") (str "name"));
          Option.iter
            (fun t -> Buffer.add_string b (Printf.sprintf " trace=%s" t))
            (J.string_field "trace" ev);
          (match J.field "args" ev with
          | Some (J.Object kvs as args) when kvs <> [] ->
              Buffer.add_string b (" " ^ J.to_string args)
          | _ -> ());
          Buffer.add_char b '\n')
        evs;
      Ok (Buffer.contents b)
  | _ -> Error "response has no \"events\" field"

let stats_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket of the $(b,blockc serve --socket) daemon to \
             scrape (required: the stdio daemon owns its only channel).")
  in
  let watch_arg =
    Arg.(
      value
      & opt ~vopt:(Some 2.0) (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:
            "Re-scrape and re-print every $(docv) seconds (default 2.0) \
             until interrupted, instead of printing once.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Flush the daemon's flight recorder (the $(b,dump) op) instead \
             of the metrics exposition.")
  in
  let flame_arg =
    Arg.(
      value & flag
      & info [ "flame" ]
          ~doc:
            "Fetch the daemon's folded-stack profile (the $(b,flame) op — \
             starts the span-stack sampler on first use) instead of the \
             metrics exposition; the output feeds flamegraph.pl or \
             speedscope directly.")
  in
  let run socket every dump flame () =
    let path =
      match socket with
      | Some p -> p
      | None ->
          prerr_endline
            "blockc stats: --socket PATH is required (point it at a `blockc \
             serve --socket PATH` daemon)";
          exit 2
    in
    let op, render =
      if dump then ("dump", render_dump)
      else if flame then ("flame", text_field "folded")
      else ("metrics", text_field "metrics")
    in
    let fetch () = Result.bind (request path op) render in
    let print_text text =
      print_string text;
      if text = "" || text.[String.length text - 1] <> '\n' then
        print_newline ();
      flush stdout
    in
    match every with
    | None -> (
        match fetch () with
        | Ok text -> print_text text
        | Error m ->
            Printf.eprintf "blockc stats: %s\n" m;
            exit 2)
    | Some period ->
        watch ~cmd:"stats" ~path ~period ~iters:0 fetch (fun _ text ->
            let t = Unix.localtime (Unix.gettimeofday ()) in
            Printf.printf "--- %02d:%02d:%02d %s\n" t.Unix.tm_hour
              t.Unix.tm_min t.Unix.tm_sec path;
            print_text text)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a running serve daemon's telemetry over its Unix socket: \
          print the Prometheus text exposition (request counts, labelled \
          error classes, p50/p90/p99 latency summaries per op), re-render \
          periodically with $(b,--watch) (reconnecting with backoff if the \
          daemon restarts), fetch the folded-stack profile with \
          $(b,--flame), or flush the in-memory flight recorder with \
          $(b,--dump)."
       ~exits)
    (traced Term.(const run $ socket_arg $ watch_arg $ dump_arg $ flame_arg))

(* ---- top: live dashboard over the metrics/status ops ------------- *)

(* Parse a Prometheus text exposition into [(sample_name, value)] rows;
   sample names keep their label block verbatim. *)
let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               let name = String.sub line 0 i in
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               Option.map (fun f -> (name, f)) (float_of_string_opt v))

let prom_value samples name = List.assoc_opt name samples

(* Extract one label's value out of a sample name:
   [label_value {|m{op="ping",quantile="0.5"}|} "op"] = [Some "ping"]. *)
let label_value name key =
  let pat = key ^ "=\"" in
  let plen = String.length pat and n = String.length name in
  let rec find i =
    if i + plen > n then None
    else if String.sub name i plen = pat then
      let start = i + plen in
      match String.index_from_opt name start '"' with
      | Some stop -> Some (String.sub name start (stop - start))
      | None -> None
    else find (i + 1)
  in
  find 0

let prom_base name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

let top_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the serve daemon to watch.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Seconds between refreshes (default 2.0).")
  in
  let iters_arg =
    Arg.(
      value & opt int 0
      & info [ "n"; "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes instead of running until \
             interrupted (0 = forever).")
  in
  let fmt_rate = function
    | None -> "-"
    | Some r when Float.abs r >= 1e6 -> Printf.sprintf "%.2fM/s" (r /. 1e6)
    | Some r when Float.abs r >= 1e3 -> Printf.sprintf "%.1fk/s" (r /. 1e3)
    | Some r -> Printf.sprintf "%.1f/s" r
  in
  let fmt_ns f =
    if f >= 1e9 then Printf.sprintf "%.2fs" (f /. 1e9)
    else if f >= 1e6 then Printf.sprintf "%.1fms" (f /. 1e6)
    else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
    else Printf.sprintf "%.0fns" f
  in
  let fmt_bytes b =
    if b >= 1048576. then Printf.sprintf "%.1fMiB" (b /. 1048576.)
    else if b >= 1024. then Printf.sprintf "%.1fKiB" (b /. 1024.)
    else Printf.sprintf "%.0fB" b
  in
  let render ~path ~iter ~dt_s prev samples status =
    let b = Buffer.create 2048 in
    let rate name =
      (* delta of a monotonically increasing sample over the interval *)
      match (prev, prom_value samples name) with
      | Some (ps, pdt), Some cur when pdt > 0.0 -> (
          ignore pdt;
          match prom_value ps name with
          | Some old when dt_s > 0.0 -> Some ((cur -. old) /. dt_s)
          | _ -> None)
      | _ -> None
    in
    let t = Unix.localtime (Unix.gettimeofday ()) in
    Buffer.add_string b
      (Printf.sprintf "blockc top — %s — %02d:%02d:%02d  (refresh %d)\n" path
         t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec iter);
    let requests =
      Option.value (prom_value samples "blockc_serve_requests_total")
        ~default:0.0
    in
    let errors =
      Option.value (prom_value samples "blockc_serve_errors_total")
        ~default:0.0
    in
    let depth =
      Option.value (prom_value samples "blockc_serve_depth") ~default:0.0
    in
    let depth_peak =
      Option.value (prom_value samples "blockc_serve_depth_peak") ~default:0.0
    in
    Buffer.add_string b
      (Printf.sprintf
         "requests %.0f  (%s)   errors %.0f   queue depth %.0f (peak %.0f)\n"
         requests
         (fmt_rate (rate "blockc_serve_requests_total"))
         errors depth depth_peak);
    (* per-op latency summary rows *)
    let ops =
      List.sort_uniq compare
        (List.filter_map
           (fun (name, _) ->
             if
               prom_base name = "blockc_serve_request_ns"
               && label_value name "quantile" = Some "0.5"
             then label_value name "op"
             else None)
           samples)
    in
    if ops <> [] then begin
      Buffer.add_string b
        (Printf.sprintf "  %-10s %10s %10s %10s\n" "op" "p50" "p99" "count");
      List.iter
        (fun op ->
          let q v =
            prom_value samples
              (Printf.sprintf "blockc_serve_request_ns{op=\"%s\",quantile=\"%s\"}"
                 op v)
          in
          let count =
            prom_value samples
              (Printf.sprintf "blockc_serve_request_ns_count{op=\"%s\"}" op)
          in
          Buffer.add_string b
            (Printf.sprintf "  %-10s %10s %10s %10.0f\n" op
               (match q "0.5" with Some f -> fmt_ns f | None -> "-")
               (match q "0.99" with Some f -> fmt_ns f | None -> "-")
               (Option.value count ~default:0.0)))
        ops
    end;
    (* GC pressure, from the per-request histogram sums *)
    Buffer.add_string b
      (Printf.sprintf
         "gc: minor %s  major %s  alloc %s words  promoted %s words\n"
         (fmt_rate (rate "blockc_serve_gc_minor_gcs_sum"))
         (fmt_rate (rate "blockc_serve_gc_major_gcs_sum"))
         (fmt_rate (rate "blockc_serve_gc_allocated_words_sum"))
         (fmt_rate (rate "blockc_serve_gc_promoted_words_sum")));
    (* lane utilization: busy-ns deltas vs the wall interval *)
    let lanes prefix =
      List.filter_map
        (fun (name, v) ->
          if prom_base name = prefix then
            Option.map (fun l -> (name, l, v)) (label_value name "lane")
          else None)
        samples
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
    in
    let render_lanes title prefix =
      match lanes prefix with
      | [] -> ()
      | ls ->
          Buffer.add_string b (title ^ ":");
          List.iter
            (fun (name, lane, _) ->
              let util =
                match rate name with
                | Some busy_per_s when dt_s > 0.0 ->
                    Printf.sprintf "%3.0f%%" (busy_per_s /. 1e9 *. 100.)
                | _ -> "   -"
              in
              Buffer.add_string b (Printf.sprintf "  [%s] %s" lane util))
            ls;
          Buffer.add_char b '\n'
    in
    render_lanes "serve lanes" "blockc_serve_lane_busy_ns";
    render_lanes "pool lanes" "blockc_pool_lane_busy_ns";
    (* JIT cache + sampler state, from the status op *)
    (match status with
    | None -> ()
    | Some st ->
        let num j name = Option.value (J.number_field name j) ~default:0.0 in
        let ocaml =
          Option.bind (J.field "cache" st) (J.field "ocaml")
          |> Option.value ~default:J.Null
        in
        Buffer.add_string b
          (Printf.sprintf
             "jit: memo %.0f entries, %.0f hits | disk %.0f hits, %.0f \
              artifacts, %s, oldest %.0fs | ocamlopt %.0f\n"
             (num ocaml "loaded") (num ocaml "memo_hits")
             (num ocaml "disk_hits") (num st "disk_entries")
             (fmt_bytes (num st "disk_bytes"))
             (num st "disk_oldest_age_s") (num ocaml "builds"));
        Buffer.add_string b
          (if J.bool_field "sampler_running" st = Some true then
             Printf.sprintf "sampler: %g Hz, %.0f samples\n"
               (num st "sampler_hz") (num st "sampler_samples")
           else "sampler: off (BLOCKC_PROFILE_HZ or the flame op starts it)\n"));
    Buffer.contents b
  in
  let run socket interval iters () =
    let path =
      match socket with
      | Some p -> p
      | None ->
          prerr_endline
            "blockc top: --socket PATH is required (point it at a `blockc \
             serve --socket PATH` daemon)";
          exit 2
    in
    let clear = Unix.isatty Unix.stdout in
    let prev = ref None in
    let fetch () =
      let t_scrape = float_of_int (Obs.now_ns ()) /. 1e9 in
      Result.map (fun resp -> (t_scrape, resp)) (request path "metrics")
    in
    watch ~cmd:"top" ~path ~period:interval ~iters fetch
    @@ fun iter (t_scrape, metrics) ->
    let samples =
      Option.fold ~none:[] ~some:parse_prom (J.string_field "metrics" metrics)
    in
    let status = Result.to_option (request path "status") in
    let dt_s =
      match !prev with Some (_, t_old) -> t_scrape -. t_old | None -> 0.0
    in
    let text = render ~path ~iter ~dt_s !prev samples status in
    if clear then print_string "\027[2J\027[H";
    print_string text;
    flush stdout;
    prev := Some (samples, t_scrape)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a serve daemon's $(b,metrics) and $(b,status) \
          ops: queries per second, per-op p50/p99 latency, queue depth, \
          per-lane utilization (busy-ns deltas), GC allocation and \
          collection rates, JIT cache state (memo/disk hits, artifact count \
          and bytes, age) and the continuous-profiling sampler state, \
          refreshed every $(b,--interval) seconds."
       ~exits)
    (traced Term.(const run $ socket_arg $ interval_arg $ iters_arg))

let () =
  let doc = "compiler blockability of numerical algorithms (Carr-Kennedy SC'92)" in
  let info = Cmd.info "blockc" ~doc ~exits in
  (* `blockc --explain KERNEL` without a subcommand = `blockc explain`. *)
  let explain_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"KERNEL"
          ~doc:"Shorthand for the $(b,explain) subcommand.")
  in
  let default =
    Term.ret
      Term.(
        const (fun name bindings seed machine fmt out ->
            match name with
            | None -> `Help (`Pager, None)
            | Some name -> (
                match setup_trace fmt out with
                | Error m -> `Error (true, m)
                | Ok () ->
                    `Ok (explain_run (resolve_kernel name) bindings seed machine)))
        $ explain_opt $ bindings_arg $ seed_arg $ machine_arg $ trace_arg
        $ trace_out_arg)
  in
  let group =
    Cmd.group ~default info
      [ list_cmd; show_cmd; derive_cmd; verify_cmd; simulate_cmd; explain_cmd;
        profile_cmd; sections_cmd; parse_cmd; lower_cmd; compile_cmd;
        fuzz_cmd; serve_cmd; stats_cmd; top_cmd ]
  in
  exit (Cmd.eval group)
