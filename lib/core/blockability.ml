type entry = {
  name : string;
  paper_ref : string;
  kernel : Kernel_def.t;
  derive : unit -> (Stmt.t Blocker.traced, string) result;
  extra_bindings : (string * int) list;
  extra_setup : Env.t -> bindings:(string * int) list -> unit;
  default_bindings : (string * int) list;
  blockable : bool;
}

let no_extra (_ : Env.t) ~bindings:(_ : (string * int) list) = ()

let untraced result = { Blocker.result; steps = [] }

(* ---- matmul: IF-inspection of the guarded K loop ---- *)

let matmul_names =
  If_inspection.default_names ~prefix:"K"
    ~used:(Ir_util.index_vars [ Stmt.Loop K_matmul.nest ])

let matmul_derive () =
  match If_inspection.apply ~names:matmul_names K_matmul.guarded_k_loop with
  | Error _ as e -> e
  | Ok block ->
      Ok (untraced (Stmt.Loop { K_matmul.nest with body = block }))

let matmul_scratch env ~bindings =
  let n = List.assoc "N" bindings in
  Env.add_iarray env matmul_names.If_inspection.lb [ (1, (n / 2) + 1) ];
  Env.add_iarray env matmul_names.If_inspection.ub [ (1, (n / 2) + 1) ]

(* ---- Givens ---- *)

let givens_names = Givens_opt.names K_givens.point_loop

let givens_derive () =
  Result.map fst (Givens_opt.optimize K_givens.point_loop)

let givens_scratch env ~bindings =
  let m = List.assoc "M" bindings in
  Env.add_iarray env givens_names.If_inspection.lb [ (1, (m / 2) + 1) ];
  Env.add_iarray env givens_names.If_inspection.ub [ (1, (m / 2) + 1) ];
  Env.add_farray env "C" [ (1, m) ];
  Env.add_farray env "S" [ (1, m) ]

(* ---- convolutions: MIN/MAX removal + shape-matched unroll-and-jam ---- *)

(* The rhomboidal unroll requires the band to be at least as wide as the
   register block; verification and benchmarks bind N2 accordingly. *)
let conv_factor = 4

(* A fresh context per derivation: a context's proof cache belongs to
   the domain that first queried it, and serve lanes derive
   concurrently. *)
let conv_ctx () =
  let ctx = Symbolic.empty in
  let ctx = List.fold_left Symbolic.assume_pos ctx [ "N1"; "N2"; "N3" ] in
  Symbolic.assume_ge ctx (Affine.var "N2") (Affine.const (conv_factor - 1))

let split_derive loop () =
  match Blocker.block_trapezoid ~ctx:(conv_ctx ()) ~factor:conv_factor loop with
  | Error _ as e -> e
  | Ok { result = [ s ]; steps } -> Ok { Blocker.result = s; steps }
  | Ok { result = block; steps } ->
      (* The traced result type carries one statement; wrap the region
         list in a one-trip loop. *)
      Ok { Blocker.result = Stmt.loop "ONE_" (Expr.Int 1) (Expr.Int 1) block; steps }

(* ---- Householder: the paper's negative result (§5.3) ---- *)

let householder_derive () =
  let r =
    match Blocker.block_lu ~block_size_var:"KS" K_householder.point_loop with
    | Ok _ ->
        (* §5.3 says this must not happen; surface it loudly if it does. *)
        Error
          "derivation unexpectedly succeeded — the §5.3 non-blockability \
           claim is violated; the driver is accepting an illegal \
           transformation"
    | Error mechanical ->
        Error
          ("not blockable (§5.3): the block algorithm computes the \
            compact-WY triangular factor T — computation and storage with \
            no counterpart in the point code, so no dependence-based \
            transformation sequence can derive it.  Mechanical derivation \
            stops at: " ^ mechanical)
  in
  (match r with
  | Error reason ->
      Obs.decision ~transform:"block" ~target:"householder" ~applied:false
        ~reason ()
  | Ok _ -> ());
  r

let entries =
  [
    {
      name = "lu";
      paper_ref = "§5.1, Figures 5-6";
      kernel = K_lu.kernel;
      derive = (fun () -> Blocker.block_lu ~block_size_var:"KS" K_lu.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "lu_opt";
      paper_ref = "§5.1, Table 3 (2+)";
      kernel = K_lu.kernel;
      derive =
        (fun () ->
          Blocker.block_lu_opt ~block_size_var:"KS" ~factor:4 K_lu.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "lu_pivot";
      paper_ref = "§5.2, Figures 7-8";
      kernel = K_lu_pivot.kernel;
      derive =
        (fun () -> Blocker.block_lu_pivot ~block_size_var:"KS" K_lu_pivot.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "lu_pivot_opt";
      paper_ref = "§5.2, Table 4 (1+)";
      kernel = K_lu_pivot.kernel;
      derive =
        (fun () ->
          Blocker.block_lu_pivot_opt ~block_size_var:"KS" ~factor:4
            K_lu_pivot.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "trisolve";
      paper_ref = "§8 breadth (ours)";
      kernel = K_trisolve.kernel;
      derive =
        (fun () -> Blocker.block_lu ~block_size_var:"KS" K_trisolve.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "cholesky";
      paper_ref = "§8 breadth (ours)";
      kernel = K_cholesky.kernel;
      derive =
        (fun () -> Blocker.block_lu ~block_size_var:"KS" K_cholesky.point_loop);
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("N", 24) ];
      blockable = true;
    };
    {
      name = "matmul";
      paper_ref = "§4, Figure 4";
      kernel = K_matmul.kernel;
      derive = matmul_derive;
      extra_bindings = [];
      extra_setup = matmul_scratch;
      default_bindings = [ ("N", 24); ("FREQ_PCT", 10) ];
      blockable = true;
    };
    {
      name = "givens";
      paper_ref = "§5.4, Figures 9-10";
      kernel = K_givens.kernel;
      derive = givens_derive;
      extra_bindings = [];
      extra_setup = givens_scratch;
      default_bindings = [ ("M", 16); ("N", 12) ];
      blockable = true;
    };
    {
      name = "aconv";
      paper_ref = "§3.2 (adjoint convolution)";
      kernel = K_conv.aconv;
      derive = split_derive K_conv.aconv_loop;
      extra_bindings = [];
      extra_setup = no_extra;
      default_bindings = [ ("N1", 40); ("N2", 9); ("N3", 50) ];
      blockable = true;
    };
    {
      name = "conv";
      paper_ref = "§3.2 (convolution)";
      kernel = K_conv.conv;
      derive = split_derive K_conv.conv_loop;
      extra_bindings = [];
      extra_setup = no_extra;
      default_bindings = [ ("N1", 40); ("N2", 9); ("N3", 50) ];
      blockable = true;
    };
    {
      name = "householder";
      paper_ref = "§5.3 (non-blockable)";
      kernel = K_householder.kernel;
      derive = householder_derive;
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("M", 16); ("N", 12) ];
      blockable = false;
    };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) entries
let names () = List.map (fun e -> e.name) entries
let derive e = e.derive ()

let with_scratch entry =
  {
    entry.kernel with
    Kernel_def.setup =
      (fun env ~bindings ~seed ->
        entry.kernel.Kernel_def.setup env ~bindings ~seed;
        entry.extra_setup env ~bindings);
  }

let verify ?bindings ?(seed = 42) entry =
  let bindings = Option.value bindings ~default:entry.default_bindings in
  match derive entry with
  | Error e -> Error ("derivation failed: " ^ e)
  | Ok { result; _ } ->
      Kernel_def.equivalent (with_scratch entry) [ result ]
        ~extra:entry.extra_bindings ~bindings ~seed

type sim_result = {
  point_stats : Cache.stats;
  transformed_stats : Cache.stats;
  point_by_array : (string * Cache.stats) list;
  transformed_by_array : (string * Cache.stats) list;
  point_cycles : int;
  transformed_cycles : int;
}

(* ---- memory-hierarchy profiling --------------------------------- *)

type kernel_profile = {
  kp_kernel : string;
  kp_variant : string;
  kp_block : int option;
  kp_levels : (string * Cache.stats) list;
  kp_tlb : Cache.stats;
  kp_cycles : int;
  kp_refs : Trace.ref_profile list;
  kp_loops : (string * Trace.ref_counts) list;
  kp_hist : (int * int) list;
  kp_cold : int;
  kp_footprint_lines : int;
  kp_miss_curve : (int * int) list;
  kp_validation : Cost.validation;
}

let obs_emit_profile kp =
  if Obs.enabled () then begin
    let l1 = snd (List.hd kp.kp_levels) in
    Obs.instant ~cat:"profile" "profile.summary"
      ~args:
        [
          ("kernel", Obs.Str kp.kp_kernel);
          ("variant", Obs.Str kp.kp_variant);
          ("block", Obs.Int (Option.value kp.kp_block ~default:0));
          ("l1_misses", Obs.Int l1.Cache.misses);
          ("cycles", Obs.Int kp.kp_cycles);
          ("predicted_misses", Obs.Int kp.kp_validation.Cost.v_predicted);
          ("divergence", Obs.Float kp.kp_validation.Cost.v_divergence);
        ];
    List.iter
      (fun (r : Trace.ref_profile) ->
        if r.counts.Trace.c_accesses > 0 then
          Obs.instant ~cat:"profile" "profile.ref"
            ~args:
              [
                ("kernel", Obs.Str kp.kp_kernel);
                ("variant", Obs.Str kp.kp_variant);
                ("ref", Obs.Str r.site.Exec.ref_text);
                ("ref_id", Obs.Int r.site.Exec.ref_id);
                ( "nest",
                  Obs.Str (String.concat ">" r.site.Exec.ref_loops) );
                ("accesses", Obs.Int r.counts.Trace.c_accesses);
                ("l1_misses", Obs.Int r.counts.Trace.c_l1_misses);
                ("l2_misses", Obs.Int r.counts.Trace.c_l2_misses);
                ("tlb_misses", Obs.Int r.counts.Trace.c_tlb_misses);
              ])
      kp.kp_refs
  end

let profile_block ~machine ~spec ~kernel_name ~variant ~block env ~arrays
    stmts =
  Obs.span ~cat:"profile" "profile.run"
    ~args:[ ("kernel", Obs.Str kernel_name); ("variant", Obs.Str variant) ]
  @@ fun () ->
  let p = Trace.run_profile ?spec machine env ~arrays stmts in
  let h = Trace.hier p in
  let levels = Hier.level_stats h in
  let l1_stats = snd (List.hd levels) in
  let reuse = Option.get (Hier.reuse h) in
  let kp =
    {
      kp_kernel = kernel_name;
      kp_variant = variant;
      kp_block = block;
      kp_levels = levels;
      kp_tlb = Hier.tlb_stats h;
      kp_cycles = Hier.cycles h;
      kp_refs = Trace.ref_profiles p;
      kp_loops = Trace.loop_profiles p;
      kp_hist = Reuse.histogram reuse;
      kp_cold = Reuse.cold reuse;
      kp_footprint_lines = Reuse.distinct_lines reuse;
      kp_miss_curve =
        Reuse.miss_curve reuse
          ~max_lines:(max 1 (4 * machine.Arch.cache_bytes / machine.Arch.line_bytes));
      kp_validation = Cost.validate reuse machine l1_stats;
    }
  in
  obs_emit_profile kp;
  kp

let block_bindings entry = function
  | None -> Ok entry.extra_bindings
  | Some b ->
      if List.mem_assoc "KS" entry.extra_bindings then
        Ok (("KS", b) :: List.remove_assoc "KS" entry.extra_bindings)
      else
        Error
          (Printf.sprintf
             "%s has no block-size parameter (KS); --sweep/--block do not \
              apply"
             entry.name)

let profile ?bindings ?(seed = 42) ?(machine = Arch.rs6000_540) ?spec ?block
    entry =
  let bindings = Option.value bindings ~default:entry.default_bindings in
  match derive entry with
  | Error e -> Error ("derivation failed: " ^ e)
  | Ok { result; _ } -> (
      match block_bindings entry block with
      | Error e -> Error e
      | Ok extra ->
          let kernel = with_scratch entry in
          let arrays = entry.kernel.Kernel_def.traced in
          let env1 = Kernel_def.make_env kernel ~bindings ~seed in
          let point =
            profile_block ~machine ~spec ~kernel_name:entry.name
              ~variant:"point" ~block:None env1 ~arrays
              kernel.Kernel_def.block
          in
          let env2 =
            Kernel_def.make_env kernel ~bindings:(extra @ bindings) ~seed
          in
          let transformed =
            profile_block ~machine ~spec ~kernel_name:entry.name
              ~variant:"transformed" ~block env2 ~arrays [ result ]
          in
          Ok (point, transformed))

let profile_sweep ?bindings ?(seed = 42) ?(machine = Arch.rs6000_540) ?spec
    ~blocks entry =
  match blocks with
  | [] -> Error "empty block-size sweep"
  | blocks -> (
      match block_bindings entry (Some (List.hd blocks)) with
      | Error e -> Error e
      | Ok _ ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | b :: rest -> (
                match profile ?bindings ~seed ~machine ?spec ~block:b entry with
                | Error e -> Error e
                | Ok (_, transformed) -> go ((b, transformed) :: acc) rest)
          in
          go [] blocks)

let traced_run machine env ~arrays block =
  let t = Trace.create machine env ~arrays in
  Exec.run ~hook:(Trace.hook t) env block;
  (Trace.stats t, Trace.stats_by_array t)

let simulate ?bindings ?(seed = 42) ~machine entry =
  let bindings = Option.value bindings ~default:entry.default_bindings in
  match derive entry with
  | Error e -> Error ("derivation failed: " ^ e)
  | Ok { result; _ } ->
      let kernel = with_scratch entry in
      let arrays = entry.kernel.Kernel_def.traced in
      let env1 = Kernel_def.make_env kernel ~bindings ~seed in
      let point_stats, point_by_array =
        traced_run machine env1 ~arrays kernel.Kernel_def.block
      in
      let env2 =
        Kernel_def.make_env kernel
          ~bindings:(entry.extra_bindings @ bindings)
          ~seed
      in
      let transformed_stats, transformed_by_array =
        traced_run machine env2 ~arrays [ result ]
      in
      Ok
        {
          point_stats;
          transformed_stats;
          point_by_array;
          transformed_by_array;
          point_cycles = Cost.memory_cycles machine point_stats;
          transformed_cycles = Cost.memory_cycles machine transformed_stats;
        }

(* ---- native execution (lib/codegen) ----------------------------- *)

type native_result = {
  nt_backend : string;
  nt_point_s : float;
  nt_transformed_s : float;
  nt_speedup : float;
  nt_point_cached : bool;
  nt_transformed_cached : bool;
  nt_model_speedup : float option;
  nt_bindings : (string * int) list;
  nt_verify_bindings : (string * int) list;
}

(* Native results must be bitwise equal to the interpreter on the same
   initial environment; a diff here is a codegen bug, never tolerance.
   [run] is the compiled artifact's entry point, whichever backend
   produced it. *)
let native_verify kernel ~traced run block ~bindings ~seed =
  match Kernel_def.make_env kernel ~bindings ~seed with
  | exception Invalid_argument m -> Some m
  | env_i -> (
      match Exec.run env_i block with
      | exception Exec.Error m -> Some ("interpreter failed: " ^ m)
      | exception Env.Error m -> Some ("interpreter failed: " ^ m)
      | () -> (
          let env_n = Kernel_def.make_env kernel ~bindings ~seed in
          match run env_n with
          | Error m -> Some ("native run failed: " ^ m)
          | Ok () -> Env.diff ~only:traced env_i env_n))

let native_time kernel run ~bindings ~seed ~reps =
  let best = ref infinity in
  let failed = ref None in
  for _ = 1 to max 1 reps do
    if !failed = None then begin
      let env = Kernel_def.make_env kernel ~bindings ~seed in
      let t0 = Obs.now_ns () in
      match run env with
      | Error m -> failed := Some m
      | Ok () ->
          let dt = float_of_int (Obs.now_ns () - t0) /. 1e9 in
          if dt < !best then best := dt
    end
  done;
  match !failed with Some m -> Error m | None -> Ok !best

let native_compare ?(backend = (module Backend.Ocaml : Backend.S)) ?bindings
    ?verify_bindings ?(seed = 42) ?(reps = 3) ?block entry =
  let module B = (val backend) in
  let bindings = Option.value bindings ~default:entry.default_bindings in
  let verify_bindings =
    Option.value verify_bindings ~default:entry.default_bindings
  in
  match derive entry with
  | Error e -> Error ("derivation failed: " ^ e)
  | Ok { result; _ } -> (
      match block_bindings entry block with
      | Error e -> Error e
      | Ok extra -> (
          let kernel = with_scratch entry in
          let shapes = entry.kernel.Kernel_def.shapes in
          let traced = entry.kernel.Kernel_def.traced in
          (* Blueprint-keyed: all sizes of one structure share a single
             compiled artifact, so comparing a kernel at several [N]s
             costs one compiler run per variant per backend,
             process-wide. *)
          let compile variant blk =
            let bp = Blueprint.of_block ~shapes blk in
            Result.map
              (fun c -> (c, bp.Blueprint.bindings))
              (B.compile_blueprint ~name:(entry.name ^ "_" ^ variant) bp)
          in
          match
            (compile "point" kernel.Kernel_def.block, compile "transformed" [ result ])
          with
          | Error m, _ | _, Error m -> Error m
          | Ok (point, point_bb), Ok (transformed, transformed_bb) -> (
              let point_run env = point.Backend.bk_run ~bindings:point_bb env in
              let transformed_run env =
                transformed.Backend.bk_run ~bindings:transformed_bb env
              in
              let bad =
                match
                  native_verify kernel ~traced point_run
                    kernel.Kernel_def.block ~bindings:verify_bindings ~seed
                with
                | Some m -> Some ("point: " ^ m)
                | None -> (
                    match
                      native_verify kernel ~traced transformed_run [ result ]
                        ~bindings:(extra @ verify_bindings) ~seed
                    with
                    | Some m -> Some ("transformed: " ^ m)
                    | None -> None)
              in
              match bad with
              | Some m -> Error (entry.name ^ ": native diverges: " ^ m)
              | None -> (
                  match
                    ( native_time kernel point_run ~bindings ~seed ~reps,
                      native_time kernel transformed_run
                        ~bindings:(extra @ bindings) ~seed ~reps )
                  with
                  | Error m, _ -> Error (entry.name ^ ": point: " ^ m)
                  | _, Error m -> Error (entry.name ^ ": transformed: " ^ m)
                  | Ok tp, Ok tt ->
                      let model =
                        match
                          simulate ~bindings:verify_bindings ~seed
                            ~machine:Arch.rs6000_540 entry
                        with
                        | Ok s when s.transformed_cycles > 0 ->
                            Some
                              (float_of_int s.point_cycles
                              /. float_of_int s.transformed_cycles)
                        | _ -> None
                      in
                      Ok
                        {
                          nt_backend = B.tag;
                          nt_point_s = tp;
                          nt_transformed_s = tt;
                          nt_speedup = (if tt > 0.0 then tp /. tt else 0.0);
                          nt_point_cached = point.Backend.bk_cached;
                          nt_transformed_cached = transformed.Backend.bk_cached;
                          nt_model_speedup = model;
                          nt_bindings = bindings;
                          nt_verify_bindings = verify_bindings;
                        }))))
