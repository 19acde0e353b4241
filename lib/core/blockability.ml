type entry = {
  name : string;
  paper_ref : string;
  kernel : Kernel_def.t;
  register : bool;
  facts : (string * Affine.t) list;
  extra_bindings : (string * int) list;
  extra_setup : Env.t -> bindings:(string * int) list -> unit;
  default_bindings : (string * int) list;
  blockable : bool;
}

let no_extra (_ : Env.t) ~bindings:(_ : (string * int) list) = ()

(* The range tables an IF-inspector records into: at most [n/2 + 1]
   ranges over a loop of [n] trips. *)
let range_tables env ~lb ~ub n =
  Env.add_iarray env lb [ (1, (n / 2) + 1) ];
  Env.add_iarray env ub [ (1, (n / 2) + 1) ]

let matmul_scratch env ~bindings =
  range_tables env ~lb:"KLB" ~ub:"KUB" (List.assoc "N" bindings)

(* Givens also expands the rotation coefficients over J. *)
let givens_scratch env ~bindings =
  let m = List.assoc "M" bindings in
  range_tables env ~lb:"JLB" ~ub:"JUB" m;
  Env.add_farray env "C" [ (1, m) ];
  Env.add_farray env "S" [ (1, m) ]

(* [p >= lo], for a constant [lo]. *)
let at_least p lo = (p, Affine.const lo)

(* The LU-shaped kernels: blocked by KS over an N x N matrix, every size
   and the block size at least 1. *)
let cache_blocked ?(register = false) name paper_ref kernel =
  {
    name;
    paper_ref;
    kernel;
    register;
    facts = [ at_least "KS" 1; at_least "N" 1 ];
    extra_bindings = [ ("KS", 8) ];
    extra_setup = no_extra;
    default_bindings = [ ("N", 24) ];
    blockable = true;
  }

(* The rhomboidal unroll needs the band at least as wide as the register
   block: N2 >= 4 - 1. *)
let convolution name paper_ref kernel =
  {
    name;
    paper_ref;
    kernel;
    register = true;
    facts = [ at_least "N1" 1; at_least "N2" 3; at_least "N3" 1 ];
    extra_bindings = [];
    extra_setup = no_extra;
    default_bindings = [ ("N1", 40); ("N2", 9); ("N3", 50) ];
    blockable = true;
  }

let entries =
  [
    cache_blocked "lu" "§5.1, Figures 5-6" K_lu.kernel;
    cache_blocked ~register:true "lu_opt" "§5.1, Table 3 (2+)" K_lu.kernel;
    cache_blocked "lu_pivot" "§5.2, Figures 7-8" K_lu_pivot.kernel;
    cache_blocked ~register:true "lu_pivot_opt" "§5.2, Table 4 (1+)"
      K_lu_pivot.kernel;
    cache_blocked "trisolve" "§8 breadth (ours)" K_trisolve.kernel;
    cache_blocked "cholesky" "§8 breadth (ours)" K_cholesky.kernel;
    {
      name = "matmul";
      paper_ref = "§4, Figure 4";
      kernel = K_matmul.kernel;
      register = false;
      facts = [];
      extra_bindings = [];
      extra_setup = matmul_scratch;
      default_bindings = [ ("N", 24); ("FREQ_PCT", 10) ];
      blockable = true;
    };
    {
      name = "givens";
      paper_ref = "§5.4, Figures 9-10";
      kernel = K_givens.kernel;
      register = false;
      (* the executor reads and writes A(L, K) for every L < N, rotation or
         none *)
      facts = [ at_least "M" 1; at_least "N" 1; ("M", Affine.var "N") ];
      extra_bindings = [];
      extra_setup = givens_scratch;
      default_bindings = [ ("M", 16); ("N", 12) ];
      blockable = true;
    };
    convolution "aconv" "§3.2 (adjoint convolution)" K_conv.aconv;
    convolution "conv" "§3.2 (convolution)" K_conv.conv;
    {
      name = "householder";
      paper_ref = "§5.3 (non-blockable)";
      kernel = K_householder.kernel;
      register = false;
      facts = [ at_least "KS" 1; at_least "M" 1; at_least "N" 1 ];
      extra_bindings = [ ("KS", 8) ];
      extra_setup = no_extra;
      default_bindings = [ ("M", 16); ("N", 12) ];
      blockable = false;
    };
  ]

let find name = List.find_opt (fun e -> String.equal e.name name) entries
let names () = List.map (fun e -> e.name) entries

(* Householder, the paper's negative result (§5.3): what the mechanical
   derivation cannot produce, in the paper's terms. *)
let not_blockable =
  "not blockable (§5.3): the block algorithm computes the compact-WY \
   triangular factor T — computation and storage with no counterpart in \
   the point code, so no dependence-based transformation sequence can \
   derive it.  Mechanical derivation stops at: "

let derive e =
  let derived =
    Blocker.auto ~register:e.register ~facts:e.facts e.kernel.Kernel_def.block
  in
  if e.blockable then derived
  else
    let reason =
      match derived with
      | Ok _ ->
          (* §5.3 says this must not happen; surface it loudly if it does. *)
          "derivation unexpectedly succeeded — the §5.3 non-blockability \
           claim is violated; the driver is accepting an illegal \
           transformation"
      | Error mechanical -> not_blockable ^ mechanical
    in
    Obs.decision ~transform:"block" ~target:e.name ~applied:false ~reason ();
    Error reason

(* ---- variants and their environments ---------------------------- *)

type variant = Point | Transformed

let variant_name = function Point -> "point" | Transformed -> "transformed"

(* The one rule that sizes a run.  A kernel takes the names of its
   default problem and its extra parameters (block sizes); the request
   binds any of them, by name in any case, its last binding of a name
   winning.  Each default the request leaves unbound is added, and so,
   for the transformed variant, is each extra one.  The result binds
   every name once, in the order the kernel lists them. *)
let sized entry variant request =
  let request = List.rev_map (fun (p, v) -> (String.uppercase_ascii p, v)) request in
  let takes = entry.default_bindings @ entry.extra_bindings in
  let bind (p, default) =
    match List.assoc_opt p request with
    | Some v -> Some (p, v)
    | None when variant = Transformed || List.mem_assoc p entry.default_bindings ->
        Some (p, default)
    | None -> None
  in
  match List.find_opt (fun (p, _) -> not (List.mem_assoc p takes)) request with
  | Some (p, _) ->
      Error
        (Printf.sprintf "no parameter %s (takes %s)" p
           (String.concat ", " (List.map fst takes)))
  | None -> Ok (List.filter_map bind takes)

(* Set-up failures are the caller's input: bindings the kernel rejects
   ([Invalid_argument]) or sizes that declare an empty array
   ([Env.Error]). *)
let env entry variant ~bindings ~seed =
  Result.bind (sized entry variant bindings) @@ fun bindings ->
  match
    let env = Kernel_def.make_env entry.kernel ~bindings ~seed in
    entry.extra_setup env ~bindings;
    env
  with
  | exception (Invalid_argument m | Env.Error m) -> Error m
  | env -> (
      (* The derivation proved the transformed block for the sizes its
         facts allow, and for no others. *)
      let broken (p, lo) = Env.iscalar env p < Affine.eval (Env.iscalar env) lo in
      match variant with
      | Point -> Ok env
      | Transformed -> (
          match List.find_opt broken entry.facts with
          | Some (p, lo) ->
              Error
                (Printf.sprintf "the derivation assumes %s >= %s" p (Affine.to_string lo))
          | None -> Ok env))

(* ---- derived IR, from the artifact cache ------------------------ *)

(* The executable's identity, from one stat: a rebuilt blockc has
   another inode, size or mtime, so it never reads what an older build
   derived.  (An MD5 of the executable would cost a fresh process about
   as much as the derivations it saves.)  An executable that cannot be
   stat'ed gets an identity of its own, so its process derives. *)
let exe_identity =
  match Unix.stat Sys.executable_name with
  | st ->
      Printf.sprintf "%d:%d:%d:%h" st.Unix.st_dev st.Unix.st_ino
        st.Unix.st_size st.Unix.st_mtime
  | exception Unix.Unix_error _ ->
      Printf.sprintf "pid %d at %h" (Unix.getpid ()) (Unix.gettimeofday ())

(* A derivation is kept with its blueprint, which a transformed variant
   would otherwise normalize again every time. *)
let derivations : (Stmt.t list * Blueprint.t) Artifact_cache.kind =
  Artifact_cache.kind "derivation" ~prefix:"dv_" ~ext:".ir"

let blueprint entry block =
  Blueprint.of_block ~shapes:entry.kernel.Kernel_def.shapes block

(* A stored derivation is three parts: the MD5 of the payload, the
   blueprint description (key and hoisted bindings) of the block, and
   the payload, the [Marshal]led block.  Both are checked before the
   block is used.  The printed IR would not do: it drops scalar kinds,
   so an INTEGER flag comes back REAL. *)
let encode_derivation entry block =
  let payload = Marshal.to_string block [] in
  String.concat "\n"
    [
      Digest.to_hex (Digest.string payload);
      Blueprint.describe (blueprint entry block);
      payload;
    ]

let decode_derivation entry s =
  match String.index_opt s '\n' with
  | None -> Error "no header"
  | Some i -> (
      match String.index_from_opt s (i + 1) '\n' with
      | None -> Error "no header"
      | Some j ->
          let payload = String.sub s (j + 1) (String.length s - j - 1) in
          if String.sub s 0 i <> Digest.to_hex (Digest.string payload) then
            Error "checksum mismatch"
          else
            let block : Stmt.t list = Marshal.from_string payload 0 in
            let bp = blueprint entry block in
            if Blueprint.describe bp <> String.sub s (i + 1) (j - i - 1) then
              Error "blueprint mismatch"
            else Ok (block, bp))

let variant_block entry = function
  | Point ->
      let block = entry.kernel.Kernel_def.block in
      Ok (block, blueprint entry block, None)
  | Transformed ->
      let key =
        Digest.to_hex
          (Digest.string
             (String.concat "\x00"
                [
                  "blockc-derivation-v1";
                  exe_identity;
                  entry.name;
                  Stmt.block_to_string entry.kernel.Kernel_def.block;
                ]))
      in
      let build tmp =
        match derive entry with
        | Error e -> Error ("derivation failed: " ^ e)
        | Ok { Blocker.result; _ } ->
            Ok
              (Artifact_cache.write_file
                 (Filename.concat tmp ("dv_" ^ key ^ ".ir"))
                 (encode_derivation entry [ result ]))
      in
      let load path = decode_derivation entry (Artifact_cache.read_file path) in
      Artifact_cache.get derivations ~key ~build ~load
      |> Result.map (fun (e : _ Artifact_cache.entry) ->
             let block, bp = e.value in
             (block, bp, Some e.disposition))

let ( let* ) = Result.bind

(* The transformed block the cache holds: derived by the first caller,
   read back by every later one. *)
let transformed_block entry =
  Result.map (fun (block, _, _) -> block) (variant_block entry Transformed)

(* A block the interpreter cannot run at these sizes (a zero step, an
   access out of bounds) is an [Error], never an escaping exception. *)
let interpret f =
  match f () with
  | v -> Ok v
  | exception (Exec.Error m | Env.Error m) -> Error ("interpreter failed: " ^ m)

let verify ?(bindings = []) ?(seed = 42) entry =
  let* transformed = transformed_block entry in
  let run variant block =
    let* env = env entry variant ~bindings ~seed in
    let* () = interpret (fun () -> Exec.run env block) in
    Ok env
  in
  let* point = run Point entry.kernel.Kernel_def.block in
  let* transformed = run Transformed transformed in
  match Env.diff ~only:entry.kernel.Kernel_def.traced point transformed with
  | None -> Ok ()
  | Some msg ->
      Error
        (entry.kernel.Kernel_def.name ^ ": transformed kernel diverges: " ^ msg)

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
  let* p = interpret (fun () -> Trace.run_profile ?spec machine env ~arrays stmts) in
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
  Ok kp

let profile ?(bindings = []) ?(seed = 42) ?(machine = Arch.rs6000_540) ?spec
    entry =
  let* transformed = transformed_block entry in
  let* env_p = env entry Point ~bindings ~seed in
  let* env_t = env entry Transformed ~bindings ~seed in
  (* The point environment holds a KS only if the request bound one. *)
  let block =
    if Env.has_iscalar env_p "KS" then Some (Env.iscalar env_p "KS") else None
  in
  let profile_block = profile_block ~machine ~spec ~kernel_name:entry.name in
  let arrays = entry.kernel.Kernel_def.traced in
  let* point =
    profile_block ~variant:"point" ~block:None env_p ~arrays
      entry.kernel.Kernel_def.block
  in
  let* transformed =
    profile_block ~variant:"transformed" ~block env_t ~arrays transformed
  in
  Ok (point, transformed)

(* A row profiles the transformed variant alone: the point variant does
   not take KS. *)
let profile_sweep ?(bindings = []) ?(seed = 42) ?(machine = Arch.rs6000_540)
    ?spec ~blocks entry =
  if blocks = [] then Error "empty block-size sweep"
  else
    let* transformed = transformed_block entry in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | b :: rest ->
          let* env_t = env entry Transformed ~bindings:(bindings @ [ ("KS", b) ]) ~seed in
          let* kp =
            profile_block ~machine ~spec ~kernel_name:entry.name ~variant:"transformed"
              ~block:(Some b) env_t ~arrays:entry.kernel.Kernel_def.traced transformed
          in
          go ((b, kp) :: acc) rest
    in
    go [] blocks

let traced_run machine env ~arrays block =
  let t = Trace.create machine env ~arrays in
  let* () = interpret (fun () -> Exec.run ~hook:(Trace.hook t) env block) in
  Ok (Trace.stats t, Trace.stats_by_array t)

let simulate_blocks ~machine entry ~bindings ~seed point transformed =
  let arrays = entry.kernel.Kernel_def.traced in
  let* env_p = env entry Point ~bindings ~seed in
  let* point_stats, point_by_array = traced_run machine env_p ~arrays point in
  let* env_t = env entry Transformed ~bindings ~seed in
  let* transformed_stats, transformed_by_array =
    traced_run machine env_t ~arrays transformed
  in
  Ok {
    point_stats;
    transformed_stats;
    point_by_array;
    transformed_by_array;
    point_cycles = Cost.memory_cycles machine point_stats;
    transformed_cycles = Cost.memory_cycles machine transformed_stats;
  }

let simulate ?(bindings = []) ?(seed = 42) ~machine entry =
  let* transformed = transformed_block entry in
  simulate_blocks ~machine entry ~bindings ~seed entry.kernel.Kernel_def.block
    transformed

type compiled = {
  c_entry : entry;
  c_variant : variant;
  c_block : Stmt.t list;
  c_bp : Blueprint.t;
  c_derivation : Artifact_cache.disposition option;
  c_cm : Backend.compiled;
}

(* Blueprint-keyed: all sizes of one structure share a single compiled
   artifact, so a kernel at several sizes costs one compiler run per
   variant per backend, process-wide. *)
let compile ~backend entry variant =
  match variant_block entry variant with
  | Error _ as e -> e
  | Ok (block, bp, derivation) -> (
      let module B = (val backend : Backend.S) in
      match
        B.compile_blueprint ~name:(entry.name ^ "_" ^ variant_name variant) bp
      with
      | Error _ as e -> e
      | Ok cm ->
          Ok
            {
              c_entry = entry;
              c_variant = variant;
              c_block = block;
              c_bp = bp;
              c_derivation = derivation;
              c_cm = cm;
            })

(* Where the artifact came from and, for a transformed variant, where
   its derivation came from. *)
let disposition_fields c =
  ( "disposition",
    Json_min.String
      (Artifact_cache.disposition_name c.c_cm.Backend.bk_disposition) )
  ::
  (match c.c_derivation with
  | Some Artifact_cache.Compiled ->
      [ ("derivation", Json_min.String "derived") ]
  | Some d ->
      [ ("derivation", Json_min.String (Artifact_cache.disposition_name d)) ]
  | None -> [])

let compiled_fields c =
  let cm = c.c_cm in
  [
    ("kernel", Json_min.String c.c_entry.name);
    ("variant", Json_min.String (variant_name c.c_variant));
    ("backend", Json_min.String cm.Backend.bk_tag);
    ("blueprint", Json_min.String c.c_bp.Blueprint.key);
    ("key", Json_min.String cm.Backend.bk_key);
  ]
  @ disposition_fields c
  @ [
      ("compile_s", Json_min.Number cm.Backend.bk_compile_s);
      ( "cached",
        Json_min.Bool (cm.Backend.bk_disposition <> Artifact_cache.Compiled) );
      ("artifact", Json_min.String cm.Backend.bk_artifact);
      ("hoisted", Json_min.int_object c.c_bp.Blueprint.bindings);
      ( "vec_remarks",
        Json_min.Array
          (List.map (fun r -> Json_min.String r) cm.Backend.bk_remarks) );
    ]

type native_result = {
  nt_backend : string;
  nt_point : Measure.summary;
  nt_transformed : Measure.summary;
  nt_speedup : float;
  nt_point_cached : bool;
  nt_transformed_cached : bool;
  nt_model_speedup : float option;
  nt_bindings : (string * int) list;
  nt_verify_bindings : (string * int) list;
}

(* Native results must be bitwise equal to the interpreter on the same
   initial environment; a diff here is a codegen bug, never tolerance. *)
let native_verify c ~bindings ~seed =
  let make () = env c.c_entry c.c_variant ~bindings ~seed in
  match make () with
  | Error m -> Some m
  | Ok env_i -> (
      match interpret (fun () -> Exec.run env_i c.c_block) with
      | Error m -> Some m
      | Ok () -> (
          let env_n = Result.get_ok (make ()) in
          match c.c_cm.Backend.bk_run env_n with
          | Error m -> Some ("native run failed: " ^ m)
          | Ok () ->
              Env.diff ~only:c.c_entry.kernel.Kernel_def.traced env_i env_n))

let native_compare ?(backend = (module Backend.Ocaml : Backend.S))
    ?(bindings = []) ?(verify_bindings = []) ?(seed = 42) entry =
  let module B = (val backend) in
  (* Both sizes are settled before anything compiles.  The verified run
     takes the timed run's block sizes, so the verified KS is the timed
     one. *)
  let* bindings = sized entry Point bindings in
  let block_sizes =
    List.filter (fun (p, _) -> List.mem_assoc p entry.extra_bindings) bindings
  in
  let* verify_bindings = sized entry Point (verify_bindings @ block_sizes) in
  (* The transformed variant first: a kernel that does not block fails
     before anything is compiled. *)
  let* transformed = compile ~backend entry Transformed in
  let* point = compile ~backend entry Point in
  let check c =
    Option.map
      (fun m -> variant_name c.c_variant ^ ": " ^ m)
      (native_verify c ~bindings:verify_bindings ~seed)
  in
  match
    match check point with Some _ as bad -> bad | None -> check transformed
  with
  | Some m -> Error (entry.name ^ ": native diverges: " ^ m)
  | None ->
      (* Point and transformed are two interleaved arms, each sample in a
         fresh environment built outside the clock; an arm's last
         environment is its last timed run. *)
      let last = Hashtbl.create 2 in
      let arm c () =
        match env entry c.c_variant ~bindings ~seed with
        | Error m -> fun () -> Error m
        | Ok env ->
            Hashtbl.replace last c.c_variant env;
            fun () ->
              Result.map_error (( ^ ) (variant_name c.c_variant ^ ": ")) (c.c_cm.Backend.bk_run env)
      in
      let* tp, tt =
        match Measure.run [ arm point; arm transformed ] with
        | Ok [ tp; tt ] -> Ok (tp, tt)
        | Ok _ -> assert false
        | Error m -> Error (entry.name ^ ": " ^ m)
      in
      (* Point and transformed agree bitwise at the verified size; the
         timed size gets the same check, outside the clock. *)
      let env_p = Hashtbl.find last Point and env_t = Hashtbl.find last Transformed in
      let* () =
        match Env.diff ~only:entry.kernel.Kernel_def.traced env_p env_t with
        | None -> Ok ()
        | Some m ->
            Error
              (entry.name ^ ": timed runs diverge (point vs transformed): "
             ^ m)
      in
      (* The cache model simulates the two blocks just compiled. *)
      let* s =
        simulate_blocks ~machine:Arch.rs6000_540 entry
          ~bindings:verify_bindings ~seed point.c_block transformed.c_block
      in
      let cached c = c.c_cm.Backend.bk_disposition <> Artifact_cache.Compiled in
      Ok
        {
          nt_backend = B.tag;
          nt_point = tp;
          nt_transformed = tt;
          nt_speedup = Measure.ratio tp tt;
          nt_point_cached = cached point;
          nt_transformed_cached = cached transformed;
          nt_model_speedup =
            (if s.transformed_cycles > 0 then
               Some
                 (float_of_int s.point_cycles
                 /. float_of_int s.transformed_cycles)
             else None);
          nt_bindings = bindings;
          nt_verify_bindings = verify_bindings;
        }
