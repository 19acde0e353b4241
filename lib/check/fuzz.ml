(* Differential fuzzing harness: see fuzz.mli for the contract. *)

type variant = {
  v_detail : string;
  v_block : Stmt.t list;
  v_extra_f : (string * (int * int) list) list;
  v_extra_i : (string * (int * int) list) list;
}

type pass_stat = {
  ps_name : string;
  ps_applied : int;
  ps_rejected : int;
  ps_diverged : int;
}

type summary = {
  iters : int;
  seed : int;
  programs : int;
  depth_counts : int array;
  rect : int;
  triangular : int;
  trapezoidal : int;
  guarded : int;
  oracle_checked : int;
  oracle_violations : int;
  reparsed : int;
  native_checked : int;
  native_c_checked : int;
  native_divergences : int;
  native_blueprints : int;
  native_blueprint_reuses : int;
  native_emitted : Emit.counts;
  native_c_raw : int;
  passes : pass_stat list;
  failures : string list;
}

(* ---- mutable run statistics --------------------------------------- *)

type pstat = {
  mutable applied : int;
  mutable rejected : int;
  mutable diverged : int;
}

type stats = {
  mutable st_programs : int;
  st_depth : int array;
  mutable st_rect : int;
  mutable st_tri : int;
  mutable st_trap : int;
  mutable st_guarded : int;
  mutable st_oracle : int;
  mutable st_oracle_bad : int;
  mutable st_reparsed : int;
  mutable st_native : int;
  mutable st_native_c : int;
  mutable st_native_bad : int;
  st_bp_keys : (string, unit) Hashtbl.t;
  mutable st_bp_reuse : int;
  mutable st_emitted : Emit.counts;
  mutable st_c_raw : int;
  st_passes : (string, pstat) Hashtbl.t;
}

let fresh_stats () =
  {
    st_programs = 0;
    st_depth = Array.make 3 0;
    st_rect = 0;
    st_tri = 0;
    st_trap = 0;
    st_guarded = 0;
    st_oracle = 0;
    st_oracle_bad = 0;
    st_reparsed = 0;
    st_native = 0;
    st_native_c = 0;
    st_native_bad = 0;
    st_bp_keys = Hashtbl.create 16;
    st_bp_reuse = 0;
    st_emitted = { Emit.unchecked = 0; hoisted = 0; promoted = 0 };
    st_c_raw = 0;
    st_passes = Hashtbl.create 16;
  }

let pstat stats name =
  match Hashtbl.find_opt stats.st_passes name with
  | Some p -> p
  | None ->
      let p = { applied = 0; rejected = 0; diverged = 0 } in
      Hashtbl.add stats.st_passes name p;
      p

(* ---- environments and the differential check ---------------------- *)

let real_names = List.map fst Gen_prog.farrays

(* Fills must not depend on declaration order, so each array gets its
   own stream keyed by a simple deterministic string hash ([Hashtbl.hash]
   is version-dependent). *)
let name_hash s =
  String.fold_left (fun acc c -> (acc * 131) + Char.code c) 7 s

let make_env (p : Gen_prog.t) (v : variant option) ~fill_seed =
  let env = Env.create () in
  List.iter (fun (k, x) -> Env.set_iscalar env k x) p.bindings;
  List.iter
    (fun (name, rank) ->
      Env.add_farray env name (Gen_prog.dims p rank))
    Gen_prog.farrays;
  (match v with
  | None -> ()
  | Some v ->
      List.iter (fun (n, dims) -> Env.add_farray env n dims) v.v_extra_f;
      List.iter (fun (n, dims) -> Env.add_iarray env n dims) v.v_extra_i);
  List.iter
    (fun (name, _) ->
      let rng = Lcg.create ((fill_seed * 7919) + name_hash name) in
      if String.equal name Gen_prog.guard_array then
        (* genuine zeros so zero-guards take both branches *)
        Env.fill_farray env name (fun _ ->
            if Lcg.bool rng 0.35 then 0.0 else Lcg.float rng 1.0)
      else Env.fill_farray env name (fun _ -> Lcg.float rng 1.0))
    Gen_prog.farrays;
  env

(* Interpret point and transformed blocks from identical environments;
   [Some msg] when the REAL arrays differ bitwise (or the transformed
   code crashes).  Two data fills per program. *)
let diverges (p : Gen_prog.t) (v : variant) =
  let check fill_seed =
    let e_point = make_env p (Some v) ~fill_seed in
    let e_trans = make_env p (Some v) ~fill_seed in
    Exec.run e_point p.block;
    match Exec.run e_trans v.v_block with
    | () -> Env.diff ~only:real_names e_point e_trans
    | exception Env.Error m -> Some ("transformed run raised Env.Error: " ^ m)
    | exception Exec.Error m -> Some ("transformed run raised Exec.Error: " ^ m)
  in
  match check p.fill_seed with
  | Some m -> Some (Printf.sprintf "%s [data fill %d]" m p.fill_seed)
  | None -> (
      match check (p.fill_seed + 1) with
      | Some m -> Some (Printf.sprintf "%s [data fill %d]" m (p.fill_seed + 1))
      | None -> None)

(* ---- program shape helpers ---------------------------------------- *)

let rec has_minmax (e : Expr.t) =
  match e with
  | Expr.Int _ | Expr.Var _ -> false
  | Expr.Bin (_, a, b) -> has_minmax a || has_minmax b
  | Expr.Min _ | Expr.Max _ -> true
  | Expr.Idx (_, subs) -> List.exists has_minmax subs

let is_prefix q path =
  List.length q < List.length path
  && q = List.filteri (fun i _ -> i < List.length q) path

(* Loops with their nesting level (0 = outermost).  Generated programs
   are single-path nests, so level k among a dependence's common loops
   is the loop at level k of the program — which is what makes
   [legal_by_vectors ~outer_level:level] the right gate below. *)
let loops_with_level block =
  let all = Stmt.find_loops block in
  List.map
    (fun (path, l) ->
      let level = List.length (List.filter (fun (q, _) -> is_prefix q path) all) in
      (path, l, level))
    all

(* Base context: parameter positivity only.  Loop-bounds facts are NOT
   global truths of a program — a zero-trip inner loop's [hi >= lo]
   does not hold at statements outside it — so dependence analysis
   derives them per access pair and the site-sensitive passes get only
   their ancestors' facts via [site_ctx]. *)
let ctx_of block =
  List.fold_left Symbolic.assume_pos Symbolic.empty
    (Ir_util.symbolic_params block)

(* [ctx] + bounds facts of the loops strictly enclosing [path]: those
   hold at every execution of the site. *)
let site_ctx ctx block path =
  let ancestors =
    List.filter_map
      (fun (q, l) -> if is_prefix q path then Some l else None)
      (Stmt.find_loops block)
  in
  Symbolic.with_loops ctx ancestors

(* The disjunctive refinement of [site_ctx]: the case contexts of the
   same ancestor loops (see [Symbolic.with_loops_cases]). *)
let site_cases ctx block path =
  let ancestors =
    List.filter_map
      (fun (q, l) -> if is_prefix q path then Some l else None)
      (Stmt.find_loops block)
  in
  Symbolic.with_loops_cases ctx ancestors

let used_names block =
  Ir_util.index_vars block
  @ List.map (fun (n, _, _) -> n) (Ir_util.arrays_of block)
  @ Ir_util.symbolic_params block

let perfect_inner (l : Stmt.loop) =
  match l.body with [ Stmt.Loop inner ] -> Some inner | _ -> None

let site_detail what (l : Stmt.loop) = Printf.sprintf "%s %s" what l.index

let variant detail block = { v_detail = detail; v_block = block; v_extra_f = []; v_extra_i = [] }

(* ---- transformation passes ---------------------------------------- *)

(* Each pass maps a program to the outcome at every applicable site:
   [Ok variant] when the transformation (and its legality gate) went
   through, [Error reason] when it was refused.  Refusals are counted,
   not checked — the differential property only constrains applied
   sites. *)

type pass =
  Gen_prog.t ->
  ctx:Symbolic.t ->
  deps:Dependence.t list Lazy.t ->
  (variant, string) result list

let strip_mine_pass : pass =
 fun p ~ctx:_ ~deps:_ ->
  let block = p.block in
  List.map
    (fun (path, (l : Stmt.loop), _) ->
      let new_index = Ir_util.fresh ~used:(used_names block) (l.index ^ l.index) in
      match Strip_mine.apply ~block_size:(Expr.var "KS") ~new_index l with
      | Ok l' ->
          Ok (variant (site_detail "loop" l) (Stmt.replace_at block path [ Stmt.Loop l' ]))
      | Error m -> Error m)
    (loops_with_level block)

let interchange_pass : pass =
 fun p ~ctx:_ ~deps ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), level) ->
      match perfect_inner l with
      | None -> None
      | Some inner ->
          Some
            (if not (Interchange.legal_by_vectors (Lazy.force deps) ~outer_level:level)
             then Error "a dependence with a possible (<,>) direction prevents interchange"
             else
               match Interchange.triangular l with
               | Ok l' ->
                   Ok
                     (variant
                        (Printf.sprintf "pair %s/%s" l.index inner.index)
                        (Stmt.replace_at block path [ Stmt.Loop l' ]))
               | Error m -> Error m))
    (loops_with_level block)

let distribution_pass : pass =
 fun p ~ctx ~deps:_ ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), _) ->
      if List.length l.body < 2 then None
      else
        Some
          (match Distribution.auto ~ctx:(site_ctx ctx p.block path) l with
          | Ok stmts ->
              Ok (variant (site_detail "loop" l) (Stmt.replace_at block path stmts))
          | Error m -> Error m))
    (loops_with_level block)

let index_set_split_pass : pass =
 fun p ~ctx:_ ~deps:_ ->
  let block = p.block in
  let ks = List.assoc "KS" p.bindings in
  List.map
    (fun (path, (l : Stmt.loop), _) ->
      let point = Expr.add l.lo (Expr.int ks) in
      match Index_set_split.at_point l point with
      | stmts ->
          Ok
            (variant
               (Printf.sprintf "loop %s at %s" l.index (Expr.to_string point))
               (Stmt.replace_at block path stmts))
      | exception Invalid_argument m -> Error m)
    (loops_with_level block)

let split_minmax_pass : pass =
 fun p ~ctx:_ ~deps:_ ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), _) ->
      match perfect_inner l with
      | Some inner when has_minmax inner.lo || has_minmax inner.hi ->
          Some
            (match Split_minmax.remove_all l with
            | Ok stmts ->
                Ok (variant (site_detail "outer loop" l) (Stmt.replace_at block path stmts))
            | Error m -> Error m)
      | _ -> None)
    (loops_with_level block)

let unroll_and_jam_pass : pass =
 fun p ~ctx:_ ~deps ->
  let block = p.block in
  let factor = 2 + (List.assoc "KS" p.bindings land 1) in
  List.filter_map
    (fun (path, (l : Stmt.loop), level) ->
      match perfect_inner l with
      | None -> None
      | Some _ ->
          Some
            (if not (Interchange.legal_by_vectors (Lazy.force deps) ~outer_level:level)
             then
               Error "a dependence with a possible (<,>) direction prevents unroll-and-jam"
             else
               let first_ok acc f = match acc with Ok _ -> acc | Error _ -> f () in
               match
                 List.fold_left first_ok (Error "no variant")
                   [
                     (fun () -> Unroll_and_jam.rectangular ~factor l);
                     (fun () -> Unroll_and_jam.triangular ~factor l);
                     (fun () -> Unroll_and_jam.upper_triangular ~factor l);
                   ]
               with
               | Ok stmts ->
                   Ok
                     (variant
                        (Printf.sprintf "loop %s by %d" l.index factor)
                        (Stmt.replace_at block path stmts))
               | Error m -> Error m))
    (loops_with_level block)

let scalar_replacement_pass : pass =
 fun p ~ctx ~deps:_ ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), _) ->
      let has_loop = ref false in
      Stmt.iter (function Stmt.Loop _ -> has_loop := true | _ -> ()) l.body;
      if !has_loop then None
      else
        Some
          (match
             Scalar_replacement.apply
               ~cases:(site_cases ctx p.block path)
               ~ctx:(site_ctx ctx p.block path) l
           with
          | Ok stmts ->
              Ok (variant (site_detail "innermost loop" l) (Stmt.replace_at block path stmts))
          | Error m -> Error m))
    (loops_with_level block)

let scalar_expansion_pass : pass =
 fun p ~ctx:_ ~deps:_ ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), _) ->
      let mentions_t =
        List.exists
          (fun (a : Ir_util.access) -> String.equal a.array Gen_prog.temp_scalar)
          (Ir_util.accesses [ Stmt.Loop l ])
      in
      if not mentions_t then None
      else
        Some
          (match
             Scalar_expansion.apply ~scalar:Gen_prog.temp_scalar ~array_name:"TX" l
           with
          | Ok l' ->
              Ok
                {
                  v_detail = site_detail "loop" l;
                  v_block = Stmt.replace_at block path [ Stmt.Loop l' ];
                  v_extra_f = [ ("TX", Gen_prog.dims p 1) ];
                  v_extra_i = [];
                }
          | Error m -> Error m))
    (loops_with_level block)

let if_inspection_pass : pass =
 fun p ~ctx:_ ~deps:_ ->
  let block = p.block in
  List.filter_map
    (fun (path, (l : Stmt.loop), _) ->
      match l.body with
      | [ Stmt.If (_, _, []) ] ->
          let names =
            If_inspection.default_names ~prefix:l.index ~used:(used_names block)
          in
          Some
            (match If_inspection.apply ~names l with
            | Ok stmts ->
                Ok
                  {
                    v_detail = site_detail "guarded loop" l;
                    v_block = Stmt.replace_at block path stmts;
                    v_extra_f = [];
                    v_extra_i =
                      [ (names.lb, [ (1, 64) ]); (names.ub, [ (1, 64) ]) ];
                  }
            | Error m -> Error m)
      | _ -> None)
    (loops_with_level block)

(* FSA cross-check: wherever {!Fsa.commute} proves two adjacent
   statements equivalent under the site's facts, swapping them must be
   bitwise invisible to the whole program.  This is the differential
   validation of the derived commutativity prover: every [Equivalent]
   verdict gets executed in both orders.  [Unknown] verdicts are
   refusals, not failures — FSA is allowed to give up, never to be
   wrong. *)
let commutativity_pass : pass =
 fun p ~ctx ~deps:_ ->
  let block = p.block in
  let sites =
    ([], None)
    :: List.map (fun (path, l, _) -> (path, Some l)) (loops_with_level block)
  in
  List.concat_map
    (fun (path, encl) ->
      let stmts =
        match encl with Some (l : Stmt.loop) -> l.body | None -> block
      in
      let n = List.length stmts in
      List.filter_map
        (fun i ->
          let arr = Array.of_list stmts in
          let a = arr.(i) and b = arr.(i + 1) in
          let sctx = site_ctx ctx block path in
          let sctx =
            match encl with
            | Some l -> Symbolic.with_loops sctx [ l ]
            | None -> sctx
          in
          let verdict =
            try (Fsa.commute ~fuel:3 ~ctx:sctx [ a ] [ b ]).Fsa.verdict
            with e -> Fsa.Unknown (Printexc.to_string e)
          in
          match verdict with
          | Fsa.Equivalent ->
              arr.(i) <- b;
              arr.(i + 1) <- a;
              let swapped = Array.to_list arr in
              let v_block =
                match encl with
                | Some l ->
                    Stmt.replace_at block path
                      [ Stmt.Loop { l with body = swapped } ]
                | None -> swapped
              in
              let where =
                match encl with
                | Some l -> "in loop " ^ l.index
                | None -> "at top level"
              in
              Some
                (Ok
                   (variant
                      (Printf.sprintf "statements %d,%d %s" i (i + 1) where)
                      v_block))
          | Fsa.Unknown why -> Some (Error why))
        (List.init (max 0 (n - 1)) Fun.id))
    sites

let transform_passes : (string * pass) list =
  [
    ("strip_mine", strip_mine_pass);
    ("interchange", interchange_pass);
    ("distribution", distribution_pass);
    ("index_set_split", index_set_split_pass);
    ("split_minmax", split_minmax_pass);
    ("unroll_and_jam", unroll_and_jam_pass);
    ("scalar_replacement", scalar_replacement_pass);
    ("scalar_expansion", scalar_expansion_pass);
    ("if_inspection", if_inspection_pass);
    ("commutativity", commutativity_pass);
  ]

let pass_names = List.map fst transform_passes @ [ "oracle"; "reparse" ]

(* ---- the two non-transformation checks ---------------------------- *)

let oracle_check (p : Gen_prog.t) =
  let ctx = ctx_of p.block in
  match Oracle.agrees ~bindings:p.bindings ~ctx p.block with
  | Ok _ -> None
  | Error m -> Some m
  | exception Oracle.Unsupported m -> Some ("oracle unexpectedly refused: " ^ m)

let reparse_check (p : Gen_prog.t) =
  let text = Stmt.block_to_string p.block in
  match Parser.stmts text with
  | parsed ->
      Option.map
        (fun m -> "re-parsed program diverges: " ^ m)
        (diverges p (variant "reparse" parsed))
  | exception Parser.Parse_error { line; message } ->
      Some (Printf.sprintf "printed form does not re-parse: line %d: %s" line message)
  | exception Lexer.Lex_error { line; message } ->
      Some (Printf.sprintf "printed form does not re-lex: line %d: %s" line message)

(* Native cross-check: the JIT-compiled point program must be bitwise
   equal to the interpreter on the same data fill.  The shapes are the
   generator's own, over the parameters the loop bounds use, so the
   emitter's in-bounds proofs fire and the proof-gated unchecked and
   promoted paths run on every backend. *)
let native_shapes p =
  List.map (fun (name, rank) -> (name, Gen_prog.shape p rank)) Gen_prog.farrays

let native_check ~backends stats (p : Gen_prog.t) =
  (* Explicitly through the blueprint layer: generated programs have
     random concrete bounds, so hoisting makes structurally-equal
     programs of different sizes share one compiled plugin — every
     memo hit below is a reuse of a blueprint under fresh size
     bindings, still checked bitwise against the interpreter. *)
  let bp = Blueprint.of_block ~shapes:(native_shapes p) p.block in
  if Hashtbl.mem stats.st_bp_keys bp.Blueprint.key then
    stats.st_bp_reuse <- stats.st_bp_reuse + 1
  else Hashtbl.add stats.st_bp_keys bp.Blueprint.key ();
  let c = Emit.counts ~shapes:bp.Blueprint.shapes bp.Blueprint.block
  and t = stats.st_emitted in
  stats.st_emitted <-
    {
      unchecked = t.unchecked + c.unchecked;
      hoisted = t.hoisted + c.hoisted;
      promoted = t.promoted + c.promoted;
    };
  let rec compile acc = function
    | [] -> Ok (List.rev acc)
    | b :: rest -> (
        let module B = (val b : Backend.S) in
        match B.compile_blueprint ~name:"fuzz_native" bp with
        | Error m ->
            Error (Printf.sprintf "native compile failed (%s): %s" B.tag m)
        | Ok c -> compile (c :: acc) rest)
  in
  match compile [] backends with
  | Error m -> Some m
  | Ok compiled -> (
      if
        List.exists
          (fun (c : Backend.compiled) ->
            not (String.equal c.Backend.bk_tag "ocaml"))
          compiled
      then begin
        stats.st_native_c <- stats.st_native_c + 1;
        stats.st_c_raw <-
          stats.st_c_raw
          + Emit_c.raw_accesses ~shapes:bp.Blueprint.shapes bp.Blueprint.block
      end;
      (* One interpreter reference per size; every backend is diffed
         against it on the same fill.  interp = ocaml and interp = c
         together imply ocaml = c — the three-way differential. *)
      let diff_run (ps : Gen_prog.t) =
        let e_interp = make_env ps None ~fill_seed:p.fill_seed in
        Exec.run e_interp ps.Gen_prog.block;
        List.fold_left
          (fun acc (c : Backend.compiled) ->
            match acc with
            | Some _ -> acc
            | None -> (
                let e_native = make_env ps None ~fill_seed:p.fill_seed in
                match c.Backend.bk_run e_native with
                | Error m ->
                    Some
                      (Printf.sprintf "native run failed (%s): %s"
                         c.Backend.bk_tag m)
                | Ok () ->
                    Option.map
                      (fun m ->
                        Printf.sprintf
                          "native run (%s) diverges from the interpreter: %s"
                          c.Backend.bk_tag m)
                      (Env.diff ~only:real_names e_interp e_native)))
          None compiled
      in
      match diff_run p with
      | Some m -> Some m
      | None ->
          (* Rerun the same compiled artifacts under rotated size
             bindings — each stays inside the generator's own range
             ([N], [M] in 1-7, [KS] in 1-4), so in-bounds holds —
             and check bitwise again: shape polymorphism exercised
             on every program, not only when two random programs
             happen to share a structure. *)
          stats.st_bp_reuse <- stats.st_bp_reuse + 1;
          let rotate hi v = (v mod hi) + 1 in
          let p2 =
            {
              p with
              Gen_prog.bindings =
                List.map
                  (fun (k, v) ->
                    (k, rotate (if String.equal k "KS" then 4 else 7) v))
                  p.Gen_prog.bindings;
            }
          in
          diff_run p2)

(* ---- the property ------------------------------------------------- *)

let property ?only ~backends stats (p : Gen_prog.t) =
  stats.st_programs <- stats.st_programs + 1;
  let prof = Gen_prog.classify p in
  if prof.depth >= 1 && prof.depth <= 3 then
    stats.st_depth.(prof.depth - 1) <- stats.st_depth.(prof.depth - 1) + 1;
  if prof.rect then stats.st_rect <- stats.st_rect + 1;
  if prof.triangular then stats.st_tri <- stats.st_tri + 1;
  if prof.trapezoidal then stats.st_trap <- stats.st_trap + 1;
  if prof.guarded then stats.st_guarded <- stats.st_guarded + 1;
  let selected name =
    match only with None -> true | Some o -> String.equal o name
  in
  let ctx = ctx_of p.block in
  let deps = lazy (Dependence.all ~ctx p.block) in
  List.iter
    (fun (name, (pass : pass)) ->
      if selected name then
        List.iter
          (fun outcome ->
            let ps = pstat stats name in
            match outcome with
            | Error _ -> ps.rejected <- ps.rejected + 1
            | Ok v -> (
                ps.applied <- ps.applied + 1;
                match diverges p v with
                | None -> ()
                | Some msg ->
                    ps.diverged <- ps.diverged + 1;
                    if Obs.enabled () then
                      Obs.instant ~cat:"fuzz" "fuzz.divergence"
                        ~args:
                          [ ("pass", Obs.Str name); ("site", Obs.Str v.v_detail) ];
                    QCheck2.Test.fail_reportf
                      "pass %s (%s) diverged: %s@.transformed block:@.%s" name
                      v.v_detail msg
                      (Stmt.block_to_string v.v_block)))
          (pass p ~ctx ~deps))
    transform_passes;
  if selected "oracle" && prof.straightline then begin
    stats.st_oracle <- stats.st_oracle + 1;
    match oracle_check p with
    | None -> ()
    | Some m ->
        stats.st_oracle_bad <- stats.st_oracle_bad + 1;
        if Obs.enabled () then
          Obs.instant ~cat:"fuzz" "fuzz.oracle_violation" ~args:[ ("msg", Obs.Str m) ];
        QCheck2.Test.fail_reportf "dependence analysis not conservative: %s" m
  end;
  if selected "reparse" then begin
    stats.st_reparsed <- stats.st_reparsed + 1;
    match reparse_check p with
    | None -> ()
    | Some m -> QCheck2.Test.fail_reportf "%s" m
  end;
  if backends <> [] then begin
    stats.st_native <- stats.st_native + 1;
    match native_check ~backends stats p with
    | None -> ()
    | Some m ->
        stats.st_native_bad <- stats.st_native_bad + 1;
        if Obs.enabled () then
          Obs.instant ~cat:"fuzz" "fuzz.native_divergence"
            ~args:[ ("msg", Obs.Str m) ];
        QCheck2.Test.fail_reportf "%s" m
  end;
  true

(* ---- runner ------------------------------------------------------- *)

let summarize ~iters ~seed stats failures =
  {
    iters;
    seed;
    programs = stats.st_programs;
    depth_counts = Array.copy stats.st_depth;
    rect = stats.st_rect;
    triangular = stats.st_tri;
    trapezoidal = stats.st_trap;
    guarded = stats.st_guarded;
    oracle_checked = stats.st_oracle;
    oracle_violations = stats.st_oracle_bad;
    reparsed = stats.st_reparsed;
    native_checked = stats.st_native;
    native_c_checked = stats.st_native_c;
    native_divergences = stats.st_native_bad;
    native_blueprints = Hashtbl.length stats.st_bp_keys;
    native_blueprint_reuses = stats.st_bp_reuse;
    native_emitted = stats.st_emitted;
    native_c_raw = stats.st_c_raw;
    passes =
      List.map
        (fun (name, _) ->
          let ps = pstat stats name in
          {
            ps_name = name;
            ps_applied = ps.applied;
            ps_rejected = ps.rejected;
            ps_diverged = ps.diverged;
          })
        transform_passes;
    failures;
  }

let run ?only ?(native = false) ?(backend = "ocaml") ~iters ~seed () =
  match only with
  | Some o when not (List.mem o pass_names) ->
      Error
        (Printf.sprintf "unknown pass '%s' (expected one of: %s)" o
           (String.concat ", " pass_names))
  | _ when Option.is_none (Backend.of_tag backend) ->
      Error
        (Printf.sprintf "unknown backend '%s' (expected one of: %s)" backend
           (String.concat ", " Backend.names))
  | _ when native && Result.is_error (Jit.available ()) ->
      Error
        (Printf.sprintf "native mode unavailable: %s"
           (Result.get_error (Jit.available ())))
  | _
    when native
         && String.equal backend "c"
         && Result.is_error (Cc.available ()) ->
      Error
        (Printf.sprintf "c backend unavailable: %s"
           (Result.get_error (Cc.available ())))
  | _ ->
      (* [--backend c] is a three-way differential: the OCaml plugin
         stays in the comparison, so one run pins interpreter, OCaml
         and C to the same bits. *)
      let backends =
        if not native then []
        else if String.equal backend "c" then
          [ (module Backend.Ocaml : Backend.S); (module Backend.C) ]
        else [ (module Backend.Ocaml : Backend.S) ]
      in
      Obs.span ~cat:"fuzz" "fuzz.run"
        ~args:[ ("iters", Obs.Int iters); ("seed", Obs.Int seed) ]
        (fun () ->
          let stats = fresh_stats () in
          let cell =
            QCheck2.Test.make_cell ~count:iters
              ~name:(Printf.sprintf "differential fuzz (seed %d)" seed)
              ~print:Gen_prog.print Gen_prog.gen
              (property ?only ~backends stats)
          in
          let rand = Random.State.make [| seed |] in
          let res = QCheck2.Test.check_cell ~rand cell in
          let failures =
            match QCheck2.TestResult.get_state res with
            | QCheck2.TestResult.Success -> []
            | QCheck2.TestResult.Failed { instances } ->
                List.map (QCheck2.Test.print_c_ex cell) instances
            | QCheck2.TestResult.Failed_other { msg } -> [ msg ]
            | QCheck2.TestResult.Error { instance; exn; backtrace } ->
                [
                  Printf.sprintf "exception %s on:\n%s\n%s"
                    (Printexc.to_string exn)
                    (Gen_prog.print instance.QCheck2.TestResult.instance)
                    backtrace;
                ]
          in
          if Obs.enabled () then
            Obs.instant ~cat:"fuzz" "fuzz.coverage"
              ~args:
                [
                  ("programs", Obs.Int stats.st_programs);
                  ("triangular", Obs.Int stats.st_tri);
                  ("trapezoidal", Obs.Int stats.st_trap);
                  ("guarded", Obs.Int stats.st_guarded);
                  ("oracle_checked", Obs.Int stats.st_oracle);
                  ("failures", Obs.Int (List.length failures));
                ];
          if Obs.Metrics.enabled () then begin
            Obs.Metrics.add (Obs.Metrics.counter "fuzz.programs") stats.st_programs;
            Obs.Metrics.add
              (Obs.Metrics.counter "fuzz.failures")
              (List.length failures)
          end;
          Ok (summarize ~iters ~seed stats failures))

let ok s =
  s.failures = [] && s.oracle_violations = 0 && s.native_divergences = 0
