(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.  See DESIGN.md's experiment index (T1-T5, F1-F11, X1).

   Usage:  main.exe [t1|t2|t3|t4|t5|figures|cache|ablation|obs|profile|native|serve|all]
                    [--quick] [--json PATH] [--baseline PATH] [--check]
                    [--trajectory OUT] [--trajectory-base PATH]

   Absolute 1992 seconds are not reproducible; the claim checked here is
   the *shape*: which variant wins and by roughly what factor.  Every
   time in T1-T5 but T3's "Rec" is compiler output, compiled natively
   and verified bitwise against the interpreter before the clock
   starts: the registry kernel and its derived form
   (Blockability.native_compare), and the block algorithms no compiler
   derives, written in the §6 language (T3's "1" is Figure 11, T5's
   Householder "Blocked" the compact-WY source).  "Rec" (Hand_kernels)
   runs on the same data.  A row whose compiled arm fails is printed,
   dropped, and makes the run exit 1.  Every time is a Measure summary
   of interleaved samples, shown as the median and the spread;
   [--quick] changes problem sizes, not the sample count.

   [--json PATH] additionally dumps every table produced by the run as
   machine-readable JSON (see Table.json_of_tables; a time cell is its
   summary's numbers), so successive PRs leave a perf trajectory behind.

   [--trajectory OUT] writes the dated perf trajectory: the entries of
   [--trajectory-base PATH] (the committed bench/BENCH_trajectory.json;
   missing or empty means the trajectory is just starting) plus one new
   entry holding this run's tables.  See EXPERIMENTS.md for the schema.

   [--baseline PATH] compares this run's medians against a previous
   [--json] dump through Bench_gate and prints the verdict; with
   [--check] a flagged regression, or a run that compares no time cell
   of the baseline, exits non-zero (the CI regression gate, see
   `dune build @bench-check`). *)

let argv = List.tl (Array.to_list Sys.argv)
let quick = List.mem "--quick" argv

let json_path, baseline_path, check_mode, traj_out, traj_base, selected =
  let rec go sel json base check tout tbase = function
    | [] -> (json, base, check, tout, tbase, List.rev sel)
    | "--quick" :: rest -> go sel json base check tout tbase rest
    | "--check" :: rest -> go sel json base true tout tbase rest
    | "--json" :: path :: rest -> go sel (Some path) base check tout tbase rest
    | "--baseline" :: path :: rest -> go sel json (Some path) check tout tbase rest
    | "--trajectory" :: path :: rest -> go sel json base check (Some path) tbase rest
    | "--trajectory-base" :: path :: rest ->
        go sel json base check tout (Some path) rest
    | [ ("--json" | "--baseline" | "--trajectory" | "--trajectory-base") as flag ]
      ->
        Printf.eprintf "main.exe: %s requires an argument\n" flag;
        exit 2
    | a :: rest -> go (a :: sel) json base check tout tbase rest
  in
  let json, base, check, tout, tbase, sel =
    go [] None None false None None argv
  in
  (* Fail fast on an unwritable path rather than after the whole run. *)
  (match json with
  | Some path -> (
      match open_out path with
      | oc -> close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "main.exe: cannot write --json output: %s\n" msg;
          exit 2)
  | None -> ());
  (* ... and on a missing/unreadable baseline. *)
  (match base with
  | Some path when not (Sys.file_exists path) ->
      Printf.eprintf "main.exe: baseline %s does not exist\n" path;
      exit 2
  | _ -> ());
  if check && base = None then begin
    prerr_endline "main.exe: --check requires --baseline PATH";
    exit 2
  end;
  (json, base, check, tout, tbase, match sel with [] -> [ "all" ] | l -> l)

let selectors =
  [ "t1"; "t2"; "t3"; "t4"; "t5"; "figures"; "cache"; "ablation"; "obs";
    "profile"; "native"; "serve"; "all" ]

let () =
  match List.find_opt (fun s -> not (List.mem s selectors)) selected with
  | Some s ->
      Printf.eprintf "main.exe: unknown selector '%s'\nknown selectors: %s\n" s
        (String.concat ", " selectors);
      exit 2
  | None -> ()

let want what = List.mem what selected || List.mem "all" selected

(* Every table goes through [output]: printed for the human, remembered
   for the [--json] trajectory dump. *)
let registry : (string * Table.t) list ref = ref []

let output ~id tbl =
  Table.print tbl;
  registry := !registry @ [ (id, tbl) ]

(* Honour BLOCKABILITY_TRACE for whole-run traces. *)
let () = Obs.init_from_env ()

let banner title =
  Printf.printf "\n================ %s ================\n%!" title

(* ------------------------------------------------------------------ *)
(* compiled and hand-written subjects                                  *)
(* ------------------------------------------------------------------ *)

let seed = 42
let entry name = Option.get (Blockability.find name)
let ( let* ) = Result.bind

(* A row whose compiled arm fails to compile, run or verify is printed
   and dropped; the run then exits non-zero after every table. *)
let dropped = ref 0

let drop fmt =
  Printf.ksprintf
    (fun m ->
      incr dropped;
      print_endline m)
    fmt

(* Point vs derived form of a registry kernel, compiled natively,
   verified bitwise against the interpreter, then timed as two
   interleaved arms. *)
let compiled ?(backend = (module Backend.Ocaml : Backend.S)) ?verify_bindings
    ?block name bindings =
  match
    Blockability.native_compare ~backend ~bindings ?verify_bindings ~seed
      ?block (entry name)
  with
  | Ok r -> Some r
  | Error m ->
      let module B = (val backend) in
      drop "%s (%s): %s" name B.tag m;
      None

(* A §6 block lowered at [block] and packaged by [kernel] with its data
   and shapes, compiled on the OCaml backend as the registry's arms are. *)
let lowered kernel ~block ext =
  let* stmt = Lower.lower ~block_size:block ~machine:Arch.rs6000_540 ext in
  let (k : Kernel_def.t) = kernel [ stmt ] in
  let bp = Blueprint.of_block ~shapes:k.shapes k.block in
  let* cm = Backend.Ocaml.compile_blueprint ~name:k.name bp in
  Ok (k, fun env -> cm.bk_run env)

(* [run] on fresh data at [verify] must leave A bitwise equal to
   [reference], the interpreter's run on the same data; it is then an
   arm on fresh data at [bindings], set up outside the clock. *)
let verified name run ~verify ~reference ~bindings make =
  let env = make verify in
  let* () = run env in
  match Env.diff ~only:[ "A" ] reference env with
  | Some m -> Error (name ^ " diverges from the interpreter: " ^ m)
  | None -> Ok (fun () -> let env = make bindings in fun () -> run env)

(* Blocked columns are verified at an order with several blocks and a
   ragged last one. *)
let verify_n block = (2 * block) + 5

let text cells = List.map (fun s -> Table.Text s) cells
let params bs = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bs)

(* A compared pair's Point, Xformed and Speedup cells. *)
let pair (r : Blockability.native_result) =
  Table.[ Time r.nt_point; Time r.nt_transformed; Text (cell_f r.nt_speedup) ]

(* ------------------------------------------------------------------ *)
(* T1: §3.2 — Aconv / Conv                                             *)
(* ------------------------------------------------------------------ *)

(* The paper iterates each kernel 1000 times on series sized so that 75%
   of the time is spent in the triangular region; we use N3 = 4/3 * N1
   with N2 = N1 so the rhomboidal+triangular split matches that ratio,
   and time one run at sizes where the point run takes about 1 ms or
   more. *)
let t1 () =
  banner "T1  (paper §3.2): adjoint convolution and convolution";
  let tbl =
    Table.create ~title:"Aconv/Conv: original vs index-set split + unroll-and-jam"
      [
        ("Loop", Table.Left); ("Size", Table.Right); ("Original", Table.Right);
        ("Xformed", Table.Right); ("Speedup", Table.Right);
      ]
  in
  let sizes = if quick then [ 800 ] else [ 800; 1600 ] in
  List.iter
    (fun n1 ->
      let bindings = [ ("N1", n1); ("N2", n1); ("N3", 4 * n1 / 3) ] in
      List.iter
        (fun (loop, name) ->
          Option.iter
            (fun r -> Table.add_row tbl (text [ loop; string_of_int n1 ] @ pair r))
            (compiled name bindings))
        [ ("Aconv", "aconv"); ("Conv", "conv") ])
    sizes;
  output ~id:"t1" tbl;
  print_string "paper (RS/6000-540): speedups 1.80-1.91\n"

(* ------------------------------------------------------------------ *)
(* T2: §4 — guarded matrix multiply                                    *)
(* ------------------------------------------------------------------ *)

(* The registry derives IF-inspection only: the executor is not
   unrolled and jammed, so the paper's UJ and UJ+IF columns have no
   compiled counterpart yet. *)
let t2 () =
  let n = if quick then 150 else 300 in
  banner (Printf.sprintf "T2  (paper §4): SGEMM with a zero guard, %dx%d" n n);
  let tbl =
    Table.create ~title:"Matrix multiply: original vs IF-inspection"
      [
        ("Frequency", Table.Right); ("Original", Table.Right); ("IF", Table.Right);
        ("Speedup", Table.Right);
      ]
  in
  List.iter
    (fun freq_pct ->
      Option.iter
        (fun r -> Table.add_row tbl (text [ Printf.sprintf "%d%%" freq_pct ] @ pair r))
        (compiled "matmul" [ ("N", n); ("FREQ_PCT", freq_pct) ]))
    [ 2; 10; 50 ];
  output ~id:"t2" tbl;
  print_string
    "paper: UJ alone slower than original; UJ+IF speedup 1.45-1.48 (UJ+IF \
     needs unroll-and-jam of the executor, not derived yet)\n"

(* ------------------------------------------------------------------ *)
(* T3: §5.1 — LU without pivoting                                      *)
(* ------------------------------------------------------------------ *)

let t3 () =
  banner "T3  (paper §5.1): LU decomposition without pivoting";
  let tbl =
    Table.create
      ~title:
        "LU: point vs Figure 11 (1) vs derived block (2) vs 2+UJ+scalar (2+) \
         vs recursive (Rec)"
      [
        ("Size", Table.Right); ("Block", Table.Right); ("Point", Table.Right);
        ("1", Table.Right); ("2", Table.Right); ("2+", Table.Right);
        ("Rec", Table.Right); ("Speedup", Table.Right);
      ]
  in
  let sizes = if quick then [ (200, [ 32 ]) ] else [ (300, [ 32; 64 ]); (500, [ 32; 64 ]) ] in
  List.iter
    (fun (n, blocks) ->
      let bindings = [ ("N", n) ] in
      List.iter
        (fun b ->
          let verify_bindings = [ ("N", verify_n b) ] in
          (* "1" is the paper's block LU source (Figure 11) lowered at
             this block size; "Rec", the one hand-written kernel, is
             cache-oblivious, with no block parameter to tune (its base
             panels are 16 columns wide) *)
          let one_and_rec =
            let fig11 block = { K_lu.kernel with name = "fig11_lu"; block } in
            let* _, one = lowered fig11 ~block:b Ext.fig11_blocked_lu in
            let rec_ env =
              Hand_kernels.lu_recursive ~n:(Env.iscalar env "N") (Env.farray_data env "A");
              Ok ()
            in
            let check name run verify =
              verified name run ~verify ~bindings
                (fun bindings -> Kernel_def.make_env K_lu.kernel ~bindings ~seed)
                ~reference:(Kernel_def.run K_lu.kernel ~bindings:verify ~seed)
            in
            let* one = check "Figure 11" one verify_bindings in
            let* rec_ = check "Rec" rec_ [ ("N", verify_n 16) ] in
            Measure.run [ one; rec_ ]
          in
          match
            ( compiled ~verify_bindings ~block:b "lu" bindings,
              compiled ~verify_bindings ~block:b "lu_opt" bindings,
              one_and_rec )
          with
          | Some r2, Some r2p, Ok [ t_1; t_rec ] ->
              (* Point and Speedup: the lu_opt pair's one measurement *)
              Table.(
                add_row tbl
                  (text [ string_of_int n; string_of_int b ]
                  @ [ Time r2p.nt_point; Time t_1; Time r2.nt_transformed;
                      Time r2p.nt_transformed; Time t_rec; Text (cell_f r2p.nt_speedup) ]))
          | _, _, Error m -> drop "T3 \"1\"/\"Rec\" at N=%d: %s" n m
          | _ -> ())
        blocks)
    sizes;
  output ~id:"t3" tbl;
  print_string "paper: 1 and 2 within ~8% of point; 2+ speedup 2.5-3.2\n"

(* ------------------------------------------------------------------ *)
(* T4: §5.2 — LU with partial pivoting                                 *)
(* ------------------------------------------------------------------ *)

let t4 () =
  banner "T4  (paper §5.2): LU decomposition with partial pivoting";
  let tbl =
    Table.create ~title:"Pivoting LU: point vs block (1) vs block+UJ+scalar (1+)"
      [
        ("Size", Table.Right); ("Block", Table.Right); ("Point", Table.Right);
        ("1", Table.Right); ("1+", Table.Right); ("Speedup", Table.Right);
      ]
  in
  let sizes = if quick then [ (200, [ 32 ]) ] else [ (300, [ 32; 64 ]); (500, [ 32; 64 ]) ] in
  List.iter
    (fun (n, blocks) ->
      List.iter
        (fun b ->
          let verify_bindings = [ ("N", verify_n b) ] and bindings = [ ("N", n) ] in
          match
            ( compiled ~verify_bindings ~block:b "lu_pivot" bindings,
              compiled ~verify_bindings ~block:b "lu_pivot_opt" bindings )
          with
          | Some r1, Some r1p ->
              (* Point and Speedup: the lu_pivot_opt pair's one measurement *)
              Table.(
                add_row tbl
                  (text [ string_of_int n; string_of_int b ]
                  @ [ Time r1p.nt_point; Time r1.nt_transformed;
                      Time r1p.nt_transformed; Text (cell_f r1p.nt_speedup) ]))
          | _ -> ())
        blocks)
    sizes;
  output ~id:"t4" tbl;
  print_string "paper: 1 close to point; 1+ speedup 2.3-2.7\n"

(* ------------------------------------------------------------------ *)
(* T5: §5.4 — Givens QR (plus §5.3 Householder)                        *)
(* ------------------------------------------------------------------ *)

let t5 () =
  banner "T5  (paper §5.4): QR with Givens rotations";
  let tbl =
    Table.create ~title:"Givens QR: point vs optimized (Figure 10)"
      [
        ("Array size", Table.Left); ("Point", Table.Right);
        ("Optimized", Table.Right); ("Speedup", Table.Right);
      ]
  in
  let sizes = if quick then [ 200 ] else [ 300; 500; 800 ] in
  List.iter
    (fun n ->
      Option.iter
        (fun r -> Table.add_row tbl (text [ Printf.sprintf "%dx%d" n n ] @ pair r))
        (compiled "givens" [ ("M", n); ("N", n) ]))
    sizes;
  output ~id:"t5-givens" tbl;
  print_string "paper: speedup 2.04 at 300, 5.49 at 500 (see also the X1 cache ablation,\n\
which reproduces the factor on the simulated 64KB cache)\n";
  (* §5.3: Householder QR, which no compiler derives.  Point is the
     registry's point kernel; Blocked is its compact-WY form, written in
     the §6 language and lowered at KS = 32.  Each is compiled and
     checked bitwise against its interpreted IR, and the WY against
     point to rounding (it reassociates), before the clock. *)
  let tbl2 =
    Table.create
      ~title:"Householder QR (§5.3, not compiler-blockable): point vs WY block"
      [
        ("Array size", Table.Left); ("Point", Table.Right); ("Blocked", Table.Right);
        ("Speedup", Table.Right);
      ]
  in
  let hh = entry "householder" in
  let wy_source = List.hd (Parser.program Ext.compact_wy) in
  let verify = [ ("M", verify_n 32); ("N", verify_n 32) ] and ks b = ("KS", 32) :: b in
  List.iter
    (fun n ->
      let bindings = [ ("M", n); ("N", n) ] in
      match
        let* point = Blockability.compile ~backend:(module Backend.Ocaml) hh Point in
        let* wy, blocked = lowered K_householder.wy ~block:32 wy_source in
        let reference = Kernel_def.run hh.kernel ~bindings:verify ~seed
        and wy_reference = Kernel_def.run wy ~bindings:(ks verify) ~seed in
        let* () =
          match K_householder.wy_diff reference wy_reference with
          | Some m -> Error ("WY departs from point: " ^ m)
          | None -> Ok ()
        in
        let* point =
          verified "point" (fun env -> point.c_cm.bk_run env) ~verify ~reference ~bindings
            (fun bindings -> Result.get_ok (Blockability.env hh Point ~bindings ~seed))
        in
        let* blocked =
          verified "WY" blocked ~verify ~reference:wy_reference ~bindings (fun b ->
              Kernel_def.make_env wy ~bindings:(ks b) ~seed)
        in
        Measure.run [ point; blocked ]
      with
      | Ok [ t_point; t_blk ] ->
          Table.(
            add_row tbl2
              [ Text (Printf.sprintf "%dx%d" n n); Time t_point; Time t_blk;
                Text (cell_f (Measure.ratio t_point t_blk)) ])
      | Ok _ -> ()
      | Error m -> drop "householder at %dx%d: %s" n n m)
    sizes;
  output ~id:"t5-householder" tbl2

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures () =
  banner "F1 (iteration space of the triangular example)";
  let open Builder in
  let tri =
    match
      do_ "II" (v "I") (v "I" +! v "IS" -! i 1)
        [ do_ "J" (v "II") (v "N") [ setf "X" (fc 0.0) ] ]
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  print_string
    (Ir_util.plot_iteration_space
       ~bindings:[ ("I", 1); ("IS", 16); ("N", 24) ]
       ~width:48 ~height:16 tri);

  banner "F2/F5 (sections of A in strip-mined LU)";
  let stripped =
    Result.get_ok
      (Strip_mine.apply ~block_size:(Expr.var "KS") ~new_index:"KK" K_lu.point_loop)
  in
  let kk = match stripped.body with [ Stmt.Loop l ] -> l | _ -> assert false in
  let ctx = Symbolic.of_loop_context [ stripped; kk ] in
  List.iter
    (fun (a : Ir_util.access) ->
      if a.space = Ir_util.Float_data && a.subs <> [] && a.kind = Ir_util.Write
      then
        match Section.of_access ~ctx ~within:a.loops a with
        | Some s ->
            Printf.printf "  write %s(%s)  over the KK loop:  %s\n" a.array
              (String.concat "," (List.map Expr.to_string a.subs))
              (Section.to_string s)
        | None -> ())
    (Ir_util.accesses [ Stmt.Loop kk ]);

  banner "F3 (Procedure IndexSetSplit driving the LU derivation)";
  (match Blockability.derive (Option.get (Blockability.find "lu")) with
  | Ok { steps; _ } ->
      List.iter
        (fun (s : Blocker.trace_step) -> Printf.printf "  %s: %s\n" s.name s.detail)
        steps
  | Error e -> Printf.printf "  FAILED: %s\n" e);

  banner "F4 (matrix multiply after IF-inspection)";
  (match Blockability.derive (Option.get (Blockability.find "matmul")) with
  | Ok { result; _ } -> print_string (Stmt.to_string result)
  | Error e -> Printf.printf "FAILED: %s\n" e);

  banner "F6 (block LU, derived mechanically from the point algorithm)";
  (match Blockability.derive (Option.get (Blockability.find "lu")) with
  | Ok { result; _ } -> print_string (Stmt.to_string result)
  | Error e -> Printf.printf "FAILED: %s\n" e);

  banner "F7 (point LU with partial pivoting)";
  print_string (Stmt.to_string (Stmt.Loop K_lu_pivot.point_loop));

  banner "F8 (block LU with pivoting, derived with commutativity knowledge)";
  (match Blockability.derive (Option.get (Blockability.find "lu_pivot")) with
  | Ok { result; _ } -> print_string (Stmt.to_string result)
  | Error e -> Printf.printf "FAILED: %s\n" e);

  banner "F9 (point Givens QR)";
  print_string (Stmt.to_string (Stmt.Loop K_givens.point_loop));

  banner "F10 (optimized Givens QR)";
  (match Blockability.derive (Option.get (Blockability.find "givens")) with
  | Ok { result; _ } -> print_string (Stmt.to_string result)
  | Error e -> Printf.printf "FAILED: %s\n" e);

  banner "breadth (ours, per the paper's §8): the same driver on other kernels";
  List.iter
    (fun name ->
      match Blockability.derive (Option.get (Blockability.find name)) with
      | Ok { result; _ } ->
          Printf.printf "-- %s, blocked mechanically:\n" name;
          print_string (Stmt.to_string result)
      | Error e -> Printf.printf "%s FAILED: %s\n" name e)
    [ "trisolve"; "cholesky" ];

  banner "F11 (block LU in the extended language, and its lowering)";
  print_string (Ext.to_string Ext.fig11_blocked_lu);
  print_endline "-- lowered with the RS/6000-540 block-size choice:";
  match Lower.lower ~machine:Arch.rs6000_540 Ext.fig11_blocked_lu with
  | Ok stmt -> print_string (Stmt.to_string stmt)
  | Error e -> Printf.printf "FAILED: %s\n" e

(* ------------------------------------------------------------------ *)
(* X1: cache ablation on the simulated caches                          *)
(* ------------------------------------------------------------------ *)

let cache_ablation () =
  banner "X1  cache-simulator ablation (IR interpreter + LRU cache)";
  let tbl =
    Table.create
      ~title:"Simulated misses, point vs transformed (write-allocate LRU)"
      [
        ("Kernel", Table.Left); ("Machine", Table.Left); ("Params", Table.Left);
        ("Point misses", Table.Right); ("Xformed misses", Table.Right);
        ("Miss ratio", Table.Right); ("Cycle speedup", Table.Right);
      ]
  in
  let cases =
    if quick then [ ("lu", Arch.small_test, [ ("N", 48); ("KS", 4) ]) ]
    else
      [
        ("lu", Arch.small_test, [ ("N", 96); ("KS", 4) ]);
        ("lu", Arch.rs6000_540, [ ("N", 192); ("KS", 16) ]);
        ("lu_pivot", Arch.small_test, [ ("N", 96); ("KS", 4) ]);
        ("givens", Arch.small_test, [ ("M", 64); ("N", 48) ]);
        ("matmul", Arch.small_test, [ ("N", 64); ("FREQ_PCT", 10) ]);
        ("aconv", Arch.small_test, [ ("N1", 400); ("N2", 400); ("N3", 500) ]);
      ]
  in
  List.iter
    (fun (name, (machine : Arch.t), bindings) ->
      let entry = Option.get (Blockability.find name) in
      match Blockability.simulate ~machine ~bindings entry with
      | Error e -> Printf.printf "%s: %s\n" name e
      | Ok r ->
          Table.add_row tbl
            (text
               [
                 name;
                 machine.Arch.name;
                 params bindings;
                 string_of_int r.point_stats.misses;
                 string_of_int r.transformed_stats.misses;
                 Printf.sprintf "%.1f%% -> %.1f%%"
                   (100.0 *. Cache.miss_ratio r.point_stats)
                   (100.0 *. Cache.miss_ratio r.transformed_stats);
                 Table.cell_f
                   (Cost.speedup ~baseline:r.point_cycles
                      ~optimized:r.transformed_cycles);
               ]))
    cases;
  output ~id:"x1-cache" tbl

(* ------------------------------------------------------------------ *)
(* Ablation: block-size sensitivity and the block-size chooser         *)
(* ------------------------------------------------------------------ *)

let ablation () =
  banner "ablation: block-size sensitivity of blocked LU (2+)";
  let n = if quick then 200 else 500 in
  let tbl =
    Table.create ~title:(Printf.sprintf "LU 2+ at N=%d across block sizes" n)
      [ ("Block", Table.Right); ("Time", Table.Right); ("Speedup vs point", Table.Right) ]
  in
  List.iter
    (fun b ->
      Option.iter
        (fun (r : Blockability.native_result) ->
          Table.(
            add_row tbl
              [ Text (string_of_int b); Time r.nt_transformed; Text (cell_f r.nt_speedup) ]))
        (compiled ~block:b "lu_opt" [ ("N", n) ]))
    [ 8; 16; 32; 64; 128; 256 ];
  output ~id:"ablation-block-size" tbl;
  (* and the simulated-machine chooser the Section-6 lowering uses *)
  List.iter
    (fun (m : Arch.t) ->
      Printf.printf "block size chosen for %-12s : %d\n" m.name
        (Arch.block_size m ()))
    [ Arch.rs6000_540; Arch.small_test; Arch.modern_l1 ];
  (* simulated sensitivity on the small cache: misses as KS varies *)
  let entry = Option.get (Blockability.find "lu") in
  let tbl2 =
    Table.create ~title:"Simulated LU misses vs KS (2KB direct-mapped, N=96)"
      [ ("KS", Table.Right); ("Misses", Table.Right); ("Miss ratio", Table.Right) ]
  in
  List.iter
    (fun ks ->
      match
        Blockability.simulate ~machine:Arch.small_test
          ~bindings:[ ("N", 96); ("KS", ks) ]
          entry
      with
      | Ok r ->
          Table.add_row tbl2
            (text
               [
                 string_of_int ks;
                 string_of_int r.transformed_stats.misses;
                 Printf.sprintf "%.1f%%" (100.0 *. Cache.miss_ratio r.transformed_stats);
               ])
      | Error m -> Printf.printf "%s\n" m)
    [ 2; 4; 8; 16; 32 ];
  output ~id:"ablation-simulated-ks" tbl2

(* ------------------------------------------------------------------ *)
(* OBS: overhead of the observability layer itself                     *)
(* ------------------------------------------------------------------ *)

(* Labelled times against the first row's: Variant | Time | vs [base]. *)
let relative ~id ~title ~base rows =
  let tbl =
    Table.create ~title
      [ ("Variant", Table.Left); ("Time", Table.Right); (base, Table.Right) ]
  in
  let first = snd (List.hd rows) in
  List.iter
    (fun (label, t) ->
      Table.(add_row tbl [ Text label; Time t; Text (cell_f (Measure.ratio t first)) ]))
    rows;
  output ~id tbl

(* Labelled arms, interleaved, as a [relative] table. *)
let interleaved ~id ~title ~base arms =
  match Measure.run (List.map snd arms) with
  | Error m -> Printf.printf "%s: %s\n" id m
  | Ok ts -> relative ~id ~title ~base (List.combine (List.map fst arms) ts)

(* The claim being timed: with the null sink and metrics off, the
   instrumented runtime is indistinguishable from the seed (the guards
   are single bool-ref reads), and even metrics-on overhead stays small
   because blocked kernels amortize each chunk over real work.  The
   workload is the daemon's own fan-out path: one [batch] request for
   the transformed lu_opt through [Serve.handle_line], its items spread
   over a 2-lane pool.  Each arm sets its observability state in its
   set-up, so the four states interleave sample by sample. *)
let obs_suite () =
  banner "OBS: observability overhead (untraced vs traced serve batch)";
  match Jit.available () with
  | Error m -> Printf.printf "obs suite skipped: %s\n" m
  | Ok () ->
      let n = if quick then 200 else 400 and items = 4 in
      let pool = Pool.create ~domains:2 () in
      let line =
        Printf.sprintf
          "{\"op\":\"batch\",\"kernel\":\"lu_opt\",\"variant\":\"transformed\",\"sizes\":[%s]}"
          (String.concat "," (List.init items (fun _ -> string_of_int n)))
      in
      let run () =
        match Json_min.parse (fst (Serve.handle_line ~exec_pool:pool line)) with
        | Ok j when Json_min.bool_field "ok" j = Some true -> Ok ()
        | _ -> Error "the batch request failed"
      in
      let workload =
        Printf.sprintf "Serve batch of %d x lu_opt at N=%d on 2 lanes, " items n
      in
      let state sink metrics () =
        Obs.set_sink sink;
        Obs.Metrics.set_enabled metrics;
        run
      in
      let mem, _events = Obs.memory () in
      interleaved ~id:"obs-overhead" ~title:(workload ^ "observability on/off")
        ~base:"vs off"
        [
          ("metrics off (null sink)", state Obs.null false);
          (* serve-daemon default: no tracing sink, no metrics, but the
             flight recorder ring captures every event — the "always
             on" cost. *)
          ("recorder only (ring sink)", state (Obs.Recorder.sink ()) false);
          ("metrics on", state Obs.null true);
          ("metrics + memory sink", state mem true);
        ];
      Obs.set_sink Obs.null;
      Obs.Metrics.set_enabled false;
      Obs.Recorder.clear ();
      (* PROF-CONT: overhead of the continuous span-stack sampler on the
         same workload.  The sampled domains only pay for maintaining the
         per-domain span stack (one cons per span); the ticker thread
         does the folding.  The sampler starts a thread, so each row is
         one block of samples, the set-up starting the sampler (a no-op
         once it runs).  The acceptance bar is < 5% at ~100 Hz. *)
      let sampled (label, hz) =
        let t =
          Measure.run
            [ (fun () -> Option.iter (fun hz -> Obs.Sampler.start ~hz ()) hz; run) ]
        in
        if hz <> None then begin
          Obs.Sampler.stop ();
          (* On a 1-core box the busy bench thread starves the ticker
             thread of its own domain (samples land only at yield
             points); the pool's other lane is sampled at the full
             rate. *)
          Printf.printf "  %s: %d samples, %d distinct stacks\n%!" label
            (Obs.Sampler.samples ())
            (List.length (Obs.Sampler.folded ()));
          Obs.Sampler.reset ()
        end;
        match t with
        | Ok ts -> Some (label, List.hd ts)
        | Error m ->
            Printf.printf "%s: %s\n" label m;
            None
      in
      relative ~id:"prof-cont" ~title:(workload ^ "span-stack sampler on/off")
        ~base:"vs off"
        (List.filter_map sampled
           [ ("sampler off", None); ("sampler 97 Hz", Some 97.); ("sampler 997 Hz", Some 997.) ]);
      print_string "each row is one block of samples: the sampler starts a thread\n";
      (* and what the metrics actually recorded, as a smoke test *)
      Obs.Metrics.set_enabled true;
      ignore (run ());
      Pool.shutdown pool;
      print_string (Obs.Metrics.report ());
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* PROFILE: cost of the memory-hierarchy profiler's attribution tiers  *)
(* ------------------------------------------------------------------ *)

(* The claim being timed: attribution is zero-cost when disabled.  The
   interpreter's hook signature carries a [ref_id], but without a refmap
   the bare run and the flat single-level trace are exactly the seed's
   code paths; only opting into the full profiler (hierarchy walk +
   reuse-distance engine + per-reference counters) pays for it.  Each
   tier's set-up builds its sample's environment. *)
let profile_suite () =
  banner "PROFILE: per-reference attribution overhead (interpreted LU)";
  let kernel = (entry "lu").Blockability.kernel in
  let n = if quick then 32 else 64 in
  let block = kernel.Kernel_def.block in
  let arrays = kernel.Kernel_def.traced in
  let machine = Arch.rs6000_540 in
  let tier f () =
    let env = Kernel_def.make_env kernel ~bindings:[ ("N", n) ] ~seed in
    fun () ->
      f env;
      Ok ()
  in
  interleaved ~id:"profile-overhead"
    ~title:(Printf.sprintf "Interpreted LU at N=%d: hook tiers" n)
    ~base:"vs bare"
    [
      ("no hook", tier (fun env -> Exec.run env block));
      ( "flat cache trace (attribution off)",
        tier (fun env -> ignore (Trace.run machine env ~arrays block)) );
      ( "hierarchy profiler (attribution on)",
        tier (fun env -> ignore (Trace.run_profile machine env ~arrays block)) );
    ]

(* ------------------------------------------------------------------ *)
(* NATIVE: compiled kernels — the paper's speedups on real hardware    *)
(* ------------------------------------------------------------------ *)

(* The registry's headline kernels side by side, each lowered by
   lib/codegen on every available backend and verified bitwise against
   the interpreter before the clock starts (native_compare refuses to
   time a diverging kernel), so the two backends are transitively
   bitwise-equal.  The paper's blocking argument is about memory
   traffic, so the Speedup column should roughly agree across backends:
   a divergence would mean the ratio was an artifact of one compiler,
   not of the blocking.  The Model column is the cache simulator's
   memory-cycle ratio at the verification size — prediction next to
   measurement, which is the paper's whole argument. *)
let native_suite () =
  banner "NATIVE  point vs transformed, per code-generation backend";
  let backends =
    List.filter
      (fun b ->
        let module B = (val b : Backend.S) in
        B.available () = Ok ())
      Backend.all
  in
  let tbl =
    Table.create ~title:"Native point vs transformed, per backend, bitwise-verified"
      [
        ("Kernel", Table.Left); ("Params", Table.Left); ("Backend", Table.Left);
        ("Point", Table.Right); ("Xformed", Table.Right);
        ("Speedup", Table.Right); ("Model", Table.Right);
      ]
  in
  let cases =
    if quick then
      [
        ("lu", [ ("N", 256) ], Some 32);
        ("lu_opt", [ ("N", 256) ], Some 32);
        ("lu_opt", [ ("N", 512) ], Some 32);
        ("lu_pivot", [ ("N", 256) ], Some 32);
        ("lu_pivot_opt", [ ("N", 256) ], Some 32);
        ("matmul", [ ("N", 192); ("FREQ_PCT", 10) ], None);
        ("givens", [ ("M", 192); ("N", 192) ], None);
      ]
    else
      [
        ("lu", [ ("N", 384) ], Some 32);
        ("lu", [ ("N", 640) ], Some 32);
        ("lu_opt", [ ("N", 384) ], Some 32);
        ("lu_opt", [ ("N", 640) ], Some 32);
        ("lu_opt", [ ("N", 1024) ], Some 32);
        ("lu_pivot", [ ("N", 384) ], Some 32);
        ("lu_pivot_opt", [ ("N", 384) ], Some 32);
        ("lu_pivot_opt", [ ("N", 640) ], Some 32);
        ("matmul", [ ("N", 320); ("FREQ_PCT", 10) ], None);
        ("givens", [ ("M", 384); ("N", 384) ], None);
        ("conv", [ ("N1", 1200); ("N2", 1200); ("N3", 1600) ], None);
      ]
  in
  List.iter
    (fun (name, bindings, block) ->
      List.iter
        (fun backend ->
          Option.iter
            (fun (r : Blockability.native_result) ->
              let model =
                match r.nt_model_speedup with
                | None -> "-"
                | Some m -> Printf.sprintf "%.2fx" m
              in
              Table.add_row tbl
                (text [ name; params r.nt_bindings; r.nt_backend ] @ pair r @ text [ model ]))
            (compiled ~backend ?block name bindings))
        backends)
    cases;
  output ~id:"native" tbl;
  print_string
    "every row is bitwise-verified against the interpreter before timing,\n\
     and point vs transformed bitwise at the timed size after it;\n\
     paper (RS/6000-540): blocked LU 2.5-3.2x, Givens 2.04-5.49x\n"

(* ------------------------------------------------------------------ *)
(* SERVE: the batched compile/execute request service                  *)
(* ------------------------------------------------------------------ *)

(* [path] and everything under it. *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Measures the service's two claims end to end, through the same
   [Serve.handle_line] the daemon runs: a warm-blueprint compile request
   finds the loaded artifact in the cache's table, far under the cold
   ocamlopt run (its backend share measured at 3–6 us on OCaml, see
   serve.mli), and a batch dispatch over the domain pool beats the same
   executions issued one request at a time — with identical result
   digests, since every item runs in its own environment.  A cold
   compile happens once per process, so it is one sample. *)
let serve_suite () =
  banner "SERVE  blueprint-keyed compile/execute service";
  match Jit.available () with
  | Error m -> Printf.printf "serve suite skipped: %s\n" m
  | Ok () ->
      (* A fresh on-disk cache so each structure's first compile is a
         real ocamlopt run; the kernels here are ones no other suite
         compiles, so the in-process memo is cold too.  The suite
         removes it and restores the previous cache when it ends. *)
      let saved = Artifact_cache.dir () in
      let cache = Filename.temp_dir "blockc-serve-bench" "" in
      Unix.putenv "BLOCKC_JIT_CACHE" cache;
      Fun.protect ~finally:(fun () ->
          Unix.putenv "BLOCKC_JIT_CACHE" saved;
          remove_tree cache)
      @@ fun () ->
      let exec_pool = Pool.default () in
      let read name j = Option.value (Json_min.string_field name j) ~default:"?" in
      (* One request: [Error] unless it succeeded, and came from the memo
         where [memo] says so. *)
      let call ?(memo = false) line =
        match Json_min.parse (fst (Serve.handle_line ~exec_pool line)) with
        | Error m -> Error ("serve response did not parse: " ^ m)
        | Ok j when Json_min.bool_field "ok" j <> Some true -> Error (read "error" j)
        | Ok j when memo && read "disposition" j <> "memo" ->
            Error ("not served from the memo: " ^ line)
        | Ok j -> Ok j
      in
      let compile kernel variant =
        Printf.sprintf "{\"op\":\"compile\",\"kernel\":\"%s\",\"variant\":\"%s\"}"
          kernel variant
      in
      let tbl =
        Table.create ~title:"serve: cold (one request, n=1) vs warm-blueprint compile requests"
          [
            ("Kernel", Table.Left); ("Cold", Table.Right); ("Warm", Table.Right);
            ("Ratio", Table.Right); ("Dispositions", Table.Left);
          ]
      in
      List.iter
        (fun kernel ->
          let disposition = ref "?" in
          let arm () () =
            Result.map
              (fun j -> disposition := read "disposition" j)
              (call (compile kernel "transformed"))
          in
          let cold = Measure.once arm in
          let first = !disposition in
          match (cold, Measure.run [ arm ]) with
          | Ok cold, Ok [ warm ] ->
              Table.add_row tbl
                Table.
                  [
                    Text kernel; Time cold; Time warm;
                    Text (Printf.sprintf "%.0fx" (Measure.ratio cold warm));
                    Text (Printf.sprintf "%s -> %s" first !disposition);
                  ]
          | Error m, _ | _, Error m -> Printf.printf "serve %s: %s\n" kernel m
          | _ -> ())
        [ "cholesky"; "trisolve" ];
      output ~id:"serve_compile" tbl;
      (* Both dispatches run warm: the point blueprint they ask for is
         compiled before timing, and every timed response must come from
         the memo. *)
      let sizes = List.init (if quick then 8 else 16) (fun i -> 48 + (8 * i)) in
      ignore (call (compile "cholesky" "point"));
      let seq_digests = ref [] and batch_digests = ref [] in
      let rec sequential acc = function
        | [] ->
            seq_digests := List.rev acc;
            Ok ()
        | sz :: rest ->
            Printf.sprintf
              "{\"op\":\"execute\",\"kernel\":\"cholesky\",\"bindings\":{\"N\":%d}}" sz
            |> call ~memo:true
            |> Fun.flip Result.bind (fun j -> sequential (read "digest" j :: acc) rest)
      in
      let batched () =
        Printf.sprintf "{\"op\":\"batch\",\"kernel\":\"cholesky\",\"sizes\":[%s]}"
          (String.concat "," (List.map string_of_int sizes))
        |> call ~memo:true
        |> Result.map (fun j ->
               batch_digests :=
                 match Json_min.field "digests" j with
                 | Some (Json_min.Array ds) ->
                     List.map (function Json_min.String s -> s | _ -> "?") ds
                 | _ -> [])
      in
      (match Measure.run [ (fun () () -> sequential [] sizes); (fun () -> batched) ] with
      | Error m -> Printf.printf "serve batch: %s\n" m
      | Ok [ seq; bat ] ->
          let tbl =
            Table.create ~title:"serve: batched vs sequential execution of one warm blueprint"
              [
                ("Dispatch", Table.Left); ("Requests", Table.Right); ("Total", Table.Right);
                ("Speedup", Table.Right); ("Results", Table.Left);
              ]
          in
          let bitwise =
            if !seq_digests = !batch_digests && !batch_digests <> [] then "bitwise equal"
            else "DIGEST MISMATCH"
          in
          Table.(
            add_row tbl
              [ Text "sequential"; Text (string_of_int (List.length sizes)); Time seq;
                Text "1.00x"; Text "-" ];
            add_row tbl
              [ Text "batched"; Text "1"; Time bat;
                Text (Printf.sprintf "%.2fx" (Measure.ratio seq bat)); Text bitwise ]);
          output ~id:"serve_batch" tbl
      | Ok _ -> ());
      Printf.printf
        "a warm compile finds the loaded artifact in the cache's table; \
         the batch is one request fanned across %d domains\n"
        (Pool.size exec_pool)

(* ------------------------------------------------------------------ *)
(* the regression gate                                                 *)
(* ------------------------------------------------------------------ *)

let run_gate path =
  let fail msg =
    Printf.eprintf "bench gate: %s\n" msg;
    exit 2
  in
  let baseline =
    match Json_min.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok v -> v
    | Error m -> fail (path ^ ": " ^ m)
  in
  match Bench_gate.compare ~baseline ~current:(Table.json_of_tables !registry) with
  | Error m -> fail m
  | Ok verdict ->
      Printf.printf "\n%s" (Bench_gate.report verdict);
      if check_mode && not (Bench_gate.ok verdict) then exit 1

let () =
  if want "t1" then t1 ();
  if want "t2" then t2 ();
  if want "t3" then t3 ();
  if want "t4" then t4 ();
  if want "t5" then t5 ();
  if want "figures" then figures ();
  if want "cache" then cache_ablation ();
  if want "ablation" then ablation ();
  if want "obs" then obs_suite ();
  if want "profile" then profile_suite ();
  if want "native" then native_suite ();
  if want "serve" then serve_suite ();
  let write path json =
    let oc = open_out path in
    output_string oc (Json_min.to_string json ^ "\n");
    close_out oc
  in
  let tables = Table.json_of_tables !registry in
  Option.iter
    (fun path ->
      write path tables;
      Printf.printf "\nwrote %d table(s) to %s\n" (List.length !registry) path)
    json_path;
  (match traj_out with
  | None -> ()
  | Some out ->
      let entries =
        match Option.map Bench_gate.load_trajectory traj_base with
        | None -> []
        | Some (Ok entries) -> entries
        | Some (Error m) ->
            Printf.eprintf "main.exe: %s\n" m;
            exit 2
      in
      let date =
        let t = Unix.gmtime (Unix.time ()) in
        Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900)
          (t.Unix.tm_mon + 1) t.Unix.tm_mday
      in
      let label = String.concat " " selected ^ if quick then " --quick" else "" in
      let all = entries @ [ Bench_gate.trajectory_entry ~date ~label ~tables ] in
      write out (Json_min.Array all);
      Printf.printf "trajectory: %d entries -> %s\n" (List.length all) out;
      (* Neighbour drift: each run vs the very next one, at a tighter
         tolerance than the gate — surfaces a slope of small slowdowns
         before the 1.5x baseline gate would trip.  Informational: the
         trajectory build must not fail on it. *)
      match Bench_gate.drift all with
      | Error m -> Printf.eprintf "main.exe: drift: %s\n" m
      | Ok steps -> print_string (Bench_gate.drift_report steps));
  Option.iter run_gate baseline_path;
  if !dropped > 0 then begin
    Printf.eprintf "main.exe: %d row(s) dropped: a compiled arm failed\n" !dropped;
    exit 1
  end;
  Printf.printf "\ndone.\n"
