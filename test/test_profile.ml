open Helpers

(* The memory-hierarchy profiler: reference attribution, level chaining,
   the stack-distance model vs simulation, and the block-size sweep. *)

let entry name = Option.get (Blockability.find name)

(* A tiny two-statement nest with a known set of reference sites. *)
let toy_block () =
  let open Expr in
  let a i j = Stmt.Ref ("A", [ i; j ]) in
  [
    Stmt.Loop
      {
        Stmt.index = "I";
        lo = Int 1;
        hi = Var "N";
        step = Int 1;
        body =
          [
            Stmt.Assign ("S", [], a (Var "I") (Int 1));
            Stmt.Loop
              {
                Stmt.index = "J";
                lo = Int 1;
                hi = Var "N";
                step = Int 1;
                body =
                  [
                    Stmt.Assign
                      ( "A",
                        [ Var "I"; Var "J" ],
                        Stmt.Fbin
                          (Stmt.FAdd, a (Var "I") (Var "J"), Stmt.Fvar "S") );
                  ];
              };
          ];
      };
  ]

let refmap_sites () =
  let sites = Exec.ref_sites (Exec.refmap (toy_block ())) in
  check_int "three array-reference sites" 3 (List.length sites);
  let s0 = List.nth sites 0 and s1 = List.nth sites 1 and s2 = List.nth sites 2 in
  check_int "ids are textual order" 0 s0.Exec.ref_id;
  check_int "ids are textual order" 2 s2.Exec.ref_id;
  check_string "outer read" "A(I,1)" s0.Exec.ref_text;
  Alcotest.(check (list string)) "outer nest" [ "I" ] s0.Exec.ref_loops;
  Alcotest.(check (list string)) "inner nest" [ "I"; "J" ] s1.Exec.ref_loops;
  check_bool "inner read is a read" true (s1.Exec.ref_kind = Ir_util.Read);
  check_bool "inner write is a write" true (s2.Exec.ref_kind = Ir_util.Write)

let profile_of name ?(bindings = []) ?machine () =
  let e = entry name in
  let machine = Option.value machine ~default:Arch.rs6000_540 in
  ok_or_fail "profile"
    (Blockability.profile ~bindings ~machine e)

let counts_sum_to_totals () =
  let point, transformed = profile_of "lu" () in
  List.iter
    (fun (kp : Blockability.kernel_profile) ->
      let l1 = snd (List.hd kp.kp_levels) in
      let sum f = List.fold_left (fun acc (r : Trace.ref_profile) -> acc + f r.counts) 0 kp.kp_refs in
      check_int "accesses attributed" l1.Cache.accesses
        (sum (fun c -> c.Trace.c_accesses));
      check_int "L1 misses attributed" l1.Cache.misses
        (sum (fun c -> c.Trace.c_l1_misses));
      check_int "classification attributed" l1.Cache.misses
        (sum (fun c -> c.Trace.c_cold + c.Trace.c_capacity + c.Trace.c_conflict));
      (* the loop rollup is a regrouping of the same counters *)
      let loop_sum =
        List.fold_left (fun acc (_, c) -> acc + c.Trace.c_accesses) 0 kp.kp_loops
      in
      check_int "loop rollup covers everything" l1.Cache.accesses loop_sum)
    [ point; transformed ]

let level_chaining () =
  let point, _ = profile_of "lu" () in
  match point.Blockability.kp_levels with
  | (_, l1) :: (_, l2) :: _ ->
      check_int "L2 sees exactly the L1 misses" l1.Cache.misses l2.Cache.accesses
  | _ -> Alcotest.fail "expected a two-level hierarchy"

(* Acceptance: the reuse-distance histogram's derived miss ratio for the
   configured L1 matches direct simulation within one percentage point,
   in-cache and out-of-cache, on LU and matmul. *)
let model_within_one_point () =
  List.iter
    (fun (name, bindings) ->
      let point, transformed = profile_of name ~bindings () in
      List.iter
        (fun (kp : Blockability.kernel_profile) ->
          let v = kp.Blockability.kp_validation in
          if v.Cost.v_ratio_gap > 0.01 then
            Alcotest.failf "%s %s: ratio gap %.4f > 0.01 (predicted %d, simulated %d)"
              name kp.kp_variant v.Cost.v_ratio_gap v.Cost.v_predicted
              v.Cost.v_simulated)
        [ point; transformed ])
    [
      ("lu", []);
      ("lu", [ ("N", 96) ]);
      (* footprint 576 lines > 512-line L1 *)
      ("matmul", []);
      ("matmul", [ ("N", 64); ("FREQ_PCT", 10) ]);
    ]

(* The histogram itself must reproduce the simulated misses when the L1
   is replayed fully-associatively — miss_curve at the L1's line count
   equals the validator's prediction. *)
let curve_consistent_with_validation () =
  let point, _ = profile_of "lu" ~bindings:[ ("N", 48) ] () in
  let lines = Arch.rs6000_540.Arch.cache_bytes / Arch.rs6000_540.Arch.line_bytes in
  match List.assoc_opt lines point.Blockability.kp_miss_curve with
  | Some m -> check_int "curve point = prediction" point.kp_validation.Cost.v_predicted m
  | None -> Alcotest.fail "miss curve does not include the L1 size"

(* The paper's qualitative result: blocking LU slashes L1 misses once
   the matrix no longer fits (Figures 5-6). *)
let blocking_reduces_misses () =
  let point, transformed = profile_of "lu" ~bindings:[ ("N", 96) ] () in
  let l1 kp = (snd (List.hd kp.Blockability.kp_levels)).Cache.misses in
  let p = l1 point and t = l1 transformed in
  if not (t * 2 < p) then
    Alcotest.failf "expected blocked misses << point misses, got %d vs %d" t p

let sweep_and_chooser () =
  let e = entry "lu" in
  let sweep =
    ok_or_fail "sweep"
      (Blockability.profile_sweep ~bindings:[ ("N", 48) ]
         ~machine:Arch.small_test ~blocks:[ 4; 8; 16 ] e)
  in
  check_int "one profile per block" 3 (List.length sweep);
  let misses =
    List.map
      (fun (b, (kp : Blockability.kernel_profile)) ->
        (b, (snd (List.hd kp.kp_levels)).Cache.misses))
      sweep
  in
  let chosen = Blocker.choose_block_size ~machine:Arch.small_test ~sweep:misses () in
  let best = List.fold_left (fun acc (_, m) -> min acc m) max_int misses in
  check_int "chooser picks a sweep minimum" best (List.assoc chosen misses);
  (* without a sweep it falls back to the footprint heuristic *)
  check_int "heuristic fallback"
    (Arch.block_size Arch.small_test ())
    (Blocker.choose_block_size ~machine:Arch.small_test ())

(* A profile runs each variant once, and a sweep row the transformed
   variant alone: [profile] then a three-row sweep is one point run and
   four transformed runs. *)
let sweep_profiles_transformed_only () =
  let e = entry "lu" and bindings = [ ("N", 16) ] and machine = Arch.small_test in
  let mem, events = Obs.memory () in
  Obs.set_sink mem;
  Fun.protect
    ~finally:(fun () -> Obs.set_sink Obs.null)
    (fun () ->
      ignore (ok_or_fail "profile" (Blockability.profile ~bindings ~machine e));
      ignore
        (ok_or_fail "sweep"
           (Blockability.profile_sweep ~bindings ~machine ~blocks:[ 4; 8; 16 ] e)));
  let runs variant =
    List.length
      (List.filter
         (fun (ev : Obs.event) ->
           ev.name = "profile.run" && ev.kind = Obs.Begin
           && List.assoc_opt "variant" ev.args = Some (Obs.Str variant))
         (events ()))
  in
  check_int "point runs" 1 (runs "point");
  check_int "transformed runs" 4 (runs "transformed")

let sweep_rejects_unblocked () =
  match
    Blockability.profile_sweep ~blocks:[ 4; 8 ] (entry "matmul")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "matmul has no KS parameter; sweep must refuse"

let unattributed_without_refmap () =
  (* Driving the profiler hook without a refmap: everything lands in
     the unattributed bucket, nothing is lost. *)
  let block = toy_block () in
  let make () =
    let env = Env.create () in
    Env.set_iscalar env "N" 8;
    Env.set_fscalar env "S" 0.0;
    Env.add_farray env "A" [ (1, 8); (1, 8) ];
    env
  in
  let env = make () in
  let sites = Exec.ref_sites (Exec.refmap block) in
  let p = Trace.profiler Arch.small_test env ~arrays:[ "A" ] ~sites in
  Exec.run ~hook:(Trace.profile_hook p) env block;
  let other = Trace.unattributed p in
  let total = (snd (List.hd (Hier.level_stats (Trace.hier p)))).Cache.accesses in
  check_bool "something was traced" true (total > 0);
  check_int "all touches unattributed" total other.Trace.c_accesses;
  List.iter
    (fun (r : Trace.ref_profile) ->
      check_int "no per-site counts" 0 r.counts.Trace.c_accesses)
    (Trace.ref_profiles p);
  (* and with the refmap installed the bucket stays empty *)
  let env = make () in
  let p = Trace.run_profile Arch.small_test env ~arrays:[ "A" ] block in
  check_int "nothing unattributed with a refmap" 0
    (Trace.unattributed p).Trace.c_accesses

let suite =
  ( "profile",
    [
      case "refmap sites" refmap_sites;
      case "attribution sums to totals" counts_sum_to_totals;
      case "level chaining" level_chaining;
      case "stack model within 1 point of simulation" model_within_one_point;
      case "miss curve consistent with validation" curve_consistent_with_validation;
      case "blocking reduces LU misses" blocking_reduces_misses;
      case "sweep + block-size chooser" sweep_and_chooser;
      case "sweep refuses kernels without KS" sweep_rejects_unblocked;
      case "a sweep row profiles the transformed variant alone"
        sweep_profiles_transformed_only;
      case "hook without refmap is unattributed" unattributed_without_refmap;
    ] )
