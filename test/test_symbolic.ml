open Helpers

let av = Affine.var
let ac = Affine.const
let ( ++ ) = Affine.add
let ( -- ) = Affine.sub

(* The driver contexts these goals come from (§5.1): K in [1, N-1],
   KK in [K, K+KS-1], KS >= 1, N >= 1. *)
let lu_ctx =
  let ctx = Symbolic.empty in
  let ctx = Symbolic.assume_pos ctx "KS" in
  let ctx = Symbolic.assume_pos ctx "N" in
  let ctx = Symbolic.assume_ge ctx (av "K") (ac 1) in
  let ctx = Symbolic.assume_le ctx (av "K") (av "N" -- ac 1) in
  let ctx = Symbolic.assume_ge ctx (av "KK") (av "K") in
  Symbolic.assume_le ctx (av "KK") (av "K" ++ av "KS" -- ac 1)

let lu_goals () =
  let t = Symbolic.prove_le lu_ctx and f a b = not (Symbolic.prove_le lu_ctx a b) in
  check_bool "KK+1 <= K+KS" true (t (av "KK" ++ ac 1) (av "K" ++ av "KS"));
  check_bool "K+KS-1 < K+KS" true
    (Symbolic.prove_lt lu_ctx (av "K" ++ av "KS" -- ac 1) (av "K" ++ av "KS"));
  check_bool "K <= N-1" true (t (av "K") (av "N" -- ac 1));
  check_bool "not K+KS-1 <= N-1" true (f (av "K" ++ av "KS" -- ac 1) (av "N" -- ac 1));
  check_bool "K+1 > K" true (Symbolic.prove_gt lu_ctx (av "K" ++ ac 1) (av "K"));
  (* with the planning assumption the full-block fact becomes provable *)
  let plan = Symbolic.assume_le lu_ctx (av "K" ++ av "KS" -- ac 1) (av "N" -- ac 1) in
  check_bool "planning: K+KS-1 < N" true
    (Symbolic.prove_lt plan (av "K" ++ av "KS" -- ac 1) (av "N"))

let unknown_is_sound () =
  let ctx = Symbolic.empty in
  check_bool "nothing known" false (Symbolic.prove_ge ctx (av "A") (av "B"));
  check_bool "const" true (Symbolic.prove_ge ctx (ac 3) (ac 3));
  check_bool "const strict" true (Symbolic.prove_gt ctx (ac 4) (ac 3));
  check_bool "false const" false (Symbolic.prove_gt ctx (ac 3) (ac 3))

let compare_cases () =
  let ctx = Symbolic.assume_ge Symbolic.empty (av "X") (av "Y" ++ ac 2) in
  (match Symbolic.compare_ ctx (av "X") (av "Y") with
  | Symbolic.Gt -> ()
  | _ -> Alcotest.fail "expected Gt");
  match Symbolic.compare_ ctx (av "Y") (av "Z") with
  | Symbolic.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown"

let chained_facts () =
  (* A transitive chain the directed search must follow: A >= B, B >= C,
     C >= D+1 |- A > D. *)
  let ctx = Symbolic.empty in
  let ctx = Symbolic.assume_ge ctx (av "A") (av "B") in
  let ctx = Symbolic.assume_ge ctx (av "B") (av "C") in
  let ctx = Symbolic.assume_ge ctx (av "C") (av "D" ++ ac 1) in
  check_bool "chain" true (Symbolic.prove_gt ctx (av "A") (av "D"))

let of_loop_context_minmax () =
  let open Builder in
  let strip =
    match
      do_ "KK" (v "K") (Expr.min_ (v "K" +! v "KS" -! i 1) (v "N" -! i 1)) []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.of_loop_context [ strip ] in
  check_bool "KK <= K+KS-1 from MIN arm" true
    (Symbolic.prove_le ctx (av "KK") (av "K" ++ av "KS" -- ac 1));
  check_bool "KK <= N-1 from MIN arm" true
    (Symbolic.prove_le ctx (av "KK") (av "N" -- ac 1));
  check_bool "KK >= K" true (Symbolic.prove_ge ctx (av "KK") (av "K"))

let composite_bounds () =
  (* The shapes unroll-and-jam leaves behind: a MIN buried under
     arithmetic in an upper bound still yields both one-sided facts. *)
  let open Builder in
  let l =
    match
      do_ "I" (v "K" +! i 1)
        (Expr.min_ (v "N") (v "K" +! v "KS") -! i 3)
        []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let ctx = Symbolic.of_loop_context [ l ] in
  check_bool "I <= N-3" true
    (Symbolic.prove_le ctx (av "I") (av "N" -- ac 3));
  check_bool "I <= K+KS-3" true
    (Symbolic.prove_le ctx (av "I") (av "K" ++ av "KS" -- ac 3));
  check_bool "I >= K+1" true
    (Symbolic.prove_ge ctx (av "I") (av "K" ++ ac 1))

let disjunctive_cases () =
  (* lo = MAX(K+1, MIN(N, K+KS)+1): the MAX arms hold conjunctively but
     the MIN forks — I >= N+1 or I >= K+KS+1.  In either case I > KK
     for KK <= MIN(K+KS-1, N-1), which the single conjunctive context
     cannot establish. *)
  let open Builder in
  let l =
    match
      do_ "I"
        (Expr.max_ (v "K" +! i 1) (Expr.min_ (v "N") (v "K" +! v "KS") +! i 1))
        (v "N") []
    with
    | Stmt.Loop l -> l
    | _ -> assert false
  in
  let kk_hi_arms = [ av "K" ++ av "KS" -- ac 1; av "N" -- ac 1 ] in
  let cases = Symbolic.with_loops_cases Symbolic.empty [ l ] in
  check_bool "more than one case" true (List.length cases > 1);
  let above_some_arm ctx =
    List.exists (fun arm -> Symbolic.prove_gt ctx (av "I") arm) kk_hi_arms
  in
  check_bool "I above the strip in every case" true
    (List.for_all above_some_arm cases);
  let conj = Symbolic.with_loops Symbolic.empty [ l ] in
  check_bool "conjunctive context cannot prove it" false
    (above_some_arm conj);
  check_bool "conjunctive core keeps the MAX arm" true
    (Symbolic.prove_ge conj (av "I") (av "K" ++ ac 1))

let gen_consts =
  QCheck2.Gen.(pair (int_range (-50) 50) (int_range (-50) 50))

(* ---- Same answers as the unshared, unmemoized search --------------- *)

(* The search as it was before shared proof caches and the
   failed-residual memo, verbatim but for reading the fact list
   directly and keeping no cache. *)
let reference_prove_nonneg facts e =
  let rec go depth e =
    match Affine.vars e with
    | [] -> Affine.constant e >= 0
    | v :: _ ->
        depth > 0
        &&
        let ce = Affine.coeff e v in
        List.exists
          (fun f ->
            let cf = Affine.coeff f v in
            if cf = 0 || cf * ce < 0 then false
            else
              let lam =
                if ce mod cf = 0 && ce / cf > 0 then ce / cf
                else if abs cf <= abs ce then 1
                else 0
              in
              lam > 0 && go (depth - 1) (Affine.sub e (Affine.scale lam f)))
          facts
  in
  go 8 e

let reference_ge facts a b = reference_prove_nonneg facts (Affine.sub a b)

let reference_gt facts a b =
  reference_prove_nonneg facts (Affine.sub (Affine.sub a b) (Affine.const 1))

let reference_eq facts a b =
  Affine.equal a b || (reference_ge facts a b && reference_ge facts b a)

let reference_compare facts a b =
  if reference_eq facts a b then Symbolic.Eq
  else if reference_gt facts b a then Symbolic.Lt
  else if reference_gt facts a b then Symbolic.Gt
  else if reference_ge facts b a then Symbolic.Le
  else if reference_ge facts a b then Symbolic.Ge
  else Symbolic.Unknown

let memo_reaches_deeper () =
  (* X0 >= X1 >= ... >= X8 proves X0 - X8 >= 0 in exactly the 8 steps
     the search allows.  The detour X0 >= W >= X1, tried first, reaches
     the residual X1 - X8 at depth 6, one short; the direct step
     reaches it again at depth 7, where it must be searched anew. *)
  let x i = av (Printf.sprintf "X%d" i) in
  let ctx =
    List.fold_left
      (fun c i -> Symbolic.assume_ge c (x i) (x (i + 1)))
      Symbolic.empty (List.init 8 Fun.id)
  in
  let ctx = Symbolic.assume_ge ctx (av "W") (x 1) in
  let ctx = Symbolic.assume_ge ctx (x 0) (av "W") in
  check_bool "proved at full depth" true (Symbolic.prove_ge ctx (x 0) (x 8));
  check_bool "the reference agrees" true
    (reference_ge (Symbolic.facts ctx) (x 0) (x 8))

(* Two domains deriving at once, as serve lanes do: contexts with
   caches must not be shared between them. *)
let concurrent_derivations () =
  let derive name =
    match Blockability.derive (Option.get (Blockability.find name)) with
    | Ok { Blocker.result; _ } -> Stmt.block_to_string [ result ]
    | Error m -> "error: " ^ m
  in
  let names = [ "conv"; "aconv"; "lu"; "cholesky" ] in
  let serial = List.map derive names in
  let rounds () = List.init 20 (fun _ -> List.map derive names) in
  let other = Domain.spawn rounds in
  let mine = rounds () in
  List.iter
    (Alcotest.(check (list string)) "same derivations as serial" serial)
    (mine @ Domain.join other)

(* The [symbolic.*] counters are registered before any query, move
   with the calling domain's [Symbolic.work], and every [ddg] instant
   carries its build's share. *)
let work_is_counted () =
  let names =
    [ "symbolic.queries"; "symbolic.cache_hits"; "symbolic.searches";
      "symbolic.search_steps" ]
  in
  let exposition = String.split_on_char '\n' (Obs.Metrics.prometheus ()) in
  List.iter
    (fun n ->
      let family = "blockc_" ^ String.map (function '.' -> '_' | c -> c) n in
      check_bool (n ^ " registered") true
        (List.mem ("# TYPE " ^ family ^ "_total counter") exposition))
    names;
  let count n = Obs.Metrics.count (Obs.Metrics.counter n) in
  let mem, events = Obs.memory () in
  Obs.Metrics.set_enabled true;
  Obs.set_sink mem;
  let before = List.map count names and w0 = Symbolic.work () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_sink Obs.null;
      Obs.Metrics.set_enabled false)
    (fun () -> ignore (Blockability.derive (Option.get (Blockability.find "lu"))));
  let w = Symbolic.work_since w0 in
  check_bool "lu asks the prover" true (w.Symbolic.queries > 0);
  check_int "every query hits a cache or searches" w.queries
    (w.cache_hits + w.searches);
  Alcotest.(check (list int))
    "counters moved by the domain's work"
    [ w.queries; w.cache_hits; w.searches; w.search_steps ]
    (List.map2 (fun n b -> count n - b) names before);
  let arg name (e : Obs.event) =
    match List.assoc_opt name e.args with Some (Obs.Int n) -> n | _ -> 0
  in
  let ddgs = List.filter (fun (e : Obs.event) -> e.name = "ddg") (events ()) in
  (* the top loop's, to find the recurrence, then three of the strip
     loop's: plain distribution, the preventing dependences, and the
     split's distribution *)
  check_int "lu builds four dependence graphs" 4 (List.length ddgs);
  List.iter
    (fun e ->
      check_int "ddg: queries = cache_hits + searches" (arg "queries" e)
        (arg "cache_hits" e + arg "searches" e);
      check_bool "ddg: the graph asked the prover" true (arg "searches" e > 0))
    ddgs

(* Variables in an order their names do not sort in: the search picks
   the first variable by name, the facts in list order. *)
let pool = [ "N"; "K'"; "I#snk"; "A"; "z" ]

(* Coefficients in -3..3, zero about 40% of the time: dense forms make
   the unmemoized reference search take seconds per case. *)
let gen_form nv =
  QCheck2.Gen.(
    map2
      (fun cs c ->
        List.fold_left2
          (fun acc k v -> acc ++ Affine.scale k (av v))
          (ac c) cs
          (List.filteri (fun i _ -> i < nv) pool))
      (list_repeat nv (frequency [ (1, return 0); (2, int_range (-3) 3) ]))
      (int_range (-6) 6))

let gen_prover_case =
  QCheck2.Gen.(
    int_range 1 5 >>= fun nv ->
    pair
      (list_size (int_range 0 10) (gen_form nv))
      (list_size (int_range 1 6) (pair (gen_form nv) (gen_form nv))))

let print_prover_case (facts, queries) =
  let s = Affine.to_string in
  Printf.sprintf "facts (added in order): %s\nqueries: %s"
    (String.concat "; " (List.map (fun f -> s f ^ " >= 0") facts))
    (String.concat "; "
       (List.map (fun (a, b) -> "(" ^ s a ^ ", " ^ s b ^ ")") queries))

let agrees_with_reference (facts, queries) =
  let facts = List.filter (fun f -> Affine.is_const f = None) facts in
  let build fs = List.fold_left Symbolic.assume_nonneg Symbolic.empty fs in
  let expected = Hashtbl.create 2 in
  let agree ctx =
    let fl = Symbolic.facts ctx in
    let want =
      match Hashtbl.find_opt expected fl with
      | Some w -> w
      | None ->
          let w =
            List.map
              (fun (a, b) ->
                (reference_ge fl a b, reference_eq fl a b,
                 reference_compare fl a b))
              queries
          in
          Hashtbl.add expected fl w;
          w
    in
    List.for_all2
      (fun (a, b) (ge, eq, cmp) ->
        Symbolic.prove_nonneg ctx (a -- b) = ge
        && Symbolic.prove_eq ctx a b = eq
        && Symbolic.compare_ ctx a b = cmp)
      queries want
  in
  let prefixes fs =
    List.init (List.length fs + 1) (fun n -> List.filteri (fun i _ -> i < n) fs)
  in
  (* The same facts in two orders, and in a session every prefix of
     both: a cache shared between different fact lists would hand a
     smaller context the answers of a larger one. *)
  let fwd = build facts and bwd = build (List.rev facts) in
  agree fwd && agree bwd
  && Symbolic.with_session (fun () ->
         List.for_all
           (fun fs -> agree (build fs))
           (prefixes facts @ prefixes (List.rev facts))
         && agree fwd && agree (build facts))

let suite =
  ( "symbolic",
    [
      case "LU driver goals" lu_goals;
      case "unknown is sound" unknown_is_sound;
      case "compare" compare_cases;
      case "transitive chains" chained_facts;
      case "loop context with MIN bound" of_loop_context_minmax;
      case "composite bounds decompose" composite_bounds;
      case "disjunctive MIN/MAX cases" disjunctive_cases;
      qcase "constants decide exactly" gen_consts (fun (a, b) ->
          let ctx = Symbolic.empty in
          Symbolic.prove_ge ctx (ac a) (ac b) = (a >= b));
      case "a residual failed shallower is searched again deeper"
        memo_reaches_deeper;
      case "two domains derive as one does" concurrent_derivations;
      case "prover work is counted" work_is_counted;
      qcase ~count:300 ~print:print_prover_case
        "same answers as the reference search, in and out of a session"
        gen_prover_case agrees_with_reference;
      qcase "assumed facts are provable" gen_consts (fun (a, b) ->
          let lo, hi = (min a b, max a b) in
          let ctx = Symbolic.assume_ge Symbolic.empty (av "X") (ac lo) in
          let ctx = Symbolic.assume_le ctx (av "X") (ac hi) in
          Symbolic.prove_ge ctx (av "X") (ac lo)
          && Symbolic.prove_le ctx (av "X") (ac hi)
          && Symbolic.prove_le ctx (av "X") (ac (hi + 3)));
    ] )
