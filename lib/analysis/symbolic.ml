module Atbl = Hashtbl.Make (struct
  type t = Affine.t

  let equal = Affine.equal
  let hash = Affine.hash
end)

(* A context's proof cache: the answers proved under its fact list,
   tagged with the domain that made it.  Only that domain reads or
   writes the table; the tag and the table change together in one
   field write. *)
type cache = Unmade | Made of int * bool Atbl.t

type t = {
  facts : Affine.t list;  (* newest first: the search tries them in order *)
  key : int;  (* hash of [facts], in order *)
  mutable cache : cache;  (* made by the first query *)
}

let empty = { facts = []; key = 0; cache = Unmade }

let add_fact t f =
  match Affine.is_const f with
  | Some c ->
      if c < 0 then
        invalid_arg "Symbolic: assuming a false constant fact";
      t
  | None ->
      if List.exists (Affine.equal f) t.facts then t
      else
        {
          facts = f :: t.facts;
          key = ((t.key * 65599) + Affine.hash f) land max_int;
          cache = Unmade;
        }

let assume_nonneg t f = add_fact t f
let assume_ge t a b = add_fact t (Affine.sub a b)
let assume_le t a b = add_fact t (Affine.sub b a)
let assume_pos t v = add_fact t (Affine.sub (Affine.var v) (Affine.const 1))

(* ---- One-sided affine bounds of loop-bound expressions ------------ *)

(* [cases_of e] computes disjunctive one-sided bound information for an
   arbitrary bound expression: a pair (lower, upper) of CASE LISTS.  The
   execution satisfies at least one case on each side; within a case,
   [e] is >= every affine form listed (lower side) resp. <= every one
   (upper side).  MIN/MAX are where the two sides differ:

     e <= MIN(a, b)  gives  e <= a AND e <= b        (conjunctive)
     e >= MIN(a, b)  gives  e >= a  OR e >= b        (case split)

   and dually for MAX.  [+], [-] and scaling by a constant compose
   bounds pairwise; anything else (Idx, Div, variable products) yields
   the single no-information case [[]]. *)

let max_cases = 16

let dedup_affs l =
  List.fold_left
    (fun acc a -> if List.exists (Affine.equal a) acc then acc else a :: acc)
    [] l
  |> List.rev

let same_case c1 c2 =
  List.length c1 = List.length c2
  && List.for_all (fun a -> List.exists (Affine.equal a) c2) c1

let dedup_cases cs =
  List.fold_left
    (fun acc c -> if List.exists (same_case c) acc then acc else c :: acc)
    [] cs
  |> List.rev

(* Bounds valid in EVERY case: the sound conjunctive core. *)
let intersect_cases = function
  | [] -> []
  | c :: rest ->
      List.filter (fun a -> List.for_all (List.exists (Affine.equal a)) rest) c

let trim cs =
  let cs = dedup_cases cs in
  if List.length cs <= max_cases then cs else [ intersect_cases cs ]

(* Both case-sets hold: cross product, unioning the bound lists. *)
let conj_merge cs1 cs2 =
  List.concat_map
    (fun c1 -> List.map (fun c2 -> dedup_affs (c1 @ c2)) cs2)
    cs1

(* Pairwise arithmetic on bounds, case-wise. *)
let combine2 f cs1 cs2 =
  List.concat_map
    (fun c1 ->
      List.map
        (fun c2 ->
          dedup_affs (List.concat_map (fun x -> List.map (f x) c2) c1))
        cs2)
    cs1

let rec cases_of (e : Expr.t) : Affine.t list list * Affine.t list list =
  match Affine.of_expr e with
  | Some a -> ([ [ a ] ], [ [ a ] ])
  | None -> (
      match e with
      | Expr.Min (a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (la @ lb), trim (conj_merge ua ub))
      | Expr.Max (a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (conj_merge la lb), trim (ua @ ub))
      | Expr.Bin (Expr.Add, a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (combine2 Affine.add la lb), trim (combine2 Affine.add ua ub))
      | Expr.Bin (Expr.Sub, a, b) ->
          let la, ua = cases_of a and lb, ub = cases_of b in
          (trim (combine2 Affine.sub la ub), trim (combine2 Affine.sub ua lb))
      | Expr.Bin (Expr.Mul, Expr.Int c, a) | Expr.Bin (Expr.Mul, a, Expr.Int c)
        ->
          let la, ua = cases_of a in
          let s = List.map (List.map (Affine.scale c)) in
          if c >= 0 then (trim (s la), trim (s ua))
          else (trim (s ua), trim (s la))
      | _ -> ([ [] ], [ [] ]))

let loop_facts ~lo_bounds ~hi_bounds ctx (l : Stmt.loop) =
  let idx = Affine.var l.index in
  let ctx = List.fold_left (fun c b -> assume_ge c idx b) ctx lo_bounds in
  let ctx = List.fold_left (fun c b -> assume_le c idx b) ctx hi_bounds in
  match (Affine.of_expr l.lo, Affine.of_expr l.hi) with
  | Some lo, Some hi -> assume_ge ctx hi lo
  | _ -> ctx

let with_loops init loops =
  List.fold_left
    (fun ctx (l : Stmt.loop) ->
      let lo_cases, _ = cases_of l.lo in
      let _, hi_cases = cases_of l.hi in
      loop_facts ~lo_bounds:(intersect_cases lo_cases)
        ~hi_bounds:(intersect_cases hi_cases) ctx l)
    init loops

let with_loops_cases init loops =
  let step ctxs (l : Stmt.loop) =
    let lo_cases, _ = cases_of l.lo in
    let _, hi_cases = cases_of l.hi in
    let expanded =
      List.concat_map
        (fun ctx ->
          List.concat_map
            (fun lc ->
              List.map
                (fun hc -> loop_facts ~lo_bounds:lc ~hi_bounds:hc ctx l)
                hi_cases)
            lo_cases)
        ctxs
    in
    if List.length expanded > max_cases then
      (* Too many alternatives: keep only the conjunctive core so the
         case count stays bounded (dropping a case would be unsound). *)
      List.map
        (fun ctx ->
          loop_facts ~lo_bounds:(intersect_cases lo_cases)
            ~hi_bounds:(intersect_cases hi_cases) ctx l)
        ctxs
    else expanded
  in
  List.fold_left step [ init ] loops

let of_loop_context loops = with_loops empty loops

(* ---- Proof caches and sessions ------------------------------------ *)

(* Contexts with equal fact lists, in order, answer every query alike:
   the search below reads nothing else.  A session shares one cache
   between such contexts — [Dependence.between] rebuilds the same
   loop context for every access pair. *)
module Ctbl = Hashtbl.Make (struct
  type nonrec t = t

  let hash t = t.key
  let equal a b = a.key = b.key && List.equal Affine.equal a.facts b.facts
end)

type work = {
  queries : int;
  cache_hits : int;
  searches : int;
  search_steps : int;
}

(* Per-domain prover state: the open session, if any, and cumulative
   work counts.  Nothing here is reachable from another domain. *)
type domain_state = {
  domain : int;
  mutable session : bool Atbl.t Ctbl.t option;
  mutable queries : int;
  mutable cache_hits : int;
  mutable searches : int;
  mutable search_steps : int;
}

let state =
  Domain.DLS.new_key (fun () ->
      {
        domain = (Domain.self () :> int);
        session = None;
        queries = 0;
        cache_hits = 0;
        searches = 0;
        search_steps = 0;
      })

let with_session f =
  let st = Domain.DLS.get state in
  match st.session with
  | Some _ -> f ()
  | None ->
      st.session <- Some (Ctbl.create 16);
      Fun.protect ~finally:(fun () -> st.session <- None) f

let work () =
  let st = Domain.DLS.get state in
  {
    queries = st.queries;
    cache_hits = st.cache_hits;
    searches = st.searches;
    search_steps = st.search_steps;
  }

let work_since (w0 : work) =
  let w = work () in
  {
    queries = w.queries - w0.queries;
    cache_hits = w.cache_hits - w0.cache_hits;
    searches = w.searches - w0.searches;
    search_steps = w.search_steps - w0.search_steps;
  }

let queries_counter =
  Obs.Metrics.counter ~help:"Prover queries (prove_nonneg calls)"
    "symbolic.queries"

let cache_hits_counter =
  Obs.Metrics.counter ~help:"Prover queries answered from a proof cache"
    "symbolic.cache_hits"

let searches_counter =
  Obs.Metrics.counter ~help:"Prover queries that ran the search"
    "symbolic.searches"

let search_steps_counter =
  Obs.Metrics.counter ~help:"Residuals visited by prover searches"
    "symbolic.search_steps"

(* The cache [t]'s queries use on this domain: its own once made here;
   else the session's table for its fact list, or a fresh table, which
   becomes its own if it had none.  A cache made on another domain is
   never touched. *)
let answers st t =
  match t.cache with
  | Made (d, a) when d = st.domain -> a
  | cache ->
      let a =
        match st.session with
        | None -> Atbl.create 8
        | Some s -> (
            match Ctbl.find_opt s t with
            | Some a -> a
            | None ->
                let a = Atbl.create 8 in
                Ctbl.add s t a;
                a)
      in
      (match cache with Unmade -> t.cache <- Made (st.domain, a) | Made _ -> ());
      a

(* Prove [e >= 0] by searching for a representation
   [e = c + sum(lambda_i * f_i)] with [c >= 0] and positive integer
   multipliers.  The search is variable-directed: it picks the first
   variable with a nonzero coefficient and considers only facts whose
   coefficient on that variable has the same sign (so subtraction
   reduces it), scaling to cancel the variable completely when the
   coefficients divide.  Sound but incomplete.

   [go] is monotone in depth ([go d e] implies [go (d+1) e], by
   induction on [d]), so a residual that failed at depth [d] fails at
   every smaller depth: [failed] keeps the largest failed depth of each
   residual and prunes repeats.  The pruned calls would have returned
   false, so the answer is the one the unpruned search gives. *)
let search st facts e =
  let failed = Atbl.create 16 in
  let steps = ref 0 in
  let rec go depth e =
    incr steps;
    match Affine.vars e with
    | [] -> Affine.constant e >= 0
    | v :: _ ->
        depth > 0
        &&
        match Atbl.find_opt failed e with
        | Some d when d >= depth -> false
        | _ ->
            let ce = Affine.coeff e v in
            let r =
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
                    lam > 0
                    && go (depth - 1) (Affine.sub e (Affine.scale lam f)))
                facts
            in
            if not r then Atbl.replace failed e depth;
            r
  in
  let r = go 8 e in
  st.searches <- st.searches + 1;
  st.search_steps <- st.search_steps + !steps;
  Obs.Metrics.incr searches_counter;
  Obs.Metrics.add search_steps_counter !steps;
  r

let prove_nonneg t e =
  let st = Domain.DLS.get state in
  st.queries <- st.queries + 1;
  Obs.Metrics.incr queries_counter;
  match t.facts with
  | [] ->
      (* With no facts the search is one constant test: nothing to cache. *)
      search st [] e
  | facts -> (
      let a = answers st t in
      match Atbl.find_opt a e with
      | Some r ->
          st.cache_hits <- st.cache_hits + 1;
          Obs.Metrics.incr cache_hits_counter;
          r
      | None ->
          let r = search st facts e in
          Atbl.add a e r;
          r)

let prove_ge t a b = prove_nonneg t (Affine.sub a b)
let prove_gt t a b = prove_nonneg t (Affine.sub (Affine.sub a b) (Affine.const 1))
let prove_le t a b = prove_ge t b a
let prove_lt t a b = prove_gt t b a
let prove_eq t a b = Affine.equal a b || (prove_ge t a b && prove_le t a b)

type order = Lt | Le | Eq | Ge | Gt | Unknown

let compare_ t a b =
  if prove_eq t a b then Eq
  else if prove_lt t a b then Lt
  else if prove_gt t a b then Gt
  else if prove_le t a b then Le
  else if prove_ge t a b then Ge
  else Unknown

let facts t = t.facts
