(* The four request streams.  Every draw comes from one [Lcg] seeded
   with the run's seed, so a seed fixes the shuffle order of each cycle
   or round and the batch item sizes; the prefix of a stream does not
   depend on how long the run goes on. *)

type t = Hot_exec | Batch_fanout | Cold_start | Restart

let all = [ Hot_exec; Batch_fanout; Cold_start; Restart ]

let name = function
  | Hot_exec -> "hot-exec"
  | Batch_fanout -> "batch-fanout"
  | Cold_start -> "cold-start"
  | Restart -> "restart"

let of_name s = List.find_opt (fun w -> name w = s) all

let why = function
  | Hot_exec ->
      "every blueprint is in memory: time goes to generated code on \
       L2-sized working sets, environment binding and digest/JSON"
  | Batch_fanout ->
      "batches of 16 small cache-resident items: the Parallel.for_ \
       fan-out, per-item binding and cross-domain GC dominate"
  | Cold_start ->
      "fresh daemon on an empty cache: each request pays derivation, \
       emission, ocamlopt/cc and loading (the cache writes)"
  | Restart ->
      "fresh daemon on the cache a cold round filled: the same requests \
       read artifacts (Dynlink/dlopen plus re-derivation), no compiles"

(* One request.  [items] holds one binding set for an [execute], one
   per item for a [batch]. *)
type req = {
  kernel : string;
  variant : string;
  backend : string;
  items : (string * int) list list;
  batch : bool;
}

let key r = String.concat "/" [ r.kernel; r.variant; r.backend ]

(* Point over transformed, geometric mean over the (kernel, backend)
   pairs that have both, from per-type medians keyed by [key]. *)
let blocked_ratio medians =
  let ratios =
    List.filter_map
      (fun (k, p) ->
        match String.split_on_char '/' k with
        | [ kernel; "point"; backend ] -> (
            match List.assoc_opt (String.concat "/" [ kernel; "transformed"; backend ]) medians with
            | Some t when t > 0. -> Some (p /. t)
            | _ -> None)
        | _ -> None)
      medians
  in
  if ratios = [] then None else Some (Stats.geomean ratios)

let backends = [ "ocaml"; "c" ]

(* Working sets of 0.06-1.5 MB: past a 48 KB L1, mostly inside a 2 MB
   L2, which is where the paper's blocking pays. *)
let hot_kernels =
  [
    ("lu_opt", [ ("N", 256); ("KS", 32) ]);
    ("lu_pivot_opt", [ ("N", 256); ("KS", 32) ]);
    ("givens", [ ("M", 192); ("N", 192) ]);
    ("matmul", [ ("N", 256); ("FREQ_PCT", 10) ]);
    ("conv", [ ("N1", 2400); ("N2", 2400); ("N3", 3200) ]);
  ]

let hot_types =
  List.concat_map
    (fun (kernel, bindings) ->
      List.concat_map
        (fun variant ->
          List.map
            (fun backend ->
              { kernel; variant; backend; items = [ bindings ]; batch = false })
            backends)
        [ "point"; "transformed" ])
    hot_kernels

(* No FSA kernel here: its ~7 s proof would dominate set-up, and this
   workload is about the fan-out, not derivation. *)
let batch_kernels = [ "lu_opt"; "trisolve"; "cholesky"; "givens"; "matmul" ]
let batch_sizes = List.init 9 (fun i -> 32 + (16 * i))
let batch_len = 16

let batch_bindings kernel n =
  match kernel with
  | "givens" -> [ ("M", n); ("N", n) ]
  | "matmul" -> [ ("N", n); ("FREQ_PCT", 10) ]
  | _ -> [ ("N", n) ]

let batch_types =
  List.concat_map
    (fun kernel -> List.map (fun backend -> (kernel, backend)) backends)
    batch_kernels

(* Kernels whose transformed variant needs a fractal-symbolic-analysis
   proof.  A fresh process pays the first proof once, about 7 s in the
   daemon on two cores: in a round it would leave room for three rounds
   a run, too few for steady numbers.  Their derivation is timed where
   it is paid once per daemon instead: hot-exec's set-up, and
   [transform] in its traced run. *)
let fsa_kernels = [ "lu_pivot"; "lu_pivot_opt" ]

(* Every registered kernel at its default size, both variants where it
   is blockable (Householder, the paper's negative result, point only;
   FSA kernels point only), on both backends: 38 requests. *)
let catalogue =
  List.concat_map
    (fun (e : Blockability.entry) ->
      let variants =
        if e.Blockability.blockable && not (List.mem e.Blockability.name fsa_kernels) then
          [ "point"; "transformed" ]
        else [ "point" ]
      in
      List.concat_map
        (fun variant ->
          List.map
            (fun backend ->
              {
                kernel = e.Blockability.name;
                variant;
                backend;
                items = [ e.Blockability.default_bindings ];
                batch = false;
              })
            backends)
        variants)
    Blockability.entries

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Lcg.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The next cycle (hot-exec, batch-fanout) or round (cold-start,
   restart) of the stream. *)
let cycle w rng =
  match w with
  | Hot_exec -> shuffle rng hot_types
  | Batch_fanout ->
      List.map
        (fun (kernel, backend) ->
          let size () = List.nth batch_sizes (Lcg.int rng (List.length batch_sizes)) in
          {
            kernel;
            variant = "transformed";
            backend;
            items = List.init batch_len (fun _ -> batch_bindings kernel (size ()));
            batch = true;
          })
        (shuffle rng batch_types)
  | Cold_start | Restart -> shuffle rng catalogue

let rng ~seed = Lcg.create seed

(* Round workloads start a fresh daemon per round; the others keep one
   daemon and repeat cycles on it. *)
let rounds = function Cold_start | Restart -> true | Hot_exec | Batch_fanout -> false

(* What a daemon compiles during set-up, before anything is timed: the
   (kernel, variant, backend) triples a cycle touches.  Round workloads
   time those first compiles, so they set up nothing. *)
let mix w =
  let triple r = (r.kernel, r.variant, r.backend) in
  match w with
  | Hot_exec -> List.map triple hot_types
  | Batch_fanout -> List.map (fun (kernel, backend) -> (kernel, "transformed", backend)) batch_types
  | Cold_start | Restart -> []

(* Every (kernel, variant, bindings) the stream can ever request: what
   needs a reference digest before the first request goes out. *)
let reference_items w =
  let dedup l = List.sort_uniq compare l in
  match w with
  | Hot_exec ->
      dedup (List.map (fun r -> (r.kernel, r.variant, List.hd r.items)) hot_types)
  | Batch_fanout ->
      List.concat_map
        (fun kernel ->
          List.map (fun n -> (kernel, "transformed", batch_bindings kernel n)) batch_sizes)
        batch_kernels
  | Cold_start | Restart ->
      dedup (List.map (fun r -> (r.kernel, r.variant, List.hd r.items)) catalogue)

(* The request's "seed" field, which fixes the input arrays.  It cycles
   through two values so that the interpreter references (tens of
   seconds at hot-exec sizes) are computed once per value and build,
   then read from disk. *)
let data_seed seed = 1 + ((seed - 1) land 1)

(* Cycles or rounds of the stream that a traced run replays in-process.
   For restart the first round fills the cache, so the replay is the
   round after it, as in the untraced run. *)
let traced_prefix w ~seed =
  let rng = rng ~seed in
  match w with
  | Hot_exec -> cycle w rng @ cycle w rng
  | Batch_fanout | Cold_start -> cycle w rng
  | Restart ->
      ignore (cycle w rng);
      cycle w rng
