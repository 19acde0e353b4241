(** High-level API over the whole system.

    An {!entry} is data: one of the paper's kernels with the facts and
    flags {!Blocker.auto} derives its block algorithm under, the
    scratch state the transformed code needs, and default problem
    sizes — everything the CLI, the examples and the benchmark harness
    share.

    Typical use:

    {[
      let entry = Option.get (Blockability.find "lu") in
      let { Blocker.result; steps } = Result.get_ok (Blockability.derive entry) in
      print_string (Stmt.to_string result);
      Blockability.verify entry ~bindings:[ ("N", 13) ] ~seed:42
    ]} *)

type entry = {
  name : string;
  paper_ref : string;  (** section / figure in the paper *)
  kernel : Kernel_def.t;
  register : bool;
      (** whether the pipeline register-blocks too (the paper's "2+"
          and "1+", and the convolutions) *)
  facts : (string * int) list;
      (** lower bounds [(p, lo)], meaning [p >= lo], on the parameters
          (block sizes included) that the derivation assumes: the
          transformed variant is correct for these sizes only, and
          {!env} refuses others *)
  extra_bindings : (string * int) list;
      (** parameters only the transformed code uses (block sizes) *)
  extra_setup : Env.t -> bindings:(string * int) list -> unit;
      (** scratch arrays the transformed code needs *)
  default_bindings : (string * int) list;  (** a small default problem *)
  blockable : bool;
      (** whether {!derive} is expected to succeed.  [false] marks the
          paper's negative results (Householder, §5.3): {!derive}
          returns [Error] with the rejection reason, and that is the
          correct outcome, not a failure of the system. *)
}

val entries : entry list
val find : string -> entry option
val names : unit -> string list

val derive : entry -> (Stmt.t Blocker.traced, string) result
(** Run {!Blocker.auto} on the kernel's IR under the entry's flag and
    facts, in memory.  What prints the derivation itself calls this
    ([blockc derive], [explain] and serve's [derive] op) and writes
    nothing; what runs or compiles a variant goes through
    {!variant_block}.  For a non-blockable entry the [Error] gives the
    paper's reason, then where the mechanical derivation stopped. *)

(** {1 Variants} *)

type variant = Point | Transformed

val variant_name : variant -> string
(** ["point"] or ["transformed"]. *)

val env :
  ?block:int ->
  entry ->
  variant ->
  bindings:(string * int) list ->
  seed:int ->
  (Env.t, string) result
(** A fresh environment for one variant: the kernel's set-up at
    [bindings] ([[]] means the entry's default problem), then the
    entry's scratch arrays.  The transformed variant also binds the
    entry's extra parameters (block sizes); the caller's [bindings] win
    over those, and [block] is KS whatever the caller bound.  [Error]
    for bindings the kernel cannot set up, sizes that declare an empty
    array, a [block] on an entry without KS, or a transformed
    environment whose parameters break one of the entry's facts (["the
    derivation assumes N2 >= 3"]).  Every operation below builds its environments here, so
    each returns that [Error]. *)

val check_bindings : entry -> (string * int) list -> (unit, string) result
(** [Error] naming the first kernel parameter that [bindings] leave
    unbound.  {!verify}, {!simulate}, {!profile} and {!native_compare}
    check their bindings with it before they build an environment;
    {!env} does not. *)

val verify :
  ?bindings:(string * int) list -> ?seed:int -> entry -> (unit, string) result
(** Check interpreter equivalence of point vs transformed on the given
    (default: entry's default) problem size.  The transformed block is
    {!variant_block}'s, as for every operation below. *)

type sim_result = {
  point_stats : Cache.stats;
  transformed_stats : Cache.stats;
  point_by_array : (string * Cache.stats) list;
      (** per-array breakdown of [point_stats] (see
          {!Trace.stats_by_array}) *)
  transformed_by_array : (string * Cache.stats) list;
  point_cycles : int;
  transformed_cycles : int;
}

val simulate :
  ?bindings:(string * int) list ->
  ?seed:int ->
  machine:Arch.t ->
  entry ->
  (sim_result, string) result
(** Trace both versions through the cache simulator. *)

(** One variant's memory-hierarchy profile: per-level and TLB stats, the
    per-reference and per-loop-nest miss attribution, the exact LRU
    reuse-distance histogram and the miss-vs-cache-size curve derived
    from it, and the cost-model validation (stack-distance prediction vs
    the simulated, set-associative L1). *)
type kernel_profile = {
  kp_kernel : string;
  kp_variant : string;  (** ["point"] or ["transformed"] *)
  kp_block : int option;  (** the KS binding used, when overridden *)
  kp_levels : (string * Cache.stats) list;  (** innermost (L1) first *)
  kp_tlb : Cache.stats;
  kp_cycles : int;  (** {!Hier.cycles} under the per-level model *)
  kp_refs : Trace.ref_profile list;
  kp_loops : (string * Trace.ref_counts) list;
  kp_hist : (int * int) list;  (** exact reuse distances (L1 lines) *)
  kp_cold : int;
  kp_footprint_lines : int;  (** distinct L1 lines touched *)
  kp_miss_curve : (int * int) list;  (** [(lines, misses)] powers of two *)
  kp_validation : Cost.validation;
}

val profile :
  ?bindings:(string * int) list ->
  ?seed:int ->
  ?machine:Arch.t ->
  ?spec:Hier.spec ->
  ?block:int ->
  entry ->
  (kernel_profile * kernel_profile, string) result
(** Profile point and transformed variants through the memory hierarchy
    (default machine rs6000, hierarchy {!Hier.of_arch}).  [block]
    overrides the kernel's KS binding; an [Error] names kernels without
    one.  When tracing is on, summaries and per-reference attributions
    also stream as ["profile"]-category events. *)

(** {1 Native code}

    One route takes a registry variant to native code: {!variant_block}
    gives its block and blueprint, {!compile} compiles that blueprint on
    a backend, {!env} builds the environments it runs in.  Serve's
    [compile], [execute] and [batch] ops, [blockc compile] (all three
    modes) and {!native_compare} take it. *)

val variant_block :
  entry ->
  variant ->
  (Stmt.t list * Blueprint.t * Artifact_cache.disposition option, string)
  result
(** A variant's block, its blueprint and, for the transformed variant,
    where its derivation came from.  The point block is the kernel's
    own.  The transformed block comes from the {!Artifact_cache}'s
    ["derivation"] kind: derived by the first process that asks
    ([Compiled]) and read back by every later process of the same
    executable ([Disk]), or from this process's memo ([Memo]).  The
    key is the entry's name and source block, and the executable's
    identity from one [stat] (device, inode, size, mtime).  A kernel
    that does not block is an [Error] naming the derivation's
    failure. *)

val encode_derivation : entry -> Stmt.t list -> string
(** A stored derivation: the MD5 of the [Marshal]led block, the block's
    {!Blueprint.describe} line, then the [Marshal]led block. *)

val decode_derivation :
  entry -> string -> (Stmt.t list * Blueprint.t, string) result
(** The inverse of {!encode_derivation}, checking the MD5 before
    unmarshalling and the blueprint description after; [Error] on any
    mismatch or a short read. *)

type compiled = {
  c_entry : entry;
  c_variant : variant;
  c_block : Stmt.t list;  (** the block before normalization *)
  c_bp : Blueprint.t;
  c_derivation : Artifact_cache.disposition option;  (** transformed only *)
  c_cm : Backend.compiled;
}

val compile :
  backend:(module Backend.S) -> entry -> variant -> (compiled, string) result
(** {!variant_block}, then the backend's blueprint compile (one
    artifact per loop structure, whatever the sizes).  The artifact is
    named [<entry>_<variant>] in diagnostics and spans. *)

val compiled_fields : compiled -> (string * Json_min.t) list
(** The one JSON form of a compile, printed by [blockc compile --json]
    and by serve's [compile] op after its ["id"] and ["ok"]:
    ["kernel"], ["variant"] (["point"] or ["transformed"]),
    ["backend"], ["blueprint"], ["key"], then {!disposition_fields},
    ["compile_s"], ["cached"] (not [Compiled]), ["artifact"] (the
    on-disk path), ["hoisted"] (the blueprint's bindings) and
    ["vec_remarks"] (the C compiler's vectorization remarks; [[]] on
    OCaml). *)

val disposition_fields : compiled -> (string * Json_min.t) list
(** ["disposition"]: where the artifact came from (["memo"], ["disk"]
    or ["compiled"]); for a transformed variant also ["derivation"]:
    where its derived IR came from (["memo"], ["disk"] or
    ["derived"]).  Serve's [execute] and [batch] responses carry these
    too. *)

(** Wall-clock comparison of the point and transformed variants compiled
    to native code (see {!Backend}).  Each time is a {!Measure} summary
    of one full kernel run, point and transformed interleaved; [cached]
    flags report whether the artifact came from the cache (first
    compiles cost ~100ms of [ocamlopt]). *)
type native_result = {
  nt_backend : string;  (** which {!Backend} produced the numbers *)
  nt_point : Measure.summary;
  nt_transformed : Measure.summary;
  nt_speedup : float;  (** point median / transformed median *)
  nt_point_cached : bool;
  nt_transformed_cached : bool;
  nt_model_speedup : float option;
      (** cache-model memory-cycle ratio at [verify_bindings] (the
          rs6000 machine model), for comparison against the measured
          wall-clock ratio *)
  nt_bindings : (string * int) list;
  nt_verify_bindings : (string * int) list;
}

val native_compare :
  ?backend:(module Backend.S) ->
  ?bindings:(string * int) list ->
  ?verify_bindings:(string * int) list ->
  ?seed:int ->
  ?block:int ->
  entry ->
  (native_result, string) result
(** {!compile} both variants on [backend] (default
    {!Backend.Ocaml}; pass {!Backend.C} to measure without the OCaml
    allocator in the loop), check each is bitwise equal to the
    interpreter at [verify_bindings] (default: the entry's small
    default problem), then time both at [bindings] (default likewise —
    pass something larger for meaningful numbers) as two interleaved
    {!Measure} arms, each sample in a fresh {!env} built outside the
    clock, and check that the last timed runs of the two variants
    agree bitwise, outside the clock.  [block] overrides the KS binding
    as in {!profile}.  [nt_model_speedup] simulates the two blocks
    compiled, so a call derives at most once.  Missing parameters
    ({!check_bindings}) and any divergence are an [Error]: the native
    path never trades correctness for speed. *)

val profile_sweep :
  ?bindings:(string * int) list ->
  ?seed:int ->
  ?machine:Arch.t ->
  ?spec:Hier.spec ->
  blocks:int list ->
  entry ->
  ((int * kernel_profile) list, string) result
(** The transformed variant profiled at each block size.  Feed the
    [(block, L1 misses)] pairs to {!Blocker.choose_block_size} to turn
    the sweep into a cited block-size decision. *)
