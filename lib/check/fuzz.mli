(** Differential fuzzing harness.

    For every generated program ({!Gen_prog}), the harness

    - applies each transformation pass at every applicable site, gated
      by the same legality machinery the drivers use (dependence
      vectors, SCC condensation, section analysis), and asserts that
      interpreting the transformed block from identical initial
      environments yields bitwise-equal REAL arrays over two randomized
      data fills;
    - cross-checks the fractal-symbolic-analysis prover: wherever
      {!Fsa.commute} proves two adjacent statements equivalent under
      the site's facts (the ["commutativity"] pass), the swapped order
      is interpreted and must agree bitwise — FSA may answer [Unknown],
      never wrongly [Equivalent];
    - cross-validates {!Dependence.all} conservativeness against the
      brute-force {!Oracle} on the program's concrete bindings
      (straight-line programs only — the oracle does not model IFs);
    - checks the printed counterexample form re-parses
      ({!Parser.stmts}) and that the re-parsed program is semantically
      identical, so any printed counterexample can be replayed.

    Failures shrink through {!QCheck2}'s integrated shrinking; the
    reported counterexample is minimal w.r.t. the generator's ordering
    and is printed as parseable mini-Fortran together with the run seed
    and the diverging pass.

    Coverage counters and pass decisions are recorded through {!Obs}
    (category ["fuzz"]) like the other subsystems. *)

val pass_names : string list
(** Valid arguments for [~only]: one transformation pass name, or
    ["oracle"] / ["reparse"] for the two non-transformation checks. *)

type pass_stat = {
  ps_name : string;
  ps_applied : int;  (** sites where the pass applied and was checked *)
  ps_rejected : int;  (** sites where it was structurally or legally refused *)
  ps_diverged : int;  (** applied sites whose interpretation diverged *)
}

type summary = {
  iters : int;  (** requested program count *)
  seed : int;
  programs : int;  (** programs actually executed (> iters while shrinking) *)
  depth_counts : int array;  (** index d = programs of nest depth d+1 *)
  rect : int;
  triangular : int;
  trapezoidal : int;
  guarded : int;  (** programs containing an IF *)
  oracle_checked : int;
  oracle_violations : int;
  reparsed : int;
  native_checked : int;  (** programs also run through the native JIT *)
  native_c_checked : int;
      (** programs additionally run through the C backend (three-way) *)
  native_divergences : int;
      (** native runs that were not bitwise equal to the interpreter *)
  native_blueprints : int;
      (** distinct blueprint keys among the native-checked programs *)
  native_blueprint_reuses : int;
      (** runs satisfied by an already-compiled blueprint under fresh
          size bindings: every program is rerun (and re-checked
          bitwise) at rotated sizes through its just-compiled plugin,
          plus any structural collisions between random programs *)
  native_emitted : Emit.counts;
      (** summed over the native-checked programs: unchecked accesses,
          hoisted offset bases and promoted elements in their emitted
          OCaml (the OCaml plugins only) *)
  native_c_raw : int;
      (** raw-pointer accesses in the C sources of the programs run
          through the C backend ({!Emit_c.raw_accesses}) *)
  passes : pass_stat list;
  failures : string list;  (** rendered, shrunk counterexamples *)
}

val run :
  ?only:string ->
  ?native:bool ->
  ?backend:string ->
  iters:int ->
  seed:int ->
  unit ->
  (summary, string) result
(** Run the fuzzer.  [Error] only for an unknown [~only] name, an
    unknown [~backend] tag, or when [native] is requested on a host
    without the required toolchain; a found counterexample is a [Ok]
    summary with non-empty [failures].

    With [native] (default false), every generated program is
    additionally normalized to a {!Blueprint}, compiled to native code
    ({!Backend.S.compile_blueprint}) and run under its hoisted size
    bindings, which the compiled kernel binds itself, with the result
    checked bitwise against the interpreter — the same differential
    contract the transformation passes satisfy, applied to the code
    generator, the normalization, and the binding preamble at once.  Structurally-equal programs of different sizes share one
    compiled plugin (counted in [native_blueprint_reuses]), so expect
    roughly 100ms of [ocamlopt] per distinct {e structure}, not per
    program, on a cold cache.

    [backend] (default ["ocaml"], a {!Backend.names} tag) selects the
    native comparison set.  ["c"] is a {e three-way} differential: each
    program runs through the interpreter, the OCaml plugin and the
    dlopen'd C object on identical fills (at the base sizes and again
    at rotated sizes), and all three must agree bitwise.  Requires
    [cc]; fails fast with [Error] when {!Cc.available} says otherwise. *)

val ok : summary -> bool
(** No divergences (interpreted or native), no oracle violations, no
    failures. *)
