(** Lowering mini-Fortran IR to self-contained OCaml source.

    The emitted module depends only on [Stdlib]: arrays are the flat
    column-major buffers the interpreter's {!Env} already uses, scalars
    become [ref]s initialized from the host environment and written back
    on exit, and DO loops reproduce the interpreter's trip-count
    semantics exactly (bounds and step evaluated once on entry,
    [trips = max 0 ((hi - lo + step) / step)], zero step is an error).
    Float comparisons compile to [Float.compare] and intrinsics to the
    interpreter's definitions, so a compiled kernel produces bitwise the
    same REAL results as {!Exec.run} on the same environment.

    When [shapes] declares an array's per-dimension bounds as integer
    expressions over the kernel's parameters, every subscript the
    {!Symbolic} prover can show in bounds compiles to
    [Array.unsafe_get]/[unsafe_set] on the flat offset.  The emitted
    module re-checks at run time everything those proofs assumed: that
    the declared shapes match the actual dims, and that the symbolic
    parameters used by the proofs are positive.  Unproven subscripts
    fall back to bounds-checked flat accesses, which cannot corrupt
    memory (though the runtime error message is the flat OCaml one, not
    the interpreter's per-dimension report).

    Loops keep their invariants out of the per-iteration work, since
    [ocamlopt] without flambda does no loop-invariant code motion and no
    strength reduction.  Before each loop, the invariant part of the
    flat offset of every affine reference in its body is bound once
    (references that differ only by a constant in the first subscript
    share it), and the body adds the index term.  In an innermost loop
    where nothing can raise, a written REAL element with invariant,
    proven subscripts that is the loop's only reference to its array
    lives in a local: loaded before the loop and stored after it, both
    only when the loop runs.  Neither moves a floating-point operation,
    and a checked access still checks the same offset.

    The module communicates its entry point by raising
    [Blockc_kernel run] at initialization time; {!Jit} catches the
    exception during [Dynlink] loading and extracts the closure, so no
    interface files are shared between host and plugin. *)

type shapes = (string * (Expr.t * Expr.t) list) list
(** Per-array inclusive [(lo, hi)] bounds for each dimension, as integer
    expressions over the kernel's symbolic parameters. *)

val source :
  ?unsafe:bool ->
  ?shapes:shapes ->
  name:string ->
  Stmt.t list ->
  (string, string) result
(** [source ~name block] renders the block as an OCaml compilation unit.
    [unsafe] (default [true]) enables proven-in-bounds unchecked
    accesses; with [false] every access is bounds-checked.  [Error]
    reports constructs the emitter does not support (unknown intrinsics,
    assignment to an enclosing loop index). *)

val revision : string
(** The emitter's revision.  It is part of the OCaml artifact key, so a
    cache directory filled by an older emitter is never served to a
    newer one; bump it whenever the emitted text changes.  A unit test
    pins the emitted text of three point kernels next to the revision
    it names, so such a change cannot pass unnoticed. *)

type counts = {
  unchecked : int;  (** [Array.unsafe_*] accesses emitted *)
  hoisted : int;  (** loop-invariant offset bases *)
  promoted : int;  (** elements kept in a local across an innermost loop *)
}

val counts : ?unsafe:bool -> ?shapes:shapes -> Stmt.t list -> counts
(** What {!source} would emit for the block, counted: the fuzzer's
    evidence that its programs reach the proof-gated paths.  Meaningful
    for blocks {!source} accepts. *)

(** {1 Shared backend analysis}

    The pieces of the lowering that are target-independent — name
    collection and the {!Symbolic} in-bounds proof plumbing — exposed so
    alternative backends ({!Emit_c}) emit from the same facts and can
    never disagree with the OCaml emitter about which accesses are
    provably safe. *)

module SS : Set.S with type elt = string
module SM : Map.S with type key = string

(** Every name the block mentions, classified.  [bad] is the first
    unsupported construct found, if any; a backend must refuse to emit
    when it is set. *)
type decls = {
  mutable farr : int SM.t;  (** REAL arrays -> rank *)
  mutable iarr : int SM.t;  (** INTEGER arrays -> rank *)
  mutable fsc : SS.t;  (** REAL scalars (read or written) *)
  mutable fsc_w : SS.t;  (** ... assigned somewhere in the block *)
  mutable isc : SS.t;  (** INTEGER scalars *)
  mutable isc_w : SS.t;
  mutable bad : string option;  (** first unsupported construct *)
}

val collect : shapes:shapes -> Stmt.t list -> decls
(** One pass over the block: arrays with their ranks, scalars split by
    type and writtenness, plus the supportability verdict (unknown
    intrinsics, assignment to a loop index).  The parameters of the
    [shapes] of arrays the block accesses count as INTEGER scalars too:
    the emitted shape re-check reads them. *)

val ple : Symbolic.t -> Expr.t -> Expr.t -> bool
(** [a <= b] at the [Expr] level, decomposing MIN/MAX into the affine
    queries {!Symbolic} can answer.  Sound, not complete. *)

val enter_loop : tainted:SS.t -> Symbolic.t -> Stmt.loop -> Symbolic.t
(** Facts available inside a loop body: for a provably positive step,
    [lo <= index <= hi].  Facts mentioning a name in [tainted] (an
    INTEGER scalar the block assigns) are never admitted. *)

val base_ctx :
  tainted:SS.t -> shapes:shapes -> Stmt.t list -> Symbolic.t * SS.t
(** The starting proof context shared by every backend: unassigned
    symbolic parameters assumed positive and declared shapes assumed
    nonempty — everything the emitted preamble re-checks at run time.
    Also returns the assumed parameter set, for those re-checks. *)
