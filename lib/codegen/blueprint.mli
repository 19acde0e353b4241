(** Separating loop structure from problem size for the JIT.

    A blueprint is the part of a kernel the code generator actually
    cares about: the loop nest, the access patterns, the declared
    shapes — with every problem-size constant (a literal loop bound, a
    literal shape extent, a literal guard threshold) hoisted out into a
    named parameter bound at call time.  Two programs that differ only
    in those constants normalize to the same blueprint and therefore
    share one compiled plugin: [compile (lu, 256)] and
    [compile (lu, 512)] are one [ocamlopt] invocation plus a lookup in
    the artifact cache (see {!Backend.S.compile_blueprint}).

    Hoisting is by value numbering: equal constants share one
    parameter, so a loop bound that equals a declared shape extent
    still equals it after normalization and the {!Emit} in-bounds
    proofs are unaffected.  Constants below a small threshold stay
    literal — they are structure (unroll offsets, +-1 adjustments,
    steps), not size, and distinguish e.g. unroll-by-2 from
    unroll-by-4 in the key.  Kernels whose IR is already symbolic in
    [N] normalize to themselves with an empty binding list.

    The normalized block specialized by [bindings] is semantically
    identical to the input block (the fuzzer cross-checks this:
    interpreting both from the same environment must agree bitwise). *)

type t = {
  key : string;
      (** canonical digest of the normalized structure (every
          constructor, so a REAL and an INTEGER store of one name
          differ), the declared shapes and the unsafe flag — the JIT
          cache key component *)
  block : Stmt.t list;  (** the normalized block, to be emitted *)
  shapes : Emit.shapes;  (** normalized shapes, sorted by array name *)
  unsafe : bool;  (** whether emission may use proven unchecked accesses *)
  bindings : (string * int) list;
      (** hoisted parameter values, in first-occurrence order; the
          kernel compiled from the blueprint binds them at call time
          ({!Backend.compiled}) *)
}

val of_block : ?unsafe:bool -> ?shapes:Emit.shapes -> Stmt.t list -> t
(** Normalize a block (default [unsafe:true], matching {!Emit.source}).
    Pure and deterministic: the same block and shapes always produce
    the same key. *)

val specialize : t -> Stmt.t list
(** Substitute the bindings back into the normalized block — the
    inverse of hoisting, used by audits and the fuzzer's soundness
    check. *)

val describe : t -> string
(** One-line human rendering: key plus the hoisted bindings. *)
