(** Symbolic evaluation of IR fragments to canonical symbolic states.

    The evaluator maps a fragment (straight-line code, guarded updates,
    bounded loops) to a {!state}: integer scalars as affine forms, REAL
    scalars as {!Fsa_term.t} values, and arrays as ordered update lists
    over the initial store.  A loop whose trip count is a small known
    constant is unrolled exactly; a loop with symbolic bounds is folded
    into a {e quantified} update (one pattern per written location,
    universally quantified over the iteration space) — sound only when
    the evaluator can prove the loop free of cross-iteration traffic, so
    the fold performs an explicit read/write and write/write
    disjointness check across distinct iterations and raises
    {!Unsupported} when it cannot.

    [Unsupported] is the evaluator's only escape hatch and is always
    sound: the caller treats it as "no verdict", never as equivalence. *)

exception Unsupported of string

type qvar = { qv : string; qlo : Affine.t; qhi : Affine.t }
(** A universally quantified iteration symbol with its range. *)

type upd = { uqs : qvar list; upat : Affine.t list; uval : Fsa_term.t }
(** One (possibly quantified) array update: for every value of [uqs]
    within range, location [upat] holds [uval].  [uqs = []] is a plain
    point store. *)

type state = {
  ints : (string * Affine.t) list;  (** newest binding first *)
  ipoison : string list;  (** integer scalars with unknown values *)
  floats : (string * Fsa_term.t) list;  (** newest binding first *)
  arrays : (string * upd list) list;  (** update lists, newest first *)
}

val eval_block : ctx:Symbolic.t -> Stmt.t list -> state
(** Evaluate a fragment from the generic initial store.  Raises
    {!Unsupported} on anything outside the symbolic fragment language
    (undecidable branches, non-affine subscripts, loops that are neither
    unrollable nor provably iteration-parallel, integer array stores). *)

val read : ctx:Symbolic.t -> state -> string -> Affine.t list -> Fsa_term.t
(** Resolve an array element through the state's update list; undecided
    pattern matches produce [Ite] terms.  Raises {!Unsupported} when a
    quantified pattern cannot be solved against the probe. *)

val scalar : state -> string -> Fsa_term.t
(** Final value of a REAL scalar ([Sinit] when never written). *)
