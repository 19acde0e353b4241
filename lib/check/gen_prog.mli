(** Random well-formed loop nests for the differential fuzzer.

    The generator produces single-path nests (one loop per level, depth
    1-3) in the shape vocabulary of the paper: rectangular bounds,
    triangular bounds where an inner bound tracks the outer index,
    trapezoidal MIN/MAX bounds, zero-guard IFs over a read-only guard
    array, IF-guarded row interchanges through the temporary (the §5.2
    partial-pivoting swap shape), 1-D/2-D affine subscripts (including
    coupled [I-J] forms),
    scalar-temporary statement pairs, and symbolic parameters ([N],
    [M], [KS]) closed by random bindings small enough that every loop's
    full iteration space is interpretable in microseconds.

    Every array subscript a generated program (or any transformation of
    it the harness exercises) can evaluate stays inside {!shape},
    so an out-of-bounds {!Env.Error} during a differential run is always
    a finding, never generator noise.

    Generation goes through {!QCheck2.Gen}, so counterexamples shrink
    for free: every choice is an [int_range] whose low end is the
    simplest alternative (shallowest nest, rectangular bounds, fewest
    statements). *)

type t = {
  block : Stmt.t list;  (** the program: optional [T = 0.0] preamble + one nest *)
  bindings : (string * int) list;
      (** closes the symbolic parameters, always [N], [M] and [KS] *)
  fill_seed : int;  (** base seed for the array data fills *)
}

(** What a program exercises, derived from its structure (not from the
    generation path, so shrunk counterexamples classify correctly). *)
type profile = {
  depth : int;
  rect : bool;  (** some non-outer loop has rectangular bounds *)
  triangular : bool;  (** some inner bound mentions an outer index *)
  trapezoidal : bool;  (** some loop bound carries MIN/MAX *)
  guarded : bool;  (** contains an IF *)
  straightline : bool;  (** no IFs: eligible for the dependence oracle *)
  uses_temp : bool;  (** uses the scalar temporary [T] *)
}

val classify : t -> profile

val farrays : (string * int) list
(** The REAL arrays every generated program may touch: name and rank. *)

val guard_array : string
(** The read-only array zero-guards test (["G"]); never written. *)

val temp_scalar : string
(** The REAL scalar temporary (["T"]). *)

val shape : t -> int -> (Expr.t * Expr.t) list
(** Declared bounds of a rank-1 or rank-2 array of the program, over the
    size parameters its loop bounds use (so in-bounds proofs can fire),
    padded so every subscript the program can reach is in bounds at
    every binding. *)

val dims : t -> int -> (int * int) list
(** {!shape} evaluated under the program's bindings. *)

val gen : t QCheck2.Gen.t

val print : t -> string
(** Parseable mini-Fortran: a [!]-comment header carrying the bindings
    and fill seed, then the program text ({!Stmt.block_to_string}). *)
