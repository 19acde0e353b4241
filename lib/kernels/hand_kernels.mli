(** The hand-written kernels that have no derivation by design: the
    baselines the benchmark tables time next to compiler output.

    Every kernel works in place on the flat column-major data of an
    array {!Kernel_def.make_env} built: element [(i, j)] of an [m]-row
    matrix is at [(j - 1) * m + (i - 1)].

    - {!lu_sorensen} is Sorensen's hand-blocked right-looking LU (the
      paper's "1" in Table 3) and {!lu_recursive} the cache-oblivious
      recursive LU after ReLAPACK ("Rec").  Both factor {!K_lu.kernel}'s
      ["A"].  Per element they apply the elimination steps in increasing
      order through one load/store chain, so their results equal the
      interpreter's run of the point IR bit for bit.
    - {!householder_point} and {!householder_wy} are §5.3's Householder
      QR of {!K_householder.kernel}'s ["A"] ([m >= n]): reflectors
      applied one at a time, and the compact-WY block form.  The block
      form computes a triangular factor [T] with no counterpart in the
      point code, which is why no compiler derives it; it reassociates,
      so the two agree only to rounding. *)

val lu_sorensen : block:int -> n:int -> float array -> unit
(** Panel factorization, then the trailing update as rank-1 updates
    with the block loop outermost. *)

val lu_recursive : ?base:int -> n:int -> float array -> unit
(** Factor the left half of the columns, update the right half, recurse
    right; panels of at most [base] (default 16) columns are factored
    pointwise.  The trailing update is unrolled by 4 columns with the
    accumulators in scalars. *)

val householder_point : m:int -> n:int -> float array -> unit
(** One reflector per column, applied to the trailing columns. *)

val householder_wy : block:int -> m:int -> n:int -> float array -> unit
(** Factor a panel of [block] columns pointwise, build its [T] with
    [Q = I - V T V^T], and apply [Q^T] to the trailing columns as
    matrix-matrix work. *)
