(** The one hand-written kernel the benchmark tables time: T3's "Rec",
    a cache-oblivious recursive LU after ReLAPACK.  Its recursion needs
    procedures, which the IR does not have, so no derivation produces
    it and no §6 source expresses it.

    It works in place on the flat column-major data of {!K_lu.kernel}'s
    ["A"] as {!Kernel_def.make_env} built it: element [(i, j)] is at
    [(j - 1) * n + (i - 1)].  Per element it applies the elimination
    steps in increasing order through one load/store chain, so its
    result equals the interpreter's run of the point IR bit for bit. *)

val lu_recursive : ?base:int -> n:int -> float array -> unit
(** Factor the left half of the columns, update the right half, recurse
    right; panels of at most [base] (default 16) columns are factored
    pointwise.  The trailing update is unrolled by 4 columns with the
    accumulators in scalars. *)
