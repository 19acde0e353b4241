(** Forward substitution (unit-free lower-triangular solve) — not one of
    the paper's four study algorithms, but exactly the shape its §8
    "breadth of coverage" asks about: the same scale/update recurrence as
    LU, one dimension lower.

    {v
    DO K = 1, N
      X(K) = B(K) / A(K,K)
      DO I = K+1, N
        B(I) = B(I) - A(I,K)*X(K)
    v}

    {!Blocker.auto}'s cache blocking blocks it: IndexSetSplit finds the
    split of [I] at [K+KS-1], distribution isolates the deferred update,
    and the strip loop sinks inward — yielding the blocked (panel)
    forward solve. *)

val kernel : Kernel_def.t
