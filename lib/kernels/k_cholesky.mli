(** Cholesky factorization (lower triangle, in place) — a second §8
    "breadth" algorithm.  Same scale/update recurrence as LU but with a
    square root on the diagonal and a triangular trailing update:

    {v
    DO K = 1, N
      A(K,K) = SQRT(A(K,K))
      DO I = K+1, N
        A(I,K) = A(I,K) / A(K,K)
      DO J = K+1, N
        DO I = J, N
          A(I,J) = A(I,J) - A(I,K)*A(J,K)
    v}

    {!Blocker.auto}'s cache blocking blocks it, as it blocks LU. *)

val kernel : Kernel_def.t
