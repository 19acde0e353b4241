(** LU decomposition with partial pivoting (§5.2, Figure 7), point
    algorithm in IR, including the pivot search the paper's listing
    elides:

    {v
    DO K = 1, N-1
      IMAX = K
      AMAX = ABS(A(K,K))
      DO I = K+1, N
        IF (ABS(A(I,K)) .GT. AMAX) THEN  AMAX = ABS(A(I,K)); IMAX = I
      DO J = 1, N
        TAU = A(K,J); A(K,J) = A(IMAX,J); A(IMAX,J) = TAU
      DO I = K+1, N
        A(I,K) = A(I,K) / A(K,K)
      DO J = K+1, N
        DO I = K+1, N
          A(I,J) = A(I,J) - A(I,K)*A(K,J)
    v} *)

val point_loop : Stmt.loop
val kernel : Kernel_def.t
