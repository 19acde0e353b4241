(** Guarded matrix multiply from BLAS SGEMM (§4):

    {v
    DO J = 1, N
      DO K = 1, N
        IF (B(K,J) .NE. 0.0) THEN
          DO I = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
    v}

    (The paper writes [IF (B(K,J).EQ.0) GOTO 20]; the structured guard is
    the same computation.)  The workload generator controls the
    frequency and run structure of nonzeros in [B], matching the paper's
    experiment where [Frequency] is how often [B(K,J) = 1]. *)

val kernel : Kernel_def.t
(** Parameters: [N]; arrays [A], [B], [C].  [B]'s sparsity is driven by
    the [FREQ_PCT] parameter (percentage 0-100 of nonzero entries,
    arranged in runs). *)
