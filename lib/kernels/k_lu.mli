(** LU decomposition without pivoting (§5.1), point algorithm in IR.

    {v
    DO K = 1, N-1
      DO I = K+1, N
        A(I,K) = A(I,K) / A(K,K)
      DO J = K+1, N
        DO I = K+1, N
          A(I,J) = A(I,J) - A(I,K)*A(K,J)
    v} *)

val point_loop : Stmt.loop
(** The K loop. *)

val kernel : Kernel_def.t

val fill_dominant : Lcg.t -> float array -> n:int -> unit
(** Fill the column-major storage of an [n]×[n] matrix from the
    generator: entries uniform in [-0.5, 0.5), plus [n] on the diagonal.
    Allocates nothing. *)
