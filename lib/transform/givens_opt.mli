(** The §5.4 Givens QR optimization driver (Figure 10).

    Input: the point algorithm's [L] loop (Figure 9 shape: a [J] sweep
    whose guarded body computes rotation coefficients and applies the
    rotation to columns [L..N]).  Steps, each with a mechanical check:

    + index-set split the rotation's [K] loop at [L] and peel the
      [K = L] iteration into the guarded setup (the recurrence on
      [A(L,L)]/[A(J,L)] only exists for the element column, exactly the
      section observation in the paper);
    + expand the rotation coefficients [C], [S] over [J] so they survive
      distribution, and privatize the rotation temporaries in the apply
      part by renaming;
    + fuse IF-inspection into the setup sweep and move the apply part to
      an executor over the recorded ranges
      ({!If_inspection.split_guarded}, which checks cross-iteration
      safety via sections);
    + interchange the executor so [K] is outermost and [J] innermost
      (stride-one access to [A(J,K)], [A(L,K)] invariant in the
      innermost loop);
    + scalar-replace [A(L,K)] across the whole [JN x J] sweep, loaded
      before it and stored after it once per [K].  The section test
      proves it disjoint from [A(J,K)] over the inspected sweep
      [L+1..M], which contains every recorded range. *)

val names : Stmt.loop -> If_inspection.names
(** The inspector names {!optimize} uses for this loop, without running
    it: what a caller needs to declare the range tables. *)

val optimize :
  Stmt.loop -> (Stmt.t Blocker.traced * If_inspection.names, string) result
(** Returns the optimized [L] loop and the inspector names used (so the
    caller can size the range tables: at most [(M-L)/2 + 1] ranges). *)
