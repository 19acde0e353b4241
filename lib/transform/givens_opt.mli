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

type trace_step = { name : string; detail : string; after : Stmt.t list }
(** One step of a derivation: its name, what it did, and the IR after
    it. *)

type 'a traced = { result : 'a; steps : trace_step list }
(** A derivation's result with its steps in order.  {!Blocker}
    re-exports both types. *)

val optimize : ctx:Symbolic.t -> Stmt.loop -> (Stmt.t traced, string) result
(** The optimized [L] loop.  [ctx] holds the facts the kernel's
    parameters satisfy; the loop's own bounds are added to it.  The
    range tables are named after the [J] index ([JLB], [JUB]); a run
    records at most [(M-L)/2 + 1] ranges. *)
