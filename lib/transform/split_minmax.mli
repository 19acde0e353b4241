(** Trapezoidal and rhomboidal iteration spaces (§3.2).

    A [MIN] in an inner loop's upper bound (or a [MAX] in its lower
    bound) defines two regions of the outer iteration space; splitting
    the outer index set at the crossover point leaves each new loop with
    a simple bound, after which the triangular/rectangular machinery
    applies.  For

    {v
    DO I = 1, N
      DO J = L, MIN(a*I + beta, M)
    v}

    the crossover is at [I = (M - beta) / a]: below it the bound is
    [a*I + beta], above it [M].  [MAX] lower bounds are handled dually,
    and the convolution kernel's combination of both yields up to four
    loops (the paper's rhomboidal case). *)

val remove_all : Stmt.loop -> (Stmt.t list, string) result
(** Remove one [MIN] from the hi bound (or one [MAX] from the lo bound)
    of the immediately nested loop by splitting the outer index set,
    and iterate until every generated loop has simple inner bounds.
    Exactly one [MIN]/[MAX] argument may depend on the outer index,
    affinely with positive coefficient.  Loops whose inner bound has no
    MIN/MAX pass through unchanged. *)
