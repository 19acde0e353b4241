(** Commutativity knowledge (§5.2).

    Data dependence alone cannot block LU with partial pivoting: moving
    the row interchanges of later elimination steps ahead of earlier
    column updates reverses a dependence.  But a row interchange
    commutes with a whole-column update — both versions compute the same
    final values, though intermediate values flow through different
    locations.  The paper proposes pattern matching to recognize this
    pair of operations and license ignoring the preventing recurrence.

    {!may_ignore} derives the fact instead of looking it up:
    instantiate the dependence's source and sink statements at two
    generic iterations [theta1 < theta2] of the carrying loop, recover
    range facts for the integer scalars each instance reads from its
    body prefix (e.g. the pivot row after the search), and ask
    {!Fsa.commute} whether the instances commute — a machine-checked
    proof, traced as an [Obs] decision with the proof tree as
    evidence. *)

val may_ignore : ctx:Symbolic.t -> Stmt.loop -> Dependence.t -> bool
(** The FSA-backed prover.  [ctx] carries the facts valid at the
    loop's execution point (the blocker passes its universal context).
    Proofs are memoized per (loop, statement pair, facts). *)
