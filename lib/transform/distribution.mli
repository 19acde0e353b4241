(** Loop distribution (loop fission).

    Splits one loop around groups of its body statements.  Legality is
    the Allen–Kennedy condition: every group must be a union of strongly
    connected components of the loop's statement dependence graph, and
    the groups must appear in an order compatible with the condensation
    (no dependence may point from a later group to an earlier one).

    [apply_with_override] supports the paper's §5.2 result: a predicate
    can declare specific dependences ignorable (commutativity knowledge).
    Only a dependence the split would reverse needs that knowledge, so
    the predicate is asked about those alone. *)

val apply :
  ctx:Symbolic.t -> Stmt.loop -> groups:int list list -> (Stmt.t list, string) result
(** [apply ~ctx l ~groups] distributes [l] around the listed groups of
    body-statement indices (each group keeps textual order; the groups
    must partition [0 .. n-1]). *)

val apply_with_override :
  ctx:Symbolic.t ->
  ignore_dep:(Dependence.t -> bool) ->
  Stmt.loop ->
  groups:int list list ->
  (Stmt.t list, string) result
(** [apply_with_override ~ctx ~ignore_dep l ~groups] is [apply], except
    that a dependence [ignore_dep] accepts does not constrain the
    split.  [ignore_dep] is asked only about {e backward} edges (source
    in a later group than the sink), in dependence-graph edge order, and
    no further once it refuses one; that edge is the one the error
    names.  The [distribute] decision's [ignored_deps] counts the
    backward edges it licensed. *)

val auto : ctx:Symbolic.t -> Stmt.loop -> (Stmt.t list, string) result
(** Maximal distribution: one loop per SCC in topological order. *)
