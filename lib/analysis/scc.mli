(** Tarjan's strongly connected components over small integer graphs.

    Used to find recurrences: statements in a cycle of the dependence
    graph must stay together under loop distribution. *)

val compute : n:int -> succ:(int -> int list) -> int list list
(** [compute ~n ~succ] returns the SCCs of the graph on nodes
    [0 .. n-1] in topological order of the condensation (sources
    first: every edge of the condensed graph goes from an earlier
    component to a later one).  Components are sorted internally. *)
