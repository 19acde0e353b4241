(** Statement-level dependence graph of a loop body.

    Nodes are the immediate statements of the loop's body.  An edge
    [a -> b] exists when some dependence runs from an access in
    statement [a] to an access in statement [b] and is either
    loop-independent or carried by the loop itself.  Strongly connected
    components of this graph are the minimal distribution blocks: loop
    distribution may split the body only between components, in
    topological order (Allen–Kennedy). *)

type edge = { from_stmt : int; to_stmt : int; dep : Dependence.t }

type t = {
  loop : Stmt.loop;
  n : int;  (** number of body statements *)
  edges : edge list;
  sccs : int list list;  (** topological order, each sorted *)
}

val build : ctx:Symbolic.t -> Stmt.loop -> t

val preventing_edges : t -> int -> int -> Dependence.t list
(** [preventing_edges g a b] — when [a] and [b] sit in one SCC, the
    dependences on edges inside that SCC (the recurrence a transformation
    like distribution must break, and the input to IndexSetSplit). *)

val distribution_order : t -> int list list option
(** Partition of body-statement indices into distribution blocks in a
    legal execution order, or [None] when the body is a single SCC
    (distribution impossible). *)
