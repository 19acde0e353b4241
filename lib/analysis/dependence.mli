(** Data-dependence analysis over the loop-nest IR.

    Implements the classical subscript tests (ZIV, strong SIV, GCD) with
    symbolic constants, producing hybrid distance/direction vectors over
    the loops common to the two accesses, plus a section-based
    independence test: if the sections touched by the two references over
    the whole execution of their common nest are provably disjoint, no
    dependence exists — this is the refinement that makes index-set
    splitting pay off, per the paper.

    The tests are conservative: [dependences] may report a dependence
    that does not exist (with direction [*]), but when it reports none,
    none exists (validated against {!Oracle} in the test suite). *)

type kind = Flow | Anti | Output | Input

(** Possible source-to-sink iteration differences on one common loop. *)
type delem = {
  lt : bool;  (** sink at a later iteration *)
  eq : bool;  (** same iteration *)
  gt : bool;  (** would be negative: only as input to vector pruning *)
  dist : int option;  (** exact distance when known *)
}

type t = {
  kind : kind;
  source : Ir_util.access;
  sink : Ir_util.access;
  vector : delem list;  (** per common loop, outermost first *)
  carrier : int option;
      (** index (0-based, outermost first) of the carrying loop among the
          common loops; [None] = loop-independent *)
}

val between :
  ctx:Symbolic.t -> Ir_util.access -> Ir_util.access -> t list
(** All dependences with [source] executing before [sink] — both those
    carried by a common loop (leftmost non-[=] direction is [<]) and the
    loop-independent one when the first access textually precedes the
    second.  The pair must reference the same array with at least one
    write (reads-only pairs yield [Input] dependences and are produced
    too; filter by kind if unwanted). *)

val all :
  ?include_input:bool -> ctx:Symbolic.t -> Stmt.t list -> t list
(** Dependences between all access pairs of the block, in one
    {!Symbolic.with_session}. *)

val to_string : t -> string
