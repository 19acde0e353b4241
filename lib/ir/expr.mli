(** Integer expressions: loop bounds, subscripts, integer scalar code.

    These are the expressions the paper's transformations manipulate —
    loop bounds like [MIN(J + JS - 1, N)], subscripts like [I + IS - 1].
    Variables name loop indices, symbolic problem sizes ([N]), symbolic
    block sizes ([KS]), or integer scalars introduced by transformations
    (IF-inspection counters).  [Idx] reads an element of an integer array
    (needed for inspector-generated bounds such as [KLB(KN)]). *)

type binop = Add | Sub | Mul | Div
(** [Div] is Fortran integer division truncating toward zero; the
    transformations only introduce it in contexts where the operands are
    nonnegative, where it coincides with floor division. *)

type t =
  | Int of int
  | Var of string
  | Bin of binop * t * t
  | Min of t * t
  | Max of t * t
  | Idx of string * t list  (** integer array element, e.g. [KLB(KN)] *)

val equal : t -> t -> bool

(* Smart constructors performing light constant folding. *)

val int : int -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val div : t -> t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t
val idx : string -> t list -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val succ : t -> t
val pred : t -> t

val free_vars : t -> string list
(** Variable names occurring in the expression (no duplicates, sorted);
    includes integer array names used in [Idx]. *)

val subst : (string * t) list -> t -> t
(** Capture-free substitution of variables (not of [Idx] array names). *)

val mentions : string -> t -> bool
(** [mentions v e] is true if variable [v] occurs in [e]. *)

val simplify : t -> t
(** Bottom-up constant folding and identity elimination; also normalizes
    [Min]/[Max] with equal arguments. *)

val eval : (string -> int) -> (string -> int list -> int) -> t -> int
(** [eval lookup lookup_arr e] evaluates a closed expression.
    Division by zero raises [Division_by_zero]. *)

val to_string : t -> string
(** Fortran-like rendering, e.g. ["MIN(J + JS - 1, N)"]. *)
