(** Canonical affine forms [c0 + c1*v1 + ... + cn*vn] over named variables.

    Dependence testing and section analysis reason about subscripts and
    bounds in this normal form.  Conversion from {!Expr.t} fails (returns
    [None]) on [MIN]/[MAX]/[Idx]/non-constant products, which is exactly
    the set of expressions the paper's tests treat as "too complex". *)

type t

val const : int -> t
val var : string -> t
val zero : t

val of_expr : Expr.t -> t option
(** Affine interpretation of an expression, if it has one.  Division is
    accepted only when it divides all coefficients exactly. *)

val to_expr : t -> Expr.t
(** Lower back to an expression (deterministic variable order). *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t

val coeff : t -> string -> int
(** Coefficient of a variable (0 if absent). *)

val constant : t -> int
(** The constant term. *)

val vars : t -> string list
(** Variables with nonzero coefficient, sorted. *)

val is_const : t -> int option
(** [Some c] when the form has no variables. *)

val equal : t -> t -> bool

val hash : t -> int
(** A hash consistent with {!equal} (nonnegative), for structural
    tables keyed by affine forms. *)

val subst : string -> t -> t -> t
(** [subst v by t] replaces variable [v] with the affine form [by]. *)

val eval : (string -> int) -> t -> int

val split_on : string -> t -> int * t
(** [split_on v t] is [(coeff t v, t without v)]. *)

val to_string : t -> string
