(** Statements of the loop-nest IR.

    The IR models the Fortran-77 subset the paper's kernels are written
    in: DO loops, IF/THEN/ELSE, assignments to REAL scalars and arrays,
    and the INTEGER scalars/arrays that IF-inspection introduces
    (counters, range tables, flags).  Control flow is structured — the
    paper's [IF (...) GOTO 20] guards are modelled as block IFs.

    Float-valued expressions ({!fexpr}) are kept separate from the
    integer expressions ({!Expr.t}) used for bounds and subscripts; the
    transformations never need to reason about float arithmetic beyond
    moving it around intact. *)

type rel = Eq | Ne | Lt | Le | Gt | Ge

type fbinop = FAdd | FSub | FMul | FDiv

(** Float-valued (REAL) expressions. *)
type fexpr =
  | Fconst of float
  | Fvar of string  (** REAL scalar *)
  | Ref of string * Expr.t list  (** REAL array element *)
  | Fbin of fbinop * fexpr * fexpr
  | Fneg of fexpr
  | Fcall of string * fexpr list  (** intrinsic: ["SQRT"], ["ABS"] *)
  | Of_int of Expr.t  (** integer expression used as a REAL value *)

type cond =
  | Fcmp of rel * fexpr * fexpr
  | Icmp of rel * Expr.t * Expr.t
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

type t =
  | Assign of string * Expr.t list * fexpr
      (** [Assign (a, subs, rhs)]: REAL store [a(subs) = rhs]; empty
          [subs] means a REAL scalar. *)
  | Iassign of string * Expr.t list * Expr.t
      (** INTEGER store, same convention. *)
  | If of cond * t list * t list
  | Loop of loop

and loop = {
  index : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t;
  body : t list;
}

val loop : ?step:Expr.t -> string -> Expr.t -> Expr.t -> t list -> t
(** [loop i lo hi body] builds a DO loop with step 1 by default. *)

val equal : t -> t -> bool
val equal_block : t list -> t list -> bool
val equal_fexpr : fexpr -> fexpr -> bool

(** {2 Paths}

    A path addresses a statement inside a block: [I n] selects the [n]-th
    statement of the current block; when the selected statement is a
    {!Loop} the following components address its body, and when it is an
    {!If} the next component must be [Then_] or [Else_]. *)

type hop = I of int | Then_ | Else_
type path = hop list

val get_at : t list -> path -> t
(** Raises [Invalid_argument] on a bad path. *)

val replace_at : t list -> path -> t list -> t list
(** [replace_at block path stmts] splices [stmts] in place of the
    statement at [path]. *)

val find_loops : t list -> (path * loop) list
(** All loops in preorder, with their paths. *)

(** {2 Substitution and traversal} *)

val subst : (string * Expr.t) list -> t -> t
(** Substitute integer variables everywhere (bounds, subscripts,
    conditions).  Loop indices shadow: a binding for a loop's own index
    is not applied inside that loop. *)

val subst_block : (string * Expr.t) list -> t list -> t list

val rename_fvar : string -> string -> t -> t
(** [rename_fvar old fresh s] renames a REAL scalar variable. *)

val map_expr : (Expr.t -> Expr.t) -> t -> t
(** Apply a rewriting to every integer expression in the statement
    (bounds, subscripts, integer assignments, conditions). *)

val fexprs_of : t -> fexpr list
(** The float expressions directly contained in one statement (not
    recursing into nested statements). *)

val iter : (t -> unit) -> t list -> unit
(** Preorder traversal of all statements. *)

val to_string : t -> string
val block_to_string : t list -> string
