(** Symbolic value terms for fractal symbolic analysis (FSA).

    A term denotes the REAL value a program fragment computes, expressed
    over the {e initial} store: [Init (a, subs)] is the value array [a]
    held at [subs] before the fragment ran, [Sinit x] the initial value
    of scalar [x].  Subscripts are canonical {!Affine} forms over the
    fragment's free integer symbols, so two terms describe the same
    computation iff they are structurally equal with provably-equal
    affine leaves.

    Reads that cannot be resolved exactly produce conditional terms:
    [Ite (atoms, t1, t2)] is [t1] when the conjunction of integer
    {!atom}s holds and [t2] otherwise.  The equivalence checker collects
    every atom, case-splits on the undecided ones, and compares the
    resolved (Ite-free) terms per case. *)

type atom =
  | Ale of Affine.t * Affine.t  (** [Ale (a, b)] is [a <= b]. *)
  | Aeq of Affine.t * Affine.t  (** [Aeq (a, b)] is [a = b]. *)

val atom_key : atom -> string
(** Canonical key: two atoms with the same key denote the same
    condition (differences are sign-normalized). *)

val atom_to_string : atom -> string

type t =
  | Init of string * Affine.t list  (** initial array element *)
  | Sinit of string  (** initial REAL scalar *)
  | Const of float
  | Neg of t
  | Bin of Stmt.fbinop * t * t
  | Call of string * t list  (** intrinsic, e.g. [ABS] *)
  | Of_int of Affine.t
  | Ite of atom list * t * t
      (** [t1] when every atom holds, else [t2] *)

val subst : (string * Affine.t) list -> t -> t
(** Substitute integer symbols in every affine leaf (subscripts,
    [Of_int], atom sides). *)

val atoms : t -> atom list
(** Every atom occurring in the term, deduplicated by {!atom_key}. *)

val size : t -> int

val resolve : (string -> bool) -> t -> t
(** [resolve truth t] eliminates every [Ite] given a truth assignment
    for atoms by {!atom_key}; raises [Not_found] when the assignment
    does not cover an atom. *)

val equal_under : Symbolic.t -> t -> t -> bool
(** Structural equality with affine leaves compared by
    [Symbolic.prove_eq] under the context, and float constants compared
    bitwise.  Sound for bitwise result equality: no reassociation or
    other float algebra is applied. *)
