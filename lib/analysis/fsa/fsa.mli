(** Fractal symbolic analysis (FSA).

    Decides whether two program fragments are equivalent — in
    particular whether two statement instances {e commute} — by mapping
    both to canonical symbolic states ({!Fsa_eval}) and comparing the
    states under a fact context.  When a pair is too complex to compare
    directly, the {e fractal} step applies the same semantics-preserving
    simplification to both sides (splitting blocks, abstracting a loop
    to a generic iteration) and recurses, bounded by fuel.  Every
    verdict carries a proof tree; [Unknown] is always sound. *)

type verdict = Equivalent | Unknown of string

type proof = {
  rule : string;  (** "direct", "split-left", "generic-iteration", ... *)
  goal : string;
  verdict : verdict;
  detail : string;
  children : proof list;
}

type result = { verdict : verdict; proof : proof; cases : int }
(** [cases] counts the feasible truth assignments the direct comparison
    checked (summed over subgoals). *)

val equivalent :
  ?ignore_scalars:string list ->
  ctx:Symbolic.t ->
  Stmt.t list ->
  Stmt.t list ->
  result
(** Direct (non-recursive) equivalence of two fragments. *)

val commute :
  ?fuel:int ->
  ?ignore_scalars:string list ->
  ctx:Symbolic.t ->
  Stmt.t list ->
  Stmt.t list ->
  result
(** [commute ~ctx p q] asks whether [p; q] and [q; p] are equivalent,
    trying direct evaluation first and then the fractal rules with
    [fuel] (default 8) bounding the recursion.  Exhausted fuel yields
    [Unknown], never [Equivalent].  The verdict is recorded as an
    [Obs] decision ([transform = "fsa"]) with the rendered proof tree
    as evidence. *)

val proof_to_lines : proof -> string list
(** Indented one-line-per-node rendering of a proof tree. *)

type interval = { ilo : Affine.t option; ihi : Affine.t option }

val int_ranges : ctx:Symbolic.t -> Stmt.t list -> (string * interval) list
(** Forward interval analysis of the integer scalars a fragment
    assigns: branches and loops hull, loop bodies are iterated to a
    (cheap) fixpoint, and unknowns stay unknown.  Used to recover facts
    such as "after the pivot search, [IMAX] lies in [[K, N]]". *)

val assigned_scalars : Stmt.t list -> string list
(** Every scalar (REAL or INTEGER) assigned anywhere in the fragment. *)

val exposed_reads : Stmt.t list -> string list
(** Scalars the fragment may read before it definitely writes them
    (upward-exposed uses; conservative). *)

val stmt_covered_scalars : Stmt.t list -> string list
(** REAL scalars written in the fragment whose every read is covered by
    a write within its own top-level statement — statement-local
    temporaries (like the swap temp) that are dead across statements
    and may be ignored when comparing states. *)
