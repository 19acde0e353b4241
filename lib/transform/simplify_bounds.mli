(** Resolve MIN/MAX loop bounds that are decidable under context facts.

    Index-set splitting introduces bounds like [MAX(K+1, K+KS)]; when the
    context proves one arm dominates for *all* parameter values (here
    [KS >= 1] gives [K+KS >= K+1]), the bound is replaced by that arm.
    Only universally valid facts may be in [ctx] — the simplification is
    applied to emitted code. *)

val block : ctx:Symbolic.t -> Stmt.t list -> Stmt.t list
(** Simplify every loop bound (and subscript) in the block. *)
