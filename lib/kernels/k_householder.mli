(** Point Householder QR in the IR (§5.3) — the paper's *non-blockable*
    kernel.

    The block form (compact WY) computes the triangular factor [T],
    computation and storage with no counterpart in this point code; the
    paper's point is that no dependence-based transformation can derive
    it.  This IR form exists so the compiler driver can *attempt* the
    derivation and the observability layer can record exactly where and
    why it is rejected ([blockc explain householder]).  The block form
    is written in the §6 language instead ([Ext.compact_wy]). *)

val kernel : Kernel_def.t

val wy : Stmt.t list -> Kernel_def.t
(** The kernel with [block], the lowered compact-WY form, for its code:
    the same [A], plus the WY's scratch — [Y] (M x N), [T] (KS x KS),
    [TAU], [W] and [Z] (N each) — with [KS] a parameter. *)

val wy_diff : Env.t -> Env.t -> string option
(** [None] when each element of a WY run's [A] is within
    [1e-12 (1 + ||A||_F)] of the point run's; else the first beyond. *)
