(** Point Householder QR in the IR (§5.3) — the paper's *non-blockable*
    kernel.

    The block form (compact-WY, see {!Hand_kernels}) computes the
    triangular factor [T], computation and storage with no counterpart
    in this point code; the paper's point is that no dependence-based
    transformation can derive it.  This IR form exists so the compiler
    driver can *attempt* the derivation and the observability layer can
    record exactly where and why it is rejected
    ([blockc explain householder]). *)

val kernel : Kernel_def.t
