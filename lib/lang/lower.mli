(** Lowering of the extended language to plain IR.

    The blocking factor stays a parameter, [KS], as in every derived
    kernel: each [BLOCK DO] steps by [KS], [IN k DO] loops iterate over
    [k .. LAST(k)], and [LAST(k)] lowers to [MIN(k + (KS - 1), hi_k)],
    the form strip mining gives.  The result is ordinary IR, valid for
    any problem size (ragged last blocks handled by the MIN), and one
    blueprint serves every block size: a run binds [KS] as it binds
    [N]. *)

val lower : Ext.stmt -> (Stmt.t, string) result
(** Errors on an [IN k DO] or [LAST(k)] outside a [BLOCK DO k]. *)
