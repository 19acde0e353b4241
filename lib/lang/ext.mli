(** The Section-6 language extensions: [BLOCK DO], [IN DO], [LAST].

    Householder QR shows that some block algorithms have no point-code
    counterpart a compiler could derive; the paper proposes expressing
    such algorithms in a *block form with the blocking factor left to
    the compiler*.  [BLOCK DO] declares a loop whose step (the block
    size) the compiler chooses; [IN DO] iterates over the current block
    of a named [BLOCK DO]; [LAST k] denotes the last index value of the
    current block of [k].

    Within extended statements, [LAST k] is written in ordinary
    expressions as the pseudo-reference [Expr.idx "LAST" [Expr.var k]];
    {!Lower} replaces it. *)

type stmt =
  | Exec of Stmt.t
      (** an ordinary IR statement (no extended loops inside) *)
  | Do of { index : string; lo : Expr.t; hi : Expr.t; body : stmt list }
      (** an ordinary loop whose body may contain extended statements *)
  | Block_do of { index : string; lo : Expr.t; hi : Expr.t; body : stmt list }
  | In_do of {
      block_index : string;  (** which [BLOCK DO] this iterates within *)
      index : string;
      bounds : (Expr.t * Expr.t) option;
          (** explicit bounds (may use [LAST]); [None] = the whole block *)
      body : stmt list;
    }

val last : string -> Expr.t
(** [last k] is the [LAST(k)] pseudo-expression. *)

val fig11_blocked_lu : stmt
(** Figure 11: block LU decomposition written in the extended language. *)

val compact_wy : string
(** §5.3's compact-WY Householder QR as extended-language text, one
    [BLOCK DO] for [Parser.program]; its scratch arrays are
    [K_householder.wy]'s. *)

val to_string : stmt -> string
(** Render with BLOCK DO / IN ... DO / LAST(...) syntax. *)
