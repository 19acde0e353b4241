(** Fortran-style program rendering for listings and golden tests.

    Statement-level rendering lives in {!Stmt.to_string}; this module
    adds subroutine framing with declarations inferred from the body,
    producing listings comparable to the paper's figures. *)

val subroutine : name:string -> params:string list -> Stmt.t list -> string
(** A full SUBROUTINE with REAL*8 / INTEGER declarations inferred from
    the body's accesses (arrays declared with assumed shape). *)
