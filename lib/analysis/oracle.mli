(** Brute-force dependence ground truth on concrete bounds.

    Enumerates every iteration of a straight-line loop nest (no IFs, no
    integer-array bounds), recording each access's address and time
    stamp, and reports which static access pairs really have a
    dependence.  Used by the test suite to validate that the symbolic
    analysis is conservative: every real dependence must be reported by
    {!Dependence.all}, and [Dependence] claiming independence must imply
    absence here. *)

exception Unsupported of string

type real_dep = {
  src_occ : int;  (** index into [Ir_util.accesses block] *)
  snk_occ : int;
  has_write : bool;
}

val agrees :
  bindings:(string * int) list ->
  ctx:Symbolic.t ->
  Stmt.t list ->
  (string, string) result
(** Check conservativeness of the symbolic analysis against the ground
    truth on this block; [Error msg] describes the first real dependence
    the analysis missed. *)
