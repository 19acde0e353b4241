(** IF-inspection (Section 4).

    Given a loop whose body is a guarded inner computation,

    {v
    DO K = lo, hi
      IF (guard(K)) THEN  <computation>  END IF
    v}

    generate an inspector that records the maximal ranges of [K] on
    which the guard holds into range tables [KLB]/[KUB], and an executor
    that runs the computation over exactly those ranges:

    {v
    KC = 0 ; FLAG = 0
    DO K = lo, hi
      IF (guard) THEN  IF (FLAG = 0) { KC += 1; KLB(KC) = K; FLAG = 1 }
      ELSE             IF (FLAG = 1) { KUB(KC) = K - 1; FLAG = 0 }
    END DO
    IF (FLAG = 1) { KUB(KC) = hi; FLAG = 0 }
    DO KN = 1, KC
      DO K = KLB(KN), KUB(KN)
        <computation>
    v}

    The computation, now unguarded, is eligible for unroll-and-jam.

    Safety requires that executing the guard for all [K] up front sees
    the same values as the original interleaving: the computation must
    not write anything the guard reads, and the guard must not depend on
    the computation's inner loop indices. *)

type names = {
  counter : string;  (** e.g. [KC] *)
  lb : string;  (** range lower-bound table *)
  ub : string;  (** range upper-bound table *)
  flag : string;
  range_index : string;  (** e.g. [KN] *)
}

val default_names : prefix:string -> used:string list -> names

val names_in : Stmt.t list -> prefix:string -> names
(** {!default_names} clear of every loop index, array, scalar and
    symbolic parameter of the block. *)

val apply : names:names -> Stmt.loop -> (Stmt.t list, string) result
(** The loop's body must be a single [IF] with an empty else-branch.
    The returned block is inspector followed by executor; the caller
    must declare [lb]/[ub] as INTEGER arrays at least as long as the
    maximal number of ranges ((hi-lo)/2 + 1). *)

val split_guarded :
  ctx:Symbolic.t ->
  names:names ->
  setup_len:int ->
  Stmt.loop ->
  (Stmt.t list * Stmt.loop, string) result
(** The fused form used for Givens QR (Figure 10), where the guard reads
    data the guarded body modifies, so the guard cannot be re-evaluated
    by a separate inspector.  The loop body must be [IF (guard) stmts];
    the first [setup_len] statements of [stmts] stay under the guard
    (with range recording fused in) and the remainder (the "apply" part)
    moves to an executor loop over the recorded ranges, which is
    returned separately so the caller can interchange it.  Every
    recorded range lies inside the loop's own [lo..hi]: the inspector
    records only values the loop index takes.

    Safety (checked): moving apply(i) after setup(k) for k > i requires
    every cross pair of accesses between the apply part and the
    guard/setup part with a write to be either provably disjoint
    (sections over the loop's execution under [ctx]) or an identical
    array subscript that varies injectively with the loop index (a
    same-iteration value channel like [C(J)]). *)
