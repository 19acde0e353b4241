(** Assumption-based comparison of affine forms.

    Section analysis must answer questions like "is [I + IS - 1 <= N]?"
    where [IS] and [N] are symbolic.  A context carries facts of the form
    [affine >= 0]; queries are decided by expressing the query as a
    nonnegative combination of facts (searched to a small depth).  The
    answer [Unknown] is always sound: callers treat it conservatively.

    Answers depend only on the context's facts and the query, and are
    cached: per context, and — inside a {!with_session} — per fact
    list, shared by every context of the session that holds the same
    facts in the same order.  Caches are domain-local: a context
    queried from a domain other than the one that first queried it
    answers without touching that domain's cache.  They are not
    thread-local: two threads of one domain must not prove at once. *)

type t
(** A conjunction of facts [f >= 0]. *)

val empty : t

val assume_nonneg : t -> Affine.t -> t
val assume_ge : t -> Affine.t -> Affine.t -> t
(** [assume_ge t a b] adds the fact [a >= b]. *)

val assume_le : t -> Affine.t -> Affine.t -> t

val assume_pos : t -> string -> t
(** [assume_pos t v] adds the fact [v >= 1]. *)

val of_loop_context : Stmt.loop list -> t
(** Facts implied by a loop nest when every loop executes at least one
    iteration: for each loop with affine bounds, [index >= lo],
    [index <= hi] and [hi >= lo].  (Used for reasoning *inside* a body;
    emptiness of outer loops makes the body unreachable, so the facts
    hold at every execution point that matters.  Only pass loops that
    enclose every statement under analysis: a possibly-zero-trip inner
    loop's [hi >= lo] does not hold at statements outside it.) *)

val with_loops : t -> Stmt.loop list -> t
(** [with_loops ctx loops] extends [ctx] with the same facts
    {!of_loop_context} derives, for loops known to enclose the
    execution point under analysis.  Bounds are decomposed recursively:
    a MIN in an upper bound (or a MAX in a lower bound) contributes
    every affine arm, and [+]/[-]/scaling by a constant compose, so
    e.g. [hi = MIN(N, K + KS) - 3] yields both [index <= N - 3] and
    [index <= K + KS - 3]. *)

val with_loops_cases : t -> Stmt.loop list -> t list
(** Like {!with_loops}, but keeps the disjunctive structure of the
    awkward sides: a MIN in a {e lower} bound (or a MAX in an upper
    bound) means the index is >= one arm {e or} the other, so the
    context forks.  Returns a nonempty list of contexts whose
    disjunction covers every execution; a property holds iff it is
    provable in EVERY case.  Falls back to the single conjunctive
    context when the case count explodes. *)

val prove_nonneg : t -> Affine.t -> bool
(** [prove_nonneg t e] searches for [e = c + sum(lambda_i * f_i)] with
    [c >= 0], positive integer multipliers and facts [f_i] of [t]
    (depth 8, facts tried newest first).  [true] is a proof; [false] is
    "not proved". *)

val prove_ge : t -> Affine.t -> Affine.t -> bool
val prove_gt : t -> Affine.t -> Affine.t -> bool
val prove_le : t -> Affine.t -> Affine.t -> bool
val prove_lt : t -> Affine.t -> Affine.t -> bool
val prove_eq : t -> Affine.t -> Affine.t -> bool

type order = Lt | Le | Eq | Ge | Gt | Unknown

val compare_ : t -> Affine.t -> Affine.t -> order
(** Strongest provable relation between two affine forms. *)

val with_session : (unit -> 'a) -> 'a
(** [with_session f] runs [f] with a proof-sharing session open on the
    calling domain: contexts with equal fact lists share one proof
    cache, dropped when [f] returns (or raises).  Inside an open
    session, [f] joins it.  Answers are the same with or without a
    session; only the work to reach them changes. *)

type work = {
  queries : int;  (** {!prove_nonneg} calls *)
  cache_hits : int;  (** queries answered from a proof cache *)
  searches : int;  (** queries that ran the search *)
  search_steps : int;  (** residuals the searches visited *)
}

val work : unit -> work
(** The calling domain's prover work so far.  The same counts feed the
    process-wide [symbolic.*] {!Obs.Metrics} counters while metrics are
    on. *)

val work_since : work -> work
(** [work_since w0] is the calling domain's work since [w0 = work ()]. *)

val facts : t -> Affine.t list
(** The facts, newest first. *)
