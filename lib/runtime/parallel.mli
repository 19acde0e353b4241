(** Work-sharing parallel loops on top of {!Pool}.

    The iteration range is decomposed into a chunk list computed
    {e deterministically} from the range, the pool size and the policy —
    never from runtime timing — and lanes then claim chunks
    self-scheduled through an atomic cursor.  Because the decomposition
    is fixed and chunks must be independent, results are bitwise
    reproducible run-to-run no matter which lane executes which chunk.

    Chunking policies:

    - [Static]: one contiguous chunk per lane.  Right for rectangular
      iteration spaces where every index costs the same.
    - [Guided]: decreasing chunk sizes, largest first — chunk [i] covers
      roughly [remaining / (2 * lanes)] indices, never fewer than
      [min_chunk].  Right for the triangular spaces that dominate this
      paper (the LU trailing update shrinks as [K] advances): when a
      parallel region is short, equal static chunks make every lane wait
      for the unluckiest one, while guided chunks let fast lanes pick up
      the small tail pieces. *)

type chunking =
  | Static
  | Guided of { min_chunk : int }

val chunks :
  lanes:int -> chunking:chunking -> lo:int -> hi:int -> (int * int) array
(** The deterministic chunk decomposition of [[lo, hi]] (inclusive):
    contiguous, disjoint, covering, in increasing order.  Exposed for
    tests. *)

val for_ :
  ?pool:Pool.t -> ?chunking:chunking ->
  lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [for_ ~lo ~hi f] calls [f clo chi] over chunks of [[lo, hi]], in
    parallel on [pool] (default: {!Pool.default}).  [f] must treat its
    chunks as independent: no chunk may read state another chunk
    writes.  Empty ranges ([hi < lo]) are a no-op; a 1-lane pool or a
    single-chunk decomposition runs [f lo hi] on the calling domain.

    When tracing is on, the caller's {!Obs.Ctx} is re-installed in
    every lane and each chunk runs inside a [par.chunk] child span —
    the fan-out of one request stays one coherent trace across worker
    domains. *)
