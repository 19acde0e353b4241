(** The blocking pipeline: one composition of the primitive
    transformations that derives every block algorithm of the paper
    from its point algorithm.

    Every step is mechanical: it locates loops structurally, asks the
    dependence/section analyses for legality, and applies the primitive
    transformations.  Planning heuristics may assume full blocks
    ([K + KS <= N]) — the emitted code never depends on that assumption
    (bounds carry MIN/MAX guards), and distribution legality is
    re-checked under universally valid facts only. *)

type trace_step = Givens_opt.trace_step = {
  name : string;
  detail : string;
  after : Stmt.t list;
}

type 'a traced = 'a Givens_opt.traced = { result : 'a; steps : trace_step list }

val strip_mine_and_interchange :
  block_size:Expr.t ->
  new_index:string ->
  levels:int ->
  Stmt.loop ->
  (Stmt.loop, string) result
(** §2.3: strip-mine the outer loop of a perfect nest and sink the strip
    loop inward [levels] positions (rectangular or triangular
    interchange chosen per level). *)

val auto :
  register:bool ->
  facts:(string * Affine.t) list ->
  Stmt.t list ->
  (Stmt.t traced, string) result
(** Derive the block algorithm of a kernel, one loop nest.  [facts]
    are lower bounds [(p, lo)], meaning [p >= lo] with [lo] affine in
    the other parameters, that the kernel's parameters satisfy; every step proves under them, so the result is
    correct for the sizes they allow.  Each step runs on the previous
    step's output, applies where its own legality check accepts it,
    and records one [pipeline.<step>] [Obs] decision, applied or
    skipped with its reason:

    + {b cache blocking} (§5.1, §5.2), where the top loop's body is a
      recurrence: strip-mine by [KS], IndexSetSplit on a preventing
      dependence, distribution, and interchange of the strip loop into
      the update nest.  Distribution may ignore a dependence the split
      would reverse where {!Commutativity.may_ignore} proves the two
      statements commute; it asks about no other dependence.  A
      recurrence this step cannot block is the pipeline's answer
      ([Error]).
    + {b IF-inspection} (§4) of each loop guarded by one IF
      ({!If_inspection.apply}); where that refuses, the fused form
      ({!Givens_opt.optimize}, §5.4) on the sweep around the loop.
    + {b register blocking}, when [register] asks for it: unroll-and-jam
      by 4 of each MIN/MAX-free region of the update nest step 1 made,
      then scalar replacement in every innermost loop (Tables 3–4's
      "2+" and "1+"); or, where step 1 did not apply, of the kernel's
      own nest (§3.2).

    [Error] when no step applies, naming each step's reason. *)

val choose_block_size : machine:Arch.t -> ?sweep:(int * int) list -> unit -> int
(** The machine-dependent block-size choice the drivers delegate to.
    Without [sweep] this is {!Arch.block_size}'s footprint heuristic.
    With [sweep] — [(block, simulated L1 misses)] pairs from a
    [blockc profile --sweep] run — the measured minimum wins (ties to
    the larger block).  Either way the choice and its evidence are
    recorded as an [Obs] decision, so [blockc explain]-style tooling can
    cite why a block size was picked. *)
