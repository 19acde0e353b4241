(** Cycle-count cost model over simulated cache statistics, and the
    validation layer that confronts its predictions with what the
    set-associative simulation actually measured.

    The analytical side is Mattson's stack-distance model ({!Reuse}): a
    fully-associative LRU cache of the machine's size misses exactly the
    cold accesses plus those with stack distance >= lines.  The
    simulator has finite associativity, so the model under-counts by
    the conflict misses — {!validate} reports that gap per run, which is
    the profiler's "predicted vs simulated" table.  A divergence that
    stays small says the stack model (and anything derived from it, like
    miss-vs-size curves) can be trusted for block-size selection on that
    kernel; a large one flags conflict pathology the model cannot see. *)

val memory_cycles : Arch.t -> Cache.stats -> int
(** hits * hit_cycles + misses * miss_cycles. *)

val speedup : baseline:int -> optimized:int -> float
(** baseline / optimized as a float; 1.0 when optimized is 0. *)

type validation = {
  v_predicted : int;
  v_simulated : int;
  v_divergence : float;  (** relative miss-count divergence *)
  v_ratio_gap : float;  (** absolute miss-ratio gap (points) *)
}

val validate : Reuse.t -> Arch.t -> Cache.stats -> validation
(** Compare the stack-distance prediction against one simulated run of
    the same trace ([s] is the simulated cache's stats). *)
