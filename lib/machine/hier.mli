(** Multi-level memory hierarchy: a stack of LRU caches (L1, L2, ...)
    plus a TLB, probed per simulated access.

    The flat single-cache model in {!Arch}/{!Cache} is what the paper's
    tables need; the profiler wants to know *where* in the hierarchy
    each reference's misses land, so this module composes {!Cache}
    instances into an inclusive probe chain (an access walks L1, L2, ...
    until it hits; every probed level updates its own LRU state) and a
    page-granularity TLB probed on every access.

    The L1 is classified ({!Cache.create_classified}) by default, which
    both splits its misses into cold/capacity/conflict and feeds the
    {!Reuse} engine the profiler derives miss-vs-size curves from. *)

type level_spec = {
  l_name : string;
  l_size : int;
  l_line : int;
  l_assoc : int;
  l_hit_cycles : int;
}

type spec = {
  s_levels : level_spec list;  (** innermost (L1) first; non-empty *)
  s_mem_cycles : int;  (** latency when every level misses *)
  s_tlb_entries : int;
  s_tlb_assoc : int;
  s_page_bytes : int;
  s_tlb_miss_cycles : int;
}

val of_arch : Arch.t -> spec
(** A two-level hierarchy scaled off the machine description: L1 is the
    machine's cache verbatim, L2 is 16x larger (8-way), memory costs 4x
    the machine's miss latency, and the TLB is 64 entries of 4 KB
    pages.  The L2-resident cost degenerates to the flat
    {!Cost.memory_cycles} model. *)

type t

val create : ?classify:bool -> spec -> t
(** [classify] (default true) turns on exact L1 miss classification and
    reuse-distance recording. *)

type access_result = {
  hit_level : int;  (** 0 = L1 hit, 1 = L2 hit, ...; [n_levels t] = memory *)
  tlb_hit : bool;
  klass : Cache.klass;  (** the L1 outcome *)
}

val access : t -> int -> access_result
(** Probe the hierarchy with a byte address. *)

val n_levels : t -> int

val level_stats : t -> (string * Cache.stats) list
(** Per-level stats, innermost first.  Level [i+1]'s accesses equal
    level [i]'s misses (the probe chain). *)

val tlb_stats : t -> Cache.stats

val reuse : t -> Reuse.t option
(** The L1's reuse-distance engine (in L1-line granularity); [None]
    when created with [~classify:false]. *)

val cycles : t -> int
(** Memory cycles under the per-level latency model: each access pays
    the hit cycles of every level it probes, plus memory latency per
    full miss and the refill cost per TLB miss. *)
