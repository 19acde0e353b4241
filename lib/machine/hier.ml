type level_spec = {
  l_name : string;
  l_size : int;
  l_line : int;
  l_assoc : int;
  l_hit_cycles : int;
}

type spec = {
  s_levels : level_spec list;
  s_mem_cycles : int;
  s_tlb_entries : int;
  s_tlb_assoc : int;
  s_page_bytes : int;
  s_tlb_miss_cycles : int;
}

(* Scale a two-level hierarchy off the machine description: L1 is the
   machine's cache verbatim; L2 is 16x larger and 8-way (min the L1
   associativity so tiny test caches stay legal); hitting L2 costs what
   the flat model charged a miss, and memory costs 4x that.  The TLB is
   64 entries of 4 KB pages, 4-way. *)
let of_arch (m : Arch.t) =
  {
    s_levels =
      [
        {
          l_name = "L1";
          l_size = m.cache_bytes;
          l_line = m.line_bytes;
          l_assoc = m.assoc;
          l_hit_cycles = m.hit_cycles;
        };
        {
          l_name = "L2";
          l_size = 16 * m.cache_bytes;
          l_line = m.line_bytes;
          l_assoc = max 8 m.assoc;
          l_hit_cycles = m.miss_cycles;
        };
      ];
    s_mem_cycles = 4 * m.miss_cycles;
    s_tlb_entries = 64;
    s_tlb_assoc = 4;
    s_page_bytes = 4096;
    s_tlb_miss_cycles = 2 * m.miss_cycles;
  }

type level = { l_spec : level_spec; cache : Cache.t }

type t = {
  levels : level array;  (* L1 first *)
  tlb : Cache.t;
  spec : spec;
}

let create ?(classify = true) spec =
  if spec.s_levels = [] then invalid_arg "Hier.create: no levels";
  let levels =
    Array.of_list
      (List.mapi
         (fun i (l : level_spec) ->
           let make =
             (* classify L1 exactly (it also powers the reuse histograms);
                outer levels only need hit/miss/cold counts. *)
             if classify && i = 0 then Cache.create_classified else Cache.create
           in
           {
             l_spec = l;
             cache = make ~size_bytes:l.l_size ~line_bytes:l.l_line ~assoc:l.l_assoc;
           })
         spec.s_levels)
  in
  let tlb =
    Cache.create
      ~size_bytes:(spec.s_tlb_entries * spec.s_page_bytes)
      ~line_bytes:spec.s_page_bytes ~assoc:spec.s_tlb_assoc
  in
  { levels; tlb; spec }

type access_result = {
  hit_level : int;  (** 0 = L1, 1 = L2, ...; [n_levels] = memory *)
  tlb_hit : bool;
  klass : Cache.klass;  (** the L1 outcome (exact when classified) *)
}

let access t addr =
  let klass = Cache.access_classify t.levels.(0).cache addr in
  let n = Array.length t.levels in
  let rec probe i =
    if i >= n then n
    else if Cache.access t.levels.(i).cache addr then i
    else probe (i + 1)
  in
  let hit_level = if klass = Cache.Hit then 0 else probe 1 in
  let tlb_hit = Cache.access t.tlb addr in
  { hit_level; tlb_hit; klass }

let n_levels t = Array.length t.levels

let level_stats t =
  Array.to_list
    (Array.map (fun l -> (l.l_spec.l_name, Cache.stats l.cache)) t.levels)

let tlb_stats t = Cache.stats t.tlb

let reuse t = Cache.reuse t.levels.(0).cache

(* Per-level latency model: an access pays the hit cycles of every level
   it probes (the walk stops at the first hit), a full miss additionally
   pays the memory latency, and each TLB miss its refill cost.  With the
   default [of_arch] spec this stays within one L1-hit-cycle per miss of
   the flat [Cost.memory_cycles] model when the working set is
   L2-resident. *)
let cycles t =
  let per_level =
    Array.to_list t.levels
    |> List.map (fun l ->
           let s = Cache.stats l.cache in
           s.Cache.accesses * l.l_spec.l_hit_cycles)
    |> List.fold_left ( + ) 0
  in
  let last = t.levels.(Array.length t.levels - 1) in
  let mem_fetches = (Cache.stats last.cache).Cache.misses in
  let tlb_misses = (Cache.stats t.tlb).Cache.misses in
  per_level + (mem_fetches * t.spec.s_mem_cycles)
  + (tlb_misses * t.spec.s_tlb_miss_cycles)
