(** Set-associative LRU cache simulator.

    The paper's measurements were taken on an IBM RS/6000 model 540; we
    cannot rerun those, so the repository substitutes this simulator (fed
    by the IR interpreter's memory trace) to reproduce the *memory
    behaviour* each transformation is supposed to change: miss counts
    before and after blocking.  Write misses allocate (the RS/6000 data
    cache was write-allocate); replacement is true LRU per set.

    Misses are classified: cold (compulsory — first touch of the line
    ever), capacity (a fully-associative LRU cache of the same total
    size would also miss: stack distance >= number of lines) and
    conflict (only the set mapping made it miss).  The exact
    capacity/conflict split needs a reuse-distance engine running
    alongside the cache, which costs O(log n) per access, so it is
    opt-in via {!create_classified}; plain {!create} caches still count
    cold misses and evictions exactly but lump every non-cold miss into
    [capacity_misses]. *)

type t

type klass = Hit | Cold | Capacity | Conflict

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;  (** valid lines displaced by a fill *)
  cold_misses : int;  (** compulsory: first-ever touch of the line *)
  capacity_misses : int;
      (** would miss even fully-associative; on an unclassified cache
          this is every non-cold miss (capacity OR conflict) *)
  conflict_misses : int;
      (** set-mapping induced; always 0 on unclassified caches *)
}
(** Invariant: [misses = cold_misses + capacity_misses + conflict_misses]
    and [accesses = hits + misses]. *)

val create : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** [size_bytes] and [line_bytes] must be powers of two, and
    [size_bytes mod (line_bytes * assoc) = 0]. *)

val create_classified : size_bytes:int -> line_bytes:int -> assoc:int -> t
(** Like {!create}, plus an internal {!Reuse} engine so every miss is
    exactly classified and reuse-distance histograms are available via
    {!reuse}. *)

val access : t -> int -> bool
(** [access t addr] touches the byte address; returns [true] on hit.
    Updates LRU state. *)

val access_classify : t -> int -> klass
(** Like {!access} but reports what kind of access it was. *)

val access_bytes : t -> int -> bytes:int -> bool
(** [access_bytes t addr ~bytes] touches every line overlapped by the
    byte range [addr, addr+bytes) — one counted access per line, so a
    straddling access costs two.  [true] iff all lines hit. *)

val reuse : t -> Reuse.t option
(** The classification engine ([Some] only for {!create_classified}
    caches).  Its histogram is over this cache's line granularity. *)

val stats : t -> stats
val reset : t -> unit

val miss_ratio : stats -> float
(** misses / accesses, 0 when there were no accesses. *)
