(** Exact LRU reuse-distance (stack-distance) analysis.

    Mattson's classic result: under LRU, an access with stack distance
    [d] (the number of *distinct* lines touched since the previous
    access to the same line) hits in every fully-associative cache with
    more than [d] lines and misses in every smaller one.  Recording the
    exact distance histogram of one trace therefore yields the miss
    ratio of *every* cache size in a single simulation pass — the
    profiler uses this to draw miss-vs-cache-size curves and to
    validate the cost model's predictions against set-associative
    simulation (divergence = conflict misses the stack model cannot
    see).

    Implementation: a Fenwick tree over access timestamps holding one
    mark per distinct line (its last access time); the distance is the
    number of marks past the line's previous timestamp, O(log n) per
    access. *)

type t

val create : unit -> t

val access : t -> int -> int
(** [access t line] records a touch of [line] (any integer id — the
    callers pass cache-line numbers) and returns its stack distance, or
    [-1] for a cold (first-ever) access. *)

val cold : t -> int
(** Number of cold accesses so far. *)

val accesses : t -> int
(** Total accesses so far. *)

val distinct_lines : t -> int
(** Number of distinct lines seen — the trace's total footprint. *)

val histogram : t -> (int * int) list
(** Exact [(distance, count)] pairs, ascending by distance.  Cold
    accesses are not in the histogram; see {!cold}. *)

val max_distance : t -> int
(** Largest distance recorded, [-1] when none. *)

val misses_for_lines : t -> int -> int
(** [misses_for_lines t lines]: misses this trace would take in a
    fully-associative LRU cache of [lines] lines (cold + distances
    >= [lines]). *)

val miss_curve : t -> max_lines:int -> (int * int) list
(** [(lines, misses)] at power-of-two cache sizes [1, 2, 4, ...,
    <= max_lines] — the whole miss-vs-size curve from one pass. *)

val reset : t -> unit
