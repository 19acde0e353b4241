(** In-process timing: the one clock read, an interleaved sampler and
    the order statistics of its samples.  The benchmark harness,
    [Blockability.native_compare] and [blockc compile --run] time
    through it. *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds since boot: only differences mean
    anything.  Never stepped, shared by all domains, allocates nothing;
    [Obs.now_ns] is this function. *)

type summary = { n : int; median_ns : float; q1_ns : float; q3_ns : float }
(** [n] samples: their {!median} and {!quartiles} (both the median when
    [n = 1]). *)

type arm = unit -> unit -> (unit, string) result
(** A set-up, run outside the clock, that returns the call to time. *)

val samples : int
(** Timed samples per arm: 11. *)

val run : arm list -> (summary list, string) result
(** One untimed warm-up call per arm, then {!samples} rounds.  Each
    round runs every arm once (its set-up, then the timed call), arm
    [r mod k] first in round [r] of [k] arms; each sample is kept as
    integer nanoseconds.  Summaries come in arm order; one arm alone is
    timed as one block.  The first [Error] from a call, or an exception
    from a set-up, ends the measurement as an [Error]. *)

val once : arm -> (summary, string) result
(** One timed call, no warm-up: for what happens once per process. *)

val median : float list -> float
(** Hyndman–Fan type 7 (linear between closest ranks). *)

val quartiles : float list -> float * float * float
(** Python's [statistics.quantiles(xs, n=4)] ("exclusive"); two values
    at least. *)

val summarize : int list -> summary

(** The median in seconds, the spread [(q3 - q1) / median], and the
    ratio of two medians. *)
val seconds : summary -> float
val spread : summary -> float
val ratio : summary -> summary -> float

val to_string : summary -> string
(** The median and the spread, e.g. ["10.82ms ±4%"]; one sample prints
    its time alone. *)

val to_json : summary -> Json_min.t
(** [{"n": ..., "median_ns": ..., "q1_ns": ..., "q3_ns": ...}] *)

val of_json : Json_min.t -> summary option
