(** A lazily-started pool of worker domains for data-parallel kernels.

    A pool of size [d] executes parallel regions on [d] lanes: the
    calling domain plus [d - 1] worker domains.  Workers are spawned on
    the first {!run} (creation is free) and are reused across calls —
    spawning a domain costs ~10-100us, far too much to pay per trailing
    update, so the workers park on a condition variable between regions.

    {b Nested regions.}  A {!run} called from inside a region of the
    same pool (by one of its lanes) is {e nested}: the calling lane runs
    the thunk at once, and every other lane of the pool that is parked
    in {!await} joins it and runs it too.  Lanes that are busy elsewhere
    do not join, so a nested region with no idle lane runs serially on
    the calling lane.  This is how a long-lived region whose lanes wait
    for outside input (the serve daemon's request lanes) shares one
    lane's [Parallel.for_] with the lanes that have nothing to do.

    A {!run} from outside the pool while another thread's region is
    running executes the thunk serially on the calling lane. *)

type t

val create : ?name:string -> domains:int -> unit -> t
(** [create ~domains ()] makes a pool of [max 1 domains] lanes.  No domain
    is spawned until the first {!run}.  [?name] (default ["pool"])
    labels the pool's metrics — [pool.lane_busy_ns{pool="<name>",...}]. *)

val size : t -> int
(** Number of lanes (including the caller's). *)

val name : t -> string

val lane_busy_ns : t -> int array
(** Cumulative busy nanoseconds per lane (index 0 = the calling
    domain's lane), accumulated only while metrics are enabled.  Also
    published after every region as the
    [pool.lane_busy_ns{pool,lane}] gauges, from which scrapers derive
    utilization by delta. *)

val default : unit -> t
(** The shared process-wide pool.  Its size is
    [BLOCKABILITY_DOMAINS] if that environment variable is set to a
    positive integer, otherwise [Domain.recommended_domain_count ()].
    Created on first use and reused for the life of the process. *)

val run : t -> (unit -> unit) -> unit
(** [run t f] executes [f ()] once on every lane concurrently and
    returns when all lanes have finished.  [f] is expected to
    self-schedule its share of the work (see {!Parallel.for_}).  If any
    lane raises, one of the exceptions is re-raised in the caller after
    all lanes have finished.  Nested inside a region of [t], [f] runs
    on the calling lane and on the lanes parked in {!await} instead. *)

val await : t -> (unit -> 'a option) -> 'a
(** [await t poll] parks the calling lane until [poll ()] returns
    [Some x], and returns [x].  While parked, the lane joins every
    nested {!run} another lane of [t] opens, once each.  [poll] runs
    with the pool's lock held, and the state it reads is changed only
    through {!wake}, under the same lock.  [poll] must be short and
    must not call back into [t].
    @raise Invalid_argument unless the caller is a lane running a
    region of [t] (or [t] has one lane). *)

val wake : t -> (unit -> bool) -> unit
(** [wake t f] runs [f] with the pool's lock held; if it returns [true],
    every lane parked in {!await} runs its [poll] again. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  The pool remains usable: the
    next {!run} re-spawns them.  Registered with [at_exit] for every
    pool that ever started workers, so programs terminate cleanly. *)
