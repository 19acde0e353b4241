(** Observability: structured events, spans, trace contexts, decision
    tracing, a flight recorder and runtime metrics for the whole stack.

    Depends only on the stdlib, [unix], {!Measure}'s clock (see
    {!now_ns}) and {!Json_min}; the
    runtime library sits below every other subsystem and links this.
    The disabled state is the default and near-free: [enabled ()] is a
    single bool-ref read, so hot paths guard with
    [if Obs.enabled () then ...] and allocate nothing when no sink is
    installed.  Sinks are pluggable: null (default), a human-readable
    text log, JSON-lines, the Chrome [trace_event] format (load the
    file in [chrome://tracing] / Perfetto), an in-memory collector
    (used by [blockc explain] and the tests), the {!Recorder} ring, and
    a [tee] combinator.

    Events carry a boot-relative monotonic nanosecond timestamp
    ({!now_ns}), a category, the
    emitting domain ([track]), the span-nesting depth {e of that
    domain} (depth is domain-local state — concurrent domains cannot
    corrupt each other's nesting), the active {!Ctx} trace/span ids,
    and a list of key/value arguments.  Decision events
    ([cat = "decision"]) are the transformation engine's evidence log:
    every strip-mine / interchange / distribution / index-set-split /
    IF-inspection / unroll-and-jam / commutativity step records whether
    it was applied or rejected and why. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Begin | End | Instant

type event = {
  name : string;
  cat : string;
  kind : kind;
  ts : int;  (** {!now_ns} at emission: nanoseconds since boot *)
  depth : int;  (** span nesting depth of the emitting domain *)
  track : int;  (** emitting domain id *)
  trace : int;  (** trace id of the active {!Ctx}; [0] = no trace *)
  span_id : int;  (** span id of the active {!Ctx}; [0] = none *)
  parent : int;  (** parent span id; [0] = trace root *)
  args : (string * value) list;
}

(** Trace context: the request-scoped identity that stitches spans
    emitted on different domains into one trace.  A context is
    domain-local and propagated {e explicitly} across hops: the serve
    lane that takes a request line installs a {!fresh} root for it, and
    {!Parallel.for_} re-installs the caller's context in every lane
    that runs a chunk (each chunk span then forks a child id).  [Obs.span]
    under an active context forks a child span id automatically, so
    Begin/End events carry their own identity plus their parent's. *)
module Ctx : sig
  type t = { trace_id : int; span_id : int; parent : int }

  val current : unit -> t option
  (** The calling domain's active context, if any. *)

  val fresh : unit -> t
  (** A new root context (trace id = span id, no parent).  Ids are
      process-unique. *)

  val with_ctx : t option -> (unit -> 'a) -> 'a
  (** [with_ctx c f] runs [f] with [c] installed as the calling
      domain's context, restoring the previous one afterwards (also on
      exception). *)

  val id_hex : int -> string
  (** Render an id the way the sinks and serve responses do. *)
end

type sink

val null : sink
(** Drops everything.  The default; [enabled] is [false] under it. *)

val json_of_event : event -> Json_min.t
(** The one JSON form of an event, written by the [json] sink and
    embedded by serve's [dump] op: [name], [cat], [kind] (["begin"],
    ["end"] or ["instant"]), [ts] as a decimal string (boot-relative
    nanoseconds pass 2{^53}, where a {!Json_min} number stops being
    exact, after 104 days of uptime), [depth], [track], under a trace
    the [trace]/[span]/[parent] hex ids, and [args] as an object. *)

val jsonl : out_channel -> sink
(** One {!json_of_event} object per line. *)

val chrome : out_channel -> sink
(** Chrome [trace_event] format: buffers events, writes the complete
    [{"traceEvents": [...]}] document on [flush].  Each domain is its
    own [tid] track; trace/span ids ride in the event args. *)

val memory : unit -> sink * (unit -> event list)
(** An in-memory collector and the function that reads back the events
    collected so far, in emission order. *)

val tee : sink -> sink -> sink

val set_sink : sink -> unit
(** Install a sink (flushes nothing; [flush] does).  Installing [null]
    disables tracing. *)

val current_sink : unit -> sink

val sink_of_name : string -> out_channel -> (sink, string) result
(** ["text" | "json" | "chrome"] — the CLI / env-var sink names. *)

val enabled : unit -> bool
val flush : unit -> unit

val now_ns : unit -> int
(** {!Measure.now_ns}: [CLOCK_MONOTONIC] in nanoseconds.  The one clock
    for every duration the system reports and every event timestamp. *)

val instant : ?cat:string -> ?args:(string * value) list -> string -> unit

val span : ?cat:string -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] emits a [Begin]/[End] pair around [f ()] (also on
    exception), tracks the domain-local nesting depth, and — under an
    active {!Ctx} — forks a child span id for the pair's duration.
    While the {!Sampler} is running it additionally maintains the
    calling domain's live span-name stack (one cons per span). *)

val span_stack : unit -> string list
(** The calling domain's live span-name stack, innermost first.  Empty
    unless the {!Sampler} is (or was) running — the stack is only
    maintained while sampling to keep the common case free. *)

val decision :
  transform:string ->
  target:string ->
  applied:bool ->
  reason:string ->
  ?evidence:(string * value) list ->
  unit ->
  unit
(** Record one transformation decision ([cat = "decision"]). *)

val decide :
  transform:string ->
  target:string ->
  ?evidence:(string * value) list ->
  ('a, string) result ->
  ('a, string) result
(** [decide r] records [r] as a decision — applied on [Ok], rejected
    with the error text as reason on [Error] — and returns [r]
    unchanged.  The transformation modules wrap their results with
    this. *)

val init_from_env : unit -> unit
(** Honour [BLOCKABILITY_TRACE=text|json|chrome[:PATH]]: install the
    named sink (writing to [PATH], or stderr when no path is given —
    [chrome] requires a path) and register an exit-time [flush].
    Unknown sink names warn on stderr and leave tracing disabled.
    Call once at program start; does nothing when the variable is
    unset. *)

(** An always-available bounded ring of recent events — post-hoc
    visibility into failures without paying for full tracing.
    {!note} writes straight into the ring regardless of the installed
    sink or [enabled ()] (the serve path notes every request and every
    error); {!sink} additionally adapts the ring into a sink so
    span/instant traffic can be mirrored into it ("recorder only"
    mode).  The ring never touches the disabled-instant fast path, so
    the null sink stays allocation-free. *)
module Recorder : sig
  type ring
  (** A standalone ring, independent of the process-global one the
      module-level functions use. *)

  val create : ?capacity:int -> unit -> ring
  (** [create ()] takes its capacity (min 1) from [BLOCKC_RECORDER_CAP]
      when set to a positive integer, defaulting to 256; [~capacity]
      overrides both.  The process-global ring is created this way at
      module initialisation, so the env var sizes it at startup. *)

  val ring_capacity : ring -> int
  val record_to : ring -> event -> unit
  val recent_of : ring -> event list
  val sink_of : ring -> sink

  val capacity : unit -> int

  val set_capacity : int -> unit
  (** Resize (min 1) and clear the global ring.  Default capacity: 256,
      or [BLOCKC_RECORDER_CAP] at startup. *)

  val note : ?cat:string -> ?args:(string * value) list -> string -> unit
  (** Record an instant directly into the ring (never dropped by the
      enabled-gate; stamped with the caller's clock/ctx/track). *)

  val record : event -> unit

  val recent : unit -> event list
  (** Ring contents, oldest first. *)

  val clear : unit -> unit

  val sink : unit -> sink
  (** A sink writing every emitted event into the ring; installing it
      turns [enabled ()] on without any output channel. *)

  val dump : unit -> string
  (** One human-readable line per event of {!recent}, under a header;
      [""] when the ring is empty. *)
end

(** Runtime metrics: cheap process-global counters, log-linear
    (HDR-style) histograms with derived quantiles, accumulating timers
    and gauges, safe to update from multiple domains (atomics).
    Disabled by default; every update is gated on [enabled ()] so
    instrumented hot paths cost one bool-ref read and allocate nothing
    when metrics are off. *)
module Metrics : sig
  val enabled : unit -> bool
  val set_enabled : bool -> unit

  val labelled : string -> (string * string) list -> string
  (** [labelled "serve.errors" [("class", "parse")]] =
      ["serve.errors{class=\"parse\"}"] — the naming convention that
      {!prometheus} renders as one metric family per base name with the
      label block attached to each sample. *)

  type counter

  val counter : ?help:string -> string -> counter
  (** Find-or-create by name (names are a global registry).  [?help]
      registers a doc string for the metric's {!prometheus} [# HELP]
      line, keyed by the label-free base name; the first registration
      wins. *)

  val add : counter -> int -> unit
  val incr : counter -> unit
  val count : counter -> int

  type histogram

  val histogram : ?help:string -> string -> histogram

  val observe : histogram -> int -> unit
  (** Log-linear bucketing: values [0..15] exact, then 16 linear
      sub-buckets per power-of-two octave (quantile quantization error
      < 1/16).  Negative values clamp to 0. *)

  val buckets : histogram -> (int * int) list
  (** [(upper_bound, count)] for the non-empty buckets, ascending. *)

  val percentile : histogram -> float -> int
  (** [percentile h q] for [q] in [0..1]: an upper bound on the value
      at that rank, clamped to the observed maximum; [0] when empty. *)

  val hist_count : histogram -> int
  val hist_sum : histogram -> int
  val hist_max : histogram -> int

  type timer

  val timer : ?help:string -> string -> timer

  val record_ns : timer -> int -> unit
  val time : timer -> (unit -> 'a) -> 'a
  val total_ns : timer -> int
  val calls : timer -> int

  type gauge

  val gauge : ?help:string -> string -> gauge
  (** A sampled level (queue depth, memo size) with a high-water mark;
      find-or-create by name like the other metric kinds. *)

  val set_gauge : gauge -> int -> unit
  (** Record the current level; the peak is updated lock-free. *)

  val gauge_value : gauge -> int
  val gauge_peak : gauge -> int

  val prometheus : unit -> string
  (** Prometheus text exposition of the full registry: counters as
      [blockc_<name>_total], timers as [_ns_total]/[_calls_total]
      counter pairs, gauges as gauges (plus [_peak]), histograms as
      summaries with [quantile="0.5"/"0.9"/"0.99"] samples, [_sum],
      [_count] and a [_max] gauge.  Inline label blocks (see
      {!labelled}) are preserved, so every label set of one base name
      shares a family and a single [# TYPE] line.  Families whose base
      name was registered with [?help] get a [# HELP] line before
      their [# TYPE]. *)

  val reset : unit -> unit
  (** Zero all registered metrics (the registry itself persists). *)
end

(** Continuous profiler: a ticker thread samples every registered
    domain's live span stack at a fixed rate and folds the
    observations into flamegraph-compatible [stack count] rows
    (outermost-first, [';']-joined — feed {!folded_text} straight to
    [flamegraph.pl] or speedscope).  Domains with an empty stack sample
    as [(idle)].  Sampled domains pay one cons per span while the
    sampler runs and nothing when it does not; the sampler reads the
    stacks racily (safe: the field holds an immutable list).

    The ticker is a systhread, not a domain: an extra domain — even a
    sleeping one — joins every stop-the-world minor collection in
    OCaml 5, which is ruinous on small machines, while a thread
    measures within noise.  The flip side: on a fully busy host domain
    the ticks land at thread yield points, so that one domain's
    effective self-sample rate can drop to the runtime's preemption
    tick (~20 Hz); other domains are always sampled at the full
    rate. *)
module Sampler : sig
  val start : ?hz:float -> unit -> unit
  (** Spawn the ticker thread (no-op when running).  Rate precedence:
      [?hz] (if positive), else [BLOCKC_PROFILE_HZ], else 97 Hz (a
      prime, so the ticker does not alias with millisecond-period
      work).  Registers the calling domain for sampling as a
      side effect. *)

  val stop : unit -> unit
  (** Stop and join the ticker (no-op when not running).  Accumulated
      samples survive; span-stack maintenance turns off. *)

  val ensure : ?hz:float -> unit -> unit
  (** Idempotent {!start} — the first caller wins the rate. *)

  val init_from_env : unit -> unit
  (** Start sampling iff [BLOCKC_PROFILE_HZ] is set to a positive
      number. *)

  val running : unit -> bool

  val hz : unit -> float
  (** The configured rate of the current (or last) run. *)

  val samples : unit -> int
  (** Total per-domain observations folded so far. *)

  val reset : unit -> unit
  (** Drop accumulated samples (the ticker keeps running). *)

  val folded : unit -> (string * int) list
  (** [(stack, count)] rows, most-sampled first (ties by name). *)

  val folded_text : unit -> string
  (** One ["stack count\n"] line per row — the flamegraph "folded"
      format. *)
end
