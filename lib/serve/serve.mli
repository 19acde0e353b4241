(** [blockc serve]: a batched compile/execute request server on a
    fixed set of request lanes.

    The protocol is newline-delimited JSON: one request object per
    line, one response object per line.  Responses carry the request's
    ["id"] verbatim (any JSON value) and may arrive out of order —
    requests are taken by whichever of the {!Pool}'s lanes is free, so
    concurrent clients match responses by id, not by position.  With
    one lane, responses come in request order.  Every response has
    ["ok"]: [true] plus op-specific fields, or [false] plus
    ["error"].

    Requests select an operation with ["op"]:

    - [ping] — liveness check; replies [{"ok":true,"pong":true}].
    - [kernels] — catalogue of the registered kernels (name, paper
      reference, parameters, default bindings, blockability).
    - [derive {"kernel"}] — run the compiler driver; replies with the
      decision [steps] and the transformed IR, or
      [{"blockable":false,"reason":...}] for the paper's negative
      results (that is a successful response, not an error).
    - [compile {"kernel","variant","backend"?}] — blueprint-normalize
      and compile the ["point"] (default) or ["transformed"] variant on
      the requested {!Backend} (["ocaml"], the default, or ["c"]);
      replies with {!Blockability.compiled_fields}, the body
      [blockc compile --json] prints: ["kernel"], ["variant"],
      ["backend"], ["blueprint"] (digest), ["key"] (the full cache
      key), ["disposition"] (["memo"] / ["disk"] / ["compiled"]),
      ["derivation"] (transformed only, below), ["compile_s"],
      ["cached"], ["artifact"] (the on-disk path), ["hoisted"] (the
      blueprint's bindings) and ["vec_remarks"] (the C compiler's
      vectorization remarks; empty on OCaml).
      A repeat compile of one loop structure finds the loaded
      artifact in the cache's table: the backend's share is 3–6 µs on
      OCaml and 11–27 µs on C (compiler lookup on [PATH], key digests
      and, on C, a [stat] of [cc] for its cached version line).  A
      transformed variant also reports where its derived IR came
      from, as ["derivation"]: ["memo"] (this process had it),
      ["disk"] (stored by an earlier process of the same executable)
      or ["derived"] (the compiler driver ran); see
      {!Blockability.variant_block}.
      [execute] and [batch] responses carry the same two fields.
    - [execute {"kernel","variant","bindings","seed","backend"?}] —
      compile (or fetch) and run once at the given sizes on the
      requested backend; replies with an MD5 digest of the kernel's
      traced arrays after the run (the bitwise-comparison handle) and
      the run wall time.  The digest is the hex MD5 of
      [Marshal.to_string [(name, float array); ...] []], computed
      without building that string ({!Marshal_digest}).  Digests are
      backend-independent: both code generators are bitwise-checked
      against the interpreter.  ["bindings"] sizes the run by
      {!Blockability.env}'s rule, as on the command line: names in any
      case, each one the request leaves unbound taken from the
      kernel's defaults (and, transformed, its block size), so [{}]
      or no field is the default problem.  A name the kernel does not
      take, and sizes it cannot set up (an empty array), are request
      errors.
    - [batch
       {"kernel","variant","seed","backend"?,"bindings_list"|"sizes"}] —
      many executions of one blueprint as a single dispatch: compile
      once, then fan the items out over the execution pool
      ({!Parallel.for_}, guided chunks down to one item; in the daemon
      that pool is the request lanes, and idle lanes join the
      fan-out).  ["bindings_list"] is an array of binding objects;
      ["sizes"] is shorthand binding every kernel parameter to the
      given integer.  Replies with one digest per item, in request
      order (results are deterministic: each item runs in its own
      environment), plus an ["items"] array giving each item's wall
      time (["ns"]) and GC deltas (["minor_gcs"], ["major_gcs"],
      ["promoted_words"], ["allocated_words"]) measured on the
      executing lane.
    - [simulate {"kernel","bindings","seed"}] — what [blockc simulate]
      runs, sized as [execute] is: cache-simulate both variants on the
      paper's RS/6000-540
      model; replies with per-variant miss and memory-cycle counts
      (["point_misses"], ["transformed_misses"], ["point_cycles"],
      ["transformed_cycles"]).
    - [status] — the process-wide cache counters of every kind of
      {!Artifact_cache} entry under ["cache"] (["ocaml"] plugins,
      ["cc_probe"], ["c"] objects, ["derivation"], each with
      ["loaded"], ["memo_hits"], ["disk_hits"], ["builds"] (compiler
      runs, for the two backends), ["corrupt"] and ["dedup_waits"]),
      the cache directory plus its on-disk shape (["disk_entries"],
      ["disk_bytes"], ["disk_oldest_age_s"], ["disk_evictions"] — see
      [BLOCKC_JIT_DISK_CAP]), whether the C backend is available
      (["cc_available"]), and the
      {!Obs.Sampler} state (["sampler_running"], ["sampler_hz"],
      ["sampler_samples"]).
    - [flame {"hz"?,"reset"?}] — continuous-profiling readout: starts
      the {!Obs.Sampler} on first use (at ["hz"], else
      [BLOCKC_PROFILE_HZ], else the default rate) and replies with the
      accumulated folded-stack profile (["folded"], flamegraph.pl
      input) and the sample count; ["reset":true] drops the
      accumulation after rendering, for interval profiles.
    - [metrics] — the full {!Obs.Metrics} registry as a Prometheus text
      exposition (one JSON-escaped string field ["metrics"]): request
      counts, labelled [serve.errors] classes, and p50/p90/p99/max
      latency summaries overall and per op ([serve.request.ns{op=...}]).
      [blockc stats --socket PATH] is the scraping client.
    - [dump] — flush the {!Obs.Recorder} flight recorder: the bounded
      ring of recent events (every request and error is noted there
      even without tracing), oldest first, each as {!Obs.json_of_event}
      writes it for the [json] trace sink: ["name"], ["cat"],
      ["kind"], ["ts"] (a decimal string of {!Obs.now_ns}: nanoseconds
      since boot, not since the epoch), ["depth"], ["track"], under a
      trace ["trace"]/["span"]/["parent"], and ["args"].
    - [shutdown] — acknowledge and stop the server loop.

    {b Response telemetry.}  Every response object additionally carries
    ["trace_id"] (the request's trace context in hex — the same id its
    spans carry in any installed sink, so a Chrome trace of a [batch]
    fan-out connects to the response that triggered it) and a
    ["server"] timing breakdown: ["queue_ns"] (time between reading the
    line and a lane taking it), ["compile_ns"] (blueprint normalize +
    JIT, ~0 on memo hits), ["exec_ns"] (native run / batch fan-out
    wall), ["total_ns"] (queue + handling; every duration here, and
    each item's ["ns"] and the ["run_s"] fields, is read from the one
    monotonic clock, {!Obs.now_ns}), and the request's GC
    deltas captured around handling on the request lane:
    ["minor_gcs"], ["major_gcs"], ["promoted_words"],
    ["allocated_words"] (collection counts from [Gc.quick_stat], word
    counts from [Gc.counters] — the variant that stays exact in native
    code between minor collections — also exported
    as the [serve.gc.*] histograms; requests breaching
    [BLOCKC_SLOW_REQUEST_NS] or [BLOCKC_ALLOC_HEAVY_WORDS] are
    additionally noted in the flight recorder as
    [serve.slow_request]).  Responses to requests
    that crashed the handler ([internal error]) carry no telemetry
    fields; the flight recorder is dumped to stderr instead.

    Example session (one request and response per line):

    {v
    > {"id":1,"op":"ping"}
    < {"id":1,"ok":true,"pong":true}
    > {"id":2,"op":"compile","kernel":"lu","variant":"transformed"}
    < {"id":2,"ok":true,"kernel":"lu","variant":"transformed",
       "backend":"ocaml","blueprint":"9f...","key":"c1...",
       "disposition":"compiled","derivation":"derived",
       "compile_s":0.103,...}
    > {"id":3,"op":"batch","kernel":"lu","variant":"transformed","sizes":[8,12,16]}
    < {"id":3,"ok":true,"n":3,"disposition":"memo","digests":[...],...}
    > {"id":4,"op":"shutdown"}
    < {"id":4,"ok":true,"stopping":true}
    v}

    Observability: each request runs under its own {!Obs.Ctx} trace
    (a fresh root installed by the lane that takes the line,
    re-installed in every {!Parallel.for_} lane) inside a
    ["serve.request"] span; lines read but not yet taken are the
    [serve.depth] gauge, and their wait is the [serve.queue_wait]
    timer; request latency lands in the [serve.request.ns]
    log-linear histograms (overall and per op); failures increment the
    labelled [serve.errors] counters ([class="parse" | "missing_op" |
    "unknown_op" | "request" | "internal"]); batch fan-out sizes land
    in the [serve.batch_size] histogram; and the cache's hits, builds,
    corrupt entries and dedup waits are counted per kind by
    {!Artifact_cache}.  {!run_stdio} / {!run_socket}
    switch metrics on and install the {!Obs.Recorder} ring as the sink
    when no other sink is active. *)

val handle_line : ?queue_ns:int -> exec_pool:Pool.t -> string -> string * bool
(** Parse and handle one request line; returns the response line (no
    trailing newline, telemetry fields included) and whether the
    request was a [shutdown].  [queue_ns] (default 0) is the time the
    request sat queued, reported in the response breakdown and included
    in the latency histograms; [exec_pool] runs batch fan-out.
    Malformed JSON yields an ["ok":false] response, never an
    exception. *)

val run_channel : Pool.t -> in_channel -> out_channel -> bool
(** Serve one connection on the pool's lanes, which are the only
    domains it uses.  A reader thread on the calling domain reads lines
    and stops at EOF or after a [shutdown] line; each lane takes the
    next line read ({!Pool.await}) and, while there is none, joins the
    batch fan-out another lane opened — the pool is also the batch
    [exec_pool].  Responses are written mutex-serialized.  Returns once
    every line read is answered: [true] if a [shutdown] was processed. *)

val run_stdio : ?workers:int -> unit -> unit
(** Serve stdin/stdout on [workers] (default 2) request lanes: the
    calling domain plus [workers - 1] spawned domains.
    [BLOCKABILITY_DOMAINS] plays no part. *)

val run_socket : ?workers:int -> string -> unit
(** Bind a Unix-domain socket at the given path and serve connections
    sequentially until a client sends [shutdown]; the socket file is
    removed on exit.  A socket file left behind by a crashed daemon is
    detected with a connect probe and unlinked; if the probe connects
    (a daemon is still serving the path), raises [Failure] instead of
    hijacking the path. *)
