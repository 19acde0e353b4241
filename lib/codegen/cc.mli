(** System-cc back end: compiling {!Emit_c} output and running it
    in-process.

    The pipeline is [cc] with {!flags} on the emitted C, then
    [dlopen(RTLD_NOW)] through a small stub.  The object links no
    library and no C start files: its imports resolve against the host
    process at load time, and one that does not resolve fails the load.
    Objects share the OCaml plugins' {!Artifact_cache} ([bk_<key>.so]
    next to [bk_<key>.cmxs]) under {!key}, so switching compilers,
    flags or emitter revisions invalidates exactly the C half of the
    cache.  The compiler's version line is itself cached
    ([cc_<key>.version], keyed by a [stat] of the compiler), so a
    process spawns the compiler only to compile.

    Execution marshals an {!Env.t} onto the fixed kernel ABI per the
    blueprint's {!Emit_c.manifest}: REAL buffers and scalars are
    passed as direct pointers into the OCaml heap (the runtime lock is
    held across the call, so nothing moves), INTEGER state is copied
    in and out.  Results are bitwise comparable with the interpreter
    and the OCaml backend — that is the point. *)

val tag : string
(** ["c"] *)

val available : unit -> (unit, string) result
(** [Ok ()] when a C compiler was found (on [PATH] as [cc], or via
    [BLOCKC_CC]); otherwise a one-line reason. *)

val version : string -> string
(** The first line of [compiler --version], from the cache when a
    process already asked; [""] when it cannot be run. *)

val flags : string list
(** What every object is compiled with: [-std=c99 -O2 -pipe -shared
    -fPIC -ffp-contract=off -nostdlib].  [-ffp-contract=off] keeps the
    results bitwise equal to the interpreter's; [-nostdlib] leaves libc,
    libm and the C start files out of the link. *)

val key : version:string -> revision:string -> Blueprint.t -> string
(** The artifact key of a blueprint's object: the digest of the
    compiler's {!version} line, the C emitter [revision]
    ({!compile_blueprint} uses {!Emit_c.revision}), {!flags} and the
    blueprint's key. *)

val invocations : unit -> int
(** [cc] runs so far in this process (builds of the cache's ["c"]
    kind). *)

val compile_blueprint :
  name:string -> Blueprint.t -> (Native.compiled, string) result
(** Compile (or fetch from cache) and load the shared object for a
    normalized blueprint, under {!key}, with the compiler [BLOCKC_CC]
    names, else [cc] on [PATH].  Emission only happens on a cache miss;
    a warm call also [stat]s the compiler to find its cached version
    line (11–27 µs in all).  [bk_remarks] are the compiler's
    vectorization remarks ([-fopt-info-vec]), kept as [bk_<key>.vec]
    beside the object so cache hits still report them, each naming the
    kept source [bk_<key>.c]; [] when the flag is unsupported or no
    loop vectorized. *)
