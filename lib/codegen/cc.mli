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

type fn
(** A loaded kernel entry point plus its marshaling manifest. *)

type loaded = {
  key : string;  (** full cache key (blueprint x backend x compiler) *)
  so : string;  (** path of the compiled shared object *)
  cached : bool;
  disposition : Artifact_cache.disposition;
  compile_s : float;
  vec_remarks : string list;
      (** the compiler's vectorization remarks ([-fopt-info-vec]),
          persisted as [bk_<key>.vec] beside the object so cache hits
          still report them; [] when the flag is unsupported or no
          loop vectorized *)
  fn : fn;
}

val available : unit -> (unit, string) result
(** [Ok ()] when a C compiler was found (on [PATH] as [cc], or via
    [BLOCKC_CC]); otherwise a one-line reason. *)

val compiler : unit -> string option
(** The C compiler {!compile_blueprint} uses by default: [BLOCKC_CC],
    else [cc] on [PATH]. *)

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
  ?cc:string -> name:string -> Blueprint.t -> (loaded, string) result
(** Compile (or fetch from cache) the shared object for a normalized
    blueprint, under {!key}.  Emission only happens on a cache miss.
    [cc] overrides compiler discovery.  Run the result with
    {!run}[ ~bindings:bp.Blueprint.bindings]. *)

val run :
  ?bindings:(string * int) list -> fn -> Env.t -> (unit, string) result
(** Execute a loaded kernel against an environment, with the same
    contract as {!Jit.run}: arrays are shared with the environment,
    written scalars are stored back, [bindings] take precedence over
    the environment's integer scalars, and runtime failures (zero
    step, negative SQRT, out-of-bounds checked access) come back as
    [Error]. *)