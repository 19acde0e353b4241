(** System-cc back end: compiling {!Emit_c} output and running it
    in-process.

    The pipeline is [cc -std=c99 -O2 -shared -fPIC -ffp-contract=off]
    on the emitted C, then [dlopen] through a small stub.  Objects
    share the OCaml plugins' {!Artifact_cache} ([bk_<key>.so] next to
    [bk_<key>.cmxs]); the key is the blueprint digest combined with
    the backend tag and the first line of [cc --version], so switching
    compilers invalidates exactly the C half of the cache.  That line
    is itself cached ([cc_<key>.version], keyed by a [stat] of the
    compiler), so a process spawns the compiler only to compile.

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

val invocations : unit -> int
(** [cc] runs so far in this process (builds of the cache's ["c"]
    kind). *)

val compile_blueprint :
  ?cc:string -> name:string -> Blueprint.t -> (loaded, string) result
(** Compile (or fetch from cache) the shared object for a normalized
    blueprint.  Emission only happens on a cache miss.  [cc] overrides
    compiler discovery.  Run the result with
    {!run}[ ~bindings:bp.Blueprint.bindings]. *)

val run :
  ?bindings:(string * int) list -> fn -> Env.t -> (unit, string) result
(** Execute a loaded kernel against an environment, with the same
    contract as {!Jit.run}: arrays are shared with the environment,
    written scalars are stored back, [bindings] take precedence over
    the environment's integer scalars, and runtime failures (zero
    step, negative SQRT, out-of-bounds checked access) come back as
    [Error]. *)