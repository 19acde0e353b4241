(** Compiling emitted kernels to native code and running them in-process.

    The pipeline is [ocamlopt -shared] on the {!Emit} output, then
    [Dynlink.loadfile_private] on the resulting [.cmxs].  Because the
    plugin is self-contained, no [.cmi] is shared with the host: the
    plugin raises [Blockc_kernel run] from its initializer, the load
    surfaces it as [Library's_module_initializers_failed], and the
    closure is pulled out of the exception payload after checking the
    constructor's name.

    Compiled plugins live in the {!Artifact_cache}, keyed by the
    {!Blueprint} digest, the compiler version, its flags and the
    emitter's {!Emit.revision} — so one loop structure is one artifact
    no matter how many problem sizes it runs at, and a directory an
    older emitter filled is rebuilt rather than served.  The plugin is
    linked with [-ccopt -nostdlib]: no C library and no C start files,
    its imports bound to the host at load time.  Each plugin is loaded once per process and kept: [Dynlink]
    cannot unload it, and loading it again would re-run its
    initializer.

    Every stage records an Obs span ([jit.emit], [jit.compile],
    [jit.compile_blueprint], [cache.load], [jit.run]) so [--trace] covers
    the native path. *)

type fn
(** A loaded kernel entry point. *)

(** How a compile request was satisfied: from the in-process memo, from
    the on-disk artifact cache, or by actually running [ocamlopt]. *)
type disposition = Artifact_cache.disposition = Memo | Disk | Compiled

val disposition_name : disposition -> string

type loaded = {
  key : string;  (** full cache key (blueprint digest) *)
  cmxs : string;  (** path of the compiled plugin *)
  cached : bool;  (** true when the compile step was skipped *)
  disposition : disposition;
  compile_s : float;
      (** wall-clock seconds spent producing the artifact; 0 for memo
          hits, the [ocamlopt] wall time for fresh compiles *)
  fn : fn;
}

val available : unit -> (unit, string) result
(** [Ok ()] when native dynlink works and [ocamlopt] was found (on
    [PATH], or via [BLOCKC_OCAMLOPT]); otherwise a one-line reason —
    callers fall back to the interpreter. *)

val key : revision:string -> Blueprint.t -> string
(** The artifact key of a blueprint's plugin under an emitter revision
    ({!compile_blueprint} uses {!Emit.revision}): the digest of the
    OCaml version, the revision, the [ocamlopt] flags and the
    blueprint's key. *)

val compile_blueprint :
  ?ocamlopt:string -> name:string -> Blueprint.t -> (loaded, string) result
(** Compile (or fetch) and load the plugin for a normalized blueprint,
    under {!key}[ ~revision:Emit.revision].  Emission only
    happens on a cache miss: the warm path is a hash lookup.  Run the
    result with {!run}[ ~bindings:bp.Blueprint.bindings].  [name] is
    only for diagnostics and spans; [ocamlopt] overrides compiler
    discovery — pointing it at a non-compiler is how the fallback path
    is tested. *)

val run :
  ?bindings:(string * int) list -> fn -> Env.t -> (unit, string) result
(** Execute a loaded kernel against an environment: parameters and
    scalars are read from it, array buffers are shared with it (the
    kernel writes results in place), and scalar results are written
    back.  [bindings] take precedence over the environment's integer
    scalars — they close the parameters a {!Blueprint} hoisted.
    Runtime failures (zero step, negative SQRT, out-of-bounds checked
    access) come back as [Error]. *)

val compiler_invocations : unit -> int
(** [ocamlopt] runs so far in this process (builds of the cache's
    ["ocaml"] kind). *)
