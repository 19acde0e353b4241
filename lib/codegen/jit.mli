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

val tag : string
(** ["ocaml"] *)

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
  name:string -> Blueprint.t -> (Native.compiled, string) result
(** Compile (or fetch) and load the plugin for a normalized blueprint,
    under {!key}[ ~revision:Emit.revision], with the compiler
    [BLOCKC_OCAMLOPT] names, else [ocamlopt] on [PATH].  Emission only
    happens on a cache miss; a warm call looks the compiler up on
    [PATH], digests the key and finds the loaded plugin in the cache's
    table (3–6 µs).  [name] is only for diagnostics and spans. *)

val compiler_invocations : unit -> int
(** [ocamlopt] runs so far in this process (builds of the cache's
    ["ocaml"] kind). *)

val disposition_name : Artifact_cache.disposition -> string
(** {!Artifact_cache.disposition_name}. *)
