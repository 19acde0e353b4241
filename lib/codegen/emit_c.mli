(** Lowering mini-Fortran IR to self-contained C99.

    The C twin of {!Emit}: the same flat column-major buffers, the same
    Env-binding preamble, the same once-evaluated DO bounds and trip
    count, the same zero-step and negative-SQRT guards — and the same
    {!Symbolic} in-bounds proofs (shared through {!Emit.base_ctx} /
    {!Emit.in_bounds}), under which proven accesses compile to raw pointer
    arithmetic instead of the checked accessors.  The emitted unit
    re-checks at run time everything the proofs assumed: declared
    shapes match the actual dims, assumed parameters are positive.

    The generated translation unit includes no header but
    [<setjmp.h>], calls nothing but [setjmp]/[longjmp], [snprintf] and
    [sqrt] (declared in its prelude; [fabs] compiles inline), and
    exports a single fixed-ABI entry point,

    {v
    int blockc_cc_kernel(double **fa, const long *fdim, long **ia,
                         const long *idim, double *fsc, long *isc,
                         char *err);
    v}

    returning 0 on success, nonzero with a message in [err] (256 bytes)
    on a runtime failure.  Buffers arrive in {!manifest} order: REAL
    arrays in [fa] with their per-dimension inclusive [(lo, hi)] pairs
    packed in [fdim], INTEGER arrays likewise in [ia]/[idim], and
    scalars packed by sorted name in [fsc]/[isc] (written scalars are
    stored back before returning).  {!Cc} drives compilation and
    marshals an {!Env.t} to this ABI.

    Bitwise agreement with the interpreter and the OCaml backend rests
    on compiling with [-ffp-contract=off], emitting float constants as
    exact C99 hex literals, reproducing [Float.compare]'s total order
    for comparisons, and C99's truncating integer division matching
    OCaml's. *)

type shapes = Emit.shapes

type manifest = {
  m_farrays : (string * int) list;  (** REAL arrays (name, rank), sorted *)
  m_iarrays : (string * int) list;  (** INTEGER arrays, sorted *)
  m_fscalars : string list;  (** REAL scalars, sorted *)
  m_iscalars : string list;  (** INTEGER scalars, sorted *)
  m_fsc_w : string list;  (** REAL scalars the kernel writes *)
  m_isc_w : string list;  (** INTEGER scalars the kernel writes *)
}
(** The host-side marshaling contract.  Deterministic and derivable
    from the block and its shapes ({!manifest}), so a disk-cached object
    can be invoked without re-emitting its source. *)

val revision : string
(** The C emitter's revision.  It is part of the C artifact key
    ({!Cc.key}), so a cache directory filled by an older emitter is
    never served to a newer one; bump it whenever the emitted text
    changes.  A unit test pins the emitted text of three point kernels
    next to the revision it names. *)

val manifest : shapes:shapes -> Stmt.t list -> (manifest, string) result
(** [Error] reports the same unsupported constructs {!source} would;
    [shapes] as given to {!source}. *)

val source :
  ?unsafe:bool ->
  ?shapes:shapes ->
  name:string ->
  Stmt.t list ->
  (string, string) result
(** [source ~name block] renders the block as a C99 translation unit.
    [unsafe] (default [true]) enables proven-in-bounds raw accesses;
    with [false] every access goes through the bounds-checked
    accessors. *)

val raw_accesses : ?unsafe:bool -> ?shapes:shapes -> Stmt.t list -> int
(** The number of raw-pointer accesses {!source} emits for the block:
    the C counterpart of {!Emit.counts}' [unchecked]. *)
