(** What the two native backends ({!Jit}, {!Cc}) share: the
    compiled-kernel record, the compiler lookup, the compiler run and
    the reading of a kernel's parameters.  Each backend keeps its
    emitter, flags and key, loader and calling convention. *)

type compiled = {
  bk_tag : string;  (** ["ocaml"] or ["c"] *)
  bk_key : string;  (** full cache key *)
  bk_artifact : string;  (** the plugin ([.cmxs]) or object ([.so]) *)
  bk_disposition : Artifact_cache.disposition;
  bk_compile_s : float;  (** wall seconds of the build; 0 unless [Compiled] *)
  bk_remarks : string list;
      (** the C compiler's vectorization remarks; [] for OCaml *)
  bk_run : ?bindings:(string * int) list -> Env.t -> (unit, string) result;
      (** Run against an environment: arrays are shared with it, written
          scalars stored back.  An integer parameter comes from
          [bindings], else from the blueprint's hoisted parameters, else
          from the environment.  Runtime failures (zero step, negative
          SQRT, out-of-bounds checked access) are [Error]. *)
}

val compiler : var:string -> string -> (string, string) result
(** The file the environment variable [var] names (an empty value is
    unset), else [name] on [PATH]; looked up on every call. *)

val compile :
  tool:string ->
  name:string ->
  compiler:string ->
  string ->
  string list ->
  (unit, string) result
(** [compile ~tool ~name ~compiler dir args] runs [compiler args]
    inside the build directory [dir], on names relative to it, so
    nothing the compiler writes names [dir].  A nonzero exit is an
    [Error] naming [name], [tool] and the first lines of its standard
    error. *)

val flat_dims : (int * int) list -> int array
(** Bounds per dimension, flattened to [[| lo1; hi1; lo2; ... |]]. *)

val kernel :
  tag:string ->
  key:string ->
  span:string ->
  ?remarks:string list ->
  Blueprint.t ->
  'a Artifact_cache.entry ->
  ('a -> Env.t -> geti:(string -> int) -> getf:(string -> float) ->
   (unit, string) result) ->
  compiled
(** The record for a blueprint's loaded artifact.  Its [bk_run] calls
    [call value env ~geti ~getf] in the Obs span [span]; absent scalars
    read as 0. *)
