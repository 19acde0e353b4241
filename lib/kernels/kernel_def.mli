(** Common packaging for the paper's kernels in IR form.

    A kernel bundles its IR with everything needed to execute it: the
    symbolic parameters to bind, the arrays to declare and fill, and the
    arrays whose accesses the cache tracer should follow. *)

type t = {
  name : string;
  description : string;
  block : Stmt.t list;
  params : string list;  (** symbolic parameters, e.g. [["N"]] *)
  setup : Env.t -> bindings:(string * int) list -> seed:int -> unit;
      (** declare and initialize the arrays (and any scalars) *)
  traced : string list;  (** REAL arrays relevant to cache behaviour *)
  shapes : (string * (Expr.t * Expr.t) list) list;
      (** symbolic per-dimension [(lo, hi)] bounds of the arrays [setup]
          declares, as expressions over [params] — what the native code
          generator's in-bounds proofs reason from.  Checked against the
          actual declarations whenever an environment is built, so the
          metadata cannot drift from [setup]. *)
}

val make_env : t -> bindings:(string * int) list -> seed:int -> Env.t
(** Fresh environment with parameters bound as INTEGER scalars and
    arrays initialized by [setup]. *)

val run : t -> bindings:(string * int) list -> seed:int -> Env.t
(** Build an environment and interpret the kernel in it. *)

val equivalent :
  ?tol:float ->
  ?extra:(string * int) list ->
  t ->
  Stmt.t list ->
  bindings:(string * int) list ->
  seed:int ->
  (unit, string) result
(** Interpret the kernel and the transformed block from identical
    initial environments and compare the kernel's [traced] arrays in the
    final memory states (scratch arrays a transformation introduces are
    ignored).  [extra] binds parameters only the transformed code needs
    (e.g. the block size). *)
