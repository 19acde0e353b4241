(** IR interpreter.

    Executes a statement block against an {!Env.t}.  Two uses:

    - ground truth for the transformation test suite: a transformation is
      correct when interpreting the original and the transformed IR from
      equal initial environments yields equal final environments;
    - memory tracing: [hook] fires on every array *element* access in
      execution order, which {!Trace} feeds to the cache simulator.

    DO-loop semantics are Fortran's: bounds and step are evaluated once
    on entry, the trip count is [max 0 ((hi - lo + step) / step)], and
    the index variable is local to the loop. *)

exception Error of string

type hook = ref_id:int -> string -> int list -> Ir_util.kind -> unit
(** [hook ~ref_id array indices kind]; [indices] are the subscript
    values.  [ref_id] identifies the static reference site the touch
    came from (see {!refmap}); it is [-1] when [run] was given no
    reference map, so hooks that do not care about attribution just
    ignore it. *)

(** One static array-reference site of a block: the [ref_id]-th place in
    the program text (textual order) that reads or writes an array
    element.  Scalar touches never fire the hook, so scalars have no
    sites. *)
type ref_site = {
  ref_id : int;
  ref_array : string;
  ref_kind : Ir_util.kind;
  ref_space : Ir_util.space;
  ref_text : string;  (** e.g. ["A(I,K)"] — array with source subscripts *)
  ref_loops : string list;  (** enclosing loop indices, outermost first *)
}

type refmap
(** Maps every array-reference node of a block to its {!ref_site}.  The
    map keys on the *physical* IR nodes of the block it was built from,
    so build it from exactly the block you pass to [run]. *)

val refmap : Stmt.t list -> refmap

val ref_sites : refmap -> ref_site list
(** All sites in textual order ([ref_id] = position, starting at 0). *)

val run : ?refs:refmap -> ?hook:hook -> Env.t -> Stmt.t list -> unit
(** Execute the block, mutating [env].  Raises {!Error} on interpreter
    misuse (zero-step loops, loop-index assignment, unknown intrinsics,
    division by zero) and lets {!Env.Error} propagate for environment
    misuse (undefined names, bad subscripts).  With [refs],
    every hook call carries the touching site's [ref_id]; without it
    (the default) attribution is off and costs nothing. *)

