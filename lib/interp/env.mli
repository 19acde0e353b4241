(** Runtime environment for the IR interpreter.

    Arrays use Fortran conventions: explicit per-dimension lower bounds
    (the convolution kernels are 0-based, the linear-algebra kernels
    1-based) and column-major storage, so the simulated trace addresses
    have the same spatial-locality structure as the Fortran originals. *)

type t

exception Error of string
(** Raised for every runtime misuse of the environment — undefined
    names, subscript arity mismatches, out-of-bounds subscripts, empty
    array dimensions.  The payload is a human-readable description
    (without any ["Env:"] prefix); drivers catch it for one-line
    diagnostics instead of a backtrace. *)

val create : unit -> t

val add_farray : t -> string -> (int * int) list -> unit
(** [add_farray env name dims] declares a REAL*8 array with inclusive
    per-dimension bounds [(lo, hi)], zero-initialized. *)

val add_iarray : t -> string -> (int * int) list -> unit

val set_fscalar : t -> string -> float -> unit
val set_iscalar : t -> string -> int -> unit

val farray_dims : t -> string -> (int * int) list
val iarray_dims : t -> string -> (int * int) list

val get_f : t -> string -> int list -> float
val set_f : t -> string -> int list -> float -> unit
val get_i : t -> string -> int list -> int
val set_i : t -> string -> int list -> int -> unit

val fscalar : t -> string -> float
val iscalar : t -> string -> int
val has_iscalar : t -> string -> bool
val has_fscalar : t -> string -> bool

val linear_index : t -> string -> int list -> int
(** Column-major element offset of an array element, for tracing. *)

val fill_farray : t -> string -> (unit -> float) -> unit
(** [fill_farray env name f] sets every element to a fresh [f ()], in
    column-major storage order (the first subscript varies fastest). *)

val farray_data : t -> string -> float array
(** The underlying column-major storage (shared, not a copy). *)

val iarray_data : t -> string -> int array
(** INTEGER-array counterpart of {!farray_data} (shared, not a copy). *)

val copy : t -> t
(** Deep copy: arrays and scalars are duplicated. *)

val equal : ?only:string list -> ?tol:float -> t -> t -> bool
(** Same declared names, dims, and contents.  [tol] (default 0: exact
    bit equality) bounds the allowed absolute difference per float
    element — needed for transformations that reassociate float
    arithmetic.  With [only], just the named REAL arrays are compared
    (transformation scratch — inspector tables, expanded scalars — is
    ignored). *)

val diff : ?only:string list -> ?tol:float -> t -> t -> string option
(** [None] when equal; otherwise a description of the first mismatch. *)
