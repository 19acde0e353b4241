(** Deterministic pseudo-random numbers for workload generation.

    Benchmarks and tests need reproducible inputs; this is a small, fast,
    splittable linear congruential generator so results do not depend on
    OCaml's [Random] state or its version-to-version changes.  The state
    is kept unboxed, so advancing it allocates nothing. *)

type t

val create : int -> t
(** [create seed] makes a generator. Equal seeds give equal streams. *)

val split : t -> t
(** A generator statistically independent of the parent's future output. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val uniform : t -> float
(** Draw from [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val fill : t -> ?pos:int -> ?len:int -> float array -> scale:float -> shift:float -> unit
(** [fill t ~pos ~len a ~scale ~shift] sets [a.(pos)] … [a.(pos+len-1)],
    in that order, to [float t scale -. shift]: the same draws and the
    same bits as that loop written out, without boxing a float per
    element.  [pos] defaults to 0 and [len] to the rest of [a].
    @raise Invalid_argument if the range is not inside [a]. *)
