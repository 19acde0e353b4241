(** The MD5 of a marshalled list of named float arrays, computed without
    marshalling it.

    [blockc serve] digests a kernel's result arrays on every request,
    and clients compute the same digest with [Marshal].  Building the
    marshalled string copies every array (0.1–1.5 MB per request);
    this streams the same bytes instead: OCaml writes the header and
    the few bytes before each array, and a C stub hashes each array's
    storage in place. *)

val float_arrays : (string * float array) list -> Digest.t
(** [float_arrays l] is [Digest.string (Marshal.to_string l [])].  A
    list in which a name or an array occurs twice (physically), or too
    large for Marshal's small header, is marshalled after all. *)
