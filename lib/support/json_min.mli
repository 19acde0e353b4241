(** A minimal JSON reader/printer: every JSON the system prints (the
    serve protocol, [blockc]'s and the benchmark harness's [--json]
    output, the trace sinks) is a {!t} rendered by {!to_string}, and
    the readers of those documents share the field readers below; no
    external JSON library is needed.

    Supports the full RFC 8259 grammar (objects, arrays, strings with
    escapes, numbers, [true]/[false]/[null]).  String escapes are
    decoded on parse ([\n], [\uXXXX] as UTF-8 with surrogate pairs
    combined) and re-escaped on print, so a [String] always holds the
    actual bytes. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string  (** decoded contents (UTF-8 for [\u] escapes) *)
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.  The
    error string includes the offending byte offset. *)

val validate : string -> (unit, string) result
(** [parse] with the value thrown away: the benchmark tests' no-op
    consumer. *)

val to_string : t -> string
(** Render a value back to JSON text.  Strings (including object keys)
    are escaped — quotes, backslashes, and every control character —
    so the output is always well-formed JSON on one line, whatever the
    contents (embedded compiler stderr, kernel error messages);
    [parse s |> to_string |> parse] is the identity.  Integral numbers
    print without a decimal point. *)

val int : int -> t
(** [Number] of an integer. *)

val int_object : (string * int) list -> t
(** An object of integers, e.g. a kernel's bindings. *)

(** {1 Reading}

    Each reader is [None] when the value, or the object's field, is
    missing or of another type. *)

val field : string -> t -> t option
(** A field of an [Object]. *)

val as_int : t -> int option
(** An integral [Number]. *)

val string_field : string -> t -> string option
val number_field : string -> t -> float option
val bool_field : string -> t -> bool option
val int_field : string -> t -> int option
