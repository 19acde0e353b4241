(** Plain-text tables for the benchmark harness and examples.

    The benchmark executable reproduces the paper's tables; this module
    renders aligned ASCII tables from a header row and data rows. *)

type align = Left | Right

type t

(** A cell: text, or a time measured by {!Measure}. *)
type cell = Text of string | Time of Measure.summary

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers. *)

val add_row : t -> cell list -> unit
(** [add_row t cells] appends a row. Raises [Invalid_argument] if the number
    of cells differs from the number of columns. *)

val render : t -> string
(** Render the table, headers underlined, columns padded per alignment.
    A time cell shows {!Measure.to_string}: its median and spread. *)

val print : t -> unit
(** [print t] writes [render t] to standard output. *)

val cell_f : float -> string
(** Format a ratio such as a speedup, e.g. "1.80". *)

val to_json : t -> Json_min.t
(** The table as one JSON object:
    [{"title": ..., "headers": [...], "rows": [[...], ...]}].  A text
    cell is the string as rendered; a time cell is its summary's
    {!Measure.to_json} object, so downstream tooling reads the numbers
    themselves. *)

val json_of_tables : (string * t) list -> Json_min.t
(** [json_of_tables [(id, t); ...]] is
    [{"tables": [{"id": id, "table": ...}, ...]}] — the benchmark
    harness's [--json] payload. *)
