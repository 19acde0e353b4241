(** Benchmark regression gate.

    Compares two of the harness's [--json] dumps
    (see {!Table.json_of_tables}) and flags time cells whose median got
    slower than the baseline's beyond a tolerance.  Built on
    {!Json_min}, so the gate — like the rest of the repo — has no
    external dependencies.

    Only cells that are {!Measure} summaries in BOTH dumps are
    compared; text cells (speedup ratios, miss counts, labels) never
    are — those are claims about shape, not wall-clock, and the tier-2
    bench tests already check them.  Structural drift (a table or row
    present on one side only) is a warning, not a failure: adding a
    benchmark must not fail the gate. *)

type regression = {
  table : string;  (** table id, e.g. ["t1"] *)
  row : int;  (** 0-based row index *)
  row_label : string;  (** first cell of the row *)
  header : string;  (** column header *)
  base_s : float;  (** baseline median, seconds *)
  cur_s : float;  (** current median, seconds *)
  ratio : float;  (** [cur_s /. base_s] *)
}

type verdict = {
  compared : int;  (** number of time cells compared *)
  regressions : regression list;
  warnings : string list;  (** structural mismatches *)
}

val compare :
  baseline:Json_min.t -> current:Json_min.t -> (verdict, string) result
(** [compare ~baseline ~current] flags every time cell whose median
    has [cur > base *. 1.5 +. 0.002] seconds: shared machines jitter, so
    the gate hunts order-of-magnitude regressions, not percent drift,
    and the 2 ms slack keeps microsecond-scale cells from tripping on
    noise.  [Error] when a dump is not structurally a [json_of_tables]
    document, and when the baseline holds time cells and the run
    matched none of them: a gate that compares nothing must not
    pass. *)

val ok : verdict -> bool
(** No regressions (warnings don't fail the gate). *)

val report : verdict -> string
(** Human-readable multi-line summary of the comparison. *)

(** {1 Perf trajectory}

    The trajectory file ([bench/BENCH_trajectory.json]) is a JSON array
    of dated run entries, newest last — see EXPERIMENTS.md for the entry
    schema.  It starts life empty, so the readers below treat "nothing
    there yet" as a first-class state rather than a parse error. *)

val load_trajectory : string -> (Json_min.t list, string) result
(** Entries of a trajectory file.  A missing file, an empty file, or a
    bare [[]] all load as [Ok []] — the trajectory simply has no entries
    yet.  Malformed JSON or a non-array document is still an [Error]
    naming the file. *)

val trajectory_entry :
  date:string -> label:string -> tables:Json_min.t -> Json_min.t
(** One run entry of the trajectory array.  [tables] is the
    [Table.json_of_tables] document of the run being recorded. *)

(** {1 Drift}

    The 1.5x regression gate compares against one committed baseline,
    so a slope of small slowdowns — each inside tolerance — can
    accumulate unnoticed until the gate finally trips.  [drift] walks
    the trajectory's {e adjacent} entry pairs with a tighter tolerance
    and surfaces the slope while it is still cheap to bisect. *)

type drift_step = {
  ds_from : string;  (** "date [label]" of the earlier entry *)
  ds_to : string;
  ds_verdict : verdict;  (** neighbour comparison at drift tolerance *)
}

val drift : Json_min.t list -> (drift_step list, string) result
(** Compare each adjacent pair of trajectory entries ({!load_trajectory}
    order, oldest first) at a tolerance of 1.2 — stricter than the
    gate's 1.5, because each step is one run against the very next, not
    against a months-old baseline.  A step that matches no time cell
    (across a change of cell format) compares nothing; its verdict says
    so.  Fewer than two entries yield [Ok []]. *)

val drift_report : drift_step list -> string
(** Human-readable summary: step count, then per step how many cells
    it compared and one [DRIFT] line per flagged cell. *)
