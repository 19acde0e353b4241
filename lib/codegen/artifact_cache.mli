(** One content-addressed cache for everything blockc builds once and
    loads again: OCaml plugins ({!Jit}), C objects ({!Cc}), the C
    compiler's version probe, and derived IR (the serve daemon).

    Each {!kind} names its files [<prefix><key><ext>] in one directory
    ({!dir}: [BLOCKC_JIT_CACHE], default [_build/.jitcache]).  {!get}
    resolves a key in three steps: the kind's in-process table (a
    [Memo] hit, no file touched), else the file on disk (a [Disk] hit:
    one [load]), else a [build] and then a load ([Compiled]).

    - {b Single flight.}  While one caller builds or loads a key, other
      callers of the same key wait for its result instead of starting a
      second build ([dedup_waits]).  The table lock is never held
      across a build or a load, so a cold key stalls only its own
      callers.
    - {b Atomic writes.}  A build runs in a directory private to this
      process and this build ([.tmp-<pid>-<n>] in the cache), and its
      files are renamed into place, the artifact last.  A reader never
      sees a half-written file, and two processes building one key
      each rename a complete copy.  Before its first build in a
      directory, a process removes the build directories of processes
      that no longer exist (killed mid-build); processes that share a
      cache directory must share a pid namespace.
    - {b Load once.}  A loaded value stays in the table for the life of
      the process.  Native code cannot be unloaded ([Dynlink] never
      unloads, and [Cc] never [dlclose]s), so evicting an entry would
      free nothing, and loading the same plugin again would re-run its
      initializer.
    - {b Corrupt entries.}  A file whose [load] fails (a truncated
      object, an object importing a symbol the host lacks, a flipped
      byte in stored IR) is counted ([corrupt]), noted with its load
      error in the flight recorder ([cache.corrupt]), deleted and built
      again, once; a second failure is the caller's [Error].  Only
      what a [load] checks is caught: the directory is trusted like
      the daemon's own code. *)

type disposition = Memo | Disk | Compiled

val disposition_name : disposition -> string
(** ["memo"], ["disk"] or ["compiled"]: the spelling the CLI's
    [--json] output and the serve protocol use. *)

val dir : unit -> string
(** The cache directory, absolute. *)

val write_file : string -> string -> unit

val read_file : string -> string
(** The whole file; [""] when it cannot be read. *)

val truncated_elf : string -> bool
(** Whether a file is an ELF object cut short (its section header
    table runs past the end), which [dlopen] would map and then fault
    on.  Loaders of native objects call it first. *)

type 'a kind

val kind : ?keep:string list -> string -> prefix:string -> ext:string -> 'a kind
(** [kind name ~prefix ~ext] declares a kind of entry, counted under
    [name] in {!stats}.  [keep] lists extensions of side files a build
    writes next to the artifact ([.c] and [.vec] for C objects) that
    are moved into the cache with it.  Declare kinds once, at module
    initialization. *)

type 'a entry = {
  value : 'a;
  path : string;
      (** the entry's file: on a [Memo] hit, the one it was loaded
          from, which is in another directory if [BLOCKC_JIT_CACHE]
          changed since *)
  disposition : disposition;
  build_s : float;  (** wall seconds in [build]; 0 unless [Compiled] *)
}

val get :
  'a kind ->
  key:string ->
  build:(string -> (unit, string) result) ->
  load:(string -> ('a, string) result) ->
  ('a entry, string) result
(** [build tmp] writes [Filename.concat tmp (prefix ^ key ^ ext)] (and
    any [keep] side files with the same stem); [load path] reads an
    entry back.  Neither runs on a memo hit.  Exceptions from either
    come back as [Error]; a failed key is not remembered, so the next
    caller tries again. *)

(** {1 Counters}

    Exact per process, whether or not [Obs.Metrics] is enabled (and
    mirrored there as [artifact_cache.<counter>{kind=...}]). *)

type stats = {
  kind_name : string;
  loaded : int;  (** entries held in the process (each loaded once) *)
  memo_hits : int;
  disk_hits : int;  (** entries loaded from a file another run wrote *)
  builds : int;  (** calls of [build]: compiler runs, derivations, probes *)
  corrupt : int;  (** files whose load failed and were rebuilt *)
  dedup_waits : int;  (** callers that waited on another's build *)
}

val stats : 'a kind -> stats

val all_stats : unit -> stats list
(** Every declared kind, in declaration order. *)

(** {1 The directory} *)

type disk = {
  entries : int;  (** [bk_*.cmxs] / [bk_*.so] artifacts *)
  bytes : int;  (** their total size *)
  oldest_age_s : float;  (** age of the oldest; 0 when empty *)
}

val disk_stats : unit -> disk
(** Scan the compiled artifacts on disk.  Advisory: races with
    concurrent builds are harmless, and an absent directory reads as
    empty. *)

val disk_evictions : unit -> int
(** Artifacts deleted so far in this process to keep the cache under
    [BLOCKC_JIT_DISK_CAP] (a byte budget; unset means no limit).  After
    every build, compiled artifacts are deleted oldest-mtime-first,
    with their side files, until the cache fits; the entry just built
    is never deleted. *)
