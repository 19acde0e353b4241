(* The multicore runtime: the deterministic chunk decomposition, the
   pool's sizing, exception safety, nested regions and busy accounting.
   Chunks are computed from the range, the pool size and the policy,
   never from timing, so a fan-out of independent chunks is bitwise
   reproducible (serve's batch tests check that end to end). *)

open Helpers

let domain_counts = [ 1; 2; 4 ]

let with_pool d f =
  let p = Pool.create ~domains:d () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* The chunk decomposition itself: disjoint, covering, ordered. *)
let gen_chunk_cfg =
  QCheck2.Gen.(
    let* lanes = int_range 1 9 in
    let* lo = int_range (-50) 50 in
    let* len = int_range 1 500 in
    let* guided = bool in
    let* min_chunk = int_range 1 40 in
    return (lanes, lo, len, guided, min_chunk))

let chunks_partition (lanes, lo, len, guided, min_chunk) =
  let hi = lo + len - 1 in
  let chunking =
    if guided then Parallel.Guided { min_chunk } else Parallel.Static
  in
  let cs = Parallel.chunks ~lanes ~chunking ~lo ~hi in
  let next = ref lo in
  let ok = ref (Array.length cs > 0) in
  Array.iter
    (fun (s, e) ->
      if s <> !next || e < s then ok := false;
      next := e + 1)
    cs;
  !ok && !next = hi + 1

let pool_reusable_after_exception () =
  with_pool 3 (fun pool ->
      (try
         Parallel.for_ ~pool ~lo:0 ~hi:100 (fun s _ ->
             if s > 0 then failwith "boom")
       with Failure _ -> ());
      let hits = Array.make 64 0 in
      Parallel.for_ ~pool ~lo:0 ~hi:63 (fun s e ->
          for i = s to e do
            hits.(i) <- hits.(i) + 1
          done);
      check_bool "every index visited exactly once" true
        (Array.for_all (fun x -> x = 1) hits))

let default_pool_respects_env () =
  (* BLOCKABILITY_DOMAINS is read once at first use; we can only assert
     the default pool exists and has at least one lane without forking,
     but the parse itself is testable via a fresh non-default pool. *)
  check_bool "default pool has >= 1 lane" true (Pool.size (Pool.default ()) >= 1);
  check_int "explicit size respected" 3 (Pool.size (Pool.create ~domains:3 ()));
  check_int "non-positive clamped" 1 (Pool.size (Pool.create ~domains:0 ()))

(* A nested [Parallel.for_], opened by one lane of a region, is joined
   by the other lanes parked in [Pool.await] — the serve daemon's shape
   — and computes bitwise what the serial loop does.  The opener's
   chunks hold until another lane has run one, so the join is observed
   rather than raced; the deadline turns a missing join into a failure,
   not a hang. *)
let nested_for_joined_by_idle_lanes () =
  let n = 96 in
  let body out s e =
    for i = s to e do
      let x = ref (float_of_int i) in
      for _ = 1 to 40 do
        x := (sin !x *. 1.5) +. 0.25
      done;
      out.(i) <- !x
    done
  in
  let serial = Array.make n 0.0 in
  body serial 0 (n - 1);
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          let out = Array.make n 0.0 in
          let opener = Atomic.make (-1) in
          let helped = Atomic.make false in
          let finished = ref false in
          let deadline = Unix.gettimeofday () +. 10.0 in
          Pool.run pool (fun () ->
              let me = (Domain.self () :> int) in
              if Atomic.compare_and_set opener (-1) me then begin
                Parallel.for_ ~pool
                  ~chunking:(Parallel.Guided { min_chunk = 1 })
                  ~lo:0 ~hi:(n - 1)
                  (fun s e ->
                    if (Domain.self () :> int) <> me then Atomic.set helped true
                    else if d > 1 then
                      while
                        (not (Atomic.get helped))
                        && Unix.gettimeofday () < deadline
                      do
                        Domain.cpu_relax ()
                      done;
                    body out s e);
                Pool.wake pool (fun () -> finished := true; true)
              end
              else
                Pool.await pool (fun () ->
                    if !finished then Some () else None));
          check_bool
            (Printf.sprintf "nested for_ bitwise equals serial (%d lanes)" d)
            true (out = serial);
          if d > 1 then
            check_bool
              (Printf.sprintf "an awaiting lane joined (%d lanes)" d)
              true (Atomic.get helped)))
    domain_counts

let pool_lane_busy_accounting () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ())
  @@ fun () ->
  Obs.Metrics.reset ();
  let pool = Pool.create ~name:"busytest" ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool)
  @@ fun () ->
  check_bool "one busy slot per lane (slot 0 = caller)" true
    (Array.length (Pool.lane_busy_ns pool) = 3);
  check_bool "fresh pool lanes idle" true
    (Array.for_all (fun ns -> ns = 0) (Pool.lane_busy_ns pool));
  let acc = Atomic.make 0 in
  Parallel.for_ ~pool ~lo:0 ~hi:50_000 (fun s e ->
      for _ = s to e do
        Atomic.incr acc
      done);
  check_bool "work all done" true (Atomic.get acc = 50_001);
  let busy = Pool.lane_busy_ns pool in
  check_bool "some lane accumulated busy time" true
    (Array.exists (fun ns -> ns > 0) busy);
  check_bool "busy counters never go negative" true
    (Array.for_all (fun ns -> ns >= 0) busy);
  check_bool "named pool keeps its name" true (Pool.name pool = "busytest");
  (* the cumulative per-lane gauges are published after every region *)
  let g0 =
    Obs.Metrics.gauge
      (Obs.Metrics.labelled "pool.lane_busy_ns"
         [ ("pool", "busytest"); ("lane", "0") ])
  in
  check_bool "caller-lane gauge mirrors the busy counter" true
    (Obs.Metrics.gauge_value g0 = busy.(0))

let suite =
  ( "parallel",
    [
      qcase ~count:200 "chunk decomposition partitions the range"
        gen_chunk_cfg chunks_partition;
      case "pool survives exceptions" pool_reusable_after_exception;
      case "pool sizing" default_pool_respects_env;
      case "nested for_ is joined by lanes in Pool.await"
        nested_for_joined_by_idle_lanes;
      case "pool per-lane busy accounting" pool_lane_busy_accounting;
    ] )
