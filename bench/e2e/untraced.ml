(* The timed run: the real daemon over a pipe, one request in flight. *)

type outcome = {
  setup_ns : int list;  (** one per daemon (cycles) or round *)
  rss_kb : int list;  (** VmHWM of each daemon, read before shutdown *)
  artifact_bytes : int list;  (** bk_* artifacts in each daemon's cache *)
  timed_ns : int;  (** wall time of the timed phases *)
  timed : (Workload.req * int) list;  (** every timed request, oldest first *)
}

(* Each run has at least this many timed requests, so that ten lie
   beyond p90. *)
let min_samples = 100

(* Cycle workloads split the time over this many daemons, each set up
   from an empty cache, so set-up is measured more than once a run. *)
let daemons = 2

(* Round workloads: at least this many rounds (3 x 38 requests). *)
let min_rounds = 3

let run (ctx : Session.ctx) w ~seed ~seconds =
  Session.warm_toolchains ctx;
  let rng = Workload.rng ~seed in
  let setup = ref [] and rss = ref [] and art = ref [] in
  let timed_ns = ref 0 and timed = ref [] in
  let now = Client.now_ns in
  let budget = int_of_float (seconds *. 1e9) in
  let start ~cache =
    let d, s = Session.start ctx ~cache ~mix:(Workload.mix w) in
    setup := s :: !setup;
    d
  in
  (* Replay requests in order; a dead daemon fails the rest of them. *)
  let replay d reqs =
    let t0 = now () in
    List.iter (fun r -> timed := (r, Session.send ctx d r) :: !timed) reqs;
    timed_ns := !timed_ns + (now () - t0)
  in
  let finish (d : Client.t) cache =
    Option.iter (fun k -> rss := k :: !rss) (Client.vm_hwm_kb d.Client.pid);
    art := Fs.artifact_bytes cache :: !art;
    Client.shutdown d
  in
  if Workload.rounds w then begin
    (* Restart rounds all read the cache one untimed cold round fills. *)
    let filled =
      match w with
      | Workload.Restart -> Some (Session.filled_cache ctx (Workload.cycle w rng))
      | _ -> None
    in
    let t_start = now () in
    let n = ref 0 in
    while !n < min_rounds || now () - t_start < budget do
      let cache =
        match filled with Some c -> c | None -> Session.fresh_dir ctx "cache"
      in
      let d = start ~cache in
      replay d (Workload.cycle w rng);
      finish d cache;
      incr n
    done
  end
  else
    for _ = 1 to daemons do
      let cache = Session.fresh_dir ctx "cache" in
      let d = start ~cache in
      let t0 = now () and n0 = List.length !timed in
      while
        d.Client.alive
        && (now () - t0 < budget / daemons
           || List.length !timed - n0 < min_samples / daemons)
      do
        replay d (Workload.cycle w rng)
      done;
      finish d cache
    done;
  {
    setup_ns = List.rev !setup;
    rss_kb = List.rev !rss;
    artifact_bytes = List.rev !art;
    timed_ns = !timed_ns;
    timed = List.rev !timed;
  }

let ms ns = float_of_int ns /. 1e6

(* The end-to-end metrics, in [Spec.e2e] order.  Latency percentiles
   run over the tally's samples, where a failed request sits at the
   timeout.  A run whose daemons died early has none, or too few for
   p90: those are left out, with the reason on stderr. *)
let metrics o (tally : Client.tally) =
  let fl = List.map float_of_int in
  let lat = List.map ms tally.Client.samples in
  if o.timed = [] || o.rss_kb = [] then []
  else
    [
      ("setup_s", Stats.median (fl o.setup_ns) /. 1e9);
      ("latency_ms.p50", Stats.median lat);
    ]
    @ (match Stats.p90 lat with
      | Ok v -> [ ("latency_ms.p90", v) ]
      | Error m ->
          prerr_endline ("e2e: latency_ms.p90 missing: " ^ m);
          [])
    @ [
        ( "throughput_rps",
          float_of_int (List.length o.timed) /. (float_of_int o.timed_ns /. 1e9) );
        ("rss_peak_mb", float_of_int (List.fold_left max 0 o.rss_kb) /. 1024.);
        ("artifact_kb", Stats.median (fl o.artifact_bytes) /. 1024.);
      ]

(* Median latency per request type, in ms. *)
let per_type o =
  Stats.group (List.map (fun (r, ns) -> (Workload.key r, ms ns)) o.timed)
  |> List.map (fun (k, v) -> (k, Stats.median v, List.length v))

(* The blocking gain a client of the daemon sees, from median request
   latencies.  Meaningful on hot-exec only, so it is kept in the result
   file rather than printed as a metric. *)
let blocked_speedup o =
  Workload.blocked_ratio (List.map (fun (k, m, _) -> (k, m)) (per_type o))
