(* A region opened by [run] from inside a region of the same pool: the
   opening lane runs [rf] at once, and lanes parked in [await] join it
   until the opener has finished its own share. *)
type nested = {
  rf : unit -> unit;
  taken : bool array; (* lanes that ran (or are running) [rf] once *)
  mutable helpers : int; (* joined lanes still inside [rf] *)
  mutable rexn : exn option;
}

type t = {
  name : string;
  lanes : int;
  mu : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  idle_cv : Condition.t; (* lanes parked in [await] *)
  mutable task : (unit -> unit) option;
  mutable epoch : int; (* bumped once per region; workers wait for a bump *)
  mutable active : int; (* workers still inside the current region *)
  mutable workers : unit Domain.t list;
  mutable stopping : bool;
  mutable in_region : bool; (* a top-level region is running *)
  mutable exn : exn option; (* first failure observed in the region *)
  mutable nested : nested list; (* open nested regions, oldest first *)
  busy_ns : int array; (* cumulative per-lane busy ns; slot i written only
                          by lane i (caller = 0), read after the region *)
  mutable lane_gauges : Obs.Metrics.gauge array option; (* lazy, per lane *)
}

(* The (pool, lane) pairs the calling domain is running a region of,
   innermost first.  A worker domain is its pool's lane for life; the
   caller of a top-level [run] is lane 0 for the region's duration. *)
let lane_key : (t * int) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let lane_in t = List.assq_opt t (Domain.DLS.get lane_key)

let create ?(name = "pool") ~domains () =
  let lanes = max 1 domains in
  {
    name;
    lanes;
    mu = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    idle_cv = Condition.create ();
    task = None;
    epoch = 0;
    active = 0;
    workers = [];
    stopping = false;
    in_region = false;
    exn = None;
    nested = [];
    busy_ns = Array.make lanes 0;
    lane_gauges = None;
  }

let size t = t.lanes
let name t = t.name
let lane_busy_ns t = Array.copy t.busy_ns

let lane_gauge_of t i =
  let gs =
    match t.lane_gauges with
    | Some gs -> gs
    | None ->
        let gs =
          Array.init t.lanes (fun i ->
              Obs.Metrics.gauge
                ~help:
                  "Cumulative busy nanoseconds of one pool lane (lane 0 = \
                   the calling domain)"
                (Obs.Metrics.labelled "pool.lane_busy_ns"
                   [ ("pool", t.name); ("lane", string_of_int i) ]))
        in
        t.lane_gauges <- Some gs;
        gs
  in
  gs.(i)

(* Publish the cumulative per-lane busy time after every region;
   scrapers derive utilization from successive deltas. *)
let publish_busy t =
  for i = 0 to t.lanes - 1 do
    Obs.Metrics.set_gauge (lane_gauge_of t i) t.busy_ns.(i)
  done

let record_exn t e =
  (* called with t.mu held *)
  if t.exn = None then t.exn <- Some e

(* One lane's share of a region: run [f], charge its wall time to
   [lane] (only lane [lane] writes that slot), return its failure. *)
let run_share t ~lane f =
  let metrics = Obs.Metrics.enabled () in
  let t0 = if metrics then Obs.now_ns () else 0 in
  let failure = try f (); None with e -> Some e in
  if metrics then begin
    let dt = Obs.now_ns () - t0 in
    Obs.Metrics.record_ns (Obs.Metrics.timer "pool.lane_busy") dt;
    t.busy_ns.(lane) <- t.busy_ns.(lane) + dt
  end;
  failure

let worker t ~epoch0 ~lane =
  (* touch the domain-local Obs state so this lane is in the sampler's
     registry from birth, not from its first span *)
  ignore (Obs.now_ns ());
  Domain.DLS.set lane_key [ (t, lane) ];
  let seen = ref epoch0 in
  let rec loop () =
    Mutex.lock t.mu;
    while t.epoch = !seen && not t.stopping do
      Condition.wait t.work_cv t.mu
    done;
    if t.stopping then Mutex.unlock t.mu
    else begin
      seen := t.epoch;
      let f = Option.get t.task in
      Mutex.unlock t.mu;
      let failure = run_share t ~lane f in
      Mutex.lock t.mu;
      (match failure with Some e -> record_exn t e | None -> ());
      t.active <- t.active - 1;
      if t.active = 0 then Condition.broadcast t.done_cv;
      Mutex.unlock t.mu;
      loop ()
    end
  in
  loop ()

let shutdown t =
  Mutex.lock t.mu;
  let ws = t.workers in
  t.workers <- [];
  t.stopping <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  List.iter Domain.join ws;
  Mutex.lock t.mu;
  t.stopping <- false;
  Mutex.unlock t.mu

let ensure_started t =
  (* called with t.mu held; spawn the missing workers lazily *)
  let missing = t.lanes - 1 - List.length t.workers in
  if missing > 0 then begin
    if t.workers = [] then at_exit (fun () -> shutdown t);
    let t0 = if Obs.Metrics.enabled () then Obs.now_ns () else 0 in
    let epoch0 = t.epoch in
    for _ = 1 to missing do
      let lane = List.length t.workers + 1 in
      t.workers <- Domain.spawn (fun () -> worker t ~epoch0 ~lane) :: t.workers
    done;
    if Obs.Metrics.enabled () then begin
      Obs.Metrics.add (Obs.Metrics.counter "pool.domains_spawned") missing;
      Obs.Metrics.record_ns (Obs.Metrics.timer "pool.startup")
        (Obs.now_ns () - t0)
    end
  end

(* called with t.mu held *)
let record_nested_exn r failure =
  match failure with Some e when r.rexn = None -> r.rexn <- Some e | _ -> ()

(* Join [r] as [lane]: called and returns with t.mu held. *)
let help t ~lane r =
  r.taken.(lane) <- true;
  r.helpers <- r.helpers + 1;
  Mutex.unlock t.mu;
  let failure = run_share t ~lane r.rf in
  Mutex.lock t.mu;
  record_nested_exn r failure;
  r.helpers <- r.helpers - 1;
  if r.helpers = 0 then Condition.broadcast t.done_cv

let run_nested t ~lane f =
  let r =
    { rf = f; taken = Array.make t.lanes false; helpers = 0; rexn = None }
  in
  r.taken.(lane) <- true;
  Mutex.lock t.mu;
  t.nested <- t.nested @ [ r ];
  Condition.broadcast t.idle_cv;
  Mutex.unlock t.mu;
  let failure = run_share t ~lane f in
  Mutex.lock t.mu;
  (* closed to late joiners before waiting for the ones inside *)
  t.nested <- List.filter (fun r' -> r' != r) t.nested;
  record_nested_exn r failure;
  while r.helpers > 0 do
    Condition.wait t.done_cv t.mu
  done;
  Mutex.unlock t.mu;
  if Obs.Metrics.enabled () then publish_busy t;
  match r.rexn with Some e -> raise e | None -> ()

let run t f =
  if t.lanes = 1 then f ()
  else
    match lane_in t with
    | Some lane -> run_nested t ~lane f
    | None ->
        Mutex.lock t.mu;
        if t.in_region then begin
          (* another thread's region owns the workers: run serially *)
          Mutex.unlock t.mu;
          f ()
        end
        else begin
          let metrics = Obs.Metrics.enabled () in
          let t0 = if metrics then Obs.now_ns () else 0 in
          ensure_started t;
          t.task <- Some f;
          t.active <- t.lanes - 1;
          t.exn <- None;
          t.epoch <- t.epoch + 1;
          t.in_region <- true;
          Condition.broadcast t.work_cv;
          Mutex.unlock t.mu;
          let outer = Domain.DLS.get lane_key in
          Domain.DLS.set lane_key ((t, 0) :: outer);
          let failure = run_share t ~lane:0 f in
          Domain.DLS.set lane_key outer;
          Mutex.lock t.mu;
          (match failure with Some e -> record_exn t e | None -> ());
          while t.active > 0 do
            Condition.wait t.done_cv t.mu
          done;
          t.task <- None;
          t.in_region <- false;
          let e = t.exn in
          t.exn <- None;
          Mutex.unlock t.mu;
          if metrics then begin
            Obs.Metrics.incr (Obs.Metrics.counter "pool.regions");
            Obs.Metrics.record_ns (Obs.Metrics.timer "pool.region")
              (Obs.now_ns () - t0);
            publish_busy t
          end;
          match e with Some e -> raise e | None -> ()
        end

let await t poll =
  let lane =
    match lane_in t with
    | Some lane -> lane
    | None when t.lanes = 1 -> 0
    | None -> invalid_arg "Pool.await: the caller is not a lane of this pool"
  in
  Mutex.lock t.mu;
  let rec loop () =
    match poll () with
    | Some x ->
        Mutex.unlock t.mu;
        x
    | None ->
        (match List.find_opt (fun r -> not r.taken.(lane)) t.nested with
        | Some r -> help t ~lane r
        | None -> Condition.wait t.idle_cv t.mu);
        loop ()
    | exception e ->
        Mutex.unlock t.mu;
        raise e
  in
  loop ()

let wake t f =
  Mutex.lock t.mu;
  match f () with
  | woken ->
      if woken then Condition.broadcast t.idle_cv;
      Mutex.unlock t.mu
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let domains =
        match Sys.getenv_opt "BLOCKABILITY_DOMAINS" with
        | Some s -> (
            match int_of_string_opt (String.trim s) with
            | Some n when n >= 1 -> n
            | _ -> Domain.recommended_domain_count ())
        | None -> Domain.recommended_domain_count ()
      in
      let p = create ~name:"default" ~domains () in
      default_pool := Some p;
      p
