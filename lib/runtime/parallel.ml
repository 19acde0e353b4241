type chunking =
  | Static
  | Guided of { min_chunk : int }

let chunks ~lanes ~chunking ~lo ~hi =
  let total = hi - lo + 1 in
  if total <= 0 then [||]
  else
    match chunking with
    | Static ->
        (* lane boundaries at i*total/lanes *)
        let cut i = if i >= lanes then total else i * total / lanes in
        let cs = ref [] in
        for i = lanes - 1 downto 0 do
          let s = cut i and e = cut (i + 1) in
          if e > s then cs := (lo + s, lo + e - 1) :: !cs
        done;
        Array.of_list !cs
    | Guided { min_chunk } ->
        let min_chunk = max 1 min_chunk in
        let cs = ref [] and start = ref lo in
        while !start <= hi do
          let remaining = hi - !start + 1 in
          let c = max min_chunk (remaining / (2 * lanes)) in
          let c = min c remaining in
          cs := (!start, !start + c - 1) :: !cs;
          start := !start + c
        done;
        Array.of_list (List.rev !cs)

let for_ ?pool ?(chunking = Static) ~lo ~hi f =
  if hi >= lo then begin
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let lanes = Pool.size pool in
    if lanes = 1 then f lo hi
    else begin
      let cs = chunks ~lanes ~chunking ~lo ~hi in
      let n = Array.length cs in
      if n <= 1 then f lo hi
      else begin
        let metrics = Obs.Metrics.enabled () in
        if metrics then begin
          Obs.Metrics.incr (Obs.Metrics.counter "par.loops");
          Obs.Metrics.add (Obs.Metrics.counter "par.chunks") n;
          let h =
            Obs.Metrics.histogram
              (match chunking with
              | Static -> "par.chunk_size.static"
              | Guided _ -> "par.chunk_size.guided")
          in
          Array.iter (fun (s, e) -> Obs.Metrics.observe h (e - s + 1)) cs
        end;
        (* Capture the caller's trace context and re-install it in every
           lane, so chunk spans executed on worker domains stay children
           of the span that called [for_]. *)
        let ctx = Obs.Ctx.current () in
        let traced = Obs.enabled () in
        let next = Atomic.make 0 in
        Pool.run pool (fun () ->
            Obs.Ctx.with_ctx ctx (fun () ->
                (* Per-lane busy time: accumulate chunk wall-time locally
                   and fold it into a cumulative per-domain gauge once at
                   lane exit, so scrapers can diff utilization without
                   the lane contending on the registry per chunk. *)
                let lane_busy = ref 0 in
                let continue = ref true in
                while !continue do
                  let i = Atomic.fetch_and_add next 1 in
                  if i >= n then continue := false
                  else
                    let s, e = cs.(i) in
                    let body () =
                      if metrics then begin
                        let t0 = Obs.now_ns () in
                        let finish () =
                          let dt = Obs.now_ns () - t0 in
                          Obs.Metrics.record_ns
                            (Obs.Metrics.timer "par.chunk") dt;
                          lane_busy := !lane_busy + dt
                        in
                        match f s e with
                        | () -> finish ()
                        | exception ex ->
                            finish ();
                            raise ex
                      end
                      else f s e
                    in
                    if traced then
                      Obs.span ~cat:"runtime" "par.chunk"
                        ~args:[ ("lo", Obs.Int s); ("hi", Obs.Int e) ]
                        body
                    else body ()
                done;
                if metrics && !lane_busy > 0 then begin
                  let g =
                    Obs.Metrics.gauge
                      ~help:
                        "Cumulative busy nanoseconds of one domain inside \
                         Parallel.for_ chunks"
                      (Obs.Metrics.labelled "par.lane_busy_ns"
                         [
                           ("domain",
                            string_of_int (Domain.self () :> int));
                         ])
                  in
                  Obs.Metrics.set_gauge g
                    (Obs.Metrics.gauge_value g + !lane_busy)
                end))
      end
    end
  end
