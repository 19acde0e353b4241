type value = Str of string | Int of int | Float of float | Bool of bool

type kind = Begin | End | Instant

type event = {
  name : string;
  cat : string;
  kind : kind;
  ts : int;
  depth : int;
  track : int;
  trace : int;
  span_id : int;
  parent : int;
  args : (string * value) list;
}

type sink = { emit : event -> unit; flush_sink : unit -> unit }

let null = { emit = (fun _ -> ()); flush_sink = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let now_ns = Measure.now_ns

(* ------------------------------------------------------------------ *)
(* Trace context and per-domain state                                  *)
(* ------------------------------------------------------------------ *)

type ctx = { trace_id : int; span_id : int; parent : int }

(* Span depth and the active trace context are domain-local: two
   domains emitting spans concurrently must not corrupt each other's
   nesting (the pre-context implementation kept one global depth
   counter and raced).

   [d_stack] is the live span-name stack (innermost first), maintained
   only while the {!Sampler} is running: the field always holds an
   immutable list, so the sampler domain can read it without a lock —
   a racy read sees either the pre- or post-push stack, never a torn
   value, which is exactly the semantics a statistical profiler wants. *)
type dstate = {
  mutable d_depth : int;
  mutable d_ctx : ctx option;
  mutable d_stack : string list;
}

(* Cross-domain registry of every domain's [dstate]: DLS is only
   reachable from its own domain, so the sampler needs this side table.
   Registered once per domain at DLS init; entries for terminated
   domains linger harmlessly (their stacks drained to [] when the last
   span closed, so they just sample as idle). *)
let registry_mu = Mutex.create ()
let registry : (int * dstate) list ref = ref []

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = { d_depth = 0; d_ctx = None; d_stack = [] } in
      let id = (Domain.self () :> int) in
      Mutex.lock registry_mu;
      registry := (id, s) :: !registry;
      Mutex.unlock registry_mu;
      s)

let dstate () = Domain.DLS.get dls

(* Process-unique span/trace ids: an atomic counter salted per process,
   bit-mixed so ids from different processes or restarts don't visually
   collide.  The multiplier and xorshift are invertible mod 2^63, so
   distinct counter values always yield distinct ids. *)
let id_counter = Atomic.make 1

let id_salt =
  int_of_float (Unix.gettimeofday () *. 1e6) lxor (Unix.getpid () * 0x9E3779B9)

let gen_id () =
  let x = Atomic.fetch_and_add id_counter 1 + id_salt in
  let z = x * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 29) in
  let z = (z * 0x27220A95) + 0x9E3779B9 in
  let z = (z lxor (z lsr 32)) land max_int in
  if z = 0 then 1 else z

module Ctx = struct
  type t = ctx = { trace_id : int; span_id : int; parent : int }

  let current () = (dstate ()).d_ctx

  let fresh () =
    let id = gen_id () in
    { trace_id = id; span_id = id; parent = 0 }

  let with_ctx c f =
    let s = dstate () in
    let saved = s.d_ctx in
    s.d_ctx <- c;
    Fun.protect ~finally:(fun () -> s.d_ctx <- saved) f

  let id_hex = Printf.sprintf "%012x"
end

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)
(* ------------------------------------------------------------------ *)

let current = ref null
let is_enabled = ref false
let mu = Mutex.create ()

let set_sink s =
  current := s;
  is_enabled := s != null

let current_sink () = !current
let enabled () = !is_enabled

let emit ev =
  let s = !current in
  if s != null then begin
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> s.emit ev)
  end

let flush () =
  let s = !current in
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) (fun () -> s.flush_sink ())

(* ------------------------------------------------------------------ *)
(* Emission API                                                        *)
(* ------------------------------------------------------------------ *)

let mk ~kind ~cat ~args name =
  let s = dstate () in
  let trace, span_id, parent =
    match s.d_ctx with
    | Some c -> (c.trace_id, c.span_id, c.parent)
    | None -> (0, 0, 0)
  in
  {
    name;
    cat;
    kind;
    ts = now_ns ();
    depth = s.d_depth;
    track = (Domain.self () :> int);
    trace;
    span_id;
    parent;
    args;
  }

let instant ?(cat = "event") ?(args = []) name =
  if !is_enabled then emit (mk ~kind:Instant ~cat ~args name)

(* Set by [Sampler.start]/[Sampler.stop]: when true, [span] pushes the
   span name onto the domain's live stack (one cons + two stores on the
   hot path) so the ticker domain can attribute samples.  Kept separate
   from [is_enabled] — sampling does not require a sink. *)
let stack_on = ref false

let span ?(cat = "span") ?(args = []) name f =
  let emit_on = !is_enabled and stacking = !stack_on in
  if not (emit_on || stacking) then f ()
  else begin
    let s = dstate () in
    let saved_ctx = s.d_ctx in
    let saved_stack = s.d_stack in
    if stacking then s.d_stack <- name :: saved_stack;
    if emit_on then begin
      (* Fork a child span id under an active trace so the Begin/End
         pair carries its own identity and its parent's. *)
      (match saved_ctx with
      | Some c ->
          s.d_ctx <-
            Some { trace_id = c.trace_id; span_id = gen_id (); parent = c.span_id }
      | None -> ());
      emit (mk ~kind:Begin ~cat ~args name);
      s.d_depth <- s.d_depth + 1
    end;
    let finish () =
      if emit_on then begin
        s.d_depth <- s.d_depth - 1;
        emit (mk ~kind:End ~cat ~args:[] name);
        s.d_ctx <- saved_ctx
      end;
      if stacking then s.d_stack <- saved_stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let span_stack () = (dstate ()).d_stack

let decision ~transform ~target ~applied ~reason ?(evidence = []) () =
  if !is_enabled then
    emit
      (mk ~kind:Instant ~cat:"decision"
         ~args:
           (("target", Str target) :: ("applied", Bool applied)
           :: ("reason", Str reason) :: evidence)
         transform)

let decide ~transform ~target ?(evidence = []) (r : ('a, string) result) =
  if !is_enabled then
    (match r with
    | Ok _ -> decision ~transform ~target ~applied:true ~reason:"legal" ~evidence ()
    | Error m -> decision ~transform ~target ~applied:false ~reason:m ~evidence ());
  r

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let string_of_value = function
  | Str s -> s
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b

let kind_name = function Begin -> "begin" | End -> "end" | Instant -> "instant"

(* Trace-context args shared by every rendering. *)
let ctx_args ev =
  if ev.trace = 0 then []
  else
    ("trace", Str (Ctx.id_hex ev.trace))
    :: ("span", Str (Ctx.id_hex ev.span_id))
    :: (if ev.parent = 0 then [] else [ ("parent", Str (Ctx.id_hex ev.parent)) ])

let json_fields args =
  List.map
    (fun (k, v) ->
      ( k,
        match v with
        | Str s -> Json_min.String s
        | Int n -> Json_min.int n
        | Float f -> Json_min.Number f
        | Bool b -> Json_min.Bool b ))
    args

let json_of_event ev =
  Json_min.Object
    ([
       ("name", Json_min.String ev.name);
       ("cat", Json_min.String ev.cat);
       ("kind", Json_min.String (kind_name ev.kind));
       (* boot-relative nanoseconds pass 2^53, where a Json_min number
          stops being exact, after 104 days of uptime *)
       ("ts", Json_min.String (string_of_int ev.ts));
       ("depth", Json_min.int ev.depth);
       ("track", Json_min.int ev.track);
     ]
    @ json_fields (ctx_args ev)
    @ [ ("args", Json_min.Object (json_fields ev.args)) ])

let text oc =
  let emit ev =
    let indent = String.make (2 * ev.depth) ' ' in
    let marker = match ev.kind with Begin -> ">" | End -> "<" | Instant -> "." in
    Printf.fprintf oc "%12dns %-9s %s%s %s" ev.ts ev.cat indent marker ev.name;
    List.iter
      (fun (k, v) -> Printf.fprintf oc " %s=%s" k (string_of_value v))
      ev.args;
    output_char oc '\n'
  in
  { emit; flush_sink = (fun () -> Stdlib.flush oc) }

let jsonl oc =
  let emit ev =
    output_string oc (Json_min.to_string (json_of_event ev));
    output_char oc '\n'
  in
  { emit; flush_sink = (fun () -> Stdlib.flush oc) }

let chrome oc =
  let events = ref [] in
  let emit ev = events := ev :: !events in
  let chrome_event ev =
    let ph = match ev.kind with Begin -> "B" | End -> "E" | Instant -> "i" in
    Json_min.Object
      ([
         ("name", Json_min.String ev.name);
         ("cat", Json_min.String ev.cat);
         ("ph", Json_min.String ph);
         ("ts", Json_min.Number (float_of_int ev.ts /. 1e3));
         ("pid", Json_min.int 1);
         (* One Chrome "thread" track per emitting domain (+1 keeps the
            main domain on the historical tid 1). *)
         ("tid", Json_min.int (ev.track + 1));
       ]
      @ (match ev.kind with
        | Instant -> [ ("s", Json_min.String "t") ]
        | Begin | End -> [])
      @ [ ("args", Json_min.Object (json_fields (ctx_args ev @ ev.args))) ])
  in
  let flush_sink () =
    output_string oc
      (Json_min.to_string
         (Json_min.Object
            [
              ( "traceEvents",
                Json_min.Array (List.rev_map chrome_event !events) );
            ]));
    output_char oc '\n';
    Stdlib.flush oc
  in
  { emit; flush_sink }

let memory () =
  let acc = ref [] in
  ( { emit = (fun ev -> acc := ev :: !acc); flush_sink = (fun () -> ()) },
    fun () -> List.rev !acc )

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    flush_sink =
      (fun () ->
        a.flush_sink ();
        b.flush_sink ());
  }

let sink_of_name name oc =
  match name with
  | "text" -> Ok (text oc)
  | "json" -> Ok (jsonl oc)
  | "chrome" -> Ok (chrome oc)
  | _ -> Error (Printf.sprintf "unknown trace sink %S (expected text, json or chrome)" name)

let init_from_env () =
  match Sys.getenv_opt "BLOCKABILITY_TRACE" with
  | None | Some "" -> ()
  | Some spec -> (
      let name, path =
        match String.index_opt spec ':' with
        | Some i ->
            ( String.sub spec 0 i,
              Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
        | None -> (spec, None)
      in
      if name = "chrome" && path = None then
        prerr_endline
          "BLOCKABILITY_TRACE: chrome needs an output file (chrome:PATH); tracing disabled"
      else
        let oc =
          match path with
          | None -> Some stderr
          | Some p -> (
              match open_out p with
              | oc -> Some oc
              | exception Sys_error m ->
                  Printf.eprintf "BLOCKABILITY_TRACE: cannot open %s: %s\n%!" p m;
                  None)
        in
        match oc with
        | None -> ()
        | Some oc -> (
            match sink_of_name name oc with
            | Ok s ->
                set_sink s;
                at_exit (fun () ->
                    flush ();
                    if oc != stderr then close_out_noerr oc)
            | Error m -> Printf.eprintf "BLOCKABILITY_TRACE: %s\n%!" m))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Recorder = struct
  (* A bounded ring of recent events, independent of the sink and of
     [enabled ()]: [note] always lands in the ring, so the serve path
     can afford to record every request and flush the recent history
     when something goes wrong, without paying for full tracing.  The
     ring is mutex-protected (writers are rare and the critical section
     is a few stores); the disabled-instant fast path in [instant] is
     untouched, so the zero-allocation guarantee of the null sink
     still holds.

     Rings are first-class ([create]); the module-level functions
     operate on one process-global ring whose initial capacity honours
     [BLOCKC_RECORDER_CAP] (default 256). *)
  type ring = {
    rmu : Mutex.t;
    mutable rbuf : event option array;
    mutable rhead : int;
    mutable rcount : int;
  }

  let default_capacity () =
    match
      Option.bind (Sys.getenv_opt "BLOCKC_RECORDER_CAP") int_of_string_opt
    with
    | Some n when n >= 1 -> n
    | _ -> 256

  let create ?capacity () =
    let cap =
      match capacity with Some c -> max 1 c | None -> default_capacity ()
    in
    { rmu = Mutex.create (); rbuf = Array.make cap None; rhead = 0; rcount = 0 }

  let global = create ()

  let locked_in r f =
    Mutex.lock r.rmu;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.rmu) f

  let locked f = locked_in global f

  let ring_capacity r = locked_in r (fun () -> Array.length r.rbuf)
  let capacity () = ring_capacity global

  let resize r n =
    locked_in r (fun () ->
        r.rbuf <- Array.make (max 1 n) None;
        r.rhead <- 0;
        r.rcount <- 0)

  let set_capacity n = resize global n

  let clear () =
    locked (fun () ->
        Array.fill global.rbuf 0 (Array.length global.rbuf) None;
        global.rhead <- 0;
        global.rcount <- 0)

  let record_to r ev =
    locked_in r (fun () ->
        let b = r.rbuf in
        let cap = Array.length b in
        b.(r.rhead) <- Some ev;
        r.rhead <- (r.rhead + 1) mod cap;
        if r.rcount < cap then r.rcount <- r.rcount + 1)

  let record ev = record_to global ev

  let note ?(cat = "recorder") ?(args = []) name =
    record (mk ~kind:Instant ~cat ~args name)

  let recent_of r =
    locked_in r (fun () ->
        let b = r.rbuf in
        let cap = Array.length b in
        let out = ref [] in
        for i = r.rcount downto 1 do
          (* oldest slot is head - count (mod cap); walk forward *)
          match b.((r.rhead - i + (2 * cap)) mod cap) with
          | Some ev -> out := ev :: !out
          | None -> ()
        done;
        List.rev !out)

  let recent () = recent_of global

  let sink_of r = { emit = record_to r; flush_sink = (fun () -> ()) }
  let sink () = sink_of global

  let to_lines () =
    List.map
      (fun ev ->
        let b = Buffer.create 64 in
        Buffer.add_string b
          (Printf.sprintf "%12dns %-9s t%d %s %s" ev.ts ev.cat ev.track
             (match ev.kind with Begin -> ">" | End -> "<" | Instant -> ".")
             ev.name);
        List.iter
          (fun (k, v) ->
            Buffer.add_string b (Printf.sprintf " %s=%s" k (string_of_value v)))
          (ctx_args ev @ ev.args);
        Buffer.contents b)
      (recent ())

  let dump () =
    match to_lines () with
    | [] -> ""
    | lines ->
        "flight recorder (oldest first):\n"
        ^ String.concat "\n" (List.map (fun l -> "  " ^ l) lines)
        ^ "\n"
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  let on = ref false
  let enabled () = !on
  let set_enabled b = on := b

  type counter = { cname : string; n : int Atomic.t }

  type histogram = {
    hname : string;
    hbuckets : int Atomic.t array;
    hcount : int Atomic.t;
    hsum : int Atomic.t;
    hmax : int Atomic.t;
  }

  type timer = { tname : string; total : int Atomic.t; tcalls : int Atomic.t }
  type gauge = { gname : string; gvalue : int Atomic.t; gpeak : int Atomic.t }

  (* Log-linear (HDR-style) buckets: values 0..15 are exact, then each
     power-of-two octave is split into 16 linear sub-buckets, bounding
     the quantile quantization error at ~6.25% while spanning the full
     63-bit range in under a thousand buckets. *)
  let sub_bits = 4
  let sub_count = 1 lsl sub_bits
  let max_group = 61
  let n_buckets = sub_count + ((max_group - sub_bits + 1) * sub_count)

  let msb v =
    let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
    go v 0

  let bucket_of v =
    if v < 0 then 0
    else if v < sub_count then v
    else
      let g = min max_group (msb v) in
      let shift = g - sub_bits in
      let sub = (v lsr shift) - sub_count in
      sub_count + (shift * sub_count) + min (sub_count - 1) sub

  (* Inclusive upper bound of bucket [i]. *)
  let bound_of i =
    if i < sub_count then i
    else
      let k = i - sub_count in
      let shift = k / sub_count and sub = k mod sub_count in
      ((sub + sub_count + 1) lsl shift) - 1

  let reg_mu = Mutex.create ()
  let counters : counter list ref = ref []
  let histograms : histogram list ref = ref []
  let timers : timer list ref = ref []
  let gauges : gauge list ref = ref []

  (* Per-metric doc strings, keyed by the label-free base name so every
     label set of one family shares one HELP line (first registration
     wins).  Written under [reg_mu]; read by [prometheus] which also
     holds the registry lists stable. *)
  let helps : (string, string) Hashtbl.t = Hashtbl.create 32

  let base_of name =
    match String.index_opt name '{' with
    | Some i -> String.sub name 0 i
    | None -> name

  let register_help name help =
    match help with
    | None -> ()
    | Some h ->
        let base = base_of name in
        if not (Hashtbl.mem helps base) then Hashtbl.add helps base h

  let labelled name labels =
    match labels with
    | [] -> name
    | _ ->
        name ^ "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
        ^ "}"

  let counter ?help name =
    Mutex.lock reg_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mu)
      (fun () ->
        register_help name help;
        match List.find_opt (fun c -> String.equal c.cname name) !counters with
        | Some c -> c
        | None ->
            let c = { cname = name; n = Atomic.make 0 } in
            counters := c :: !counters;
            c)

  let add c k = if !on then ignore (Atomic.fetch_and_add c.n k)
  let incr c = add c 1
  let count c = Atomic.get c.n

  let histogram ?help name =
    Mutex.lock reg_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mu)
      (fun () ->
        register_help name help;
        match List.find_opt (fun h -> String.equal h.hname name) !histograms with
        | Some h -> h
        | None ->
            let h =
              {
                hname = name;
                hbuckets = Array.init n_buckets (fun _ -> Atomic.make 0);
                hcount = Atomic.make 0;
                hsum = Atomic.make 0;
                hmax = Atomic.make 0;
              }
            in
            histograms := h :: !histograms;
            h)

  let observe h v =
    if !on then begin
      let v = max 0 v in
      ignore (Atomic.fetch_and_add h.hbuckets.(bucket_of v) 1);
      ignore (Atomic.fetch_and_add h.hcount 1);
      ignore (Atomic.fetch_and_add h.hsum v);
      let rec bump () =
        let m = Atomic.get h.hmax in
        if v > m && not (Atomic.compare_and_set h.hmax m v) then bump ()
      in
      bump ()
    end

  let buckets h =
    let out = ref [] in
    for i = n_buckets - 1 downto 0 do
      let n = Atomic.get h.hbuckets.(i) in
      if n > 0 then out := (bound_of i, n) :: !out
    done;
    !out

  let hist_count h = Atomic.get h.hcount
  let hist_sum h = Atomic.get h.hsum
  let hist_max h = Atomic.get h.hmax

  let percentile h q =
    let total = hist_count h in
    if total = 0 then 0
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = min total (max 1 (int_of_float (ceil (q *. float_of_int total)))) in
      let res = ref (hist_max h) in
      let cum = ref 0 in
      (try
         for i = 0 to n_buckets - 1 do
           let n = Atomic.get h.hbuckets.(i) in
           if n > 0 then begin
             cum := !cum + n;
             if !cum >= rank then begin
               (* the bucket bound can overshoot the largest value seen *)
               res := min (bound_of i) (hist_max h);
               raise Exit
             end
           end
         done
       with Exit -> ());
      !res
    end

  let timer ?help name =
    Mutex.lock reg_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mu)
      (fun () ->
        register_help name help;
        match List.find_opt (fun t -> String.equal t.tname name) !timers with
        | Some t -> t
        | None ->
            let t = { tname = name; total = Atomic.make 0; tcalls = Atomic.make 0 } in
            timers := t :: !timers;
            t)

  let record_ns t ns =
    if !on then begin
      ignore (Atomic.fetch_and_add t.total ns);
      ignore (Atomic.fetch_and_add t.tcalls 1)
    end

  let time t f =
    if not !on then f ()
    else begin
      let t0 = now_ns () in
      let finish () = record_ns t (now_ns () - t0) in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let total_ns t = Atomic.get t.total
  let calls t = Atomic.get t.tcalls

  let gauge ?help name =
    Mutex.lock reg_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mu)
      (fun () ->
        register_help name help;
        match List.find_opt (fun g -> String.equal g.gname name) !gauges with
        | Some g -> g
        | None ->
            let g =
              { gname = name; gvalue = Atomic.make 0; gpeak = Atomic.make 0 }
            in
            gauges := g :: !gauges;
            g)

  let set_gauge g v =
    if !on then begin
      Atomic.set g.gvalue v;
      (* lock-free watermark: lose the race, retry against the new peak *)
      let rec bump () =
        let p = Atomic.get g.gpeak in
        if v > p && not (Atomic.compare_and_set g.gpeak p v) then bump ()
      in
      bump ()
    end

  let gauge_value g = Atomic.get g.gvalue
  let gauge_peak g = Atomic.get g.gpeak

  let quantiles = [ 0.5; 0.9; 0.99 ]

  (* ---- Prometheus text exposition ---- *)

  (* A metric name may carry labels inline — ["serve.errors{class=\"parse\"}"]
     (see [labelled]); the base name is sanitized into the Prometheus
     grammar and the label block is kept verbatim, so every label set of
     one base name lands in one metric family. *)
  let split_labels name =
    match String.index_opt name '{' with
    | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))
    | None -> (name, "")

  let sanitize base =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      base

  let merge_label labels extra =
    if labels = "" then "{" ^ extra ^ "}"
    else String.sub labels 0 (String.length labels - 1) ^ "," ^ extra ^ "}"

  let prometheus () =
    let buf = Buffer.create 1024 in
    let typed = Hashtbl.create 32 in
    (* HELP precedes TYPE for a family, once, sourced from the doc
       string given at registration (keyed by the label-free base name,
       so suffix families like _peak share the base's text). *)
    let single_line s =
      String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s
    in
    let typeline ?base family kind =
      if not (Hashtbl.mem typed family) then begin
        Hashtbl.add typed family ();
        (match Option.bind base (Hashtbl.find_opt helps) with
        | Some h ->
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" family (single_line h))
        | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" family kind)
      end
    in
    let family name suffix =
      let base, labels = split_labels name in
      ("blockc_" ^ sanitize base ^ suffix, labels)
    in
    let line fam labels v =
      Buffer.add_string buf (Printf.sprintf "%s%s %d\n" fam labels v)
    in
    let by_name n a b = String.compare (n a) (n b) in
    List.iter
      (fun c ->
        let fam, labels = family c.cname "_total" in
        typeline ~base:(base_of c.cname) fam "counter";
        line fam labels (Atomic.get c.n))
      (List.sort (by_name (fun c -> c.cname)) !counters);
    List.iter
      (fun t ->
        let fam_ns, labels = family t.tname "_ns_total" in
        typeline ~base:(base_of t.tname) fam_ns "counter";
        line fam_ns labels (total_ns t);
        let fam_calls, _ = family t.tname "_calls_total" in
        typeline ~base:(base_of t.tname) fam_calls "counter";
        line fam_calls labels (calls t))
      (List.sort (by_name (fun t -> t.tname)) !timers);
    List.iter
      (fun g ->
        let fam, labels = family g.gname "" in
        typeline ~base:(base_of g.gname) fam "gauge";
        line fam labels (gauge_value g);
        let fam_peak, _ = family g.gname "_peak" in
        typeline ~base:(base_of g.gname) fam_peak "gauge";
        line fam_peak labels (gauge_peak g))
      (List.sort (by_name (fun g -> g.gname)) !gauges);
    List.iter
      (fun h ->
        if hist_count h > 0 then begin
          let fam, labels = family h.hname "" in
          typeline ~base:(base_of h.hname) fam "summary";
          List.iter
            (fun q ->
              let ql = merge_label labels (Printf.sprintf "quantile=\"%g\"" q) in
              line fam ql (percentile h q))
            quantiles;
          line (fam ^ "_sum") labels (hist_sum h);
          line (fam ^ "_count") labels (hist_count h);
          let fam_max, _ = family h.hname "_max" in
          typeline ~base:(base_of h.hname) fam_max "gauge";
          line fam_max labels (hist_max h)
        end)
      (List.sort (by_name (fun h -> h.hname)) !histograms);
    Buffer.contents buf

  let reset () =
    Mutex.lock reg_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock reg_mu)
      (fun () ->
        List.iter (fun c -> Atomic.set c.n 0) !counters;
        List.iter (fun t -> Atomic.set t.total 0; Atomic.set t.tcalls 0) !timers;
        List.iter
          (fun h ->
            Array.iter (fun b -> Atomic.set b 0) h.hbuckets;
            Atomic.set h.hcount 0;
            Atomic.set h.hsum 0;
            Atomic.set h.hmax 0)
          !histograms;
        List.iter
          (fun g ->
            Atomic.set g.gvalue 0;
            Atomic.set g.gpeak 0)
          !gauges)
end

module Sampler = struct
  (* Continuous profiler: a ticker systhread wakes up at a fixed rate
     and snapshots every registered domain's current span stack (see
     [registry] / [stack_on] above), folding each observation into a
     [stack -> count] table in flamegraph "folded" form —
     outermost;...;leaf.  The sampled domains pay only the cost of
     maintaining [d_stack] (a cons per span when sampling is on); the
     reads are racy by design, which is safe in OCaml's memory model:
     [d_stack] holds an immutable list, so a torn read is impossible
     and a stale one merely attributes the tick to a neighbouring
     span — noise that statistical profiles tolerate.  Stacks are
     keyed outermost-first, joined with ';', matching flamegraph.pl
     and speedscope input.

     The ticker is a [Thread], NOT a [Domain], deliberately: in OCaml 5
     every additional domain — even one asleep in [Unix.sleepf] —
     participates in each stop-the-world minor collection via its
     backup thread, and on small machines that handshake dominates
     allocation-heavy workloads (measured 15x on a 1-core container;
     a systhread ticker measures within noise of no sampler at all).
     The thread shares its host domain's runtime lock, so on a fully
     busy host domain ticks land at yield points (at worst the ~50ms
     preemption tick) — an effective rate floor that statistical
     profiles tolerate; other domains are sampled at the full rate
     regardless, through the registry side table. *)

  let default_hz = 97.

  let env_hz () =
    match
      Option.bind (Sys.getenv_opt "BLOCKC_PROFILE_HZ") float_of_string_opt
    with
    | Some hz when hz > 0. -> Some hz
    | _ -> None

  let mu = Mutex.create ()
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 64
  let ticks = ref 0
  let cur_hz = ref default_hz
  let stop_flag = Atomic.make false
  let ticker : Thread.t option ref = ref None

  let tick () =
    Mutex.lock registry_mu;
    let doms = !registry in
    Mutex.unlock registry_mu;
    Mutex.lock mu;
    incr ticks;
    List.iter
      (fun (_, s) ->
        let key =
          match s.d_stack with
          | [] -> "(idle)"
          | st -> String.concat ";" (List.rev st)
        in
        match Hashtbl.find_opt counts key with
        | Some r -> incr r
        | None -> Hashtbl.add counts key (ref 1))
      doms;
    Mutex.unlock mu

  let running () = !ticker <> None
  let hz () = !cur_hz

  let samples () =
    Mutex.lock mu;
    let n = Hashtbl.fold (fun _ r acc -> acc + !r) counts 0 in
    Mutex.unlock mu;
    n

  let reset () =
    Mutex.lock mu;
    Hashtbl.reset counts;
    ticks := 0;
    Mutex.unlock mu

  let start ?hz () =
    if not (running ()) then begin
      let rate =
        match hz with
        | Some h when h > 0. -> h
        | _ -> ( match env_hz () with Some h -> h | None -> default_hz)
      in
      cur_hz := rate;
      stack_on := true;
      Atomic.set stop_flag false;
      (* make sure the calling domain is in the registry even if it has
         never emitted a span yet — otherwise an idle process samples
         nothing at all *)
      ignore (dstate ());
      let period = 1. /. rate in
      ticker :=
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get stop_flag) do
                 tick ();
                 Unix.sleepf period
               done)
             ())
    end

  let stop () =
    match !ticker with
    | None -> ()
    | Some t ->
        Atomic.set stop_flag true;
        Thread.join t;
        ticker := None;
        stack_on := false

  (* Idempotent start for the serve path: first caller wins the rate. *)
  let ensure ?hz () = if not (running ()) then start ?hz ()

  let init_from_env () =
    match env_hz () with Some hz -> ensure ~hz () | None -> ()

  let folded () =
    Mutex.lock mu;
    let rows = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts [] in
    Mutex.unlock mu;
    List.sort
      (fun (a, na) (b, nb) ->
        match compare nb na with 0 -> String.compare a b | c -> c)
      rows

  let folded_text () =
    let buf = Buffer.create 256 in
    List.iter
      (fun (k, n) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" k n))
      (folded ());
    Buffer.contents buf
end
