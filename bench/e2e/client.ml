(* One connection to one daemon: the client writes a request line, then
   waits for its response line, so exactly one request is in flight. *)

module J = Json_min

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* No response within this long fails the request and the daemon. *)
let default_timeout_s = 120.

type t = {
  pid : int;
  to_d : out_channel;
  from_d : Unix.file_descr;
  mutable pending : string;  (** bytes read past the last returned line *)
  mutable alive : bool;
}

(* A daemon that dies mid-write must fail the request, not kill the
   benchmark. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let live : t list ref = ref []

let reap t =
  (try Unix.close t.from_d with Unix.Unix_error _ -> ());
  (try close_out t.to_d with Sys_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun d -> d != t) !live

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

(* Whatever happens to the benchmark, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter kill !live)

let spawn ~argv ~env ~stderr_path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile stderr_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid = Unix.create_process_env argv.(0) argv env in_r out_w err in
  List.iter Unix.close [ in_r; out_w; err ];
  let t =
    { pid; to_d = Unix.out_channel_of_descr in_w; from_d = out_r; pending = ""; alive = true }
  in
  live := t :: !live;
  t

type reply = Line of string | Timeout | Eof

let chunk = Bytes.create 65536

let rec read_line t ~deadline =
  match String.index_opt t.pending '\n' with
  | Some i ->
      let line = String.sub t.pending 0 i in
      t.pending <- String.sub t.pending (i + 1) (String.length t.pending - i - 1);
      Line line
  | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Timeout
      else
        match Unix.select [ t.from_d ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line t ~deadline
        | [], _, _ -> Timeout
        | _ ->
            let n = Unix.read t.from_d chunk 0 (Bytes.length chunk) in
            if n = 0 then Eof
            else begin
              t.pending <- t.pending ^ Bytes.sub_string chunk 0 n;
              read_line t ~deadline
            end)

(* Send one line and wait for one line back.  Returns the reply and the
   nanoseconds from just before the write to the end of the read.  A
   timeout or a closed pipe kills the daemon: it fails every request
   still to come. *)
let exchange ?(timeout_s = default_timeout_s) t line =
  let t0 = now_ns () in
  let reply =
    if not t.alive then Eof
    else
      match
        output_string t.to_d line;
        output_char t.to_d '\n';
        flush t.to_d
      with
      | exception Sys_error _ -> Eof
      | () -> read_line t ~deadline:(Unix.gettimeofday () +. timeout_s)
  in
  let ns = now_ns () - t0 in
  (match reply with Line _ -> () | Timeout | Eof -> kill t);
  (reply, ns)

let shutdown t =
  if t.alive then begin
    ignore (exchange ~timeout_s:30. t {|{"op":"shutdown"}|});
    if t.alive then begin
      t.alive <- false;
      reap t
    end
  end

(* Peak resident set of a live process, in kB. *)
let vm_hwm_kb pid =
  match Fs.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" Fun.id
          else None)
        (String.split_on_char '\n' s)

(* ---- judging responses ------------------------------------------ *)

type expect = Compiled | Digests of string list

let field j k = match j with J.Object kvs -> List.assoc_opt k kvs | _ -> None

let judge expect reply =
  match reply with
  | Timeout -> Error "no response within the timeout"
  | Eof -> Error "the daemon closed its pipe"
  | Line l -> (
      match J.parse l with
      | Error e -> Error ("unparsable response: " ^ e)
      | Ok j -> (
          match (field j "ok", expect) with
          | Some (J.Bool true), Compiled -> Ok ()
          | Some (J.Bool true), Digests want -> (
              let got =
                match (field j "digest", field j "digests") with
                | Some (J.String d), _ -> Some [ d ]
                | _, Some (J.Array ds) ->
                    Some (List.map (function J.String d -> d | _ -> "") ds)
                | _ -> None
              in
              match got with
              | Some got when got = want -> Ok ()
              | Some _ -> Error "digest mismatch against the interpreter reference"
              | None -> Error "response carries no digest")
          | _ ->
              Error
                (match field j "error" with
                | Some (J.String m) -> "error response: " ^ m
                | _ -> "error response")))

(* ---- accounting ---------------------------------------------------

   Every checked request is attempted; a failure of any kind counts in
   [failed].  A failed timed request is not dropped from the latency
   samples: it stays in them at the timeout, so it misses any latency
   limit. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : int list;  (** timed requests, ns, newest first *)
  mutable errors : string list;  (** first few failure reasons *)
}

let tally () = { attempted = 0; failed = 0; samples = []; errors = [] }
let correct tl = tl.failed = 0 && tl.attempted > 0

let record tl ~timed ~ns outcome =
  tl.attempted <- tl.attempted + 1;
  let ns =
    match outcome with
    | Ok () -> ns
    | Error m ->
        tl.failed <- tl.failed + 1;
        if List.length tl.errors < 10 then tl.errors <- m :: tl.errors;
        int_of_float (default_timeout_s *. 1e9)
  in
  if timed then tl.samples <- ns :: tl.samples

(* Exchange and account one request; returns its latency in ns. *)
let call ?timeout_s tl ~timed t line expect =
  let reply, ns = exchange ?timeout_s t line in
  record tl ~timed ~ns (judge expect reply);
  ns
