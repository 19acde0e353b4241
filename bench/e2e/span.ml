(* The benchmark's own spans, around the calls it makes into each layer.
   Kept in memory (any domain may record) and written out at the end. *)

module J = Json_min

type t = {
  name : string;
  trace : int;  (** request id; shared by every span of one request *)
  id : int;
  parent : int;  (** 0 for a root *)
  tid : int;  (** recording domain *)
  t0 : int;  (** monotonic ns *)
  t1 : int;
  args : (string * J.t) list;
}

let mu = Mutex.create ()
let recorded : t list ref = ref []
let ids = Atomic.make 0

type cursor = { mutable c_trace : int; mutable c_parent : int }

let cursor = Domain.DLS.new_key (fun () -> { c_trace = 0; c_parent = 0 })

let span ?(args = fun _ -> []) name f =
  let c = Domain.DLS.get cursor in
  let id = 1 + Atomic.fetch_and_add ids 1 in
  let parent = c.c_parent in
  c.c_parent <- id;
  let t0 = Client.now_ns () in
  let finish args =
    let t1 = Client.now_ns () in
    c.c_parent <- parent;
    let s =
      { name; trace = c.c_trace; id; parent; tid = (Domain.self () :> int); t0; t1; args }
    in
    Mutex.lock mu;
    recorded := s :: !recorded;
    Mutex.unlock mu
  in
  match f () with
  | r ->
      finish (args r);
      r
  | exception e ->
      finish [ ("error", J.String (Printexc.to_string e)) ];
      raise e

(* Where new spans attach on this domain; pass it to [within] on
   another domain to keep a fan-out inside its request. *)
let here () =
  let c = Domain.DLS.get cursor in
  (c.c_trace, c.c_parent)

let within (trace, parent) f =
  let c = Domain.DLS.get cursor in
  let saved_trace = c.c_trace and saved_parent = c.c_parent in
  c.c_trace <- trace;
  c.c_parent <- parent;
  Fun.protect
    ~finally:(fun () ->
      c.c_trace <- saved_trace;
      c.c_parent <- saved_parent)
    f

(* A root span starting trace [trace]. *)
let root ?args ~trace name f = within (trace, 0) (fun () -> span ?args name f)

let all () = List.sort (fun a b -> compare a.t0 b.t0) !recorded

(* Cost of recording one span, measured on spans that are then
   dropped. *)
let overhead_ns () =
  let n = 10_000 in
  Mutex.lock mu;
  let saved = !recorded in
  Mutex.unlock mu;
  let t0 = Client.now_ns () in
  for _ = 1 to n do
    span "overhead" ignore
  done;
  let dt = Client.now_ns () - t0 in
  Mutex.lock mu;
  recorded := saved;
  Mutex.unlock mu;
  float_of_int dt /. float_of_int n

let num n = J.Number (float_of_int n)

let to_json s =
  J.Object
    [
      ("name", J.String s.name);
      ("trace", num s.trace);
      ("id", num s.id);
      ("parent", num s.parent);
      ("tid", num s.tid);
      ("t0", num s.t0);
      ("t1", num s.t1);
      ("args", J.Object s.args);
    ]

let of_json j =
  let f k = match j with J.Object kvs -> List.assoc_opt k kvs | _ -> None in
  let i k = match f k with Some (J.Number x) -> int_of_float x | _ -> 0 in
  {
    name = (match f "name" with Some (J.String s) -> s | _ -> "");
    trace = i "trace";
    id = i "id";
    parent = i "parent";
    tid = i "tid";
    t0 = i "t0";
    t1 = i "t1";
    args = (match f "args" with Some (J.Object kvs) -> kvs | _ -> []);
  }

let dur s = s.t1 - s.t0

(* Self time: the span's duration minus the part of it that its
   children cover (children on parallel lanes may overlap; the union
   counts once). *)
let self_ns s ~children =
  let iv =
    List.sort compare (List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1)) children)
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, min_int) iv
  in
  dur s - covered

(* Chrome trace-event format ("X" complete events, microseconds). *)
let chrome_event ~pid s =
  let us ns = J.Number (float_of_int ns /. 1e3) in
  J.Object
    [
      ("name", J.String s.name);
      ("ph", J.String "X");
      ("ts", us s.t0);
      ("dur", us (dur s));
      ("pid", num pid);
      ("tid", num s.tid);
      ( "args",
        J.Object
          (("trace", num s.trace) :: ("span", num s.id) :: ("parent", num s.parent) :: s.args)
      );
    ]
