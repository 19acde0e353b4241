(* Exact LRU reuse distances (Mattson's stack algorithm) in O(log n) per
   access: a Fenwick tree over access timestamps counts, for each line's
   previous access time p, how many *distinct* lines were touched in
   (p, now) — that count is the stack distance.  The marked timestamps
   are exactly the last-access times of the distinct lines seen so far,
   so the tree never holds more live marks than there are lines. *)

type t = {
  mutable time : int;  (* timestamps are 1-based; [time] = last issued *)
  mutable tree : int array;  (* Fenwick over 1..cap *)
  mutable cap : int;
  last : (int, int) Hashtbl.t;  (* line -> last access time (marked) *)
  hist : (int, int) Hashtbl.t;  (* exact distance -> access count *)
  mutable cold : int;
  mutable max_distance : int;
}

let create () =
  {
    time = 0;
    tree = Array.make 1025 0;
    cap = 1024;
    last = Hashtbl.create 256;
    hist = Hashtbl.create 64;
    cold = 0;
    max_distance = -1;
  }

(* Fenwick primitives, 1-based. *)

let rec tree_add t i v =
  if i <= t.cap then begin
    t.tree.(i) <- t.tree.(i) + v;
    tree_add t (i + (i land -i)) v
  end

let prefix t i =
  let rec go acc i = if i <= 0 then acc else go (acc + t.tree.(i)) (i - (i land -i)) in
  go 0 i

let grow t =
  let cap = t.cap * 2 in
  let tree = Array.make (cap + 1) 0 in
  let old = (t.tree, t.cap) in
  t.tree <- tree;
  t.cap <- cap;
  ignore old;
  (* Re-mark the live timestamps (one per distinct line). *)
  Hashtbl.iter (fun _ ts -> tree_add t ts 1) t.last

let bump_hist t d =
  (match Hashtbl.find_opt t.hist d with
  | Some n -> Hashtbl.replace t.hist d (n + 1)
  | None -> Hashtbl.add t.hist d 1);
  if d > t.max_distance then t.max_distance <- d

let access t line =
  t.time <- t.time + 1;
  if t.time > t.cap then grow t;
  let d =
    match Hashtbl.find_opt t.last line with
    | None ->
        t.cold <- t.cold + 1;
        -1
    | Some p ->
        (* marks strictly after p = distinct other lines since p *)
        let d = Hashtbl.length t.last - prefix t p in
        tree_add t p (-1);
        bump_hist t d;
        d
  in
  tree_add t t.time 1;
  Hashtbl.replace t.last line t.time;
  d

let cold t = t.cold
let accesses t = t.time
let distinct_lines t = Hashtbl.length t.last

let histogram t =
  Hashtbl.fold (fun d n acc -> (d, n) :: acc) t.hist []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let misses_for_lines t lines =
  (* A fully-associative LRU cache of [lines] lines misses exactly the
     cold accesses plus those with stack distance >= lines. *)
  Hashtbl.fold
    (fun d n acc -> if d >= lines then acc + n else acc)
    t.hist t.cold

let miss_curve t ~max_lines =
  let rec go acc lines =
    if lines > max_lines then List.rev acc
    else go ((lines, misses_for_lines t lines) :: acc) (lines * 2)
  in
  go [] 1

let reset t =
  t.time <- 0;
  t.tree <- Array.make 1025 0;
  t.cap <- 1024;
  Hashtbl.reset t.last;
  Hashtbl.reset t.hist;
  t.cold <- 0;
  t.max_distance <- -1

let max_distance t = t.max_distance
