(* The 64-bit state lives unboxed in 8 bytes: as a mutable [int64]
   record field it would be boxed afresh on every draw. *)
type t = Bytes.t

(* Knuth's MMIX multiplier; 64-bit state, top 48 bits used. *)
let multiplier = 6364136223846793005L
let increment = 1442695040888963407L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int (seed * 2654435761 + 1))

(* Inlined, so the [int64] never leaves registers. *)
let[@inline] next t =
  let s = Int64.add (Int64.mul (Bytes.get_int64_ne t 0) multiplier) increment in
  Bytes.set_int64_ne t 0 s;
  s

let[@inline] bits48 t = Int64.to_int (Int64.shift_right_logical (next t) 16)
let split t = of_state (Int64.logxor (next t) 0x9E3779B97F4A7C15L)

let int t bound =
  assert (bound > 0);
  bits48 t mod bound

let[@inline] uniform t = float_of_int (bits48 t) /. 281474976710656.0
let[@inline] float t x = uniform t *. x
let bool t p = uniform t < p

let fill t ?(pos = 0) ?len a ~scale ~shift =
  let len = match len with Some l -> l | None -> Array.length a - pos in
  if pos < 0 || len < 0 || pos > Array.length a - len then invalid_arg "Lcg.fill";
  for i = pos to pos + len - 1 do
    Array.unsafe_set a i (float t scale -. shift)
  done
