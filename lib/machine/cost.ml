let memory_cycles (m : Arch.t) (s : Cache.stats) =
  (s.hits * m.hit_cycles) + (s.misses * m.miss_cycles)

let speedup ~baseline ~optimized =
  if optimized = 0 then 1.0 else float_of_int baseline /. float_of_int optimized

(* ---- model predictions and their validation --------------------- *)

let predicted_misses r (m : Arch.t) =
  Reuse.misses_for_lines r (m.cache_bytes / m.line_bytes)

let divergence ~predicted ~simulated =
  if simulated = 0 then if predicted = 0 then 0.0 else 1.0
  else
    float_of_int (abs (predicted - simulated)) /. float_of_int simulated

type validation = {
  v_predicted : int;
  v_simulated : int;
  v_divergence : float;  (** |predicted - simulated| / simulated *)
  v_ratio_gap : float;  (** |predicted - simulated| miss ratio, absolute *)
}

let validate r (m : Arch.t) (s : Cache.stats) =
  let predicted = predicted_misses r m in
  let ratio p = if s.accesses = 0 then 0.0 else float_of_int p /. float_of_int s.accesses in
  {
    v_predicted = predicted;
    v_simulated = s.misses;
    v_divergence = divergence ~predicted ~simulated:s.misses;
    v_ratio_gap = Float.abs (ratio predicted -. Cache.miss_ratio s);
  }
