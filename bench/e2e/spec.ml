(* The metric catalogue.  BENCHMARK.json at the repository root lists
   the same names, units, directions and bounds; a test keeps the two
   in step. *)

type metric = {
  name : string;
  unit_ : string;
  better : Stats.better;
  bound : float;  (** relative: share of the base median *)
  floor : float;  (** absolute, in [unit_]; the larger of the two applies *)
}

let m ?(bound = 0.) ?(floor = 0.) name unit_ better =
  { name; unit_; better; bound; floor }

(* End-to-end metrics, printed by every untraced run.  A bound is three
   times the worst run-to-run spread measured over ten seeds on a
   two-core VM (README.md), capped at 25%.  Timings on that host drift
   3-14% between runs whatever the run length, so theirs sit at the
   cap. *)
let e2e =
  Stats.
    [
      m "setup_s" "s" Lower ~bound:0.25;
      m "latency_ms.p50" "ms" Lower ~bound:0.25 ~floor:0.1;
      m "latency_ms.p90" "ms" Lower ~bound:0.25;
      m "throughput_rps" "req/s" Higher ~bound:0.25;
      m "rss_peak_mb" "MB" Lower ~bound:0.15;
      m "artifact_kb" "KB" Lower ~bound:0.02;
    ]

(* Zero on every healthy run, so it is not one of the printed metrics
   (the printed [failed]/[attempted] carry it); [compare] still gates
   on it with a zero absolute bound. *)
let fail_frac = m "fail_frac" "fraction" Stats.Lower

(* Per-layer metrics, printed by every traced run.  No bounds. *)
let per_layer =
  Stats.
    [
      m "transform.derive_ms.total" "ms" Lower;
      m "transform.derive_ms.max" "ms" Lower;
      m "codegen.blueprint_us.p50" "us" Lower;
      m "codegen.emit_ms.ocaml.total" "ms" Lower;
      m "codegen.emit_ms.c.total" "ms" Lower;
      m "codegen.src_kb.ocaml" "KB" Lower;
      m "codegen.src_kb.c" "KB" Lower;
      m "codegen.jit_ms.total" "ms" Lower;
      m "codegen.cc_ms.total" "ms" Lower;
      m "codegen.memo_us.p50" "us" Lower;
      m "codegen.cache_hit_ratio" "ratio" Higher;
      m "codegen.compiler_runs" "count" Lower;
      m "kernels.bind_ms.p50" "ms" Lower;
      m "kernels.bind_share" "ratio" Lower;
      m "kernels.bind_alloc_mwords.p50" "Mwords" Lower;
      m "codegen.run_ms.p50" "ms" Lower;
      m "codegen.run_share" "ratio" Higher;
      m "serve.digest_us.p50" "us" Lower;
      m "runtime.fanout_ms.p50" "ms" Lower;
      m "runtime.serial_ms.p50" "ms" Lower;
      m "runtime.parallel_eff" "ratio" Higher;
      m "runtime.minor_gcs_per_batch" "count" Lower;
      m "runtime.major_gcs_per_batch" "count" Lower;
      m "serve.handle_ms.p50" "ms" Lower;
      m "serve.overhead_ms.p50" "ms" Lower;
      m "daemon.residual_ms.p50" "ms" Lower;
      m "daemon.residual_s.total" "s" Lower;
      m "trace.span_overhead_ns" "ns" Lower;
    ]

let find name = List.find_opt (fun x -> x.name = name) (fail_frac :: e2e @ per_layer)
