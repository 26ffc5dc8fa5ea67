"""The repository benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``perfbench-meta ...``) records the run's environment.  Raw samples and the
traced run's spans (Chrome trace-event JSON) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procs
import serve_load
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"

USAGE = """\
Workloads (each runs in a fresh process; the seed picks every input):

  figures     calls run(full=True) on each repro.experiments fig8..fig12
              module in performance mode with an empty in-memory compile
              cache, then repeats the same sweep in the same process.  This
              is what the reproduction produces.  The discrete-event engine
              driving execution plans does about 90% of the host time;
              compilation about 14% of the first sweep.  The fork, pool and
              serve layers do no work.  A unit is one cold + warm pair.
  functional  a seeded stream of 25 functional launches (5 each of WS GEMM
              1024x1024x256, causal attention b1 h4 s1024 d64, split-K GEMM
              256x256x2048/4, softmax and layernorm 1024x1024) through
              build_sweep_specs + Device.run_many on Device(mode="functional",
              workers=2).  Every kernel is compiled during set-up (and
              launched once, untimed, before the streams), so full-grid NumPy
              payloads and multi-process dispatch do the work and compilation
              does none.  The few heavy
              warp-specialized CTAs and the 1024 tiny row-kernel CTAs use the
              executor differently.  A unit is one stream.
  serve       python -m repro.serve serve --port 0 (default --pool 2) as a
              child process, driven by one asyncio thread over one TCP
              connection with small functional requests (GEMM 256x256x128 and
              split-K 128x128x1024 on 64x64x32 tiles, softmax / layernorm /
              fused_elementwise 64x1024) with fresh seeds; 25% of arrivals are
              two identical requests (coalescing).  Phases: light open-loop
              Poisson at 18.75 requests/s (latency from each request's due
              time) alternating three times with a closed loop of 16 arrivals
              outstanding, then heavy open-loop Poisson at 75 requests/s.
              The shared host slows down for seconds at a time; the rounds
              confine such a stretch to one of three closed-loop rates, and
              the low light rate keeps queueing from amplifying it in the
              light tail.  In the heavy phase 5% of arrivals are a GEMM with
              a never-seen N: a cold compile and a pool respawn under load.
              Each request executes for only a few ms, so admission, batching,
              coalescing, pool dispatch, arena copies and the wire dominate.
              The tiles keep each tile product below OpenBLAS's threading
              threshold: with larger ones, BLAS threads in the forked pool
              workers stall on wake-ups and request times swing several-fold
              between identical runs (functional measures that stall).

Only default engine settings are driven (plans; codegen, sanitizer, analysis
and the disk cache off; REPRO_* variables are removed from the child
environment), plus workers=2 and the serve CLI's default pool of 2.

End-to-end metrics (--trace 0), every workload:

  setup_s           process spawn until ready (imports, device or server up,
                    warm-up compiles, pool spawn); median of 5 set-ups
  peak_rss_mb       peak RSS of the process under test (serve: the server
                    plus its pool workers)
  throughput_per_s  figures: simulated CTAs per second of sweep time;
                    functional: simulated CTAs per second of a stream, with
                    each kernel's launches at their median time (whether a
                    BLAS-heavy launch stalls on BLAS thread wake-ups in its
                    forked workers is a coin toss; the median is steady);
                    serve: requests completed per second in the closed loop
                    (median of its three rounds)
  p50_ms            figures: median warm (repeat) sweep; functional: median
                    launch (one run_many call); serve: median latency at the
                    light rate
  tail_ms           figures: median cold (first) sweep; functional: 85th
                    percentile launch; serve: 90th percentile latency at the
                    light rate (each the highest percentile with at least ten
                    samples beyond it)

Per-layer metrics (--trace 1): a traced run wraps each layer's public entry
point before the workload starts and records spans in memory; an untraced
run of the same work gives trace.overhead_frac (its throughput_per_s over the
traced run's, minus one).  Times are totals over the
traced process (set-up included); counts come from sim_counters().  Inside
forked workers time shows up only as the parent-side *.wait_s.

  layer      metrics (entry point)                   should move (workload)
  import     import.s                                setup_s (all)
  frontend   frontend.build_s, .builds               tail_ms (figures),
             (Kernel.build_module)                   setup_s (functional, serve)
  compile    compile.pipeline_s, .pipelines,         tail_ms (figures),
             .passes_run, .pass_s.<pass>             client.heavy_p99_ms
             (compile_kernel)                        (serve, cold N)
  service    service.compile_s, .hits, .misses,      tail_ms - p50_ms (figures),
             .singleflight_waits                     client.heavy_p99_ms
             (CompilerService.compile)               (serve)
  plan       plan.get_s, plan.builds (get_plan)      tail_ms (figures), setup_s
  executor   executor.prepare_s, .execute_s          p50_ms (figures),
             (Executor.submit), .collect_s           throughput (functional),
             (InflightLaunch.collect), .finalize_s,  latency (serve)
             .launches
  engine     engine.run_s (Engine.run, in-process),  p50_ms (figures)
             engine.events, sim.ctas
  parallel   parallel.wait_s (ParallelLaunch.wait),  throughput (functional)
             .workers_forked, .retries
  pool       pool.wait_s (PoolLaunch.wait),          tail_ms, throughput
             arena.place_s, arena.restore_s          (serve)
             (SharedArena), pool.launches,
             .fallbacks, .busy_rejections, .respawns
  workloads  workloads.build_specs_s                 p50_ms (serve; it runs on
             (build_sweep_specs)                     the dispatch thread)
  serve      serve.queue_wait_ms.p50/.p99 (admission until Job.build),
             serve.dispatch_s, serve.launches_per_batch, serve.coalesce_rate,
             serve.batches, serve.shed, serve.wire_ms.p50 (client latency
             minus server time), gen.lag_ms.max,
             client.heavy_p50_ms, client.heavy_p99_ms     all serve metrics
  (each)     <layer>.self_s: span time minus time covered by child spans.
             Concurrent serve requests each count, so serve.self_s is in
             request-seconds, and it includes the dispatch work done for a
             request on the dispatch thread (not a child span).

A layer that does no work on a workload reports 0 there (pool and serve on
figures, for example): that is the prediction "should not move".
"""

WORKLOADS = ("figures", "functional", "serve")
SETUP_REPS = 5
#: Nominal seconds of one unit of work on a 2-CPU host; --seconds buys
#: round(seconds / unit) units, so the work per run is fixed by --seconds.
UNIT_SECONDS = {"figures": 3.3, "functional": 10.0}
CHILD_TIMEOUT = 170.0
#: Passes of the warp-specialized pipeline, which every workload compiles.
PASSES = ("canonicalize", "persistent-kernel", "tag-semantics",
          "warp-specialize", "mid-level-snapshot", "fine-grained-pipeline",
          "coarse-grained-pipeline", "aref-lowering", "resource-validation")
EXACT = ("engine_events", "sim_ctas", "compile_passes_run",
         "compile_pipelines", "parallel_workers_forked")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:  # only in runs too short for a distribution
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------- figures / functional

def run_proc(workload: str, seed: int, units: int, out_dir: Path, tag: str,
             spans: Path | None = None, setup_only: bool = False) -> dict:
    """One process under test (proc.py); its result plus set-up seconds."""
    out = out_dir / f"{tag}.json"
    argv = [sys.executable, str(HERE / "proc.py"), "--workload", workload,
            "--seed", str(seed), "--units", str(units), "--out", str(out)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    if setup_only:
        argv.append("--setup-only")
    with open(out_dir / f"{tag}.err", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    try:
        code = proc.wait(CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        procs.kill_session(proc.pid)
        proc.wait()
        raise RuntimeError(f"{workload} child exceeded {CHILD_TIMEOUT:.0f}s")
    leaked = procs.kill_session(proc.pid)
    if code != 0:
        raise RuntimeError(f"{workload} child exited {code}: "
                       + (out_dir / f"{tag}.err").read_text()[-3000:])
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - spawned
    result["leaked"] = leaked
    return result


def proc_end_to_end(workload: str, measured: dict) -> dict:
    if workload == "figures":
        cold, warm = measured["sweep_cold_s"], measured["sweep_warm_s"]
        counts = measured["unit_counts"]
        ctas = (counts["sim_ctas"] + counts["warm_sim_ctas"]) * len(cold)
        return {"throughput_per_s": ctas / measured["work_s"],
                "p50_ms": statistics.median(warm) * 1e3,
                "tail_ms": statistics.median(cold) * 1e3}
    items = [seconds for _, seconds, _ in measured["items"]]
    by_kernel: dict[str, list] = {}
    for name, seconds, ctas in measured["items"]:
        by_kernel.setdefault(name, []).append((seconds, ctas))
    # Whether a BLAS-heavy launch stalls is a coin toss (see proc.py), so the
    # mean over one run's few launches swings; each kernel's median does not.
    typical_s = sum(len(runs) * statistics.median(s for s, _ in runs)
                    for runs in by_kernel.values())
    ctas = sum(c for runs in by_kernel.values() for _, c in runs)
    return {"throughput_per_s": ctas / typical_s,
            "p50_ms": statistics.median(items) * 1e3,
            "tail_ms": percentile(items, 85) * 1e3}


# ---------------------------------------------------------------------- serve

def serve_latencies(records) -> dict:
    def phase(name):
        return [(r.done - r.due) * 1e3 for r in records if r.phase == name and r.ok]
    light, heavy = phase("light"), phase("heavy")
    return {"light_p50_ms": statistics.median(light),
            "light_p90_ms": percentile(light, 90),
            "heavy_p50_ms": statistics.median(heavy),
            "heavy_p99_ms": percentile(heavy, 99),
            "samples": {"light": len(light), "heavy": len(heavy)}}


def run_serve(seed: int, seconds: float, out_dir: Path,
              spans: Path | None = None) -> dict:
    result = serve_load.run(ROOT, out_dir, child_env(), seed, seconds, spans)
    result["latency"] = serve_latencies(result["records"])
    (out_dir / f"requests{'-traced' if spans else ''}.json").write_text(json.dumps(
        [[r.phase, r.workload, r.params.get("N"), r.due, r.sent, r.done, r.ok]
         for r in result["records"]]))
    return result


# ---------------------------------------------------------------------- per layer

def layer_metrics(summary: dict, counters: dict, pass_s: dict) -> dict:
    total, calls = summary["total_s"], summary["calls"]
    c = {k: counters.get(k, 0) for k in (
        "compile_passes_run", "compile_cache_hits", "compile_cache_misses",
        "compile_singleflight_waits", "plan_cache_misses", "engine_events",
        "plan_ctas", "interpreter_ctas", "parallel_workers_forked",
        "shard_retries", "pool_launches", "pool_fallback_launches",
        "pool_busy_rejections", "pool_worker_respawns")}
    m = {
        "import.s": (total.get("import", 0.0), "s"),
        "frontend.build_s": (total.get("frontend.build", 0.0), "s"),
        "frontend.builds": (calls.get("frontend.build", 0), "count"),
        "compile.pipeline_s": (total.get("compile.pipeline", 0.0), "s"),
        "compile.pipelines": (calls.get("compile.pipeline", 0), "count"),
        "compile.passes_run": (c["compile_passes_run"], "count"),
    }
    for name in PASSES:
        m[f"compile.pass_s.{name}"] = (pass_s.get(name, 0.0), "s")
    m |= {
        "service.compile_s": (total.get("service.compile", 0.0), "s"),
        "service.hits": (c["compile_cache_hits"], "count"),
        "service.misses": (c["compile_cache_misses"], "count"),
        "service.singleflight_waits": (c["compile_singleflight_waits"], "count"),
        "plan.get_s": (total.get("plan.get", 0.0), "s"),
        "plan.builds": (c["plan_cache_misses"], "count"),
        "executor.prepare_s": (total.get("executor.prepare", 0.0), "s"),
        "executor.execute_s": (total.get("executor.execute", 0.0), "s"),
        "executor.collect_s": (total.get("executor.collect", 0.0), "s"),
        "executor.finalize_s": (total.get("executor.finalize", 0.0), "s"),
        "executor.launches": (calls.get("executor.prepare", 0), "count"),
        "engine.run_s": (total.get("engine.run", 0.0), "s"),
        "engine.events": (c["engine_events"], "count"),
        "sim.ctas": (c["plan_ctas"] + c["interpreter_ctas"], "count"),
        "parallel.wait_s": (total.get("parallel.wait", 0.0), "s"),
        "parallel.workers_forked": (c["parallel_workers_forked"], "count"),
        "parallel.retries": (c["shard_retries"], "count"),
        "pool.wait_s": (total.get("pool.wait", 0.0), "s"),
        "arena.place_s": (total.get("arena.place", 0.0), "s"),
        "arena.restore_s": (total.get("arena.restore", 0.0), "s"),
        "pool.launches": (c["pool_launches"], "count"),
        "pool.fallbacks": (c["pool_fallback_launches"], "count"),
        "pool.busy_rejections": (c["pool_busy_rejections"], "count"),
        "pool.respawns": (c["pool_worker_respawns"], "count"),
        "workloads.build_specs_s": (total.get("workloads.build_specs", 0.0), "s"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (summary["layer_self_s"].get(layer, 0.0), "s")
    return m


def serve_layer_metrics(spans: list[tuple], counters: dict, records) -> dict:
    waits = [(s[4] - s[3]) * 1e3 for s in spans if s[1] == "serve.queue_wait"]
    server_s: dict[str, list[float]] = {}
    for s in sorted(spans, key=lambda s: s[3]):
        if s[1] == "serve.request":
            server_s.setdefault(s[6], []).append(s[4] - s[3])
    wire = []
    for r in sorted(records, key=lambda r: r.sent):
        durations = server_s.get(tracing.request_id(r.workload, r.params))
        if r.ok and durations:
            wire.append((r.done - r.sent - durations.pop(0)) * 1e3)
    requests = counters.get("serve_requests", 0)
    batches = counters.get("serve_batches", 0)
    lag = max(((r.sent - r.due) * 1e3 for r in records if r.phase != "capacity"),
              default=0.0)
    return {
        "serve.queue_wait_ms.p50": (percentile(waits, 50), "ms"),
        "serve.queue_wait_ms.p99": (percentile(waits, 99), "ms"),
        "serve.dispatch_s": (sum((s[4] - s[3] for s in spans
                                  if s[1] == "serve.dispatch"), 0.0), "s"),
        "serve.launches_per_batch": (
            counters.get("serve_batched_launches", 0) / batches if batches else 0.0,
            "ratio"),
        "serve.coalesce_rate": (
            counters.get("serve_coalesced_requests", 0) / requests if requests else 0.0,
            "ratio"),
        "serve.batches": (batches, "count"),
        "serve.shed": (counters.get("serve_shed_requests", 0), "count"),
        "serve.wire_ms.p50": (percentile(wire, 50), "ms"),
        "gen.lag_ms.max": (lag, "ms"),
    }


# ---------------------------------------------------------------------- runs

def check_exact(untraced: dict, traced: dict) -> list[str]:
    """Tracing must not change the work: whole-process counts agree."""
    a, b = untraced["counters"], traced["counters"]
    return [f"{key}: untraced {a[key]} != traced {b[key]}"
            for key in EXACT if a[key] != b[key]]


def measure(workload: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """--trace 0: set-up samples plus one measured run."""
    setups, failed = [], 0
    if workload == "serve":
        for rep in range(SETUP_REPS - 1):
            result = serve_load.run(ROOT, out_dir, child_env(), seed, seconds,
                                    setup_only=True)
            setups.append(result["setup_s"])
            failed += result["leaked"]
        measured = run_serve(seed, seconds, out_dir)
        lat = measured["latency"]
        metrics = {"throughput_per_s": measured["capacity_rps"],
                   "p50_ms": lat["light_p50_ms"], "tail_ms": lat["light_p90_ms"]}
    else:
        units = max(1, round(seconds / UNIT_SECONDS[workload]))
        for rep in range(SETUP_REPS - 1):
            result = run_proc(workload, seed, units, out_dir, f"setup{rep}",
                              setup_only=True)
            setups.append(result["setup_s"])
            failed += result["leaked"]
        measured = run_proc(workload, seed, units, out_dir, "measured")
        failed += measured["leaked"]
        metrics = proc_end_to_end(workload, measured)
    setups.append(measured["setup_s"])
    metrics |= {"setup_s": statistics.median(setups),
                "peak_rss_mb": measured["peak_rss_mb"]}
    return {"metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "attempted": measured["attempted"],
            "failed": failed + measured["failed"], "errors": measured["errors"],
            "raw": {"setups_s": setups, "measured": strip(measured)}}


def measure_traced(workload: str, seed: int, seconds: float,
                   out_dir: Path) -> dict:
    """--trace 1: an untraced and a traced run of the same work."""
    spans_path = out_dir / "spans.json"
    if workload == "serve":
        untraced = run_serve(seed, seconds, out_dir)
        traced = run_serve(seed, seconds, out_dir, spans=spans_path)
        spans = tracing.read_chrome_trace(spans_path)
        counters = traced["counters"]
        metrics = layer_metrics(tracing.summarize(spans), counters,
                                counters.get("compile_pass_seconds", {}))
        metrics |= serve_layer_metrics(spans, counters, traced["records"])
        overhead = untraced["capacity_rps"] / traced["capacity_rps"] - 1.0
        errors = []
        lat = traced["latency"]
        metrics |= {"client.heavy_p50_ms": (lat["heavy_p50_ms"], "ms"),
                    "client.heavy_p99_ms": (lat["heavy_p99_ms"], "ms")}
    else:
        units = max(1, round(seconds / UNIT_SECONDS[workload]))
        untraced = run_proc(workload, seed, units, out_dir, "untraced")
        traced = run_proc(workload, seed, units, out_dir, "traced", spans=spans_path)
        spans = tracing.read_chrome_trace(spans_path)
        metrics = layer_metrics(tracing.summarize(spans), traced["counters"],
                                traced["pass_s"])
        metrics |= serve_layer_metrics([], {}, [])
        metrics |= {"client.heavy_p50_ms": (0.0, "ms"),
                    "client.heavy_p99_ms": (0.0, "ms")}
        overhead = (proc_end_to_end(workload, untraced)["throughput_per_s"]
                    / proc_end_to_end(workload, traced)["throughput_per_s"] - 1.0)
        errors = check_exact(untraced, traced)
        untraced["failed"] += untraced["leaked"]
        traced["failed"] += traced["leaked"]
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return {"metrics": metrics,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"] + len(errors),
            "errors": untraced["errors"] + traced["errors"] + errors,
            "raw": {"untraced": strip(untraced), "traced": strip(traced)}}


def strip(result: dict) -> dict:
    """A run's result without the bulky per-request records."""
    out = {k: v for k, v in result.items() if k != "records"}
    if "records" in result:
        out["requests"] = len(result["records"])
    return out


# ---------------------------------------------------------------------- metadata

def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "GOTO_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_thread_vars": {k: os.environ.get(k) for k in thread_vars},
        "repro_vars_removed": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "commit": commit, "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------- main

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0],
        epilog=USAGE, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds per run (fixes the work done)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The serve workload re-runs a sample of requests in this process.
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    run = measure_traced if args.trace else measure
    try:
        result = run(args.workload, args.seed, args.seconds, out_dir)
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    (out_dir / "result.json").write_text(json.dumps(
        {"meta": meta, "errors": result["errors"], "raw": result["raw"],
         "metrics": result["metrics"]}, indent=1, default=str))
    for error in result["errors"]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
