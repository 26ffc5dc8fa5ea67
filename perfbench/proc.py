"""The process under test for the ``figures`` and ``functional`` workloads.

``run.py`` starts one fresh interpreter per measurement::

    python3 perfbench/proc.py --workload figures --seed 1 --units 6 --out r.json

It imports the library, sets up, stamps ``ready`` (``time.monotonic()``, which
is system-wide, so the parent can subtract its spawn time), runs ``--units``
units of work and writes one JSON result to ``--out``.  ``--setup-only`` exits
right after the ready stamp.  ``--spans PATH`` traces the run (tracing.py)
and writes its spans to PATH at exit.

A unit is one cold + warm pair of full figure sweeps (``figures``) or one
25-item launch stream (``functional``).  The work per unit is fixed, so the
per-unit counter deltas must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from pathlib import Path

_T_IMPORT = time.perf_counter()
from repro import workloads  # noqa: E402
from repro.experiments import (  # noqa: E402
    fig8_gemm,
    fig9_gemm_variants,
    fig10_attention,
    fig11_hyperparams,
    fig12_ablation,
)
from repro.gpusim.device import Device, clear_compile_cache  # noqa: E402
from repro.kernels.attention import AttentionProblem  # noqa: E402
from repro.kernels.gemm import GemmProblem  # noqa: E402
from repro.kernels.layernorm import LayerNormProblem  # noqa: E402
from repro.kernels.softmax import SoftmaxProblem  # noqa: E402
from repro.kernels.splitk_gemm import SplitKGemmProblem  # noqa: E402
from repro.perf.counters import sim_counters  # noqa: E402
from repro.perf.metrics import is_infeasible  # noqa: E402

import checks  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402

_IMPORT_END = time.perf_counter()

#: Counters that must repeat exactly from one unit of work to the next.
EXACT = ("engine_events", "sim_ctas", "compile_passes_run",
         "compile_pipelines", "parallel_workers_forked")

FIGURES = {"fig8": fig8_gemm, "fig9": fig9_gemm_variants,
           "fig10": fig10_attention, "fig11": fig11_hyperparams,
           "fig12": fig12_ablation}

#: The functional stream's kernels: few heavy warp-specialized CTAs (GEMM,
#: attention, split-K) and 1024 tiny row-kernel CTAs (softmax, layernorm).
KERNELS = {
    "gemm": lambda seed: GemmProblem(M=1024, N=1024, K=256, seed=seed),
    "attention": lambda seed: AttentionProblem(
        batch=1, heads=4, seq_len=1024, head_dim=64, causal=True,
        block_m=64, block_n=64, seed=seed),
    "splitk_gemm": lambda seed: SplitKGemmProblem(M=256, N=256, K=2048,
                                                  splits=4, seed=seed),
    "softmax": lambda seed: SoftmaxProblem(rows=1024, cols=1024, seed=seed),
    "layernorm": lambda seed: LayerNormProblem(rows=1024, cols=1024, seed=seed),
}
STREAM_PER_KERNEL = 5
FUNCTIONAL_WORKERS = 2


def counters() -> dict:
    snap = sim_counters()
    snap["sim_ctas"] = snap["plan_ctas"] + snap["interpreter_ctas"]
    # No disk tier in the benchmark, so every memory miss runs one pipeline.
    snap["compile_pipelines"] = snap["compile_cache_misses"]
    return snap


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in EXACT}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


# ---------------------------------------------------------------------- figures

def figure_rows(results: dict) -> list[tuple]:
    return [(fig.name, row.series, row.x, float(row.tflops), is_infeasible(row.tflops))
            for figs in results.values() for fig in figs for row in fig.rows]


def sweep(tally: Tally) -> dict:
    results = {}
    for name, module in FIGURES.items():
        tally.attempted += 1
        try:
            results[name] = module.run(full=True)
        except Exception:
            tally.fail(f"{name}: {traceback.format_exc(limit=3)}")
    return results


def run_figures(units: int, seed: int, tally: Tally) -> dict:
    del seed  # the paper sweeps have no random inputs
    cold_s, warm_s, cold_counts, warm_counts = [], [], [], []
    reference_rows = None
    for _ in range(units):
        clear_compile_cache()
        c0 = counters()
        t0 = time.perf_counter()
        cold = sweep(tally)
        t1 = time.perf_counter()
        c1 = counters()
        warm = sweep(tally)
        t2 = time.perf_counter()
        c2 = counters()
        cold_s.append(t1 - t0)
        warm_s.append(t2 - t1)
        cold_counts.append(delta(c1, c0))
        warm_counts.append(delta(c2, c1))
        if len(cold) == len(FIGURES):
            for module, problems in checks.figure_trend_errors(cold).items():
                if problems:
                    tally.fail(f"{module}: {'; '.join(problems)}")
        rows = figure_rows(cold)
        if figure_rows(warm) != rows:
            tally.fail("warm sweep values differ from the cold sweep")
        if reference_rows is not None and rows != reference_rows:
            tally.fail("cold sweep values differ from the first cold sweep")
        reference_rows = reference_rows or rows
    for label, seq in (("cold", cold_counts), ("warm", warm_counts)):
        if any(c != seq[0] for c in seq):
            tally.fail(f"{label} sweep work counters differ between units: {seq}")
    return {"sweep_cold_s": cold_s, "sweep_warm_s": warm_s,
            "unit_counts": cold_counts[0] | {
                f"warm_{k}": v for k, v in warm_counts[0].items()},
            "work_s": sum(cold_s) + sum(warm_s)}


# ---------------------------------------------------------------------- functional

def functional_setup() -> tuple[Device, list]:
    """Device up and every stream kernel compiled (one pipeline each)."""
    device = Device(mode="functional", workers=FUNCTIONAL_WORKERS)
    return device, [workloads.build_sweep_specs(device, workloads.get(name),
                                                make(0))
                    for name, make in KERNELS.items()]


def functional_warm_up(device: Device, pipelines: list) -> None:
    """Untimed launches, after set-up and after each stream's checks.

    Workers forked while this process's BLAS thread pool is alive run
    BLAS-heavy shards fast; the fork shuts the pool down, and most workers
    forked after that stall on BLAS thread wake-ups.  An untimed launch keeps
    that one-time effect out of both set-up and the measured streams.
    """
    for specs in pipelines:
        device.run_many(specs)


def stream(rng: random.Random) -> list[tuple[str, int]]:
    items = [name for name in KERNELS for _ in range(STREAM_PER_KERNEL)]
    rng.shuffle(items)
    return [(name, rng.randrange(1, 2**31)) for name in items]


def run_functional(device: Device, pipelines: list, units: int, seed: int,
                   tally: Tally) -> dict:
    rng = random.Random(seed)
    build_s = 0.0
    items = []
    unit_counts = []
    for _ in range(units):
        c0 = counters()
        outputs = []
        for name, item_seed in stream(rng):
            tally.attempted += 1
            workload = workloads.get(name)
            problem = KERNELS[name](item_seed)
            try:
                t0 = time.perf_counter()
                specs = workloads.build_sweep_specs(device, workload, problem)
                t1 = time.perf_counter()
                results = device.run_many(specs)
                t2 = time.perf_counter()
            except Exception:
                tally.fail(f"{name}: {traceback.format_exc(limit=3)}")
                continue
            build_s += t1 - t0
            items.append((name, t2 - t1,
                          sum(result.total_ctas for result in results)))
            outputs.append((name, problem, checks.output(name, specs)))
        unit_counts.append(delta(counters(), c0))
        # Checked after the stream: a BLAS call in this process between two
        # launches would make the next launch's workers skip their BLAS
        # wake-up stalls, so the timing would depend on the stream order.
        for name, problem, out in outputs:
            error = checks.reference_error(name, problem, out)
            if error:
                tally.fail(error)
        del outputs
        functional_warm_up(device, pipelines[-1:])
    if any(c != unit_counts[0] for c in unit_counts):
        tally.fail(f"stream work counters differ between units: {unit_counts}")
    return {"items": items, "build_specs_s": build_s,
            "unit_counts": unit_counts[0]}


# ---------------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures", "functional"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    recorder = installation = None
    if args.spans is not None:
        recorder = tracing.Recorder()
        recorder.add("import", "import", _T_IMPORT, _IMPORT_END)
        installation = tracing.install(recorder)
    if args.workload == "functional":
        device, pipelines = functional_setup()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        tally = Tally()
        if args.workload == "figures":
            result |= run_figures(args.units, args.seed, tally)
        else:
            functional_warm_up(device, pipelines)
            result |= run_functional(device, pipelines, args.units,
                                     args.seed, tally)
        final = counters()
        result |= {"attempted": tally.attempted, "failed": tally.failed,
                   "errors": tally.errors, "peak_rss_mb": procs.peak_rss_mb([os.getpid()]),
                   "pass_s": final.pop("compile_pass_seconds"),
                   "counters": final}
    if installation is not None:
        installation.uninstall()
        tracing.write_chrome_trace(args.spans, recorder.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
