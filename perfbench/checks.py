"""Correctness checks, run outside every timed region.

* Functional launches are compared against the kernel modules' own NumPy
  references, with the tolerances their ``check_*`` functions use.
* Figure sweeps must show the paper trends that
  ``tests/test_experiments_and_baselines.py`` asserts on the reduced sweep.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.attention import attention_reference
from repro.kernels.fused_elementwise import fused_reference
from repro.kernels.gemm import gemm_reference
from repro.kernels.layernorm import layernorm_reference
from repro.kernels.softmax import softmax_reference
from repro.kernels.splitk_gemm import splitk_reference

#: workload -> (input args of its first launch, reference(problem, *inputs),
#: output arg of its last launch, rtol, atol)
REFERENCES = {
    "gemm": (("a_desc", "b_desc"),
             lambda p, a, b: gemm_reference(a, b, p.dtype), "c_ptr", 2e-2, 2e-2),
    "attention": (("q_desc", "k_desc", "v_desc"),
                  lambda p, q, k, v: attention_reference(q, k, v, p), "o_ptr",
                  3e-2, 3e-2),
    "splitk_gemm": (("a_desc", "b_desc"),
                    lambda p, a, b: splitk_reference(a, b, p), "c_ptr", 2e-2, 2e-2),
    "softmax": (("x_ptr",), lambda p, x: softmax_reference(x), "out_ptr",
                1e-5, 1e-6),
    "layernorm": (("x_ptr", "w_ptr", "b_ptr"),
                  lambda p, x, w, b: layernorm_reference(x, w, b, p.eps),
                  "out_ptr", 1e-4, 1e-4),
    "fused_elementwise": (("x_ptr", "bias_ptr", "res_ptr"),
                          lambda p, x, b, r: fused_reference(x, b, r, p.activation),
                          "out_ptr", 1e-5, 1e-5),
}


def output(kind: str, specs) -> np.ndarray:
    """The output array of a launch pipeline (valid once it has run)."""
    return specs[-1].args[REFERENCES[kind][2]].buffer.to_numpy()


def reference_error(kind: str, problem, out: np.ndarray) -> str | None:
    """``None`` when ``out`` matches the NumPy reference for ``problem``.

    The inputs are regenerated from the problem's seed through the
    workload's own ``make_specs`` on a host-side functional device, so they
    are exactly the data the simulated launch read.
    """
    from repro import workloads
    from repro.gpusim.device import Device

    names, reference, _, rtol, atol = REFERENCES[kind]
    workload = workloads.get(kind)
    specs = workload.make_specs(Device(mode="functional", workers=1, pool=0),
                                problem, workload.default_options())
    inputs = [specs[0].args[name].buffer.to_numpy() for name in names]
    expected = np.asarray(reference(problem, *inputs), dtype=np.float32)
    try:
        np.testing.assert_allclose(out.astype(np.float32), expected,
                                   rtol=rtol, atol=atol)
    except AssertionError as exc:
        return f"{kind}: output differs from the NumPy reference: {exc}"
    return None


# ---------------------------------------------------------------------- figures

def figure_trend_errors(results: dict) -> dict[str, list[str]]:
    """Figure module -> the paper trends its full-range results break."""
    errors: dict[str, list[str]] = {name: [] for name in results}

    def need(module: str, ok: bool, what: str) -> None:
        if not ok:
            errors[module].append(what)

    for module, figs in results.items():
        need(module, bool(figs), "no figures produced")
    fig8 = results["fig8"][0]
    need("fig8", {"Theoretical Peak", "cuBLAS", "Tawa", "Triton", "TileLang",
                  "ThunderKittens"} <= set(fig8.series_names), "series missing")
    need("fig8", all(row.tflops > 0 for row in fig8.rows), "non-positive value")
    largest, smallest = max(fig8.x_values), min(fig8.x_values)
    need("fig8", fig8.value("Tawa", largest) > fig8.value("Triton", largest),
         "Tawa <= Triton at the largest K")
    need("fig8", fig8.value("Tawa", largest) < fig8.value("Theoretical Peak", largest),
         "Tawa >= peak at the largest K")
    need("fig8", fig8.value("cuBLAS", smallest) > fig8.value("Tawa", smallest),
         "cuBLAS <= Tawa at the smallest K")
    for fig in results["fig9"]:
        need("fig9", all(fig.value("Tawa", x) > fig.value("Triton", x)
                         for x in fig.x_values), f"{fig.name}: Tawa <= Triton")
    fig10 = results["fig10"][0]
    largest = max(fig10.x_values)
    need("fig10", fig10.value("Triton", largest) < fig10.value("Tawa", largest),
         "Tawa <= Triton at the largest sequence")
    need("fig10", fig10.value("Tawa", largest)
         <= fig10.value("FA3 (CUTLASS)", largest) * 1.05, "Tawa above FA3 + 5%")
    for fig in results["fig11"]:
        need("fig11", fig.value("D=1", 2) == 0.0 and fig.value("D=1", 3) == 0.0
             and fig.value("D=2", 3) == 0.0, f"{fig.name}: P > D not infeasible")
        need("fig11", fig.value("D=3", 2) > fig.value("D=2", 2) > 0,
             f"{fig.name}: deeper arefs not faster at P=2")
        need("fig11", fig.value("D=2", 1) > fig.value("D=1", 1),
             f"{fig.name}: D=2 not faster than D=1 at P=1")
    nonpersistent, persistent = results["fig11"]
    need("fig11", persistent.value("D=3", 2) > nonpersistent.value("D=3", 2),
         "persistent kernel not faster")
    for fig in results["fig12"]:
        values = [row.tflops for row in fig.rows]
        need("fig12", all(b >= a * 0.98 for a, b in zip(values, values[1:])),
             f"{fig.name}: ablation not monotonic")
        need("fig12", values[-1] > values[0] * 3, f"{fig.name}: full stack < 3x")
    return errors
