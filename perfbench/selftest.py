"""Self-test of the benchmark at tiny length (about two minutes on 2 CPUs).

    python3 perfbench/selftest.py

Checks that

* every workload emits exactly the metrics BENCHMARK.json names, with their
  units, in both modes (``--trace 0`` and ``--trace 1``);
* a corrupted expected digest and a mismatched duplicate pair each count as
  a failed operation;
* the tracing wrappers put every original function back;
* without the library source next to it the command fails without a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import serve_load
import tracing

#: --seconds per workload: the smallest runs that still fill every metric.
TINY_SECONDS = {"figures": 1, "functional": 1, "serve": 4}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in spec["workloads"]:
            name = workload["name"]
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", str(TINY_SECONDS[name]),
                 "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            check(proc.returncode == 0, f"{name} --trace {trace} exits 0"
                  + (f": {proc.stderr[-500:]}" if proc.returncode else ""))
            result = last_json(proc.stdout)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{name} --trace {trace} is correct with no failures")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == expected,
                  f"{name} --trace {trace} emits every {key} metric with its unit")


def check_digest_failures() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro import workloads
    from repro.gpusim.device import Device
    from repro.serve.protocol import args_digest

    params = serve_load.MIX["softmax"](5)
    problem = workloads.get("softmax").problem_cls(**params)
    specs = workloads.build_sweep_specs(Device(mode="functional", workers=1,
                                               pool=0),
                                        workloads.get("softmax"), problem)
    Device(mode="functional", workers=1, pool=0).run_many(specs)
    good = args_digest(specs)

    def record(group: int, digest: str) -> serve_load.Record:
        return serve_load.Record("light", "softmax", params, group, 0.0,
                                 reply={"ok": True, "digest": digest})

    checked, errors = serve_load.local_digest_errors([record(0, good)], seed=1)
    check(checked == 1 and not errors, "a correct digest passes the local check")
    checked, errors = serve_load.local_digest_errors(
        [record(0, "0" * 64)], seed=1)
    check(checked == 1 and len(errors) == 1,
          "a corrupted expected digest counts as one failed operation")
    errors = serve_load.reply_errors([record(3, good), record(3, "0" * 64)])
    check(len(errors) == 1, "a duplicate pair with different digests fails once")


def check_wrappers_restored() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import repro.serve.__main__  # noqa: F401  (every traced module loaded)

    def state() -> dict:
        out = {}
        for name, module in list(sys.modules.items()):
            if name.startswith("repro"):
                out[name] = dict(vars(module))
                for attr, value in vars(module).items():
                    if isinstance(value, type):
                        out[f"{name}.{attr}"] = dict(vars(value))
        return out

    before = state()
    installation = tracing.install(tracing.Recorder(), serve=True)
    check(len(installation.patches) >= len(tracing.TARGETS),
          "install wraps every target")
    check(state() != before, "installed wrappers replace the originals")
    installation.uninstall()
    after = state()
    changed = [key for key in before
               if any(after[key].get(a) is not v for a, v in before[key].items())]
    check(not changed, f"uninstall restores every original ({changed[:3]})")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the library the command fails and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_wrappers_restored()
    check_digest_failures()
    check_bare_directory()
    check_metrics(spec)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
