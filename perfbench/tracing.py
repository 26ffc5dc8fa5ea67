"""Span recording for the benchmark's traced runs.

A traced run wraps the public entry point of every layer before its workload
starts (``install``), records one span per call, keeps the spans in memory
and writes them out when the process ends (``write_chrome_trace``; the file
opens in https://ui.perfetto.dev).  ``uninstall`` puts every original
function back.

A span is ``(id, name, layer, start, end, parent, rid, thread)``.  The parent
is the span open in the caller's context when the call started: a
``contextvars`` variable, so asyncio tasks and ``asyncio.to_thread`` calls
inherit it and concurrent requests on one event loop do not nest into each
other.  ``rid`` is a request id (serve only).  A span's self time is its
duration minus the part of it covered by its child spans.

Only calls in the traced process are seen: CTAs simulated inside forked
workers show up as the parent-side ``parallel.wait`` / ``pool.wait`` spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: (layer, span name, module, qualified attribute) for every wrapped entry
#: point.  A name listed for several classes counts the outermost call only.
TARGETS = (
    ("frontend", "frontend.build", "repro.frontend.kernel", "Kernel.build_module"),
    ("compile", "compile.pipeline", "repro.core.compiler", "compile_kernel"),
    ("service", "service.compile", "repro.core.service", "CompilerService.compile"),
    ("plan", "plan.get", "repro.gpusim.plan", "get_plan"),
    ("executor", "executor.prepare", "repro.gpusim.executors.base", "ExecutorBase.prepare"),
    ("executor", "executor.execute", "repro.gpusim.executors.base", "ExecutorBase.submit"),
    ("executor", "executor.execute", "repro.gpusim.executors.sharded", "ShardedExecutor.submit"),
    ("executor", "executor.execute", "repro.gpusim.executors.pooled", "PooledExecutor.submit"),
    ("executor", "executor.execute", "repro.gpusim.executors.vectorized", "CodegenExecutor.submit"),
    ("executor", "executor.collect", "repro.gpusim.executors.base", "InflightLaunch.collect"),
    ("executor", "executor.collect", "repro.gpusim.executors.sharded", "_ShardedInflight.collect"),
    ("executor", "executor.collect", "repro.gpusim.executors.pooled", "_PooledInflight.collect"),
    ("executor", "executor.finalize", "repro.gpusim.executors.base", "ExecutorBase.finalize"),
    ("engine", "engine.run", "repro.gpusim.engine", "Engine.run"),
    ("parallel", "parallel.wait", "repro.gpusim.parallel", "ParallelLaunch.wait"),
    ("pool", "pool.wait", "repro.gpusim.pool", "PoolLaunch.wait"),
    ("pool", "arena.place", "repro.gpusim.memory", "SharedArena.place_buffers"),
    ("pool", "arena.restore", "repro.gpusim.memory", "SharedArena.restore_buffers"),
    ("workloads", "workloads.build_specs", "repro.workloads.registry", "build_sweep_specs"),
    ("serve", "serve.request", "repro.serve.service", "SimService.submit_workload"),
    ("serve", "serve.dispatch", "repro.serve.service", "SimService._dispatch"),
)

#: Every layer a traced run reports, in pipeline order.
LAYERS = ("import", "frontend", "compile", "service", "plan", "executor",
          "engine", "parallel", "pool", "workloads", "serve")

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


def request_id(name: str, params: dict | None) -> str:
    """The id pairing a serve request's client and server spans."""
    return json.dumps([name, params or {}], sort_keys=True)


class Recorder:
    """Spans of one process, in memory until the process writes them out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, layer: str, start: float, end: float,
            rid: str | None = None, parent: int | None = None) -> None:
        """Record an interval that was timed by hand (import, queue wait)."""
        self.spans.append((next(self._ids), name, layer, start, end,
                           parent, rid, threading.get_ident()))

    def wrap(self, fn, name: str, layer: str, rid_of=None):
        """``fn`` with every call recorded as a span."""
        spans, ids = self.spans, self._ids

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _CURRENT.reset(token)
                    rid = rid_of(*args, **kwargs) if rid_of else None
                    spans.append((span_id, name, layer, start, end,
                                  _CURRENT.get(), rid, threading.get_ident()))
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append((span_id, name, layer, start, end, parent, None,
                              threading.get_ident()))
        return traced


class Installation:
    """The attributes ``install`` replaced, so they can be put back."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _submit_workload_rid(self, name, params=None, **kwargs):
    return request_id(name, params)


def install(recorder: Recorder, serve: bool = False) -> Installation:
    """Wrap every entry point in :data:`TARGETS`; returns the undo record.

    A module-level function is replaced in its own module and in every
    loaded ``repro`` module that imported it by name.  Without ``serve`` the
    serve layer is left alone (and unimported): no other workload uses it.
    """
    done = Installation()
    for layer, name, module_name, qualname in TARGETS:
        if layer == "serve" and not serve:
            continue
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            rid_of = _submit_workload_rid if attr == "submit_workload" else None
            done.replace(owner, attr, recorder.wrap(owner.__dict__[attr], name,
                                                    layer, rid_of))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(original, name, layer)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is original):
                done.replace(mod, attr, traced)
    if serve:
        _install_queue_wait(recorder, done)
    return done


def _install_queue_wait(recorder: Recorder, done: Installation) -> None:
    """Time each serve request from admission until its ``Job.build`` starts.

    ``workload_job`` runs at admission, in the request's task; the job's
    ``build`` runs on the dispatch thread when its micro-batch forms.
    Requests that coalesce onto another's slot never build and record none.
    """
    from repro.serve import protocol

    original = protocol.workload_job

    @functools.wraps(original)
    def workload_job(name, params, *, coalesce=True):
        job = original(name, params, coalesce=coalesce)
        admitted = time.perf_counter()
        rid = request_id(name, params)
        request_span = _CURRENT.get()
        build = job.build

        def timed_build(device):
            recorder.add("serve.queue_wait", "serve", admitted,
                         time.perf_counter(), rid, request_span)
            return build(device)

        job.build = timed_build
        return job

    done.replace(protocol, "workload_job", workload_job)


# ---------------------------------------------------------------------- analysis

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[5] is not None:
            children[span[5]].append((span[3], span[4]))
    out = {}
    for span_id, _, _, start, end, *_ in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def summarize(spans: list[tuple]) -> dict:
    """Per span name: outermost-call total seconds and call count; per
    layer: total self seconds."""
    by_id = {span[0]: span for span in spans}

    def nested_in_same_name(span) -> bool:
        parent = span[5]
        while parent is not None and parent in by_id:
            if by_id[parent][1] == span[1]:
                return True
            parent = by_id[parent][5]
        return False

    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        calls[span[1]] += 1
        if not nested_in_same_name(span):
            totals[span[1]] += span[4] - span[3]
    layer_self: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        layer_self[span[2]] += selfs[span[0]]
    return {"total_s": dict(totals), "calls": dict(calls),
            "layer_self_s": dict(layer_self)}


def write_chrome_trace(path: Path, spans: list[tuple]) -> None:
    """Write spans as Chrome trace-event JSON (one complete event each)."""
    origin = min((span[3] for span in spans), default=0.0)
    events = [{
        "ph": "X", "name": name, "cat": layer, "pid": 1, "tid": thread,
        "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
        "args": {"id": span_id, "parent": parent, "rid": rid},
    } for span_id, name, layer, start, end, parent, rid, thread in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def read_chrome_trace(path: Path) -> list[tuple]:
    """Spans back from :func:`write_chrome_trace` output."""
    events = json.loads(path.read_text())["traceEvents"]
    return [(e["args"]["id"], e["name"], e["cat"], e["ts"] / 1e6,
             (e["ts"] + e["dur"]) / 1e6, e["args"]["parent"], e["args"]["rid"],
             e["tid"]) for e in events]
