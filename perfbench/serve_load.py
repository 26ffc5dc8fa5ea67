"""The ``serve`` workload: a server child process under seeded traffic.

The server runs as ``python -m repro.serve serve --port 0`` (default pool of
2 workers) in its own session; the traced run starts ``serve_entry.py``
instead.  This process drives it with one asyncio thread over one TCP
connection, speaking the JSON-lines protocol of ``repro.serve.protocol``.

Set-up is spawn until the server has answered two warm-up rounds (every mix
kernel compiled, pool spawned).  Then three phases:

* ``light`` and ``heavy``: open-loop Poisson arrivals at 18.75 and 75
  requests/s.  Latency is timed from each request's due time; how late the
  generator sent is reported as lag.
* ``capacity``: a closed loop with 16 arrivals outstanding, which fills two
  ``max_batch=8`` micro-batches.

Light and capacity alternate in three rounds, and capacity is the median of
the three rounds' rates: the shared host slows down for seconds at a time,
and a slow stretch then spoils one round instead of the whole phase.  Heavy
runs last.

Every arrival draws a small functional request with a fresh seed.  A quarter
of arrivals send two identical requests at the same instant (coalescing).
In the heavy phase one arrival in twenty asks for a GEMM with a never-seen
``N``, whose ``stride_cm`` constexpr makes it a cold compile (and a pool
respawn) under load.  The light and capacity phases run the warm mix: a few
respawns swing their short windows more than anything else they measure.

The server is stopped with SIGINT on every exit path.  Processes of its
session that survive are killed and counted as failures.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import procs

#: Arrivals per second of the open-loop phases (18.75 and 75 requests/s with
#: the duplicate pairs).  At 37.5 requests/s half the light requests overlap
#: another one, and queueing behind it doubled how far the light p90 moved
#: with the host's speed from run to run.
LIGHT_RATE = 15.0
HEAVY_RATE = 60.0
CAPACITY_OUTSTANDING = 16
#: Share of --seconds each phase runs for, split evenly over ``ROUNDS`` for
#: light and capacity.  The light phase gets the most: its p90 is a bounded
#: end-to-end metric, and the host's speed swings move it more than anything
#: else.  Heavy-phase latencies are per-layer metrics only.
PHASE_SHARES = {"light": 0.55, "heavy": 0.2, "capacity": 0.25}
ROUNDS = 3
DUPLICATE_SHARE = 0.25
COLD_SHARE = 0.05
#: Distinct server problems re-run locally and checked against NumPy.
LOCAL_CHECKS = 6
REPLY_TIMEOUT = 60.0

#: 64x64x32 tiles: each tile product stays below OpenBLAS's threading
#: threshold, so it runs on the calling thread.  With larger tiles, BLAS
#: threads in the forked pool workers stall on wake-ups and swing request
#: times several-fold between identical runs (the functional workload
#: measures that stall).
SMALL_TILES = {"block_m": 64, "block_n": 64, "block_k": 32}

MIX = {
    "gemm": lambda seed: {"M": 256, "N": 256, "K": 128, **SMALL_TILES,
                          "seed": seed},
    "splitk_gemm": lambda seed: {"M": 128, "N": 128, "K": 1024, **SMALL_TILES,
                                 "seed": seed},
    "softmax": lambda seed: {"rows": 64, "cols": 1024, "seed": seed},
    "layernorm": lambda seed: {"rows": 64, "cols": 1024, "seed": seed},
    "fused_elementwise": lambda seed: {"rows": 64, "cols": 1024, "seed": seed},
}


@dataclass
class Record:
    """One request: what was sent, when it was due, how it ended."""

    phase: str
    workload: str
    params: dict
    group: int          # arrival index; duplicates share it
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.reply.get("ok"))


class Mix:
    """The seeded request generator shared by every phase of one run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cold_ns = iter(self.rng.sample(range(260, 760), 500))
        self.arrivals = 0

    def arrival(self, cold: bool) -> list[tuple[str, dict]]:
        """The one or two identical requests of the next arrival."""
        self.arrivals += 1
        seed = self.rng.randrange(1, 2**31)
        if self.rng.random() < COLD_SHARE and cold:
            request = ("gemm", MIX["gemm"](seed) | {"N": next(self.cold_ns)})
        else:
            name = self.rng.choice(sorted(MIX))
            request = (name, MIX[name](seed))
        copies = 2 if self.rng.random() < DUPLICATE_SHARE else 1
        return [request] * copies


# ---------------------------------------------------------------------- client

class Connection:
    """One TCP connection; many requests in flight, routed back by id."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.pending: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.task = asyncio.create_task(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while line := await self.reader.readline():
                reply = json.loads(line)
                future = self.pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        finally:
            for future in self.pending.values():
                if not future.done():
                    future.set_result({"ok": False, "error": "connection-lost"})

    def send(self, op: str, **fields) -> asyncio.Future:
        request_id = self.next_id
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.pending[request_id] = future
        self.writer.write((json.dumps({"op": op, "id": request_id, **fields},
                                      sort_keys=True) + "\n").encode())
        return future

    async def call(self, op: str, **fields) -> dict:
        return await asyncio.wait_for(self.send(op, **fields), REPLY_TIMEOUT)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


async def finish(conn: Connection, record: Record) -> None:
    record.sent = time.perf_counter()
    try:
        record.reply = await asyncio.wait_for(
            conn.send("launch", workload=record.workload, params=record.params),
            REPLY_TIMEOUT)
    except asyncio.TimeoutError:
        record.reply = {"ok": False, "error": "timeout"}
    record.done = time.perf_counter()


async def open_loop(conn: Connection, mix: Mix, phase: str, rate: float,
                    seconds: float, records: list[Record], cold: bool) -> None:
    offsets, t = [], mix.rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += mix.rng.expovariate(rate)
    start = time.perf_counter()
    tasks = []
    for offset in offsets:
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        group = mix.arrivals
        for name, params in mix.arrival(cold):
            record = Record(phase, name, params, group, due)
            records.append(record)
            tasks.append(asyncio.create_task(finish(conn, record)))
    await asyncio.gather(*tasks)


async def closed_loop(conn: Connection, mix: Mix, seconds: float,
                      records: list[Record]) -> float:
    """Returns completions per second inside the phase window."""
    start = time.perf_counter()
    end = start + seconds
    mine: list[Record] = []

    async def client() -> None:
        while time.perf_counter() < end:
            now = time.perf_counter()
            group = mix.arrivals
            batch = [Record("capacity", name, params, group, now)
                     for name, params in mix.arrival(cold=False)]
            mine.extend(batch)
            await asyncio.gather(*(finish(conn, r) for r in batch))

    await asyncio.gather(*(client() for _ in range(CAPACITY_OUTSTANDING)))
    records.extend(mine)
    window = [r.done for r in mine if r.done <= end]
    return len(window) / (max(window) - start)


# ---------------------------------------------------------------------- server process

def _default_sigint() -> None:
    """Let the server see SIGINT even when this process was started with it
    ignored (as background jobs of a non-interactive shell are)."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """The server child: started in its own session, always torn down."""

    def __init__(self, root: Path, out_dir: Path, env: dict,
                 spans: Path | None = None):
        self.root, self.out_dir, self.env, self.spans = root, out_dir, env, spans
        self.proc: subprocess.Popen | None = None
        self.spawned = 0.0
        self.leaked = 0

    def start(self, timeout: float = 60.0) -> int:
        if self.spans is None:
            argv = [sys.executable, "-m", "repro.serve"]
        else:
            argv = [sys.executable, str(self.root / "perfbench" / "serve_entry.py"),
                    "--spans", str(self.spans)]
        stdout = self.out_dir / "server.out"
        with open(stdout, "w") as out, open(self.out_dir / "server.err", "w") as err:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                argv + ["serve", "--port", "0"], cwd=self.root, env=self.env,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True, preexec_fn=_default_sigint)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in stdout.read_text().splitlines():
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("server did not start: "
                           + (self.out_dir / "server.err").read_text()[-2000:])

    def members(self) -> list[int]:
        return procs.session_members(self.proc.pid) if self.proc else []

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT, wait, then kill whatever of the session is left.

        Returns the number of processes that had to be killed.
        """
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
        leaked = procs.kill_session(self.proc.pid)
        self.proc.wait()
        self.proc = None
        self.leaked += leaked
        return leaked


async def warm_up(conn: Connection) -> list[dict]:
    """Two rounds over every mix kernel: compiles, then a warm pool."""
    replies = []
    for round_seed in (1, 2):
        replies += await asyncio.gather(*(
            conn.call("launch", workload=name, params=make(round_seed))
            for name, make in sorted(MIX.items())))
    return replies


async def setup_once(server: Server) -> tuple[float, int]:
    """Start the server and warm it up; returns (set-up seconds, port)."""
    port = server.start()
    conn = await Connection.open(port)
    try:
        replies = await warm_up(conn)
    finally:
        await conn.close()
    if not all(reply.get("ok") for reply in replies):
        raise RuntimeError(f"warm-up failed: {replies}")
    return time.monotonic() - server.spawned, port


# ---------------------------------------------------------------------- checks

def local_digest_errors(records: list[Record], seed: int) -> tuple[int, list[str]]:
    """Re-run a seeded sample of distinct problems serially in this process.

    Each must pass its NumPy reference check and give the server's digest.
    """
    from repro import workloads
    from repro.gpusim.device import Device
    from repro.serve.protocol import args_digest

    import checks

    distinct = {}
    for record in records:
        if record.ok:
            distinct.setdefault(json.dumps([record.workload, record.params],
                                           sort_keys=True), record)
    keys = sorted(distinct)
    sample = random.Random(seed).sample(keys, min(LOCAL_CHECKS, len(keys)))
    device = Device(mode="functional", workers=1, pool=0)
    errors = []
    for key in sample:
        record = distinct[key]
        workload = workloads.get(record.workload)
        problem = workload.problem_cls(**record.params)
        specs = workloads.build_sweep_specs(device, workload, problem)
        device.run_many(specs)
        error = checks.reference_error(record.workload, problem,
                                       checks.output(record.workload, specs))
        if error:
            errors.append(error)
        elif args_digest(specs) != record.reply.get("digest"):
            errors.append(f"{key}: server digest differs from a local serial run")
    return len(sample), errors


def reply_errors(records: list[Record]) -> list[str]:
    """Failed replies, plus duplicate pairs whose digests differ."""
    errors = [f"{r.workload}: {r.reply.get('error')} {r.reply.get('detail', '')}"
              for r in records if not r.ok]
    groups: dict[int, set] = {}
    for r in records:
        if r.ok:
            groups.setdefault(r.group, set()).add(r.reply.get("digest"))
    errors += [f"arrival {g}: duplicate replies with different digests"
               for g, digests in groups.items() if len(digests) > 1]
    return errors


# ---------------------------------------------------------------------- the run

async def drive(server: Server, seed: int, seconds: float) -> dict:
    setup_s, port = await setup_once(server)
    conn = await Connection.open(port)
    records: list[Record] = []
    mix = Mix(seed)
    rates = []
    try:
        for _ in range(ROUNDS):
            await open_loop(conn, mix, "light", LIGHT_RATE,
                            seconds * PHASE_SHARES["light"] / ROUNDS, records,
                            cold=False)
            rates.append(await closed_loop(
                conn, mix, seconds * PHASE_SHARES["capacity"] / ROUNDS, records))
        await open_loop(conn, mix, "heavy", HEAVY_RATE,
                        seconds * PHASE_SHARES["heavy"], records, cold=True)
        capacity_rps = statistics.median(rates)
        counters = (await conn.call("counters")).get("counters", {})
        rss = procs.peak_rss_mb(server.members())
    finally:
        await conn.close()
    return {"setup_s": setup_s, "records": records, "capacity_rps": capacity_rps,
            "capacity_rounds_rps": rates, "counters": counters, "peak_rss_mb": rss}


def run(root: Path, out_dir: Path, env: dict, seed: int, seconds: float,
        spans: Path | None = None, setup_only: bool = False) -> dict:
    """One server lifetime: set-up (and, unless ``setup_only``, the phases)."""
    server = Server(root, out_dir, env, spans)
    try:
        if setup_only:
            return {"setup_s": asyncio.run(setup_once(server))[0],
                    "leaked": server.stop()}
        result = asyncio.run(drive(server, seed, seconds))
    finally:
        server.stop()
    records = result["records"]
    errors = reply_errors(records)
    checked, local_errors = local_digest_errors(records, seed)
    errors += local_errors
    failed = len(errors) + server.leaked
    if server.leaked:
        errors.append(f"{server.leaked} server process(es) survived SIGINT")
    return result | {"errors": errors[:20],
                     "attempted": len(records) + checked, "failed": failed}
