"""Child-process bookkeeping shared by the workloads (Linux ``/proc``).

Every process under test is started in a session of its own, so whatever
it leaves behind -- forked workers included -- can be found by process
group, killed and waited for.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def session_members(sid: int) -> list[int]:
    """Live pids whose process group is ``sid`` (a child's session)."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == sid:
            members.append(int(entry.name))
    return members


def kill_session(sid: int, timeout: float = 10.0) -> int:
    """SIGKILL every live member of a session and wait until none is left.

    Returns how many members there were.
    """
    leftovers = session_members(sid)
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(leftovers)


def peak_rss_mb(pids: list[int]) -> float:
    """Summed peak resident set size (VmHWM) of ``pids``, in MiB."""
    total = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except OSError:
            continue
    return total / 1024.0
