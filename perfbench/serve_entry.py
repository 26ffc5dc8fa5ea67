"""Traced entry point of the serve server.

The untraced ``serve`` workload runs ``python -m repro.serve serve --port 0``;
its traced run starts this file instead, which installs the same wrappers the
other workloads use (tracing.py, serve layer included) and then calls
``repro.serve.__main__.main`` with the remaining arguments::

    python3 perfbench/serve_entry.py --spans PATH serve --port 0

The spans stay in memory and are written to PATH when the server exits
(SIGINT makes ``main`` return).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

_T_IMPORT = time.perf_counter()
import repro.serve.__main__ as serve_main  # noqa: E402

import tracing  # noqa: E402

_IMPORT_END = time.perf_counter()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_entry.py --spans PATH <repro.serve arguments>",
              file=sys.stderr)
        return 2
    spans_path, serve_argv = Path(argv[1]), argv[2:]
    recorder = tracing.Recorder()
    recorder.add("import", "import", _T_IMPORT, _IMPORT_END)
    installation = tracing.install(recorder, serve=True)
    try:
        return serve_main.main(serve_argv)
    finally:
        installation.uninstall()
        tracing.write_chrome_trace(spans_path, recorder.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
