"""Traced launcher for the ``serve-hot`` child process.

Usage: ``python perfbench/serve_child.py SPANS_OUT serve-arg...``

Installs the benchmark's span wrappers into this interpreter, then hands
control to ``repro.cli.main(["serve", ...])`` exactly as ``python -m repro
serve`` would.  When the server exits (``POST /shutdown``) the spans and
counters are written to ``SPANS_OUT`` as JSON and the serve exit code is
returned unchanged.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    spans_out, serve_args = Path(argv[0]), argv[1:]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.tracing import Instrumentation, Tracer
    from repro.cli import main as repro_main

    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        instrumentation.uninstall()
        tmp = spans_out.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "spans": [span.to_json() for span in tracer.spans],
            "counters": dict(tracer.counters),
        }))
        os.replace(tmp, spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
