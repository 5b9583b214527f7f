"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 40 --trace 0

``--workload`` is ``serve-hot``, ``serve-cold`` or ``solve-giant`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` runs the workload's timed phase untraced and
then traced and reports the per-layer metrics.  A human-readable report goes
to standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any answer that
differs from its reference, or a run-hygiene failure, makes ``correct``
false and the exit code 1.  Run details are written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot", "serve-cold", "solve-giant")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Make ``repro`` and ``perfbench`` importable from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {ROOT / 'src'}; "
                         "run from a full checkout of the repository")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _import_program()
    from perfbench import cold, giant, hostinfo, hot
    from perfbench.analysis import PER_LAYER
    from perfbench.common import END_TO_END, NOT_GATED, RunContext

    runner = {"serve-hot": hot, "serve-cold": cold, "solve-giant": giant}[args.workload]
    ctx = RunContext(ROOT, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        e2e, layers = runner.run(ctx)
    finally:
        ctx.cleanup()
    host = hostinfo.host_facts()
    wanted = PER_LAYER if ctx.trace else END_TO_END
    values = layers if ctx.trace else e2e
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in wanted
    }
    counted = [p for p in ctx.phases if p["phase"] != "warm"]
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["counted_failures"] if "counted_failures" in p else p["failed"]
                 for p in counted)
    mismatches = ctx.checker.mismatches
    correct = not mismatches and not ctx.errors and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "wall_s": time.perf_counter() - started,
        "phases": ctx.phases, "mismatches": mismatches, "errors": ctx.errors,
        "checked_answers": ctx.checker.checked, "details": ctx.details, "metrics": metrics,
        "not_gated": {name: e2e[name] for name, _ in NOT_GATED if name in e2e},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in host.items()))
    for key, value in ctx.details.get("workload", {}).items():
        print(f"workload property {key} = {value}")
    for phase in ctx.phases:
        line = (f"phase {phase['phase']:<20} attempted {phase['attempted']:>5}  "
                f"succeeded {phase['succeeded']:>5}  failed {phase['failed']:>5}")
        if "passed" in phase:
            line += (f"  slo {phase['slo_value_ms']:.4g}/{phase['slo_ms']:g} ms  "
                     f"lag_p99 {phase['lag_p99_ms']:.4g} ms  "
                     f"outstanding_max {phase['outstanding_max']}  passed {phase['passed']}")
        print(line)
    print(f"answers checked {ctx.checker.checked}, mismatches {len(mismatches)}")
    for mismatch in mismatches[:20]:
        print(f"MISMATCH {mismatch}")
    for error in ctx.errors:
        print(f"ERROR {error}")
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for name, unit in NOT_GATED:
        if name in e2e:
            print(f"{name:<44} {e2e[name]:>16.6g} {unit}  (not gated)")
    print(f"details written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
