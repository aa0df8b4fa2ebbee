"""Repository benchmark: adaptation-point latency, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace-4k --seed 1 --seconds 30 --trace 0

Workloads: ``trace-4k``, ``detect-256``, ``serve-1k`` (see README.md in this
directory).  The script starts ``worker.py`` three times — two set-up
probes and the measurement — each a fresh interpreter importing the library
from ``src/``, and prints a human-readable report followed, as the last
line, by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Exit status is 0 on a completed run (check ``correct``), 2 when the
library or the workload cannot be found, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("trace-4k", "detect-256", "serve-1k")
DEFAULT_SEED = 1
SETUP_PROBES = 2
#: the tail percentile each workload aims for; it is lowered to the highest
#: one with at least ten samples beyond it when a run has fewer samples
TAIL_TARGET = {"trace-4k": 0.80, "detect-256": 0.95, "serve-1k": 0.90}
FIRST_TAIL_TARGET = 0.90
#: a worker gets this long; the whole run stays inside 180 s
WORKER_TIMEOUT_S = 170.0


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (position ``q * (n - 1)``)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int, target: float) -> float:
    """``target``, lowered so that at least ten samples lie beyond it.

    With fewer than 21 samples no percentile above the median has ten
    beyond it; the maximum is reported instead (labelled p100).
    """
    highest = (n - 11) / (n - 1) if n > 1 else 0.0
    return min(target, highest) if highest >= 0.5 else 1.0


def run_worker(args: argparse.Namespace, env: dict[str, str], extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()), *extra,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, setups: list[float], result: dict) -> tuple[dict, list[str]]:
    m = result["measure"]
    adapt = [1000.0 * x for x in m["adapt"]]
    first = [1000.0 * x for x in m["first"]]
    q_adapt = tail_quantile(len(adapt), TAIL_TARGET[workload])
    q_first = tail_quantile(len(first), FIRST_TAIL_TARGET)
    values = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} processes"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "measuring process"),
        "adapt_p50_ms": (statistics.median(adapt), "ms", f"p50 of n={len(adapt)}"),
        "adapt_tail_ms": (quantile(adapt, q_adapt), "ms", f"p{100 * q_adapt:.1f} of n={len(adapt)}"),
        "adapt_per_s": (m["points"] / m["wall"], "1/s", f"{m['points']} points in {m['wall']:.2f} s"),
        "first_decision_p50_ms": (statistics.median(first), "ms", f"p50 of n={len(first)}"),
        "first_decision_tail_ms": (quantile(first, q_first), "ms", f"p{100 * q_first:.1f} of n={len(first)}"),
        "success_rate": (1.0 - m["failed"] / m["attempted"], "frac", f"{m['failed']} failed of {m['attempted']}"),
    }
    lines = [f"  {name:<24} {value:>14.4f} {unit:<5} {note}" for name, (value, unit, note) in values.items()]
    for key, value in sorted(m["extra"].items()):
        lines.append(f"  ({key:<22} {value:>14.4f})")
    return {name: {"value": v, "unit": u} for name, (v, u, _n) in values.items()}, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    layers = result["layers"]
    metrics, lines = {}, []
    for entry in spec:
        name = entry["name"]
        value = float(layers.get(name, 0.0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
        lines.append(f"  {name:<30} {value:>12.4f} {entry['unit']}")
    adapt = layers.get("trace.adapt_ms", 0.0)
    lines.append(
        f"  check: layers {layers.get('trace.layers_ms', 0.0):.3f} ms + remainder "
        f"{layers.get('trace.remainder_ms', 0.0):.3f} ms = {adapt:.3f} ms traced "
        f"adaptation time (accounted {100 * layers.get('trace.accounted_frac', 0.0):.4f}%)"
    )
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark (see README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from this run (default seed only)")
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {root / 'src' / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setups = [run_worker(args, env, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        extra = ["--record-digests"] if args.record_digests else []
        result = run_worker(args, env, extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    m = result["measure"]
    attempted, failed = m["attempted"], m["failed"]
    problems = list(m["problems"])
    if args.trace:
        traced = result["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
        metrics, lines = per_layer(result)
        title = "per-layer self time per adaptation point (traced phase)"
    else:
        metrics, lines = end_to_end(args.workload, setups, result)
        title = "end-to-end (untraced)"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} — {title}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
