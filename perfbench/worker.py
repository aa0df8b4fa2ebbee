"""One benchmark process: build a workload's inputs, set it up, measure it.

``run.py`` starts this script once per set-up probe (``--setup-only``) and
once for the measurement, and reads the JSON object it prints last.  Set-up
time runs from ``--spawned-at`` (the parent's wall clock just before the
process started) to ready, minus the time spent building inputs, so it
covers interpreter start, imports, fixtures and the warm-up point.

With ``--trace 1`` the measurement runs twice: first with the span shims of
``tracing.py`` installed (installed before set-up, so the cold first
predictor call is caught), then without them.  Per-layer metrics come from
the first phase; the tracing overhead is the difference of the two
phases' median adaptation-point latency.

``--record-digests`` rewrites this workload's entry of ``digests.json``
from the run's own decisions (use it on the default seed only, after a
change that is meant to alter decisions).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_report
from workloads import DIGEST_FILE, WORKLOADS, Measurement, StepCapture

OUT_DIR = Path(".perfbench")


def summary(m: Measurement) -> dict[str, object]:
    return {
        "adapt": m.adapt,
        "first": m.first,
        "wall": m.wall,
        "points": m.points,
        "attempted": m.attempted,
        "failed": min(m.failed, m.attempted),
        "problems": m.problems,
        "extra": m.extra,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    capture = StepCapture()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    start = time.perf_counter()
    workload.prepare(warmup_only=args.setup_only)
    prepare_s = time.perf_counter() - start
    workload.setup()
    capture.take()  # the warm-up point is not a measured operation
    out: dict[str, object] = {
        "setup_s": time.time() - args.spawned_at - prepare_s,
        "prepare_s": prepare_s,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if tracer is not None:
        traced = workload.measure(args.seconds, tracer, capture)
        layers = layer_report(tracer)
        layers.update(traced.layers)
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl.gz")
        tracer.uninstall()
        measured = workload.measure(args.seconds, None, capture)
        layers["trace.traced_p50_ms"] = 1000.0 * statistics.median(traced.adapt)
        layers["trace.untraced_p50_ms"] = 1000.0 * statistics.median(measured.adapt)
        layers["trace.overhead_ms"] = (
            layers["trace.traced_p50_ms"] - layers["trace.untraced_p50_ms"]
        )
        (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(layers, indent=1))
        out["layers"] = layers
        out["traced"] = summary(traced)
    else:
        measured = workload.measure(args.seconds, None, capture)
    if args.record_digests:
        book = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
        book[args.workload] = dict(sorted(measured.digests.items()))
        DIGEST_FILE.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    out["measure"] = summary(measured)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
