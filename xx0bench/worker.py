"""One round of one workload in a fresh interpreter: run the case list, then check it.

Prints one JSON line: the round's wall time, the process's peak resident
memory at the end of the timed region, and the operations attempted,
failed and failed unexpectedly (not among the workload's known faults).
With --trace it also prints the per-layer metrics and writes the spans.

run.py starts this with the BLAS thread variables set and src/ on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out", default=None, help="trace this round and write its spans here")
    args = p.parse_args()

    import xx0chain.cli  # noqa: F401  (set-up stays outside the timed region)
    from workloads import WORKLOADS, Op

    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    results = workload.run(plan)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer.summary())
        os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
        tracer.dump(args.trace_out)

    ops = workload.check(plan, results)
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if op.ident not in workload.known_faults]
    if len(ops) != workload.ops_per_round:
        unexpected.append(Op("round", False, f"{len(ops)} operations checked, want {workload.ops_per_round}"))
    report.update(
        attempted=len(ops),
        failed=len(failed),
        unexpected=[f"{op.ident}: {op.detail}" for op in unexpected],
    )
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
