"""Run two sets of benchmark runs of the same code and compare them metric by metric.

    python3 xx0bench/steadiness.py

Each of the two sets runs every workload of BENCHMARK.json once per seed,
alternating workloads; set k uses the seeds 100*k + 1 .. 100*k + 10.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), the shift
of the second median from the first, and whether both the spread and the
size of the shift stay within the metric's bound from BENCHMARK.json.  It
also checks that the share of failed operations is the same in every run.
Run it from the root of a checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS_PER_SET = 10


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS_PER_SET):
            seed = 100 * (k + 1) + i + 1
            for w in workloads:
                r = one_run(spec, w, seed)
                results[w][k].append(r)
                values = " ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items())
                print(f"set {k + 1} seed {seed} {w}: {values} attempted={r['attempted']} failed={r['failed']}"
                      f" correct={r['correct']}", flush=True)

    ok = True
    print()
    print(f"{'workload':12} {'metric':12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'shift':>8} {'bound':>6}  verdict")
    for w in workloads:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        correct = all(r["correct"] for runs in results[w] for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                shift = (med - medians[0]) / medians[0] if medians else 0.0
                medians.append(med)
                good = spread <= bound and abs(shift) <= bound
                ok = ok and good
                print(f"{w:12} {name:12} {k + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {shift:+8.4f} {bound:6.2f}  "
                      f"{'ok' if good else 'OUT OF BOUND'}")
        share_text = ", ".join(str(s) for s in sorted(shares))
        print(f"{w:12} failed share {share_text} in every run: {len(shares) == 1}; all runs correct: {correct}")
        ok = ok and len(shares) == 1 and correct
    print(f"steadiness: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
