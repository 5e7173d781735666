"""Run one workload of the xx0chain benchmark for a given seed and print its metrics.

    python3 xx0bench/run.py --workload det-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds src/xx0chain.  The run repeats
rounds for about --seconds.  Each round is one fresh single-threaded worker
process, so the program's caches start cold in every round and only the
case list's own sharing fills them; wall_s and peak_rss_mb are medians over
the rounds.  Before each round PROBES_PER_ROUND fresh interpreters are timed
up to the import of xx0chain.cli; setup_s is the median of all probes.
The probes are spread over the run because on a shared two-vCPU virtual
machine the CPU speed was seen to wander by a quarter within seconds, and
probes taken back to back all sample the same moment.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A traced run alternates untraced and
traced rounds, so that trace.overhead_s compares rounds run side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are pinned before numpy is imported, so that a round is one
# single-threaded process and its time does not depend on how the BLAS
# library splits small products between cores that other work also uses.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROBES_PER_ROUND = 3
ROUND_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


_PROBE = "import time, xx0chain.cli, sys; sys.stdout.write(repr(time.monotonic()))"


def setup_probe(env: dict) -> float:
    """Seconds from launching a fresh interpreter until it has imported xx0chain.cli."""
    t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child on Linux
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout) - t0


def run_round(env: dict, workload: str, seed: int, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "xx0chain" / "__init__.py").is_file():
        sys.stderr.write(f"no xx0chain sources under {SRC}; run from a checkout of the repository\n")
        return 2

    env = _env()
    probes: list[float] = []
    rounds: list[dict] = []
    traced: list[dict] = []
    t_start = time.monotonic()
    while True:
        probes += [setup_probe(env) for _ in range(PROBES_PER_ROUND)]
        if args.trace and len(traced) < len(rounds):
            name = f"trace-{args.workload}-seed{args.seed}-round{len(traced)}.tsv.gz"
            traced.append(run_round(env, args.workload, args.seed, OUT / name))
        else:
            rounds.append(run_round(env, args.workload, args.seed, None))
        elapsed = time.monotonic() - t_start
        # stop when one more round would overrun --seconds by more than half a round
        per_round = elapsed / (len(rounds) + len(traced))
        if elapsed + 0.5 * per_round >= args.seconds and (traced or not args.trace):
            break

    everything = rounds + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    unexpected = sorted({u for r in everything for u in r["unexpected"]})
    for line in unexpected:
        sys.stderr.write(f"unexpected failure: {line}\n")

    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            value = None if None in values else statistics.median(values)
            unit = "count" if key.endswith(".calls") else ("ratio" if key.endswith("_ratio") else "s")
            metrics[key] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced) - wall_s,
            "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
        }

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} untraced, {len(traced)} traced")
    print("round wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    print("blas_threads " + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    print(f"operations attempted {attempted}, failed {failed}, unexpected failures {len(unexpected)}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
