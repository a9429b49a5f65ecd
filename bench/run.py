"""Benchmark entry point for linfty (standard library only).

    python3 bench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout; linfty is imported from ``src``.
Each workload runs in its own child process (``worker.py``) with
``PYTHONHASHSEED`` pinned, one workload after another.  A run prints its
metadata, one line per metric with its unit, and as the last line the JSON
result ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  ``--workload all`` runs every workload both ways and
prints every metric by name.

Other entry points: ``bench/selftest.py`` checks the failure accounting,
``bench/reference.py`` re-measures the north-star reference points, and
``PYTHONPATH=src python3 bench/workloads.py record-cli`` re-records the CLI
oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from harness import BENCH_DIR, REPO_DIR, child_env

CHILD_TIMEOUT_S = 175.0


def run_workload(workload: str, seed: int, seconds: int, trace: int, capture: bool):
    """Run one workload in a child; returns (exit code, stdout or None)."""
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            argv, cwd=REPO_DIR, env=child_env(), timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        print("workload %s exceeded %.0f s" % (workload, CHILD_TIMEOUT_S), file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def main(argv=None) -> int:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="linfty benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(REPO_DIR, "src", "linfty", "__init__.py")):
        print("no linfty sources under %s" % os.path.join(REPO_DIR, "src"), file=sys.stderr)
        return 2

    if args.workload != "all":
        code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace, capture=False)
        return code

    results = {}
    for name in names:
        for trace in (0, 1):
            code, out = run_workload(name, args.seed, args.seconds, trace, capture=True)
            if code != 0:
                print("workload %s (trace %d) failed with exit %d" % (name, trace, code), file=sys.stderr)
                return 1
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            entry = results.setdefault(name, {"attempted": 0, "failed": 0, "correct": True, "metrics": {}})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["correct"] = entry["correct"] and result["correct"]
            entry["metrics"].update(result["metrics"])
            if trace == 0:
                print("\n".join("%s %s" % (name, l) for l in lines if l.startswith(("meta ", "run "))))
    for name, entry in results.items():
        print("%s: attempted %d, failed %d, error_rate %.4f" % (
            name, entry["attempted"], entry["failed"], entry["failed"] / entry["attempted"]))
        for metric, m in entry["metrics"].items():
            print("  %-42s %16.6f %s" % (metric, m["value"], m["unit"]))
    print(json.dumps(results))
    return 0 if all(e["correct"] for e in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
