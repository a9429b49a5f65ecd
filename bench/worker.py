"""Run one workload in this process and print its result as the last line.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned and ``src`` on the
path; not meant to be called directly.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one traced
pass (after untraced passes that give the base for the tracing overhead).

The gated times (``setup_s``, ``batch_norm_s``, ``op_geomean_norm_ms``) are
divided by the host slowness that references timed beside them measure
(see ``harness``); the raw times are printed on the ``run`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
from harness import REPO_DIR

OUT_DIR = os.path.join(REPO_DIR, ".bench_out")
SETUP_REPEATS = 5
SETUP_REFERENCE_LOOPS = 3  # after each set-up
OP_TIMEOUT_S = 30.0
RUN_BUDGET_S = 165.0  # the whole run, set-up included, ends inside 180 s
STARTUP_SAMPLES = 5


def run_metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"  # an exported checkout has no history
    if os.path.exists(os.path.join(REPO_DIR, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = os.path.join(REPO_DIR, "src", "linfty")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_linfty_lines": lines,
    }


def startup() -> tuple[float, float, float]:
    """Medians over fresh interpreters that import linfty.cli.

    Returns the wall time of the whole launch in ms, timed from outside,
    the import time in s that the child reads itself, and that import time
    divided by the slowness a reference launch measures right after.
    """
    code = "import time; t = time.perf_counter(); import linfty.cli; print(time.perf_counter() - t)"
    launch_ms, import_s, import_norm_s = [], [], []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=harness.child_env(), check=True, timeout=60,
            capture_output=True, text=True,
        )
        launch_ms.append((time.perf_counter() - start) * 1000.0)
        import_s.append(float(done.stdout))
        import_norm_s.append(import_s[-1] / harness.reference_launch())
    return statistics.median(launch_ms), statistics.median(import_s), statistics.median(import_norm_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S

    import workloads

    with open(os.path.join(REPO_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup = workloads.SETUPS[args.workload]
    in_process = {"in_process": True} if args.workload == "cli" and args.trace else {}
    workdir = os.path.join(OUT_DIR, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        # these launches, like the reference launches, import no more than
        # every CLI command imports and do less, so they leave the CLI
        # children's peak RSS alone
        launch_ms, import_s, import_norm_s = startup()
        setup_times, setup_norm_s = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = setup(args.seed, workdir, **in_process)
            setup_times.append(time.perf_counter() - start)
            slowness = statistics.median(harness.reference_loop() for _ in range(SETUP_REFERENCE_LOOPS))
            setup_norm_s.append(setup_times[-1] / slowness)
        passes = harness.run_passes(ops, args.seconds, OP_TIMEOUT_S, deadline)
        summary = harness.summarize(passes)
        meta = run_metadata(args.seed)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = harness.run_pass(ops, OP_TIMEOUT_S, deadline, hook=tracer.operation)
            finally:
                tracer.uninstall()
            values = tracer.metrics()
            values["tracing.untraced_batch_s"] = summary["batch_s"]
            values["tracing.traced_batch_s"] = traced.batch_s
            values["tracing.trace_overhead"] = traced.batch_s / summary["batch_s"]
            values["cli.startup_ms"] = launch_ms
            traced_summary = harness.summarize([traced])
            for key in ("attempted", "failed", "wrong"):
                summary[key] += traced_summary[key]
            summary["failures"] += traced_summary["failures"]
            wanted = spec["per_layer"]
            trace_file = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"meta": meta, "metrics": values, "spans": tracer.span_records()}, fh)
        else:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values = {"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
            summary["setup_raw_s"] = import_s + statistics.median(setup_times)
            values["setup_s"] = import_norm_s + statistics.median(setup_norm_s)
            values["batch_norm_s"] = summary["batch_norm_s"]
            values["op_geomean_norm_ms"] = summary["op_geomean_norm_ms"]
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {k: v for k, v in summary.items() if k != "failures"}
    print("meta " + json.dumps(meta, sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    for name, error in summary["failures"]:
        print("failure %s: %s" % (name, error.strip().splitlines()[-1] if error else ""))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print("metric %-40s %16.6f %s" % (name, metric["value"], metric["unit"]))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
