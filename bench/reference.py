"""Re-measure the north-star reference points and record them in reference.json.

    python3 bench/reference.py

These are single timings of the worst cases the roadmap quotes, kept out of
the gated workloads because one of them takes minutes.  Each point runs in
its own child process under a hard timeout; a point that exceeds it is
recorded as timed out rather than hanging the script.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(BENCH_DIR, "reference.json")
TIMEOUT_S = 600
SEED = 0

# name -> what it times
POINTS = {
    "perturb_dense_w1_heis3_cap3": "perturb of identity_morphism(heis(3)) at cap 3 by a weight-1 correction hitting every generator",
    "perturb_dense_w1_heis3_cap4": "the same at cap 4 (mapping space of dimension 768)",
    "check_relations_heis5_cap4": "check_relations of heis(5) at cap 4",
}


def measure(point: str) -> float:
    import generators as gen
    from linfty import check_relations, identity_morphism, perturb
    from linfty.perturbation import PerturbationRequest

    coeff = gen.Coefficients(SEED)
    if point == "check_relations_heis5_cap4":
        structure = gen.heis(5, 4, coeff)
        start = time.perf_counter()
        if not check_relations(structure).passed:
            raise SystemExit("heis(5) fails its relations")
        return time.perf_counter() - start
    cap = 3 if point.endswith("cap3") else 4
    structure = gen.verified(gen.heis(3, cap, coeff))
    correction = gen.correction(structure, 1, 3, coeff)
    request = PerturbationRequest(identity_morphism(structure), 1, correction)
    start = time.perf_counter()
    perturb(request)
    return time.perf_counter() - start


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--point":
        print(json.dumps(measure(sys.argv[2])))
        return 0
    from harness import child_env
    from worker import run_metadata

    env = child_env()
    results = {}
    for point, description in POINTS.items():
        entry = {"what": description, "timeout_s": TIMEOUT_S}
        try:
            done = subprocess.run(
                [sys.executable, __file__, "--point", point],
                env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=True,
            )
            entry["seconds"] = json.loads(done.stdout.strip().splitlines()[-1])
        except subprocess.TimeoutExpired:
            entry["seconds"] = None
            entry["timed_out"] = True
        print("%-32s %s" % (point, entry.get("seconds")), flush=True)
        results[point] = entry
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump({"meta": run_metadata(SEED), "points": results}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
