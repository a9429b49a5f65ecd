"""The benchmark's tracer binds linfty entry points by name.

Importing ``bench/tracing.py`` reads the kernels whose calls it counts, and
installing a tracer wraps every entry point it times; a renamed or deleted
entry point fails here instead of breaking a traced benchmark run.
"""

import importlib
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_binds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("tracing")
    targets = [target for targets in tracing.SPANS.values() for target in targets]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(owner, attr) for owner, attr in targets]
    finally:
        tracer.uninstall()
    assert tracing.SPANS and tracing.CALL_COUNTS
    # every timed entry point is wrapped while installed, and restored after
    assert all(now is not was for now, was in zip(wrapped, originals))
    assert all(getattr(owner, attr) is was for (owner, attr), was in zip(targets, originals))


def test_traced_series_cohomology_and_quasi_iso_read_their_rows(
    monkeypatch, step_nilpotent, two_term_with_h
):
    # the traced pass observes every linalg.row_reduce call through its rows'
    # shape, so a row format the tracer cannot read fails here
    monkeypatch.syspath_prepend(BENCH_DIR)
    tracing = importlib.import_module("tracing")
    from linfty import algebra, morphism

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation("linalg"):
            chain = algebra.lower_central_series(step_nilpotent)
            report = morphism.cohomology(two_term_with_h)
            verdict = morphism.is_quasi_iso(morphism.identity_morphism(two_term_with_h))
    finally:
        tracer.uninstall()
    assert chain.nilpotent and report.dimension(1) == 1 and verdict.passed
    metrics = tracer.metrics()
    assert metrics["linalg.row_reduce.calls"] > 0
    assert metrics["linalg.entries_reduced"] > 0
    assert metrics["algebra.lower_central_series.s"] > 0 and metrics["morphism.cohomology.s"] > 0
