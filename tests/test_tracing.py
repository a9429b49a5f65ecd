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
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.SPANS and tracing.CALL_COUNTS
