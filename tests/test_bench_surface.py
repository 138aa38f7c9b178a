"""The names the benchmark in ``perfbench/`` uses from csres still exist.

Importing ``workloads`` builds its configs from ``VqaConfig`` keywords, and
``Tracer.install`` looks up every csres name the traced run wraps, so a
refactor that removes one fails here rather than in the benchmark.
``run.py`` is not imported: it sets BLAS environment variables.
"""

import importlib
import sys
from pathlib import Path

import csres.vqa

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_and_traces():
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    assert workloads.QuantumTrajectory.config.p == 3
    compiled = csres.vqa.compiled
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert csres.vqa.compiled is not compiled
    finally:
        tracer.uninstall()
    assert csres.vqa.compiled is compiled
