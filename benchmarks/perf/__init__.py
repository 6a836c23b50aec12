"""The repo's one performance benchmark (see README.md in this directory).

Four seed-generated workloads, speed-normalised end-to-end metrics and an
outside-in per-layer ledger.  ``run.py`` is the single-workload entry point
``BENCHMARK.json`` names; ``python -m benchmarks.perf`` runs the whole suite.
"""

from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent

#: Traces and the server's checkpoint directories land here (git-ignored).
OUT_DIR = PERF_DIR / "out"
