"""Shared fixtures for the benchmark harness.

Every benchmark prints the rows it measures (latency, transactions, gas) and
writes them to its ``BENCH_<name>.json`` artifact at the repository root, so a
run of ``PYTHONPATH=src python -m pytest benchmarks -q`` regenerates them.
Deployment helpers and the artifact writer live in ``bench_helpers.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make bench_helpers importable regardless of how pytest sets up sys.path.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def report(capsys):
    """Print a labelled result row that survives pytest's output capture."""

    def _report(label: str, **fields):
        rendered = "  ".join(f"{key}={value}" for key, value in fields.items())
        with capsys.disabled():
            print(f"\n[{label}] {rendered}")

    return _report
