"""Smoke test: the example scripts run to completion.

Each example drives the public API end to end, so a rename or deletion in the
library breaks it without breaking any unit test.  ``scalability_sweep.py``
is left out: it takes about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = ("quickstart", "data_market_scenario", "policy_monitoring_demo",
            "adversarial_scenarios")


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Durable scenarios put their chain stores under the temporary root.
    env["TMPDIR"] = str(tmp_path)
    completed = subprocess.run(
        [sys.executable, str(REPO / "examples" / f"{name}.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
