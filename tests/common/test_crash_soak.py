"""The CI crash-recovery soak driver: one deterministic round must pass."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "crash_soak", Path(__file__).resolve().parents[2] / "scripts" / "crash_soak.py"
)
crash_soak = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(crash_soak)


def test_single_round_passes_and_writes_the_summary(tmp_path, capsys):
    assert crash_soak.main(["--rounds", "1", "--store-root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "round 0: ok" in out
    assert "crash soak OK" in out
    summary = json.loads((tmp_path / "soak_summary.json").read_text())
    assert summary["passed"] is True
    assert len(summary["rounds"]) == 1
    round0 = summary["rounds"][0]
    assert round0["checks"]["tail_truncated"]
    assert round0["checks"]["commit_acknowledged"]
    assert round0["checks"]["snapshot_cold_start"]
    # The store the round ran against was materialised under --store-root
    # (that is what CI uploads for post-mortem).
    store = Path(round0["store"])
    assert store.parent == tmp_path
    assert (store / "validator-1" / "manifest.json").exists()
    assert (store / "validator-1" / "commits.log").exists()


def test_round_floor_is_enforced():
    with pytest.raises(SystemExit):
        crash_soak.main(["--rounds", "0"])
