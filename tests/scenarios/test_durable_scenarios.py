"""The durable-churn scenario: hard crash + cold-start recovery conformance.

The acceptance story of the persistence subsystem: a durable 3-validator
library scenario hard-crashes one replica mid-run (unacknowledged tail,
torn tail record), the market keeps operating, and the restart rebuilds the
replica from its chain store — every record checksum verified, the torn
tail truncated, the chain cold-started from a promoted finality snapshot,
the rest resynced from peers — with ``verify_chain(replay=True)`` clean on
the restarted node and the violation ledger closing as if nothing happened.
"""

import pytest

from repro.common.errors import ValidationError
from repro.core.runner import ScenarioRunner
from repro.core.scenario_library import durable_churn_spec
from repro.core.spec import (
    ParticipantSpec,
    ResourceSpec,
    ScenarioSpec,
    access,
    crash_validator,
    restart_validator,
)


@pytest.fixture(scope="module")
def durable_result():
    return ScenarioRunner(durable_churn_spec()).run()


def test_durable_churn_recovers_and_converges(durable_result):
    result = durable_result
    network = result.validator_network
    recoveries = result.facts["recoveries"]
    assert len(recoveries) == 1
    recovery = recoveries[0]
    # The kill -9 left real damage behind and recovery repaired it.
    assert recovery["recordsTruncated"] >= 1
    assert any("torn record" in issue for issue in recovery["issues"])
    # Cold start ran from a promoted finality snapshot, not genesis.
    assert recovery["snapshotHeight"] > 0
    assert recovery["fastAdoptedBlocks"] == recovery["snapshotHeight"]
    # The restarted replica caught back up and re-verifies end to end.
    assert recovery["replayVerified"] is True
    assert recovery["consistent"] is True
    assert network.consistent(), network.heads()
    assert result.facts["honest_heads_converged"]


def test_durable_churn_ledger_closes_despite_the_crash(durable_result):
    result = durable_result
    assert result.ledger.matches, result.ledger.to_dict()
    assert result.mispredictions == []
    assert result.balance_conservation()["holds"]
    assert result.verify_chain_replay()
    # The policy violator was still flagged: the crash cost durability
    # nothing and detection nothing.
    flagged = {v.device_id for v in result.ledger.observed}
    assert flagged == {"device-sloppy-app"}


def test_durable_steps_require_a_durable_spec():
    spec = ScenarioSpec(
        name="volatile-crash",
        participants=(
            ParticipantSpec("o", "owner"),
            ParticipantSpec("c", "consumer"),
        ),
        resources=(ResourceSpec(owner="o", path="/data/x"),),
        timeline=(access("c", "o:/data/x"), crash_validator(1)),
        validators=3,
    )
    with pytest.raises(ValidationError):
        spec.validate()


def test_primary_validator_cannot_be_hard_crashed():
    spec = ScenarioSpec(
        name="crash-primary",
        participants=(
            ParticipantSpec("o", "owner"),
            ParticipantSpec("c", "consumer"),
        ),
        resources=(ResourceSpec(owner="o", path="/data/x"),),
        timeline=(crash_validator(0), restart_validator(0)),
        validators=3,
        durable=True,
    )
    with pytest.raises(ValidationError):
        spec.validate()


def test_durable_spec_round_trips():
    spec = durable_churn_spec()
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.durable is True
    assert clone.snapshot_interval == 4
    assert clone.max_reorg_depth == 4
