"""Sharded monitoring rounds: workers=N must be an optimization only.

A round with ``workers > 1`` partitions the holder set across forked worker
processes, each computing and screening its shard's evidence against forked
state without touching any chain, with the parent sealing every fulfillment
once, in holder order, on its own chain.  These tests pin the equivalence
contract: the report, the on-chain record, and the reconciliation ledger
are identical to the in-process ``workers=1`` round, healthy or with a
faulty pull-in component.  They also pin the failure contract: a worker
that raises fails the round loudly with its traceback, and only a worker
that could not be started or never reported makes the round run
in-process, recorded with its reason in ``MonitoringCoordinator.fallbacks``.

Evidence payloads carry per-run randomness even between two identical
sequential runs (duty UIDs are fresh UUIDs, and ``evidenceId`` /
``signature`` / usage-log head digests derive from them), so evidence is
compared modulo those fields — everything else must match exactly.
"""

import os
import time

import pytest

from repro.common.clock import MONTH, WEEK
from repro.common.errors import OracleError, ValidationError
from repro.core import monitoring as monitoring_module
from repro.core.monitoring import MonitoringCoordinator
from repro.core.processes import (
    market_onboarding,
    pod_initiation,
    resource_access,
    resource_initiation,
)
from repro.core.architecture import UsageControlArchitecture
from repro.core.runner import ScenarioRunner
from repro.core.scenario_library import population_spec
from repro.core.spec import ScenarioSpec
from repro.oracles.pull_in import FAULT_TAMPER, FAULT_UNRESPONSIVE, PullInOracle
from repro.policy.templates import retention_policy

PATH = "/data/shared.csv"
CONTENT = b"k,v\n" * 16
DEVICES = ("shard-a", "shard-b", "shard-c", "shard-d", "shard-e")
FAULTY_DEVICE = DEVICES[1]


def build_deployment(retention_seconds=MONTH, devices=DEVICES):
    architecture = UsageControlArchitecture()
    owner = architecture.register_owner("alice")
    pod_initiation(architecture, owner)
    policy = retention_policy(
        owner.pod_manager.base_url + PATH, owner.webid.iri,
        retention_seconds=retention_seconds, issued_at=architecture.clock.now(),
    )
    resource_initiation(architecture, owner, PATH, CONTENT, policy)
    resource_id = owner.pod_manager.require_pod().url_for(PATH)
    for index, device in enumerate(devices):
        consumer = architecture.register_consumer(f"consumer-{index}", device_id=device)
        market_onboarding(architecture, consumer)
        resource_access(architecture, consumer, owner, resource_id)
    return architecture, owner, resource_id


def normalize(value):
    """Strip per-run randomness (fresh duty UUIDs and everything derived
    from them) so equivalence is judged on the deterministic remainder."""
    if isinstance(value, dict):
        return {
            key: len(item) if key == "pendingDuties" else normalize(item)
            for key, item in value.items()
            if key not in ("evidenceId", "signature", "headDigest")
        }
    if isinstance(value, list):
        return [normalize(item) for item in value]
    return value


def on_chain_record(architecture, resource_id, round_id):
    return normalize({
        "round": architecture.dist_exchange_read("get_monitoring_round", {"round_id": round_id}),
        "evidence": architecture.dist_exchange_read("get_evidence", {"resource_id": resource_id}),
        "violations": architecture.dist_exchange_read("get_violations", {"resource_id": resource_id}),
    })


def pending_requests(architecture):
    return architecture.node.call(
        architecture.oracle_hub_address, "pending_requests", {"kind": None})


def open_descriptors():
    """This process's open file descriptors, or None where /proc is absent."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    return len(os.listdir("/proc/self/fd"))


# A stale-replay component is left out: its replay cache lives in the forked
# worker and dies with it, so across rounds it differs from in-process.
@pytest.mark.parametrize("retention,fault", [
    (MONTH, None),
    (WEEK, None),
    (MONTH, FAULT_UNRESPONSIVE),
    (MONTH, FAULT_TAMPER),
], ids=["compliant", "violating", "unresponsive", "tamper-compliant"])
def test_sharded_round_equals_in_process_round(retention, fault):
    arch_sharded, owner_w, resource_w = build_deployment(retention)
    arch_inline, owner_i, resource_i = build_deployment(retention)
    if retention == WEEK:
        arch_sharded.advance_time(2 * WEEK)
        arch_inline.advance_time(2 * WEEK)
    if fault is not None:
        for architecture in (arch_sharded, arch_inline):
            architecture.consumer_for_device(FAULTY_DEVICE).pull_in.inject_fault(fault)

    coordinator = MonitoringCoordinator(arch_sharded, workers=2)
    sharded = coordinator.run_round(owner_w, PATH)
    inline = MonitoringCoordinator(arch_inline, workers=1).run_round(owner_i, PATH)

    assert coordinator.fallbacks == []
    if fault is not None:
        # The faulty device's missing or forged evidence is what fails it.
        assert sharded.non_compliant_devices == [FAULTY_DEVICE]

    assert normalize(sharded.to_dict()) == normalize(inline.to_dict())
    assert normalize(sharded.evidence) == normalize(inline.evidence)
    assert on_chain_record(arch_sharded, resource_w, sharded.round_id) == on_chain_record(
        arch_inline, resource_i, inline.round_id
    )
    # Workers submit nothing: the parent's chain stays intact, seals the
    # same constant number of blocks as the inline round, and leaves the
    # same requests (an unresponsive device's) pending.
    assert arch_sharded.node.chain.height == arch_inline.node.chain.height
    assert pending_requests(arch_sharded) == pending_requests(arch_inline)
    assert arch_sharded.node.chain.verify_chain(replay=True)


def test_more_workers_than_holders_still_covers_every_device():
    architecture, owner, _ = build_deployment()
    report = MonitoringCoordinator(architecture, workers=16).run_round(owner, PATH)
    assert sorted(report.holders) == sorted(DEVICES)
    assert report.all_compliant
    assert architecture.node.chain.verify_chain(replay=True)


def test_sharded_round_falls_back_in_process_when_fork_fails(monkeypatch, tmp_path):
    architecture, owner, _ = build_deployment()
    real_fork = os.fork
    marker = tmp_path / "shard-finished"

    def slow_shard(self, shard, opened_at):
        time.sleep(30)
        marker.write_text("the started worker ran its whole shard")
        return {}

    # A worker started before a later fork fails is killed, not waited for:
    # the round reruns in-process anyway.
    monkeypatch.setattr(MonitoringCoordinator, "_run_shard", slow_shard)

    # The second fork fails (one worker already started), then every fork.
    for successes in (1, 0):
        forks = []

        def flaky_fork():
            forks.append(None)
            if len(forks) > successes:
                raise OSError("fork unavailable")
            return real_fork()

        monkeypatch.setattr(monitoring_module.os, "fork", flaky_fork)
        coordinator = MonitoringCoordinator(architecture, workers=4)
        descriptors = open_descriptors()
        started = time.monotonic()
        report = coordinator.run_round(owner, PATH)
        assert time.monotonic() - started < 15
        assert not marker.exists()
        # Both ends of the pipe made for the failed fork are closed.
        assert open_descriptors() == descriptors
        assert sorted(report.holders) == sorted(DEVICES)
        assert report.all_compliant
        (fallback,) = coordinator.fallbacks
        assert fallback["round_id"] == report.round_id
        assert "OSError: fork unavailable" in fallback["reason"]
    assert architecture.node.chain.verify_chain(replay=True)


def test_worker_failure_raises_its_traceback_instead_of_running_in_process(monkeypatch):
    architecture, owner, _ = build_deployment()

    def broken_provider(payload):
        raise RuntimeError("enclave evidence unavailable")

    architecture.consumer_for_device(DEVICES[-1]).pull_in.register_provider(
        "usage_evidence", broken_provider)
    served = []
    serve_request = PullInOracle.serve_request
    monkeypatch.setattr(PullInOracle, "serve_request",
                        lambda self, request_id: served.append(request_id)
                        or serve_request(self, request_id))
    coordinator = MonitoringCoordinator(architecture, workers=2)
    with pytest.raises(OracleError, match="RuntimeError: enclave evidence unavailable"):
        coordinator.run_round(owner, PATH)
    # Nothing was served in-process and no fulfillment reached the chain.
    assert served == []
    assert coordinator.fallbacks == []
    assert len(pending_requests(architecture)) == len(DEVICES)
    assert architecture.node.chain.verify_chain(replay=True)


def test_worker_that_dies_without_a_report_falls_back_in_process(monkeypatch):
    architecture, owner, _ = build_deployment()
    monkeypatch.setattr(MonitoringCoordinator, "_run_shard",
                        lambda self, shard, opened_at: os._exit(9))
    coordinator = MonitoringCoordinator(architecture, workers=2)
    report = coordinator.run_round(owner, PATH)
    assert report.all_compliant
    assert pending_requests(architecture) == []
    (fallback,) = coordinator.fallbacks
    assert fallback["round_id"] == report.round_id
    assert "status 9 without a report" in fallback["reason"]


def test_round_under_two_holders_runs_in_process_without_a_fallback():
    architecture, owner, _ = build_deployment(devices=DEVICES[:1])
    coordinator = MonitoringCoordinator(architecture, workers=2)
    report = coordinator.run_round(owner, PATH)
    assert report.holders == [DEVICES[0]]
    assert report.all_compliant
    assert coordinator.fallbacks == []


def test_worker_count_is_validated():
    architecture, _, _ = build_deployment()
    with pytest.raises(ValueError):
        MonitoringCoordinator(architecture, workers=0)


# -- spec plumbing and full-scenario equivalence ------------------------------


def test_spec_monitor_workers_round_trips_and_validates():
    spec = population_spec(num_consumers=10, seed=7, monitor_workers=3,
                           name="pop-workers")
    assert spec.monitor_workers == 3
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    with pytest.raises(ValidationError):
        ScenarioSpec.from_dict({**spec.to_dict(), "monitorWorkers": 0}).validate()
    # Old specs without the key default to the in-process path.
    legacy = {k: v for k, v in spec.to_dict().items() if k != "monitorWorkers"}
    assert ScenarioSpec.from_dict(legacy).monitor_workers == 1


@pytest.mark.parametrize("seed,consumers,workers", [(2026, 12, 2), (4099, 17, 4)])
def test_scenario_receipts_match_across_worker_counts(seed, consumers, workers):
    """Full-runner equivalence on seed-randomized population specs: reports,
    on-chain violations, and the reconciliation ledger are bit-identical."""
    inline_spec = population_spec(
        num_consumers=consumers, seed=seed, name="pop-eq-inline")
    sharded_spec = population_spec(
        num_consumers=consumers, seed=seed, monitor_workers=workers,
        name="pop-eq-sharded")
    inline = ScenarioRunner(inline_spec).run()
    sharded = ScenarioRunner(sharded_spec).run()

    assert ([normalize(r.to_dict()) for r in sharded.monitoring_reports]
            == [normalize(r.to_dict()) for r in inline.monitoring_reports])
    assert (normalize(sharded.on_chain_violations)
            == normalize(inline.on_chain_violations))

    def keys(records):
        return {(r.resource_id, r.device_id, r.reason) for r in records}

    assert keys(sharded.ledger.observed) == keys(inline.ledger.observed)
    assert keys(sharded.ledger.expected) == keys(inline.ledger.expected)
    assert sharded.ledger.matches and inline.ledger.matches
    assert sharded.balance_conservation()["holds"]
    assert sharded.verify_chain_replay()
