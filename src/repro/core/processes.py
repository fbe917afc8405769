"""The six architecture processes of Fig. 2, instrumented for measurement.

Every function drives one of the paper's processes end to end through the
same components the paper names (pod manager, oracles, DE App, TEE) and
returns a :class:`ProcessTrace` recording the wall-clock duration, the
simulated network latency, the number of transactions confirmed, and the gas
consumed — the quantities the benchmark harness reports per process.

:class:`PhaseProbe` takes those measurements, here and around every phase of
a scenario run (:class:`StepStats`); it is the one place that times the
scenario layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.policy.model import Policy
from repro.solid.pod import OCTET_STREAM
from repro.solid.wac import AccessMode
from repro.core.monitoring import MonitoringCoordinator, MonitoringReport
from repro.core.participants import DataConsumer, DataOwner


@dataclass
class ProcessTrace:
    """Measurements taken while executing one architecture process."""

    process: str
    wall_clock_seconds: float
    simulated_network_seconds: float
    transactions: int
    gas_used: int
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "process": self.process,
            "wallClockSeconds": self.wall_clock_seconds,
            "simulatedNetworkSeconds": self.simulated_network_seconds,
            "transactions": self.transactions,
            "gasUsed": self.gas_used,
            "details": dict(self.details),
        }


@dataclass
class StepStats:
    """Resource consumption of one scenario phase (setup group or step)."""

    index: int
    phase: str
    label: str
    gas_used: int = 0
    transactions: int = 0
    blocks: int = 0
    wall_clock_seconds: float = 0.0
    network_seconds: float = 0.0
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "phase": self.phase,
            "label": self.label,
            "gasUsed": self.gas_used,
            "transactions": self.transactions,
            "blocks": self.blocks,
            "wallClockSeconds": self.wall_clock_seconds,
            "networkSeconds": self.network_seconds,
            "details": dict(self.details),
        }


class PhaseProbe:
    """Context manager capturing what one phase of a deployment cost.

    On exit it holds the phase's wall-clock time, simulated network
    latency, and the gas, transactions and blocks the primary chain gained;
    :meth:`trace` reports them as a process, :meth:`stats` as a scenario
    step.
    """

    def __init__(self, architecture):
        self.architecture = architecture

    def __enter__(self) -> "PhaseProbe":
        chain = self.architecture.node.chain
        self._start_wall = time.perf_counter()
        self._start_latency = self.architecture.network.total_latency
        # Running aggregates of the chain (O(1)), not sums over its blocks.
        self._start_gas = chain.total_gas_used()
        self._start_txs = chain.transaction_count()
        self._start_height = chain.height
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        chain = self.architecture.node.chain
        self.wall = time.perf_counter() - self._start_wall
        self.latency = self.architecture.network.total_latency - self._start_latency
        self.gas = chain.total_gas_used() - self._start_gas
        self.transactions = chain.transaction_count() - self._start_txs
        self.blocks = chain.height - self._start_height

    def trace(self, process: str, **details: Any) -> ProcessTrace:
        """The phase as one architecture process (also timed in the metrics)."""
        histogram = self.architecture.metrics.histogram(f"process.{process}.latency")
        histogram.observe(self.wall)
        return ProcessTrace(
            process=process,
            wall_clock_seconds=self.wall,
            simulated_network_seconds=self.latency,
            transactions=self.transactions,
            gas_used=self.gas,
            details=details,
        )

    def stats(self, index: int, phase: str, label: str,
              details: Optional[Dict[str, Any]] = None) -> StepStats:
        """The phase as one step of a scenario run."""
        return StepStats(
            index=index,
            phase=phase,
            label=label,
            gas_used=self.gas,
            transactions=self.transactions,
            blocks=self.blocks,
            wall_clock_seconds=self.wall,
            network_seconds=self.latency,
            details=details or {},
        )


# -- process 1: pod initiation ----------------------------------------------------------------


def pod_initiation(architecture, owner: DataOwner, default_policy: Optional[Policy] = None,
                   subscribers: Optional[list] = None) -> ProcessTrace:
    """Fig. 2.1 — initialize a pod and record it (and its default policy) on-chain."""
    with PhaseProbe(architecture) as probe:
        pod = owner.initialize_pod(default_policy=default_policy, subscribers=subscribers)
    return probe.trace("pod_initiation", pod_url=pod.base_url, owner=owner.name)


# -- process 2: resource initiation --------------------------------------------------------------


def resource_initiation(architecture, owner: DataOwner, path: str, content: bytes,
                        policy: Policy, metadata: Optional[Dict[str, Any]] = None,
                        content_type: str = OCTET_STREAM) -> ProcessTrace:
    """Fig. 2.2 — upload a resource, publish it to the market, and index it on-chain."""
    with PhaseProbe(architecture) as probe:
        owner.upload_resource(path, content, content_type=content_type)
        resource_id = owner.publish_resource(path, policy, metadata)
    return probe.trace("resource_initiation", resource_id=resource_id, owner=owner.name,
                       size=len(content))


# -- process 3: resource indexing -------------------------------------------------------------------


def resource_indexing(architecture, consumer: DataConsumer, resource_id: str) -> ProcessTrace:
    """Fig. 2.3 — the consumer's TEE reads the resource location and policy from the DE App."""
    with PhaseProbe(architecture) as probe:
        record = consumer.lookup_resource(resource_id)
    return probe.trace(
        "resource_indexing",
        resource_id=resource_id,
        consumer=consumer.name,
        location=record.get("location"),
        policy_version=(record.get("policy") or {}).get("version"),
    )


# -- process 4: resource access ------------------------------------------------------------------------


def resource_access(architecture, consumer: DataConsumer, owner: DataOwner,
                    resource_id: str) -> ProcessTrace:
    """Fig. 2.4 — retrieve the resource into the consumer's TEE.

    The pod manager checks the ACL and the market-fee certificate before
    serving the resource; the consumer then records the access grant on the
    DE App so later policy updates and monitoring rounds reach its device.
    """
    with PhaseProbe(architecture) as probe:
        path = owner.pod_manager.require_pod().path_for(resource_id)
        if not owner.pod_manager.can_access(consumer.webid.iri, AccessMode.READ, path):
            owner.pod_manager.grant_access(consumer.webid.iri, [AccessMode.READ], resource_path=path)
        if resource_id not in consumer.certificates:
            consumer.purchase_certificate(resource_id)
        result = consumer.retrieve_resource(resource_id)
    return probe.trace(
        "resource_access",
        resource_id=resource_id,
        consumer=consumer.name,
        owner=owner.name,
        stored_bytes=result["size"],
        policy_version=result["policy_version"],
    )


# -- process 5: policy modification -----------------------------------------------------------------------


def policy_modification(architecture, owner: DataOwner, path: str, new_policy: Policy) -> ProcessTrace:
    """Fig. 2.5 — the owner revises a policy; the change propagates to every copy holder."""
    with PhaseProbe(architecture) as probe:
        owner.update_policy(path, new_policy)
        resource_id = owner.pod_manager.require_pod().url_for(path)
        holders = architecture.dist_exchange_read("get_grants", {"resource_id": resource_id})
    return probe.trace(
        "policy_modification",
        resource_id=resource_id,
        owner=owner.name,
        new_version=new_policy.version,
        notified_devices=[grant["device_id"] for grant in holders if grant["active"]],
    )


# -- process 6: policy monitoring ----------------------------------------------------------------------------


def policy_monitoring(architecture, owner: DataOwner, path: str,
                      coordinator: Optional[MonitoringCoordinator] = None) -> ProcessTrace:
    """Fig. 2.6 — run a full monitoring round and gather evidence from every holder."""
    coordinator = coordinator if coordinator is not None else MonitoringCoordinator(architecture)
    with PhaseProbe(architecture) as probe:
        report: MonitoringReport = coordinator.run_round(owner, path)
    return probe.trace(
        "policy_monitoring",
        resource_id=report.resource_id,
        round_id=report.round_id,
        holders=len(report.holders),
        compliant=report.compliant_devices,
        non_compliant=report.non_compliant_devices,
        violations=len(report.violations),
    )


# -- consumer onboarding (market registration, Section II) -------------------------------------------------------


def market_onboarding(architecture, consumer: DataConsumer) -> ProcessTrace:
    """Register a consumer with the data market (subscription payment)."""
    with PhaseProbe(architecture) as probe:
        consumer.subscribe_to_market()
    return probe.trace("market_onboarding", consumer=consumer.name)
