"""The paper's primary contribution: the decentralized usage control architecture.

This package wires the substrates together exactly as Fig. 1 prescribes —
pods and pod managers on the owners' side, TEEs and trusted applications on
the consumers' devices, the DE App and the data market on the blockchain, and
the four oracle patterns in between — and implements the six processes of
Fig. 2 plus the monitoring coordinator, the status-quo baseline, and the
Alice & Bob end-to-end scenario.
"""

from repro.core.architecture import UsageControlArchitecture, ArchitectureConfig
from repro.core.participants import DataOwner, DataConsumer
from repro.core.processes import ProcessTrace, StepStats
from repro.core.monitoring import MonitoringCoordinator, MonitoringReport, verify_evidence
from repro.core.baseline import BaselineSolidDeployment
from repro.core.spec import (
    Behavior,
    ParticipantSpec,
    ResourceSpec,
    ScenarioSpec,
    Step,
    spec_from_workload,
)
from repro.core.runner import (
    BaselineScenarioRunner,
    ScenarioRunner,
    ViolationLedger,
    ViolationRecord,
)
from repro.core.scenario import run_alice_bob_scenario, ScenarioResult
from repro.core.scenario_library import SCENARIO_LIBRARY, alice_bob_spec, get_scenario
from repro.core.violations import ViolationResponder, ViolationResponse

__all__ = [
    "ViolationResponder",
    "ViolationResponse",
    "UsageControlArchitecture",
    "ArchitectureConfig",
    "DataOwner",
    "DataConsumer",
    "ProcessTrace",
    "MonitoringCoordinator",
    "MonitoringReport",
    "verify_evidence",
    "BaselineSolidDeployment",
    "Behavior",
    "ParticipantSpec",
    "ResourceSpec",
    "ScenarioSpec",
    "Step",
    "spec_from_workload",
    "BaselineScenarioRunner",
    "ScenarioRunner",
    "StepStats",
    "ViolationLedger",
    "ViolationRecord",
    "run_alice_bob_scenario",
    "ScenarioResult",
    "SCENARIO_LIBRARY",
    "alice_bob_spec",
    "get_scenario",
]
