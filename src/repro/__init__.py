"""repro — a reproduction of *A Blockchain-driven Architecture for Usage Control in Solid*.

The package implements the decentralized usage control architecture of
Basile, Di Ciccio, Goretti, and Kirrane (ICDCS 2023) together with every
substrate it depends on: a Solid layer (pods, pod managers, WAC, WebIDs), a
blockchain layer (accounts, PoA consensus, gas-metered Python smart
contracts), the DistExchange / data-market / oracle-hub contracts, the four
blockchain-oracle patterns, a trusted-execution-environment simulation, and
an ODRL-inspired usage-policy language.

Quickstart::

    from repro import UsageControlArchitecture, retention_policy
    from repro.core.processes import pod_initiation, resource_initiation

    arch = UsageControlArchitecture()
    alice = arch.register_owner("alice")
    pod_initiation(arch, alice)
    policy = retention_policy(
        target=alice.pod_manager.base_url + "/data/browsing.csv",
        assigner=alice.webid.iri,
        retention_seconds=7 * 24 * 3600,
    )
    resource_initiation(arch, alice, "/data/browsing.csv", b"...", policy)

See ``examples/`` for complete walk-throughs and the README's architecture map
for the system inventory.
"""

from repro.core.architecture import ArchitectureConfig, UsageControlArchitecture
from repro.core.baseline import BaselineSolidDeployment
from repro.core.monitoring import MonitoringCoordinator, MonitoringReport
from repro.core.participants import DataConsumer, DataOwner
from repro.core.processes import ProcessTrace
from repro.core.runner import BaselineScenarioRunner, ScenarioRunner
from repro.core.scenario import ScenarioResult, run_alice_bob_scenario
from repro.core.scenario_library import SCENARIO_LIBRARY, get_scenario
from repro.core.spec import Behavior, ParticipantSpec, ResourceSpec, ScenarioSpec
from repro.policy.model import Action, Constraint, Duty, Operator, Permission, Policy, Prohibition
from repro.policy.templates import (
    max_access_policy,
    open_policy,
    purpose_and_retention_policy,
    purpose_policy,
    retention_policy,
)

__version__ = "1.0.0"

__all__ = [
    "ArchitectureConfig",
    "UsageControlArchitecture",
    "BaselineSolidDeployment",
    "MonitoringCoordinator",
    "MonitoringReport",
    "DataConsumer",
    "DataOwner",
    "ProcessTrace",
    "ScenarioResult",
    "run_alice_bob_scenario",
    "BaselineScenarioRunner",
    "ScenarioRunner",
    "SCENARIO_LIBRARY",
    "get_scenario",
    "Behavior",
    "ParticipantSpec",
    "ResourceSpec",
    "ScenarioSpec",
    "Action",
    "Constraint",
    "Duty",
    "Operator",
    "Permission",
    "Policy",
    "Prohibition",
    "max_access_policy",
    "open_policy",
    "purpose_and_retention_policy",
    "purpose_policy",
    "retention_policy",
    "__version__",
]
