"""The scenario engine: interpret a :class:`ScenarioSpec` end to end.

:class:`ScenarioRunner` drives the existing architecture — processes,
monitoring coordinator, oracles, contracts — through a spec's scripted
timeline, while maintaining a *shadow model*: a small, independent
re-statement of what the spec's behavior profiles imply (who holds which
copy, which retention deadlines lapsed unenforced, which devices are
offline or Byzantine).  From the shadow model the runner derives the
**expected** violations for every monitoring round; the observed on-chain
outcomes are collected next to them in a :class:`ViolationLedger`, and the
conformance suite asserts the two agree.  Divergence means either the
architecture missed a scripted violation or it penalized an honest actor —
exactly the regressions the paper's claims forbid.

Every phase (setup and each timeline step) is measured by a
:class:`~repro.core.processes.PhaseProbe` into gas, transaction, block, and
wall-clock deltas (:class:`~repro.core.processes.StepStats`), so benchmarks
can reuse scenario runs instead of bespoke drivers.

:class:`BaselineScenarioRunner` interprets the *same* spec against the
Solid-only :class:`~repro.core.baseline.BaselineSolidDeployment`, which
detects nothing — the paper's core comparison, made testable.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import (
    AuthorizationError,
    NotFoundError,
    PolicyViolationError,
)
from repro.solid.wac import AccessMode
from repro.core.architecture import ArchitectureConfig, UsageControlArchitecture
from repro.core.baseline import BaselineSolidDeployment
from repro.core.monitoring import MonitoringCoordinator, MonitoringReport
from repro.core.participants import DataConsumer, DataOwner
from repro.core.processes import (
    PhaseProbe,
    ProcessTrace,
    StepStats,
    market_onboarding,
    pod_initiation,
    policy_modification,
    policy_monitoring,
    resource_access,
    resource_indexing,
    resource_initiation,
)
from repro.core.spec import (
    Behavior,
    ENFORCING_BEHAVIORS,
    OFFLINE_FROM_START,
    ParticipantSpec,
    ScenarioSpec,
    Step,
)
from repro.core.violations import ViolationResponder
from repro.oracles.pull_in import FAULT_STALE_REPLAY, FAULT_TAMPER


@dataclass(frozen=True)
class ViolationRecord:
    """One (expected or observed) violation, anchored to a monitor step."""

    step_index: int
    resource_id: str
    device_id: str
    reason: str
    round_id: Optional[int] = None

    @property
    def key(self) -> Tuple[int, str, str]:
        return (self.step_index, self.resource_id, self.device_id)

    def to_dict(self) -> dict:
        return {
            "stepIndex": self.step_index,
            "resourceId": self.resource_id,
            "deviceId": self.device_id,
            "reason": self.reason,
            "roundId": self.round_id,
        }


@dataclass
class ViolationLedger:
    """Expected-vs-observed violations across every monitoring round."""

    expected: List[ViolationRecord] = field(default_factory=list)
    observed: List[ViolationRecord] = field(default_factory=list)

    @property
    def missing(self) -> List[ViolationRecord]:
        """Scripted violations the architecture failed to detect."""
        observed_keys = {record.key for record in self.observed}
        return [record for record in self.expected if record.key not in observed_keys]

    @property
    def unexpected(self) -> List[ViolationRecord]:
        """Detected violations the spec did not script (honest actor penalized)."""
        expected_keys = {record.key for record in self.expected}
        return [record for record in self.observed if record.key not in expected_keys]

    @property
    def matches(self) -> bool:
        return not self.missing and not self.unexpected

    def to_dict(self) -> dict:
        return {
            "expected": [record.to_dict() for record in self.expected],
            "observed": [record.to_dict() for record in self.observed],
            "missing": [record.to_dict() for record in self.missing],
            "unexpected": [record.to_dict() for record in self.unexpected],
        }


@dataclass
class ScenarioResult:
    """Everything a scenario run produced, ready for assertions and reporting."""

    architecture: UsageControlArchitecture
    spec: Optional[ScenarioSpec] = None
    traces: List[ProcessTrace] = field(default_factory=list)
    monitoring_reports: List[MonitoringReport] = field(default_factory=list)
    steps: List[StepStats] = field(default_factory=list)
    ledger: ViolationLedger = field(default_factory=ViolationLedger)
    resource_ids: Dict[str, str] = field(default_factory=dict)
    mispredictions: List[Dict[str, Any]] = field(default_factory=list)
    on_chain_violations: List[Dict[str, Any]] = field(default_factory=list)
    responders: Dict[str, ViolationResponder] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)

    def trace_for(self, process: str) -> List[ProcessTrace]:
        return [trace for trace in self.traces if trace.process == process]

    # -- per-phase accounting (benchmark reuse) ------------------------------

    def _aggregate(self, attribute: str) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for stats in self.steps:
            totals[stats.phase] = totals.get(stats.phase, 0) + getattr(stats, attribute)
        return totals

    def gas_by_phase(self) -> Dict[str, int]:
        """Total gas per phase (setup plus each timeline step kind)."""
        return {phase: int(total) for phase, total in self._aggregate("gas_used").items()}

    def blocks_by_phase(self) -> Dict[str, int]:
        """Blocks sealed per phase."""
        return {phase: int(total) for phase, total in self._aggregate("blocks").items()}

    def transactions_by_phase(self) -> Dict[str, int]:
        """Transactions confirmed per phase."""
        return {phase: int(total) for phase, total in self._aggregate("transactions").items()}

    def network_by_phase(self) -> Dict[str, float]:
        """Simulated network seconds per phase (the E11 latency dimension)."""
        return self._aggregate("network_seconds")

    # -- global invariants ---------------------------------------------------

    def balance_conservation(self) -> Dict[str, object]:
        """Total supply accounting: balances plus burned gas equal genesis."""
        state = self.architecture.node.chain.state
        balances = sum(account.balance for account in state.accounts())
        gas_burned = self.architecture.node.chain.total_gas_used()
        supply = self.architecture.config.operator_funds
        return {
            "supply": supply,
            "balances": balances,
            "gasBurned": gas_burned,
            "holds": balances + gas_burned == supply,
        }

    def verify_chain_replay(self) -> bool:
        """Full re-execution check of the produced chain."""
        return self.architecture.node.chain.verify_chain(replay=True)

    # -- validator-network invariants -----------------------------------------

    @property
    def validator_network(self):
        """The multi-validator network, or None on a single-node run."""
        return self.architecture.validator_network

    def honest_heads_converged(self) -> bool:
        """Every online, honest replica agrees on the canonical head."""
        network = self.validator_network
        return True if network is None else network.honest_heads_converged()

    def equivocation_proofs(self) -> List[Any]:
        """Slashable double-seal proofs collected during the run."""
        network = self.validator_network
        return [] if network is None else list(network.equivocation_proofs)

    def liveness_holds(self) -> bool:
        """Slots were skipped exactly when their proposer was crashed/slashed."""
        network = self.validator_network
        if network is None:
            return True
        return not network.liveness_report()["violations"]


# -- the shadow model ----------------------------------------------------------------


@dataclass
class _CopyState:
    """Spec-level belief about one device's copy of one resource."""

    stored_at: float
    retention: Optional[float]
    purposes: Optional[Tuple[str, ...]]
    max_accesses: Optional[int]
    uses: int = 0
    deleted: bool = False


class _ShadowModel:
    """Independent restatement of the spec's semantics.

    Tracks, purely from the spec's behavior profiles and the scripted
    timeline, what each device should hold and which monitoring rounds
    should flag it.  Deliberately *not* derived from the architecture's
    internals — agreement between this model and the observed on-chain
    record is the conformance property under test.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.behavior: Dict[str, Behavior] = {
            p.name: p.behavior for p in spec.consumers()
        }
        self.offline: Set[str] = {
            name for name, behavior in self.behavior.items()
            if behavior in OFFLINE_FROM_START
        }
        self.subscribed: Set[str] = set()
        self.copies: Dict[Tuple[str, str], _CopyState] = {}
        # consumer -> resource key -> that consumer's copy (the same objects
        # as in ``copies``), so a device's enforcement pass reads its own copies.
        self.copies_of: Dict[str, Dict[str, _CopyState]] = {}
        self.active_grants: Set[Tuple[str, str]] = set()
        # -- violation-response cascade state -------------------------------
        # consumer -> resource keys for which it holds a READ entry in the
        # pod ACL, indexed by consumer so a pod-wide revocation touches only
        # that consumer's entries.
        self.acl: Dict[str, Set[str]] = {}
        # (consumer, resource key) pairs whose market-fee certificate the
        # playbook revoked and that have not re-purchased since.
        self.cert_revoked: Set[Tuple[str, str]] = set()
        self.owner_of: Dict[str, str] = {r.key: r.owner for r in spec.resources}
        # (consumer, resource key) -> time the stale oracle cached its answer
        self.replay_cached_at: Dict[Tuple[str, str], float] = {}
        self.current_policy: Dict[str, Tuple[Optional[float], Optional[Tuple[str, ...]], Optional[int]]] = {
            r.key: (r.retention_seconds, r.allowed_purposes, r.max_accesses)
            for r in spec.resources
        }

    # -- timeline events -----------------------------------------------------

    def on_access(self, consumer: str, resource: str, now: float,
                  granted: bool = True) -> None:
        retention, purposes, max_accesses = self.current_policy[resource]
        copy = _CopyState(
            stored_at=now,
            retention=retention,
            purposes=purposes,
            max_accesses=max_accesses,
        )
        self.copies[(consumer, resource)] = copy
        self.copies_of.setdefault(consumer, {})[resource] = copy
        self.active_grants.add((consumer, resource))
        if granted:
            # The full access process grants the pod ACL entry; a bare
            # re-access attempt (attempt_access) relies on an existing one.
            self.acl.setdefault(consumer, set()).add(resource)

    def predict_reaccess(self, consumer: str, resource: str) -> Tuple[bool, str]:
        """Whether a consumer-initiated re-access attempt should be served.

        Mirrors the pod manager's checks: the WAC ACL entry must still (or
        again) exist, and the market-fee certificate presented must not be
        revoked.  The revocation playbook removes both; ``regrant`` and
        ``repurchase_certificate`` restore them one at a time.
        """
        if consumer not in self.subscribed:
            return False, "not subscribed to the market"
        if resource not in self.acl.get(consumer, ()):
            return False, "no pod ACL entry"
        if (consumer, resource) in self.cert_revoked:
            return False, "certificate revoked"
        return True, ""

    def on_repurchase(self, consumer: str, resource: str) -> None:
        self.cert_revoked.discard((consumer, resource))

    def on_regrant(self, consumer: str, resource: str) -> None:
        self.acl.setdefault(consumer, set()).add(resource)

    def predict_use(self, consumer: str, resource: str,
                    purpose: Optional[str]) -> Tuple[bool, str]:
        copy = self.copies.get((consumer, resource))
        if copy is None:
            return False, "no local copy"
        if copy.deleted:
            return False, "copy deleted"
        if copy.purposes is not None and purpose not in copy.purposes:
            return False, "purpose not allowed"
        if copy.max_accesses is not None and copy.uses >= copy.max_accesses:
            return False, "max accesses reached"
        return True, ""

    def on_use(self, consumer: str, resource: str, now: float) -> None:
        """Apply an *allowed* use: count it, then the in-TEE enforcement pass."""
        copy = self.copies[(consumer, resource)]
        copy.uses += 1
        self._enforce_copy(copy, now)

    def enforce(self, consumer: str, now: float) -> None:
        for copy in self.copies_of.get(consumer, {}).values():
            self._enforce_copy(copy, now)

    @staticmethod
    def _enforce_copy(copy: _CopyState, now: float) -> None:
        if copy.deleted:
            return
        if copy.retention is not None and now - copy.stored_at >= copy.retention:
            copy.deleted = True
        elif copy.max_accesses is not None and copy.uses >= copy.max_accesses:
            copy.deleted = True

    def on_revise(self, resource: str, now: float, retention: Optional[float],
                  purposes: Optional[Tuple[str, ...]],
                  max_accesses: Optional[int]) -> None:
        """A policy update reaches every reachable copy holder immediately."""
        self.current_policy[resource] = (retention, purposes, max_accesses)
        for (consumer, key), copy in self.copies.items():
            if key != resource or consumer in self.offline:
                continue
            if (consumer, key) not in self.active_grants:
                continue  # revoked devices are no longer notified
            copy.retention = retention
            copy.purposes = purposes
            copy.max_accesses = max_accesses
            # The TEE executes newly due duties as part of applying the update.
            self._enforce_copy(copy, now)

    def on_churn(self, consumer: str) -> None:
        self.offline.add(consumer)

    def housekeeping(self, now: float) -> List[str]:
        """Run the pre-monitoring enforcement pass of every enforcing TEE."""
        enforced = []
        for name, behavior in self.behavior.items():
            if behavior in ENFORCING_BEHAVIORS and name not in self.offline:
                self.enforce(name, now)
                enforced.append(name)
        return enforced

    def holds(self, consumer: str, resource: str) -> bool:
        copy = self.copies.get((consumer, resource))
        return copy is not None and not copy.deleted

    # -- monitoring expectations ---------------------------------------------

    def expected_for_monitor(self, resource: str, now: float) -> List[Tuple[str, str]]:
        """(consumer, reason) pairs a round over *resource* should flag now."""
        flagged: List[Tuple[str, str]] = []
        for (consumer, key), copy in sorted(self.copies.items()):
            if key != resource or (consumer, key) not in self.active_grants:
                continue
            behavior = self.behavior[consumer]
            if consumer in self.offline:
                flagged.append((consumer, "no evidence provided"))
                continue
            if behavior is Behavior.TAMPERING_ORACLE:
                flagged.append((consumer, "forged evidence (invalid enclave signature)"))
                continue
            cached_at = self.replay_cached_at.get((consumer, key))
            if behavior is Behavior.STALE_ORACLE and cached_at is not None and cached_at < now:
                flagged.append((consumer, "stale evidence replayed by the oracle"))
                continue
            if (
                not copy.deleted
                and copy.retention is not None
                and now - copy.stored_at >= copy.retention
            ):
                flagged.append((consumer, "retention lapsed without enforcement"))
        return flagged

    def after_monitor(self, resource: str, now: float,
                      flagged: List[Tuple[str, str]]) -> None:
        """Post-round bookkeeping: replay caches and (optional) revocations."""
        for (consumer, key) in list(self.copies):
            if key != resource or consumer in self.offline:
                continue
            if (consumer, key) not in self.active_grants:
                continue
            if self.behavior[consumer] is Behavior.STALE_ORACLE:
                self.replay_cached_at.setdefault((consumer, key), now)
        if self.spec.respond_to_violations:
            # The responder's playbook: deactivate the DE App grant, revoke
            # the consumer's WAC authorization pod-wide (every resource of
            # this owner), and revoke the certificate for this resource.
            owner = self.owner_of[resource]
            for consumer, _ in flagged:
                self.active_grants.discard((consumer, resource))
                self.cert_revoked.add((consumer, resource))
                granted = self.acl.get(consumer, set())
                granted -= {key for key in granted if self.owner_of[key] == owner}


# -- the runner ----------------------------------------------------------------------


class ScenarioRunner:
    """Execute a :class:`ScenarioSpec` against a fresh deployment.

    A run is a pure function of its spec: every random choice is made at
    spec-construction time (``spec_from_workload`` threads one seeded
    :class:`random.Random` through the workload generator and every
    spec-level draw), so any scenario reproduces from ``spec.seed`` alone.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec.validate()

    # -- wiring ---------------------------------------------------------------

    def _architecture_config(self) -> Optional[ArchitectureConfig]:
        overrides: Dict[str, Any] = {}
        if self.spec.subscription_fee is not None:
            overrides["subscription_fee"] = self.spec.subscription_fee
        if self.spec.access_fee is not None:
            overrides["access_fee"] = self.spec.access_fee
        if self.spec.operator_funds is not None:
            overrides["operator_funds"] = self.spec.operator_funds
        if self.spec.participant_funds is not None:
            overrides["initial_participant_funds"] = self.spec.participant_funds
        if self.spec.validators > 1:
            overrides["validators"] = self.spec.validators
        if self.spec.epoch_length:
            overrides["epoch_length"] = self.spec.epoch_length
        if self.spec.durable:
            # Durable deployments persist every validator's chain under a
            # fresh temporary root (crash_validator/restart_validator need
            # real files to tear and recover).
            overrides["persist_dir"] = tempfile.mkdtemp(
                prefix=f"chainstore-{self.spec.name}-"
            )
            overrides["snapshot_interval"] = self.spec.snapshot_interval
            if self.spec.max_reorg_depth is not None:
                overrides["max_reorg_depth"] = self.spec.max_reorg_depth
        return ArchitectureConfig(**overrides) if overrides else None

    # -- execution ------------------------------------------------------------

    def run(self) -> ScenarioResult:
        spec = self.spec
        architecture = UsageControlArchitecture(config=self._architecture_config())
        coordinator = MonitoringCoordinator(architecture, workers=spec.monitor_workers)
        model = _ShadowModel(spec)
        result = ScenarioResult(architecture=architecture, spec=spec)

        owners: Dict[str, DataOwner] = {}
        consumers: Dict[str, DataConsumer] = {}
        device_of: Dict[str, str] = {p.name: p.device for p in spec.consumers()}

        # -- setup: contract deployment (spent during construction above) -------
        chain = architecture.node.chain
        result.steps.append(
            StepStats(
                index=0,
                phase="setup",
                label="setup:deploy",
                gas_used=chain.total_gas_used(),
                transactions=chain.transaction_count(),
                blocks=chain.height,
            )
        )

        # -- setup: participants ------------------------------------------------
        def register_participant(participant: ParticipantSpec) -> None:
            if participant.role == "owner":
                owner = architecture.register_owner(participant.name)
                owners[participant.name] = owner
                if spec.respond_to_violations:
                    result.responders[participant.name] = ViolationResponder(
                        architecture, owner
                    )
            else:
                consumer = architecture.register_consumer(
                    participant.name,
                    purpose=participant.purpose,
                    device_id=participant.device_id,
                )
                consumers[participant.name] = consumer
                if participant.behavior in OFFLINE_FROM_START:
                    architecture.disconnect_consumer(participant.name)
                elif participant.behavior is Behavior.STALE_ORACLE:
                    consumer.pull_in.inject_fault(FAULT_STALE_REPLAY)
                elif participant.behavior is Behavior.TAMPERING_ORACLE:
                    consumer.pull_in.inject_fault(FAULT_TAMPER)

        with PhaseProbe(architecture) as probe:
            if spec.setup_cohort is None:
                for participant in spec.participants:
                    register_participant(participant)
            else:
                # Population-scale setup: owners register individually (there
                # are few), consumers one cohort per block — each cohort's
                # funding transfers and provider authorizations defer into a
                # single batch block instead of ~2 auto-mined blocks each.
                for participant in spec.owners():
                    register_participant(participant)
                consumer_specs = spec.consumers()
                for start in range(0, len(consumer_specs), spec.setup_cohort):
                    cohort = consumer_specs[start:start + spec.setup_cohort]
                    with architecture.operator_module.batch():
                        for participant in cohort:
                            register_participant(participant)
        result.steps.append(probe.stats(len(result.steps), "setup", "setup:participants"))

        # -- setup: pods --------------------------------------------------------
        with PhaseProbe(architecture) as probe:
            for participant in spec.owners():
                result.traces.append(pod_initiation(architecture, owners[participant.name]))
        result.steps.append(probe.stats(len(result.steps), "setup", "setup:pods"))

        # -- setup: resources ---------------------------------------------------
        with PhaseProbe(architecture) as probe:
            for resource in spec.resources:
                owner = owners[resource.owner]
                now = architecture.clock.now()
                policy = resource.build_policy(
                    owner.pod_manager.base_url + resource.path,
                    owner.webid.iri,
                    issued_at=now,
                )
                result.traces.append(
                    resource_initiation(
                        architecture,
                        owner,
                        resource.path,
                        resource.body(),
                        policy,
                        metadata=dict(resource.metadata) if resource.metadata else None,
                    )
                )
                result.resource_ids[resource.key] = owner.pod_manager.require_pod().url_for(
                    resource.path
                )
        result.steps.append(probe.stats(len(result.steps), "setup", "setup:resources"))

        # -- setup: market onboarding ------------------------------------------
        with PhaseProbe(architecture) as probe:
            onboarding = [
                participant for participant in spec.consumers()
                if participant.behavior is not Behavior.LATE_PAYER
                # late payers pay (late) during their first access
            ]
            if spec.setup_cohort is None:
                for participant in onboarding:
                    result.traces.append(
                        market_onboarding(architecture, consumers[participant.name])
                    )
                    model.subscribed.add(participant.name)
            else:
                for start in range(0, len(onboarding), spec.setup_cohort):
                    cohort = onboarding[start:start + spec.setup_cohort]
                    modules = [consumers[p.name].module for p in cohort]
                    with architecture.operator_module.batch(*modules):
                        for participant in cohort:
                            result.traces.append(
                                market_onboarding(architecture, consumers[participant.name])
                            )
                            model.subscribed.add(participant.name)
        result.steps.append(probe.stats(len(result.steps), "setup", "setup:onboarding"))

        # -- the scripted timeline ----------------------------------------------
        context = _RunContext(
            architecture=architecture,
            coordinator=coordinator,
            model=model,
            result=result,
            owners=owners,
            consumers=consumers,
            device_of=device_of,
        )
        for timeline_index, step in enumerate(spec.timeline):
            handler = getattr(self, f"_run_{step.kind}")
            with PhaseProbe(architecture) as probe:
                details = handler(step, timeline_index, context) or {}
            details.setdefault("timelineIndex", timeline_index)
            result.steps.append(
                probe.stats(len(result.steps), step.kind, step.label(), details)
            )

        # -- finalize -----------------------------------------------------------
        result.monitoring_reports = list(coordinator.reports)
        result.on_chain_violations = architecture.dist_exchange_read("get_violations")
        result.facts["total_gas_used"] = architecture.total_gas_used()
        result.facts["chain_height"] = architecture.node.chain.height
        result.facts["chain_valid"] = architecture.node.chain.verify_chain()
        result.facts["balance_conservation"] = result.balance_conservation()
        result.facts["monitor_fallbacks"] = list(coordinator.fallbacks)
        network = architecture.validator_network
        if network is not None:
            result.facts["validators"] = spec.validators
            result.facts["replica_heads"] = network.heads()
            result.facts["honest_heads_converged"] = network.honest_heads_converged()
            result.facts["equivocation_proofs"] = [
                proof.to_dict() for proof in network.equivocation_proofs
            ]
            result.facts["liveness"] = network.liveness_report()
        if spec.durable:
            result.facts["durable"] = True
            result.facts["persist_dir"] = architecture.config.persist_dir
        return result

    # -- step handlers ---------------------------------------------------------

    def _run_advance(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        ctx.architecture.advance_time(step.seconds or 0.0)
        return {"seconds": step.seconds}

    def _run_index(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        resource_id = ctx.result.resource_ids[step.resource]
        ctx.result.traces.append(
            resource_indexing(ctx.architecture, ctx.consumers[step.participant], resource_id)
        )
        return {"resourceId": resource_id}

    def _run_access(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        spec_participant = self.spec.participant(step.participant)
        consumer = ctx.consumers[step.participant]
        resource = self.spec.resource(step.resource)
        owner = ctx.owners[resource.owner]
        resource_id = ctx.result.resource_ids[step.resource]
        details: Dict[str, Any] = {"resourceId": resource_id}
        if (
            spec_participant.behavior is Behavior.LATE_PAYER
            and step.participant not in ctx.model.subscribed
        ):
            # The paper's flow requires proof of market-fee payment; the
            # late payer tries without one, is refused, then pays.
            try:
                consumer.trusted_app.retrieve_resource(resource_id)
                denied_first = False
            except (PolicyViolationError, AuthorizationError, NotFoundError):
                denied_first = True
            details["deniedBeforePayment"] = denied_first
            ctx.result.facts[f"{step.participant}_denied_before_payment"] = denied_first
            ctx.result.traces.append(market_onboarding(ctx.architecture, consumer))
            ctx.model.subscribed.add(step.participant)
        ctx.result.traces.append(
            resource_access(ctx.architecture, consumer, owner, resource_id)
        )
        ctx.model.on_access(step.participant, step.resource, ctx.architecture.clock.now())
        return details

    def _run_use(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        participant = self.spec.participant(step.participant)
        consumer = ctx.consumers[step.participant]
        resource_id = ctx.result.resource_ids[step.resource]
        effective_purpose = step.purpose if step.purpose is not None else participant.purpose
        predicted, predicted_reason = ctx.model.predict_use(
            step.participant, step.resource, effective_purpose
        )
        error: Optional[str] = None
        try:
            consumer.use_resource(resource_id, purpose=step.purpose)
            allowed = True
        except (PolicyViolationError, NotFoundError) as exc:
            allowed = False
            error = str(exc)
        if predicted:
            ctx.model.on_use(step.participant, step.resource, ctx.architecture.clock.now())
        ctx.check_prediction(index, step, predicted, allowed,
                             modelReason=predicted_reason, error=error)
        return {
            "allowed": allowed,
            "predicted": predicted,
            "purpose": effective_purpose,
            "error": error,
        }

    def _run_revise_policy(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        resource = self.spec.resource(step.resource)
        owner = ctx.owners[resource.owner]
        resource_id = ctx.result.resource_ids[step.resource]
        now = ctx.architecture.clock.now()
        retention, purposes, max_accesses = resource.revision_constraints(step)
        policy = resource.revised_policy(step, resource_id, owner.webid.iri, issued_at=now)
        ctx.result.traces.append(
            policy_modification(ctx.architecture, owner, resource.path, policy)
        )
        ctx.model.on_revise(step.resource, now, retention, purposes, max_accesses)
        return {
            "resourceId": resource_id,
            "newVersion": policy.version,
            "retentionSeconds": retention,
            "allowedPurposes": list(purposes) if purposes else None,
        }

    def _run_monitor(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        resource = self.spec.resource(step.resource)
        owner = ctx.owners[resource.owner]
        resource_id = ctx.result.resource_ids[step.resource]
        now = ctx.architecture.clock.now()
        if self.spec.housekeeping:
            for name in ctx.model.housekeeping(now):
                ctx.consumers[name].tee.enforce_policies()
        expected_pairs = ctx.model.expected_for_monitor(step.resource, now)
        ctx.result.traces.append(
            policy_monitoring(ctx.architecture, owner, resource.path, ctx.coordinator)
        )
        report = ctx.coordinator.reports[-1]
        expected_records = [
            ViolationRecord(
                step_index=index,
                resource_id=resource_id,
                device_id=ctx.device_of[name],
                reason=reason,
                round_id=report.round_id,
            )
            for name, reason in expected_pairs
        ]
        observed_records = [
            ViolationRecord(
                step_index=index,
                resource_id=resource_id,
                device_id=device_id,
                reason=str((report.evidence.get(device_id) or {}).get("details", "non-compliant evidence")),
                round_id=report.round_id,
            )
            for device_id in report.non_compliant_devices
        ]
        ctx.result.ledger.expected.extend(expected_records)
        ctx.result.ledger.observed.extend(observed_records)
        ctx.model.after_monitor(step.resource, now, expected_pairs)
        return {
            "resourceId": resource_id,
            "roundId": report.round_id,
            "holders": len(report.holders),
            "expected": [record.to_dict() for record in expected_records],
            "observed": [record.to_dict() for record in observed_records],
        }

    def _run_attempt_access(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        """A bare consumer-side retrieval: no owner re-grant, no auto-purchase."""
        consumer = ctx.consumers[step.participant]
        resource_id = ctx.result.resource_ids[step.resource]
        predicted, predicted_reason = ctx.model.predict_reaccess(
            step.participant, step.resource
        )
        error: Optional[str] = None
        try:
            consumer.retrieve_resource(resource_id)
            allowed = True
        except (PolicyViolationError, AuthorizationError, NotFoundError) as exc:
            allowed = False
            error = str(exc)
        if allowed:
            # A served attempt re-seals the copy and records a fresh grant.
            ctx.model.on_access(
                step.participant, step.resource, ctx.architecture.clock.now(),
                granted=False,
            )
        if step.fact:
            ctx.result.facts[step.fact] = (not allowed) if step.negate else allowed
        ctx.check_prediction(index, step, predicted, allowed,
                             modelReason=predicted_reason, error=error)
        return {
            "allowed": allowed,
            "predicted": predicted,
            "modelReason": predicted_reason,
            "error": error,
        }

    def _run_repurchase_certificate(self, step: Step, index: int,
                                    ctx: "_RunContext") -> dict:
        consumer = ctx.consumers[step.participant]
        resource_id = ctx.result.resource_ids[step.resource]
        certificate = consumer.purchase_certificate(resource_id)
        ctx.model.on_repurchase(step.participant, step.resource)
        return {"certificateId": certificate["certificate_id"]}

    def _run_regrant(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        resource = self.spec.resource(step.resource)
        owner = ctx.owners[resource.owner]
        consumer = ctx.consumers[step.participant]
        resource_id = ctx.result.resource_ids[step.resource]
        path = owner.pod_manager.require_pod().path_for(resource_id)
        if not owner.pod_manager.can_access(consumer.webid.iri, AccessMode.READ, path):
            owner.pod_manager.grant_access(
                consumer.webid.iri, [AccessMode.READ], resource_path=path
            )
        ctx.model.on_regrant(step.participant, step.resource)
        return {"resourceId": resource_id, "consumer": consumer.webid.iri}

    def _run_enforce(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        outcome = ctx.consumers[step.participant].tee.enforce_policies()
        ctx.model.enforce(step.participant, ctx.architecture.clock.now())
        return {"outcome": outcome.to_dict()}

    def _run_churn(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        ctx.architecture.disconnect_consumer(step.participant)
        ctx.model.on_churn(step.participant)
        return {"device": ctx.device_of[step.participant]}

    # -- validator fault steps ---------------------------------------------------

    def _run_fail_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        network = ctx.architecture.validator_network
        ctx.architecture.fail_validator(step.validator)
        return {
            "validator": step.validator,
            "address": network.validators[step.validator].address,
        }

    def _run_recover_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        network = ctx.architecture.validator_network
        ctx.architecture.recover_validator(step.validator)
        return {
            "validator": step.validator,
            "address": network.validators[step.validator].address,
            "resyncedHeight": network.validators[step.validator].chain.height,
            "consistent": network.consistent(),
        }

    def _run_equivocate(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        """Arm a Byzantine double-seal for the validator's next proposing slot.

        The equivocation itself fires when the rotation next hands the
        validator a slot (i.e. during a later step's auto-mined block); the
        resulting proof and convergence facts are collected at finalize.
        """
        network = ctx.architecture.validator_network
        ctx.architecture.equivocate_validator(step.validator)
        return {
            "validator": step.validator,
            "address": network.validators[step.validator].address,
        }

    def _run_crash_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        network = ctx.architecture.validator_network
        address = network.validators[step.validator].address
        ctx.architecture.crash_validator(step.validator)
        return {"validator": step.validator, "address": address}

    def _run_restart_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        network = ctx.architecture.validator_network
        report = ctx.architecture.restart_validator(step.validator)
        replica = network.validators[step.validator]
        # The restarted replica must hold a fully re-verifiable chain: every
        # header, seal, Merkle root, and state transition re-checked.
        report["replayVerified"] = replica.chain.verify_chain(replay=True)
        report["validator"] = step.validator
        report["address"] = replica.address
        report["height"] = replica.chain.height
        report["consistent"] = network.consistent()
        ctx.result.facts.setdefault("recoveries", []).append(dict(report))
        return report

    def _run_join_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        """Stand up a new replica and settle its bonded ``join`` on-chain."""
        network = ctx.architecture.validator_network
        details = ctx.architecture.join_validator(step.validator)
        # Settle the join transaction so the membership change is on-chain
        # before the timeline continues (the rotation itself only changes at
        # the next epoch boundary).
        network.produce_until_block()
        details["registered"] = bool(
            ctx.architecture.node.call(
                ctx.architecture.validator_registry_address,
                "validator_info",
                {"address": details["address"]},
            )
        )
        details["validators"] = len(network.validators)
        return dict(details)

    def _run_leave_validator(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        """Settle the validator's ``leave`` on-chain (exit at the next boundary)."""
        network = ctx.architecture.validator_network
        address = network.validators[step.validator].address
        ctx.architecture.leave_validator(step.validator)
        network.produce_until_block()
        info = ctx.architecture.node.call(
            ctx.architecture.validator_registry_address,
            "validator_info",
            {"address": address},
        )
        return {
            "validator": step.validator,
            "address": address,
            "status": (info or {}).get("status"),
            "exitBlock": (info or {}).get("exitBlock"),
        }

    def _run_check_holds(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        resource_id = ctx.result.resource_ids[step.resource]
        actual = ctx.consumers[step.participant].holds_copy(resource_id)
        predicted = ctx.model.holds(step.participant, step.resource)
        if step.fact:
            ctx.result.facts[step.fact] = (not actual) if step.negate else actual
        ctx.check_prediction(index, step, predicted, actual)
        return {"holds": actual, "predicted": predicted, "fact": step.fact}

    def _run_check_can_use(self, step: Step, index: int, ctx: "_RunContext") -> dict:
        participant = self.spec.participant(step.participant)
        resource_id = ctx.result.resource_ids[step.resource]
        effective_purpose = step.purpose if step.purpose is not None else participant.purpose
        actual = ctx.consumers[step.participant].trusted_app.can_use(
            resource_id, purpose=step.purpose
        )
        predicted, _ = ctx.model.predict_use(step.participant, step.resource, effective_purpose)
        if step.fact:
            ctx.result.facts[step.fact] = (not actual) if step.negate else actual
        ctx.check_prediction(index, step, predicted, actual)
        return {"canUse": actual, "predicted": predicted, "fact": step.fact}


@dataclass
class _RunContext:
    """Mutable state shared by the step handlers of one run."""

    architecture: UsageControlArchitecture
    coordinator: MonitoringCoordinator
    model: _ShadowModel
    result: ScenarioResult
    owners: Dict[str, DataOwner]
    consumers: Dict[str, DataConsumer]
    device_of: Dict[str, str]

    def check_prediction(self, index: int, step: Step, predicted: bool, observed: bool,
                         **extra: Any) -> None:
        """Record a misprediction when the shadow model disagrees with the run."""
        if observed != predicted:
            self.result.mispredictions.append({
                "stepIndex": index,
                "kind": step.kind,
                "participant": step.participant,
                "resource": step.resource,
                "predicted": predicted,
                "observed": observed,
                **extra,
            })


# -- the Solid-only counterpart -------------------------------------------------------


@dataclass
class BaselineScenarioResult:
    """What the same spec produces on the access-control-only baseline."""

    deployment: BaselineSolidDeployment
    spec: ScenarioSpec
    resource_ids: Dict[str, str] = field(default_factory=dict)
    # One entry per monitor step: consumers whose copy predates the current
    # policy — the only signal the baseline can produce.
    stale_copy_snapshots: List[Dict[str, Any]] = field(default_factory=list)
    violations_detected: int = 0
    facts: Dict[str, object] = field(default_factory=dict)


class BaselineScenarioRunner:
    """Interpret a spec against Solid with plain access control.

    The baseline has no blockchain, no TEEs, and no oracles: policy
    revisions never reach existing copies, retention is not enforced, and
    monitoring rounds have nothing to collect — ``violations_detected``
    stays zero no matter how adversarial the spec is.  Running the same
    spec through both runners makes the paper's core comparison testable.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec.validate()

    def run(self) -> BaselineScenarioResult:
        spec = self.spec
        deployment = BaselineSolidDeployment()
        result = BaselineScenarioResult(deployment=deployment, spec=spec)
        managers = {}
        for participant in spec.participants:
            if participant.role == "owner":
                managers[participant.name] = deployment.register_owner(participant.name)
            else:
                deployment.register_consumer(participant.name)
        for resource in spec.resources:
            manager = managers[resource.owner]
            policy = resource.build_policy(
                manager.base_url + resource.path,
                manager.owner.iri,
                issued_at=deployment.clock.now(),
            )
            result.resource_ids[resource.key] = deployment.publish_resource(
                resource.owner, resource.path, resource.body(), policy
            )

        for step in spec.timeline:
            if step.kind == "advance":
                deployment.clock.advance(step.seconds or 0.0)
            elif step.kind == "access":
                resource = spec.resource(step.resource)
                deployment.grant_read(resource.owner, step.participant, resource.path)
                deployment.access_resource(
                    step.participant, result.resource_ids[step.resource]
                )
            elif step.kind == "use":
                # Nothing checks purpose or retention outside a TEE.
                consumer = deployment.consumers[step.participant]
                if consumer.holds_copy(result.resource_ids[step.resource]):
                    consumer.use_resource(result.resource_ids[step.resource])
            elif step.kind == "revise_policy":
                resource = spec.resource(step.resource)
                policy = resource.revised_policy(
                    step,
                    result.resource_ids[step.resource],
                    managers[resource.owner].owner.iri,
                    issued_at=deployment.clock.now(),
                )
                deployment.update_policy(resource.owner, resource.path, policy)
            elif step.kind == "monitor":
                resource = spec.resource(step.resource)
                result.stale_copy_snapshots.append(
                    {
                        "resource": step.resource,
                        "staleConsumers": deployment.stale_copies(
                            resource.owner, resource.path
                        ),
                        # No evidence trail exists: nothing can be detected.
                        "violationsDetected": 0,
                    }
                )
            elif step.kind == "check_holds" and step.fact:
                consumer = deployment.consumers[step.participant]
                actual = consumer.holds_copy(result.resource_ids[step.resource])
                result.facts[step.fact] = (not actual) if step.negate else actual
            # index / enforce / churn / check_can_use have no baseline
            # counterpart: there is no DE App to index, no TEE to enforce or
            # take offline, and local use is never policy-checked.  The
            # violation-response cascade (attempt_access /
            # repurchase_certificate / regrant) is likewise meaningless
            # here: nothing is ever detected, so nothing is ever revoked.

        result.facts["violations_detected"] = result.violations_detected
        surviving = sum(
            1
            for consumer in deployment.consumers.values()
            for copy in consumer.local_store.values()
            if not copy.deleted
        )
        result.facts["surviving_copies"] = surviving
        return result
