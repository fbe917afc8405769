"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serializable description of an
end-to-end story against the usage-control architecture: the participants
(each with a *behavior profile* — honest, policy-violating, non-responsive,
Byzantine oracle, late payer, churning device), the resources they publish
(each with a policy template), and a scripted timeline of actions.  The
:class:`~repro.core.runner.ScenarioRunner` interprets a spec against a
freshly wired :class:`~repro.core.architecture.UsageControlArchitecture`
and checks the observed on-chain outcomes against the spec's expectations.

Specs are plain data: they can be built by hand (the named scenarios in
:mod:`repro.core.scenario_library`), derived from a synthetic workload
(:func:`spec_from_workload`), or generated by Hypothesis for the randomized
conformance suite.  ``to_dict``/``from_dict`` round-trip a spec through
JSON so a failing generated spec can be saved and replayed verbatim.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.policy.model import Policy
from repro.policy.templates import (
    max_access_policy,
    open_policy,
    purpose_and_retention_policy,
    purpose_policy,
    retention_policy,
)


class Behavior(str, Enum):
    """How an actor behaves towards the architecture's obligations.

    * ``HONEST`` — runs its TEE enforcement pass, answers monitoring.
    * ``VIOLATING`` — never runs the scheduled enforcement pass, so expired
      copies linger (the paper's policy-violating consumer).  Its TEE is
      still genuine: evidence it produces is truthful.
    * ``NON_RESPONSIVE`` — the device is offline for the architecture's
      callbacks from the start: it neither receives policy-update pushes
      nor answers monitoring requests.
    * ``STALE_ORACLE`` — the device's pull-in oracle component replays the
      first evidence it ever served instead of producing fresh evidence.
    * ``TAMPERING_ORACLE`` — the pull-in oracle forges the evidence body
      (claims compliance, hides the usage trail) without the enclave key,
      breaking the signature.
    * ``LATE_PAYER`` — attempts its first resource access before paying
      the market fees, then pays and retries.
    * ``CHURNED`` — behaves honestly until a scripted ``churn`` step takes
      the device permanently offline.
    """

    HONEST = "honest"
    VIOLATING = "violating-consumer"
    NON_RESPONSIVE = "non-responsive"
    STALE_ORACLE = "stale-oracle"
    TAMPERING_ORACLE = "tampering-oracle"
    LATE_PAYER = "late-payer"
    CHURNED = "churned"


# Profiles whose TEE housekeeping (enforcement pass) runs before monitoring.
# CHURNED devices enforce honestly until their churn step takes them offline.
ENFORCING_BEHAVIORS = frozenset(
    {
        Behavior.HONEST,
        Behavior.LATE_PAYER,
        Behavior.STALE_ORACLE,
        Behavior.TAMPERING_ORACLE,
        Behavior.CHURNED,
    }
)
# Profiles that are offline for pushes and monitoring from registration on.
OFFLINE_FROM_START = frozenset({Behavior.NON_RESPONSIVE})


@dataclass(frozen=True)
class ParticipantSpec:
    """One data owner or data consumer."""

    name: str
    role: str  # "owner" or "consumer"
    purpose: Optional[str] = None
    behavior: Behavior = Behavior.HONEST
    device_id: Optional[str] = None

    def __post_init__(self):
        if self.role not in ("owner", "consumer"):
            raise ValidationError(f"participant {self.name}: role must be 'owner' or 'consumer'")
        if self.role == "owner" and self.behavior is not Behavior.HONEST:
            raise ValidationError(f"owner {self.name}: owner-side faults are not modelled")

    @property
    def device(self) -> str:
        """Device identifier (mirrors the architecture's default naming)."""
        return self.device_id or f"device-{self.name}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "role": self.role,
            "purpose": self.purpose,
            "behavior": self.behavior.value,
            "deviceId": self.device_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ParticipantSpec":
        return cls(
            name=data["name"],
            role=data["role"],
            purpose=data.get("purpose"),
            behavior=Behavior(data.get("behavior", Behavior.HONEST.value)),
            device_id=data.get("deviceId"),
        )


@dataclass(frozen=True)
class ResourceSpec:
    """One resource an owner publishes, with its usage-policy template.

    Exactly one policy shape is derived from the populated fields:
    retention only, purposes only, both, ``max_accesses`` (exclusive), or
    an open policy when nothing is constrained.
    """

    owner: str
    path: str
    retention_seconds: Optional[float] = None
    allowed_purposes: Optional[Tuple[str, ...]] = None
    max_accesses: Optional[int] = None
    content: Optional[bytes] = None
    size_bytes: int = 1024
    metadata: Optional[Mapping[str, Any]] = None

    def __post_init__(self):
        # An empty purpose tuple means "no purpose constraint" everywhere the
        # templates are concerned; normalize so specs round-trip exactly.
        if self.allowed_purposes is not None and not self.allowed_purposes:
            object.__setattr__(self, "allowed_purposes", None)
        if self.max_accesses is not None and (
            self.retention_seconds is not None or self.allowed_purposes is not None
        ):
            raise ValidationError(
                f"resource {self.key}: max_accesses cannot be combined with other constraints"
            )

    @property
    def key(self) -> str:
        """Stable identifier steps use to reference this resource."""
        return f"{self.owner}:{self.path}"

    def body(self) -> bytes:
        """The stored bytes (deterministic filler when no content is given)."""
        if self.content is not None:
            return self.content
        payload = f"{self.owner}{self.path}\n".encode("utf-8")
        repeat = max(1, min(self.size_bytes, 8192) // len(payload))
        return payload * repeat

    def build_policy(self, target: str, assigner: str, issued_at: float,
                     retention_seconds: Optional[float] = None,
                     allowed_purposes: Optional[Sequence[str]] = None,
                     max_accesses: Optional[int] = None) -> Policy:
        """Instantiate the policy template for *target* (overridably, for revisions)."""
        retention = retention_seconds if retention_seconds is not None else self.retention_seconds
        purposes = allowed_purposes if allowed_purposes is not None else self.allowed_purposes
        bound = max_accesses if max_accesses is not None else self.max_accesses
        if bound is not None:
            return max_access_policy(target, assigner, bound, issued_at=issued_at)
        if retention is not None and purposes:
            return purpose_and_retention_policy(
                target, assigner, tuple(purposes), retention, issued_at=issued_at
            )
        if retention is not None:
            return retention_policy(target, assigner, retention, issued_at=issued_at)
        if purposes:
            return purpose_policy(target, assigner, tuple(purposes), issued_at=issued_at)
        return open_policy(target, assigner, issued_at=issued_at)

    def revision_constraints(
        self, step: "Step"
    ) -> Tuple[Optional[float], Optional[Tuple[str, ...]], Optional[int]]:
        """Effective (retention, purposes, max_accesses) after a revise step.

        A ``revise_policy`` step overrides only the constraints it names;
        the rest keep this resource's original values.  Both scenario
        runners (monitored and baseline) must interpret revisions through
        this one helper so the paper's comparison stays apples-to-apples.
        """
        retention = (
            step.retention_seconds
            if step.retention_seconds is not None
            else self.retention_seconds
        )
        purposes = (
            step.allowed_purposes
            if step.allowed_purposes is not None
            else self.allowed_purposes
        )
        max_accesses = (
            step.max_accesses if step.max_accesses is not None else self.max_accesses
        )
        return retention, purposes, max_accesses

    def revised_policy(self, step: "Step", target: str, assigner: str,
                       issued_at: float) -> Policy:
        """Build the policy a ``revise_policy`` step installs (version bumped)."""
        retention, purposes, max_accesses = self.revision_constraints(step)
        policy = self.build_policy(
            target,
            assigner,
            issued_at,
            retention_seconds=retention,
            allowed_purposes=purposes,
            max_accesses=max_accesses,
        )
        for _ in range(step.revisions):
            policy = policy.revise()
        return policy

    def to_dict(self) -> dict:
        return {
            "owner": self.owner,
            "path": self.path,
            "retentionSeconds": self.retention_seconds,
            "allowedPurposes": list(self.allowed_purposes) if self.allowed_purposes else None,
            "maxAccesses": self.max_accesses,
            "content": (
                base64.b64encode(self.content).decode("ascii")
                if self.content is not None
                else None
            ),
            "sizeBytes": self.size_bytes,
            "metadata": dict(self.metadata) if self.metadata is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResourceSpec":
        purposes = data.get("allowedPurposes")
        content = data.get("content")
        return cls(
            owner=data["owner"],
            path=data["path"],
            retention_seconds=data.get("retentionSeconds"),
            allowed_purposes=tuple(purposes) if purposes else None,
            max_accesses=data.get("maxAccesses"),
            content=base64.b64decode(content) if content is not None else None,
            size_bytes=data.get("sizeBytes", 1024),
            metadata=data.get("metadata"),
        )


STEP_KINDS = frozenset(
    {
        "advance",
        "index",
        "access",
        "use",
        "revise_policy",
        "monitor",
        "enforce",
        "churn",
        "check_holds",
        "check_can_use",
        "attempt_access",
        "repurchase_certificate",
        "regrant",
        "fail_validator",
        "recover_validator",
        "equivocate",
        "crash_validator",
        "restart_validator",
        "join_validator",
        "leave_validator",
    }
)

# Step kinds that drive the validator network (need spec.validators > 1).
VALIDATOR_STEP_KINDS = frozenset(
    {
        "fail_validator",
        "recover_validator",
        "equivocate",
        "crash_validator",
        "restart_validator",
        "join_validator",
        "leave_validator",
    }
)

# Step kinds that additionally need a durable deployment (spec.durable).
DURABLE_STEP_KINDS = frozenset({"crash_validator", "restart_validator"})

# Step kinds that change validator-registry membership (need a dynamic
# validator set, spec.epoch_length > 0).
DYNAMIC_STEP_KINDS = frozenset({"join_validator", "leave_validator"})


@dataclass(frozen=True)
class Step:
    """One scripted action of a scenario timeline."""

    kind: str
    participant: Optional[str] = None
    resource: Optional[str] = None  # a ResourceSpec.key
    purpose: Optional[str] = None
    seconds: Optional[float] = None
    retention_seconds: Optional[float] = None
    allowed_purposes: Optional[Tuple[str, ...]] = None
    max_accesses: Optional[int] = None
    revisions: int = 1
    fact: Optional[str] = None
    negate: bool = False
    validator: Optional[int] = None  # index into the PoA validator set

    def __post_init__(self):
        if self.kind not in STEP_KINDS:
            raise ValidationError(f"unknown step kind {self.kind!r}")
        if self.allowed_purposes is not None and not self.allowed_purposes:
            object.__setattr__(self, "allowed_purposes", None)
        if self.kind in VALIDATOR_STEP_KINDS and (
            self.validator is None or self.validator < 0
        ):
            raise ValidationError(f"step {self.kind} needs a validator index")

    def label(self) -> str:
        parts = [self.kind]
        if self.participant:
            parts.append(self.participant)
        if self.resource:
            parts.append(self.resource)
        if self.seconds is not None:
            parts.append(f"{self.seconds:g}s")
        if self.validator is not None:
            parts.append(f"v{self.validator}")
        return ":".join(parts)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "participant": self.participant,
            "resource": self.resource,
            "purpose": self.purpose,
            "seconds": self.seconds,
            "retentionSeconds": self.retention_seconds,
            "allowedPurposes": list(self.allowed_purposes) if self.allowed_purposes else None,
            "maxAccesses": self.max_accesses,
            "revisions": self.revisions,
            "fact": self.fact,
            "negate": self.negate,
            "validator": self.validator,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Step":
        purposes = data.get("allowedPurposes")
        return cls(
            kind=data["kind"],
            participant=data.get("participant"),
            resource=data.get("resource"),
            purpose=data.get("purpose"),
            seconds=data.get("seconds"),
            retention_seconds=data.get("retentionSeconds"),
            allowed_purposes=tuple(purposes) if purposes else None,
            max_accesses=data.get("maxAccesses"),
            revisions=data.get("revisions", 1),
            fact=data.get("fact"),
            negate=data.get("negate", False),
            validator=data.get("validator"),
        )


# -- step constructors (the vocabulary scenario authors use) -----------------------


def advance(seconds: float) -> Step:
    """Let *seconds* of simulated time pass (scheduled jobs run)."""
    return Step("advance", seconds=float(seconds))


def index(consumer: str, resource: str) -> Step:
    """Fig. 2.3 — the consumer looks the resource up in the DE App."""
    return Step("index", participant=consumer, resource=resource)


def access(consumer: str, resource: str) -> Step:
    """Fig. 2.4 — the consumer retrieves the resource into its TEE."""
    return Step("access", participant=consumer, resource=resource)


def use(consumer: str, resource: str, purpose: Optional[str] = None) -> Step:
    """The consumer uses its local copy (policy-checked inside the TEE)."""
    return Step("use", participant=consumer, resource=resource, purpose=purpose)


def revise_policy(resource: str, retention_seconds: Optional[float] = None,
                  allowed_purposes: Optional[Sequence[str]] = None,
                  max_accesses: Optional[int] = None, revisions: int = 1) -> Step:
    """Fig. 2.5 — the owner replaces the resource's usage policy."""
    return Step(
        "revise_policy",
        resource=resource,
        retention_seconds=retention_seconds,
        allowed_purposes=tuple(allowed_purposes) if allowed_purposes else None,
        max_accesses=max_accesses,
        revisions=revisions,
    )


def monitor(resource: str) -> Step:
    """Fig. 2.6 — the owner runs a policy-monitoring round."""
    return Step("monitor", resource=resource)


def enforce(consumer: str) -> Step:
    """The consumer's TEE runs an explicit enforcement pass."""
    return Step("enforce", participant=consumer)


def churn(consumer: str) -> Step:
    """The consumer's device goes permanently offline."""
    return Step("churn", participant=consumer)


def attempt_access(consumer: str, resource: str, fact: Optional[str] = None,
                   negate: bool = False) -> Step:
    """A consumer-initiated re-access attempt (the violation-response cascade).

    Unlike :func:`access`, the owner does not re-grant the pod ACL and the
    consumer does not automatically buy a fresh market-fee certificate —
    the attempt is served or refused exactly as the revocation playbook
    left things.  The outcome (and the shadow model's prediction for it)
    is recorded instead of raising.
    """
    return Step("attempt_access", participant=consumer, resource=resource,
                fact=fact, negate=negate)


def repurchase_certificate(consumer: str, resource: str) -> Step:
    """The consumer buys a fresh market-fee certificate after a revocation."""
    return Step("repurchase_certificate", participant=consumer, resource=resource)


def regrant(consumer: str, resource: str) -> Step:
    """The owner forgives: re-adds the consumer's READ entry to the pod ACL."""
    return Step("regrant", participant=consumer, resource=resource)


def fail_validator(index: int) -> Step:
    """Crash the PoA validator at *index*: its slots are skipped until recovery."""
    return Step("fail_validator", validator=index)


def recover_validator(index: int) -> Step:
    """Bring a crashed validator back online; its replica resyncs block-by-block."""
    return Step("recover_validator", validator=index)


def equivocate(index: int) -> Step:
    """The validator at *index* double-seals its next slot (Byzantine fault).

    Every replica's equivocation detector records the two sealed headers as
    a slashable proof naming the validator; fork-choice converges the
    honest replicas, and the culprit is excluded from later slots.
    """
    return Step("equivocate", validator=index)


def crash_validator(index: int) -> Step:
    """Hard-crash (kill -9) the validator at *index*: its in-memory replica
    is destroyed and its chain store abandoned mid-append (unacknowledged
    tail, torn tail record).  Needs a durable scenario (``durable=True``)."""
    return Step("crash_validator", validator=index)


def restart_validator(index: int) -> Step:
    """Rebuild a hard-crashed validator from its chain store.

    Recovery verifies every record checksum, truncates the torn tail,
    cold-starts from the best promoted finality snapshot plus a re-executed
    tail, restores the durable contract registry and equivocation proofs,
    and resyncs whatever truncation lost from the best online peer.
    """
    return Step("restart_validator", validator=index)


def join_validator(index: int) -> Step:
    """A new validator joins the rotation via the on-chain registry.

    A fresh replica is stood up at *index* (which must extend the current
    set), funded, and its bonded ``join`` transaction settles on-chain; the
    derived rotation starts handing it slots at the next epoch boundary.
    Needs a dynamic validator set (``epoch_length > 0``).
    """
    return Step("join_validator", validator=index)


def leave_validator(index: int) -> Step:
    """The validator at *index* announces its exit via the registry.

    Its ``leave`` transaction settles on-chain, the derived rotation drops
    it at the next epoch boundary, and its bond becomes withdrawable after
    the registry's cool-down.  Needs a dynamic validator set.
    """
    return Step("leave_validator", validator=index)


def check_holds(consumer: str, resource: str, fact: str, negate: bool = False) -> Step:
    """Record whether the consumer still holds a copy under ``facts[fact]``."""
    return Step("check_holds", participant=consumer, resource=resource, fact=fact, negate=negate)


def check_can_use(consumer: str, resource: str, fact: str,
                  purpose: Optional[str] = None, negate: bool = False) -> Step:
    """Record whether the consumer may currently use the copy under ``facts[fact]``."""
    return Step(
        "check_can_use", participant=consumer, resource=resource,
        purpose=purpose, fact=fact, negate=negate,
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    participants: Tuple[ParticipantSpec, ...]
    resources: Tuple[ResourceSpec, ...]
    timeline: Tuple[Step, ...]
    description: str = ""
    seed: int = 0
    # Run an enforcement pass on every enforcing-profile TEE right before
    # each monitoring round (models the paper's scheduled TEE job; disable
    # for scripts that drive enforcement explicitly, like Alice & Bob).
    housekeeping: bool = True
    # Attach a ViolationResponder per owner (revocation playbook).
    respond_to_violations: bool = False
    subscription_fee: Optional[int] = None
    access_fee: Optional[int] = None
    # Genesis funding overrides; population-scale specs raise the operator's
    # supply so thousands of participants can be funded at registration.
    operator_funds: Optional[int] = None
    participant_funds: Optional[int] = None
    # Size of the PoA validator set the scenario runs on.  1 (default) is
    # the single-node deployment every pinned result was produced on; >1
    # runs the replicated validator network and enables the
    # fail_validator / recover_validator / equivocate step kinds.
    validators: int = 1
    # Register/fund/onboard consumers in cohorts of this size, one block per
    # cohort, instead of auto-mining ~4 blocks per consumer.  None keeps the
    # sequential setup (and its pinned block counts) untouched.
    setup_cohort: Optional[int] = None
    # Durable deployment: every validator persists its chain to disk (the
    # runner provisions a temporary store root), enabling the
    # crash_validator / restart_validator step kinds.
    durable: bool = False
    # Finality-snapshot cadence and reorg window for durable deployments.
    snapshot_interval: int = 0
    max_reorg_depth: Optional[int] = None
    # Dynamic validator set: blocks per epoch.  > 0 deploys the validator
    # registry contract, derives the rotation from its state at every epoch
    # boundary, and enables join_validator / leave_validator steps.
    epoch_length: int = 0
    # Worker processes per monitoring round.  1 (default) keeps the
    # in-process flow every pinned result was produced on; > 1 shards each
    # round's holder set across forked workers (see MonitoringCoordinator).
    monitor_workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "participants", tuple(self.participants))
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "timeline", tuple(self.timeline))

    # -- lookups ------------------------------------------------------------

    def owners(self) -> List[ParticipantSpec]:
        return [p for p in self.participants if p.role == "owner"]

    def consumers(self) -> List[ParticipantSpec]:
        return [p for p in self.participants if p.role == "consumer"]

    @cached_property
    def _participants_by_name(self) -> Dict[str, ParticipantSpec]:
        by_name: Dict[str, ParticipantSpec] = {}
        for p in self.participants:
            by_name.setdefault(p.name, p)
        return by_name

    def participant(self, name: str) -> ParticipantSpec:
        p = self._participants_by_name.get(name)
        if p is None:
            raise ValidationError(f"scenario {self.name}: unknown participant {name!r}")
        return p

    def resource(self, key: str) -> ResourceSpec:
        for r in self.resources:
            if r.key == key:
                return r
        raise ValidationError(f"scenario {self.name}: unknown resource {key!r}")

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check every cross-reference; returns self so calls can chain."""
        names = [p.name for p in self.participants]
        if len(set(names)) != len(names):
            raise ValidationError(f"scenario {self.name}: duplicate participant names")
        keys = [r.key for r in self.resources]
        if len(set(keys)) != len(keys):
            raise ValidationError(f"scenario {self.name}: duplicate resource keys")
        roles = {p.name: p.role for p in self.participants}
        for resource in self.resources:
            if roles.get(resource.owner) != "owner":
                raise ValidationError(
                    f"scenario {self.name}: resource {resource.key} needs an owner participant"
                )
        if self.validators < 1:
            raise ValidationError(f"scenario {self.name}: validators must be >= 1")
        if self.epoch_length < 0:
            raise ValidationError(f"scenario {self.name}: epoch_length must be >= 0")
        if self.epoch_length and self.validators < 2:
            raise ValidationError(
                f"scenario {self.name}: a dynamic validator set (epoch_length > 0) "
                f"needs validators >= 2"
            )
        if self.setup_cohort is not None and self.setup_cohort < 1:
            raise ValidationError(f"scenario {self.name}: setup_cohort must be >= 1")
        if self.monitor_workers < 1:
            raise ValidationError(f"scenario {self.name}: monitor_workers must be >= 1")
        key_set = set(keys)
        joined = 0
        for step in self.timeline:
            if step.kind in VALIDATOR_STEP_KINDS:
                if self.validators < 2:
                    raise ValidationError(
                        f"scenario {self.name}: step {step.label()} needs validators >= 2"
                    )
                if step.kind in DYNAMIC_STEP_KINDS and not self.epoch_length:
                    raise ValidationError(
                        f"scenario {self.name}: step {step.label()} needs a dynamic "
                        f"validator set (epoch_length > 0)"
                    )
                # join names the NEXT free index; every other validator step
                # may target any replica that exists when it runs (genesis
                # set plus the joins scripted before it).
                known = self.validators + joined
                if step.kind == "join_validator":
                    if step.validator != known:
                        raise ValidationError(
                            f"scenario {self.name}: step {step.label()} must use the "
                            f"next free validator index ({known})"
                        )
                    joined += 1
                elif step.validator is None or not 0 <= step.validator < known:
                    raise ValidationError(
                        f"scenario {self.name}: step {step.label()} references an "
                        f"unknown validator index"
                    )
            if step.kind in DURABLE_STEP_KINDS:
                if not self.durable:
                    raise ValidationError(
                        f"scenario {self.name}: step {step.label()} needs durable=True"
                    )
                if step.validator == 0:
                    raise ValidationError(
                        f"scenario {self.name}: validator 0 hosts the interaction "
                        f"modules and cannot be hard-crashed"
                    )
            if step.resource is not None and step.resource not in key_set:
                raise ValidationError(
                    f"scenario {self.name}: step {step.label()} references unknown resource"
                )
            if step.participant is not None and step.participant not in roles:
                raise ValidationError(
                    f"scenario {self.name}: step {step.label()} references unknown participant"
                )
            if step.kind in ("index", "access", "use", "enforce", "churn",
                             "check_holds", "check_can_use", "attempt_access",
                             "repurchase_certificate", "regrant"):
                if step.participant is None or roles.get(step.participant) != "consumer":
                    raise ValidationError(
                        f"scenario {self.name}: step {step.label()} needs a consumer participant"
                    )
        return self

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "housekeeping": self.housekeeping,
            "respondToViolations": self.respond_to_violations,
            "subscriptionFee": self.subscription_fee,
            "accessFee": self.access_fee,
            "operatorFunds": self.operator_funds,
            "participantFunds": self.participant_funds,
            "validators": self.validators,
            "setupCohort": self.setup_cohort,
            "durable": self.durable,
            "snapshotInterval": self.snapshot_interval,
            "maxReorgDepth": self.max_reorg_depth,
            "epochLength": self.epoch_length,
            "monitorWorkers": self.monitor_workers,
            "participants": [p.to_dict() for p in self.participants],
            "resources": [r.to_dict() for r in self.resources],
            "timeline": [s.to_dict() for s in self.timeline],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            seed=data.get("seed", 0),
            housekeeping=data.get("housekeeping", True),
            respond_to_violations=data.get("respondToViolations", False),
            subscription_fee=data.get("subscriptionFee"),
            access_fee=data.get("accessFee"),
            operator_funds=data.get("operatorFunds"),
            participant_funds=data.get("participantFunds"),
            validators=data.get("validators", 1),
            setup_cohort=data.get("setupCohort"),
            durable=data.get("durable", False),
            snapshot_interval=data.get("snapshotInterval", 0),
            max_reorg_depth=data.get("maxReorgDepth"),
            epoch_length=data.get("epochLength", 0),
            monitor_workers=data.get("monitorWorkers", 1),
            participants=tuple(ParticipantSpec.from_dict(p) for p in data["participants"]),
            resources=tuple(ResourceSpec.from_dict(r) for r in data["resources"]),
            timeline=tuple(Step.from_dict(s) for s in data["timeline"]),
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


def behavior_quotas(count: int, behavior_mix: Mapping[Any, float]) -> Dict[Behavior, int]:
    """Exact per-behavior head counts for a population of *count* consumers.

    Weights are normalized, floored to integer quotas, and the remainder is
    distributed by largest fractional part (ties broken by behavior value),
    so the realized mix matches the requested proportions as closely as an
    integer population allows — and deterministically so.
    """
    weights = {Behavior(key): float(value) for key, value in behavior_mix.items()}
    total = sum(weights.values())
    if total <= 0 or any(value < 0 for value in weights.values()):
        raise ValidationError("behavior_mix weights must be non-negative and sum > 0")
    quotas: Dict[Behavior, int] = {}
    remainders: List[Tuple[float, str, Behavior]] = []
    assigned = 0
    for behavior in sorted(weights, key=lambda b: b.value):
        exact = weights[behavior] / total * count
        quotas[behavior] = int(exact)
        assigned += int(exact)
        remainders.append((exact - int(exact), behavior.value, behavior))
    remainders.sort(key=lambda item: (-item[0], item[1]))
    for _, _, behavior in remainders[: count - assigned]:
        quotas[behavior] += 1
    return quotas


def spec_from_workload(config, rng, violator_fraction: float = 0.0,
                       monitor_every: Optional[float] = None,
                       name: str = "workload",
                       behavior_mix: Optional[Mapping[Any, float]] = None,
                       respond_to_violations: bool = False,
                       setup_cohort: Optional[int] = None) -> ScenarioSpec:
    """Derive a scenario spec from a synthetic workload population.

    Threads the *same* seeded :class:`random.Random` through the
    :class:`~repro.sim.workload.WorkloadGenerator` and the scenario's own
    randomized choices, so the whole scenario reproduces from one seed.

    Behavior profiles come from either *violator_fraction* (each consumer
    independently ``VIOLATING`` with that probability) or — for
    population-scale scenarios — *behavior_mix*, a mapping of
    :class:`Behavior` (or its value string) to proportion.  The mix is
    honored exactly (:func:`behavior_quotas`) and shuffled across the
    population with the shared *rng*; ``CHURNED`` consumers additionally
    get a scripted ``churn`` step between their accesses and monitoring.
    """
    from repro.common.clock import DAY
    from repro.sim.workload import WorkloadGenerator

    generator = WorkloadGenerator(config, rng=rng)
    owners = generator.owners()
    consumers = generator.consumers()
    resources = generator.resources(owners)
    plan = generator.access_plan(consumers, resources)

    if behavior_mix is not None:
        quotas = behavior_quotas(len(consumers), behavior_mix)
        assignments = [
            behavior
            for behavior in sorted(quotas, key=lambda b: b.value)
            for _ in range(quotas[behavior])
        ]
        rng.shuffle(assignments)
    else:
        assignments = [
            Behavior.VIOLATING if rng.random() < violator_fraction else Behavior.HONEST
            for _ in consumers
        ]

    participants: List[ParticipantSpec] = [
        ParticipantSpec(name=o.name, role="owner") for o in owners
    ]
    for consumer, behavior in zip(consumers, assignments):
        participants.append(
            ParticipantSpec(
                name=consumer.name,
                role="consumer",
                purpose=consumer.purposes[0] if consumer.purposes else None,
                behavior=behavior,
            )
        )

    resource_specs: List[ResourceSpec] = []
    by_name: Dict[str, ResourceSpec] = {}
    for resource in resources:
        spec = ResourceSpec(
            owner=resource.owner,
            path=f"/data/{resource.name}",
            retention_seconds=resource.retention_seconds,
            content=resource.content,
            metadata={"kind": resource.kind},
        )
        resource_specs.append(spec)
        by_name[resource.name] = spec

    timeline: List[Step] = []
    seen: set = set()
    for consumer, resource in plan:
        pair = (consumer.name, resource.name)
        if pair in seen:
            continue  # one copy per device; repeat reads become `use` steps
        seen.add(pair)
        timeline.append(access(consumer.name, by_name[resource.name].key))
    for consumer, resource in plan:
        timeline.append(use(consumer.name, by_name[resource.name].key))
    behavior_of = {p.name: p.behavior for p in participants if p.role == "consumer"}
    for consumer in consumers:
        if behavior_of[consumer.name] is Behavior.CHURNED:
            timeline.append(churn(consumer.name))
    timeline.append(advance(monitor_every if monitor_every is not None else 9 * DAY))
    for spec in resource_specs:
        timeline.append(monitor(spec.key))

    # Size the genesis so the operator can fund the whole population (each
    # registration transfers the default participant stake) with headroom
    # for its own gas; small workloads keep the default supply.
    from repro.core.architecture import ArchitectureConfig

    default_stake = ArchitectureConfig.initial_participant_funds
    default_supply = ArchitectureConfig.operator_funds
    operator_funds = max(default_supply, 2 * default_stake * (len(participants) + 1))

    return ScenarioSpec(
        name=name,
        description=f"synthetic workload ({len(owners)} owners, {len(consumers)} consumers)",
        participants=tuple(participants),
        resources=tuple(resource_specs),
        timeline=tuple(timeline),
        seed=getattr(config, "seed", 0),
        respond_to_violations=respond_to_violations,
        operator_funds=operator_funds,
        setup_cohort=setup_cohort,
    ).validate()
