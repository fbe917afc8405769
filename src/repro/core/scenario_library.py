"""The named scenario library.

Every scenario the repo tells about the architecture, expressed as a
:class:`~repro.core.spec.ScenarioSpec` and collected in
:data:`SCENARIO_LIBRARY`.  The catalog covers the happy path (the paper's
Alice & Bob story, a multi-party market), every adversarial behavior
profile (negligent holder, unreachable device, Byzantine and stale
oracles, late payer, mid-retention churn), and the owner-side revocation
playbook.  ``python examples/adversarial_scenarios.py`` runs the whole
catalog and prints each expected-vs-observed violation ledger.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, Mapping, Optional

from repro.common.clock import DAY, HOUR, MONTH, WEEK
from repro.core.spec import (
    Behavior,
    ParticipantSpec,
    ResourceSpec,
    ScenarioSpec,
    access,
    advance,
    attempt_access,
    check_can_use,
    check_holds,
    churn,
    crash_validator,
    enforce,
    equivocate,
    index,
    join_validator,
    leave_validator,
    monitor,
    restart_validator,
    regrant,
    repurchase_certificate,
    revise_policy,
    spec_from_workload,
    use,
)

SpecFactory = Callable[[], ScenarioSpec]

# The default behavior mix of the population-scale family: a mostly honest
# market with every adversarial profile of the PR 3 library represented in
# roughly the proportions a deployed system would see.
POPULATION_BEHAVIOR_MIX: Mapping[Behavior, float] = {
    Behavior.HONEST: 0.80,
    Behavior.VIOLATING: 0.08,
    Behavior.NON_RESPONSIVE: 0.04,
    Behavior.STALE_ORACLE: 0.03,
    Behavior.TAMPERING_ORACLE: 0.02,
    Behavior.LATE_PAYER: 0.02,
    Behavior.CHURNED: 0.01,
}


def alice_bob_spec() -> ScenarioSpec:
    """The motivating Alice & Bob use case (Section II) as a declarative spec.

    Faithful, step for step, to the original hand-coded driver — the
    pinned results of ``run_alice_bob_scenario`` come from running this
    spec.  Housekeeping is off because the story scripts Bob's enforcement
    pass explicitly.
    """
    alice_res = "alice:/data/browsing-history.csv"
    bob_res = "bob:/data/medical-records.ttl"
    timeline = [
        index("alice-app", bob_res),
        index("bob-app", alice_res),
        access("alice-app", bob_res),
        access("bob-app", alice_res),
        check_holds("bob-app", alice_res, "bob_holds_alice_copy_initially"),
        check_holds("alice-app", bob_res, "alice_holds_bob_copy_initially"),
        use("alice-app", bob_res, purpose="medical-research"),
        use("bob-app", alice_res, purpose="web-analytics"),
        advance(2 * DAY),
        revise_policy(alice_res, retention_seconds=WEEK),
        revise_policy(
            bob_res,
            allowed_purposes=("academic-research", "medical-research"),
            retention_seconds=6 * MONTH,
        ),
        check_can_use(
            "alice-app", bob_res, "alice_can_still_use_bobs_data", purpose="medical-research"
        ),
        advance(6 * DAY),
        enforce("bob-app"),
        check_holds("bob-app", alice_res, "bob_copy_deleted_after_update", negate=True),
        check_can_use("bob-app", alice_res, "bob_use_blocked_after_deletion", negate=True),
        monitor(alice_res),
        monitor(bob_res),
    ]
    return ScenarioSpec(
        name="alice-bob",
        description=(
            "Alice shortens retention, Bob narrows purposes; Bob's TEE erases "
            "Alice's data after the new expiry while Alice keeps her access."
        ),
        participants=(
            ParticipantSpec("alice", "owner"),
            ParticipantSpec("bob", "owner"),
            ParticipantSpec(
                "alice-app", "consumer", purpose="medical-research", device_id="alice-device"
            ),
            ParticipantSpec(
                "bob-app", "consumer", purpose="web-analytics", device_id="bob-device"
            ),
        ),
        resources=(
            ResourceSpec(
                owner="alice",
                path="/data/browsing-history.csv",
                retention_seconds=MONTH,
                content=b"timestamp,url\n2026-01-01T10:00:00Z,https://example.org\n" * 64,
                metadata={"kind": "browsing-history"},
            ),
            ResourceSpec(
                owner="bob",
                path="/data/medical-records.ttl",
                allowed_purposes=("medical-research", "medical-treatment"),
                content=b"@prefix ex: <https://example.org/> . ex:bob ex:bloodPressure 120 .\n" * 32,
                metadata={"kind": "medical-records"},
            ),
        ),
        timeline=tuple(timeline),
        housekeeping=False,
    ).validate()


def negligent_holder_spec() -> ScenarioSpec:
    """A policy-violating consumer keeps an expired copy; monitoring catches it."""
    res = "olivia:/data/browsing.csv"
    return ScenarioSpec(
        name="negligent-holder",
        description=(
            "Two consumers hold a one-week-retention copy; the negligent one "
            "never runs its enforcement pass and is flagged after expiry."
        ),
        participants=(
            ParticipantSpec("olivia", "owner"),
            ParticipantSpec("carol-app", "consumer", purpose="web-analytics"),
            ParticipantSpec(
                "dave-app", "consumer", purpose="web-analytics", behavior=Behavior.VIOLATING
            ),
        ),
        resources=(ResourceSpec(owner="olivia", path="/data/browsing.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("carol-app", res),
            access("dave-app", res),
            use("carol-app", res),
            use("dave-app", res),
            advance(9 * DAY),
            monitor(res),
            check_holds("carol-app", res, "compliant_copy_deleted", negate=True),
            check_holds("dave-app", res, "negligent_copy_survives"),
        ),
    ).validate()


def unreachable_device_spec() -> ScenarioSpec:
    """A device that never answers monitoring yields a no-evidence violation."""
    res = "owen:/data/fitness.json"
    return ScenarioSpec(
        name="unreachable-device",
        description=(
            "A non-responsive device holds a copy: no policy pushes reach it "
            "and monitoring records 'no evidence provided' as a violation."
        ),
        participants=(
            ParticipantSpec("owen", "owner"),
            ParticipantSpec("hattie-app", "consumer", purpose="service-improvement"),
            ParticipantSpec(
                "ghost-app",
                "consumer",
                purpose="service-improvement",
                behavior=Behavior.NON_RESPONSIVE,
            ),
        ),
        resources=(ResourceSpec(owner="owen", path="/data/fitness.json",
                                retention_seconds=MONTH),),
        timeline=(
            access("hattie-app", res),
            access("ghost-app", res),
            advance(DAY),
            monitor(res),
        ),
    ).validate()


def byzantine_oracle_spec() -> ScenarioSpec:
    """A tampering oracle forges compliance; the signature check rejects it."""
    res = "ursula:/data/purchases.csv"
    return ScenarioSpec(
        name="byzantine-oracle",
        description=(
            "A Byzantine pull-in component rewrites its device's evidence to "
            "claim compliance and hide the usage trail; lacking the enclave "
            "key, the forged body fails verification and is recorded as a "
            "violation."
        ),
        participants=(
            ParticipantSpec("ursula", "owner"),
            ParticipantSpec("honest-app", "consumer", purpose="marketing"),
            ParticipantSpec(
                "forger-app", "consumer", purpose="marketing",
                behavior=Behavior.TAMPERING_ORACLE,
            ),
        ),
        resources=(ResourceSpec(owner="ursula", path="/data/purchases.csv",
                                retention_seconds=MONTH),),
        timeline=(
            access("honest-app", res),
            access("forger-app", res),
            use("forger-app", res),
            advance(DAY),
            monitor(res),
        ),
    ).validate()


def stale_oracle_spec() -> ScenarioSpec:
    """A stale oracle replays old evidence; the freshness check flags round two."""
    res = "sam:/data/locations.csv"
    return ScenarioSpec(
        name="stale-oracle-replay",
        description=(
            "The device's oracle replays its first (validly signed) answer in "
            "every later round; the first round passes, the replay is flagged "
            "as stale."
        ),
        participants=(
            ParticipantSpec("sam", "owner"),
            ParticipantSpec(
                "replay-app", "consumer", purpose="public-interest",
                behavior=Behavior.STALE_ORACLE,
            ),
        ),
        resources=(ResourceSpec(owner="sam", path="/data/locations.csv",
                                retention_seconds=6 * MONTH),),
        timeline=(
            access("replay-app", res),
            advance(DAY),
            monitor(res),      # fresh answer, cached by the faulty oracle
            advance(3 * DAY),
            monitor(res),      # replayed answer: stale, flagged
        ),
    ).validate()


def late_payer_spec() -> ScenarioSpec:
    """A consumer pays late: refused without the fee, served after, never flagged."""
    res = "petra:/data/social-graph.json"
    return ScenarioSpec(
        name="late-payer",
        description=(
            "The consumer's first retrieval is refused for lack of a market-fee "
            "certificate; after subscribing and paying it is served normally "
            "and stays compliant — tardiness is not a policy violation."
        ),
        participants=(
            ParticipantSpec("petra", "owner"),
            ParticipantSpec(
                "frugal-app", "consumer", purpose="academic-research",
                behavior=Behavior.LATE_PAYER,
            ),
        ),
        resources=(
            ResourceSpec(
                owner="petra",
                path="/data/social-graph.json",
                allowed_purposes=("academic-research",),
            ),
        ),
        timeline=(
            access("frugal-app", res),
            use("frugal-app", res),
            advance(2 * DAY),
            monitor(res),
            check_holds("frugal-app", res, "late_payer_holds_copy"),
        ),
    ).validate()


def churned_pod_spec() -> ScenarioSpec:
    """A device churns mid-retention; the revised policy can no longer reach it."""
    res = "clara:/data/medical.ttl"
    return ScenarioSpec(
        name="churn-mid-retention",
        description=(
            "Both devices hold a copy; one churns.  The owner then shortens "
            "retention: the live device erases its copy, the churned one "
            "neither applies the update nor answers monitoring."
        ),
        participants=(
            ParticipantSpec("clara", "owner"),
            ParticipantSpec("steady-app", "consumer", purpose="medical-research"),
            ParticipantSpec(
                "flaky-app", "consumer", purpose="medical-research",
                behavior=Behavior.CHURNED,
            ),
        ),
        resources=(ResourceSpec(owner="clara", path="/data/medical.ttl",
                                retention_seconds=MONTH),),
        timeline=(
            access("steady-app", res),
            access("flaky-app", res),
            advance(2 * DAY),
            churn("flaky-app"),
            revise_policy(res, retention_seconds=DAY),
            check_holds("steady-app", res, "live_copy_erased_on_update", negate=True),
            check_holds("flaky-app", res, "churned_copy_survives"),
            monitor(res),
        ),
    ).validate()


def revocation_playbook_spec() -> ScenarioSpec:
    """Detected violators are revoked and excluded from the next round."""
    res = "rita:/data/browsing.csv"
    return ScenarioSpec(
        name="revocation-playbook",
        description=(
            "With violation response enabled, the owner's responder revokes "
            "the flagged device's grant, ACL entry, and certificate; the "
            "second monitoring round only reaches the compliant device."
        ),
        participants=(
            ParticipantSpec("rita", "owner"),
            ParticipantSpec("good-app", "consumer", purpose="web-analytics"),
            ParticipantSpec(
                "bad-app", "consumer", purpose="web-analytics",
                behavior=Behavior.VIOLATING,
            ),
        ),
        resources=(ResourceSpec(owner="rita", path="/data/browsing.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("good-app", res),
            access("bad-app", res),
            advance(8 * DAY),
            monitor(res),   # bad-app flagged; responder revokes it
            advance(DAY),
            monitor(res),   # bad-app no longer a holder
        ),
        respond_to_violations=True,
    ).validate()


def revocation_recovery_spec() -> ScenarioSpec:
    """The full violation-response cascade: revoke, refuse, re-pay, re-admit."""
    res = "ruth:/data/browsing.csv"
    return ScenarioSpec(
        name="revocation-recovery",
        description=(
            "A flagged violator is revoked (grant, pod ACL, certificate); its "
            "bare re-access attempt is refused, re-purchasing the certificate "
            "alone is not enough, and only after the owner re-grants the ACL "
            "is it served again — re-entering monitoring with a fresh copy."
        ),
        participants=(
            ParticipantSpec("ruth", "owner"),
            ParticipantSpec("good-app", "consumer", purpose="web-analytics"),
            ParticipantSpec(
                "bad-app", "consumer", purpose="web-analytics",
                behavior=Behavior.VIOLATING,
            ),
        ),
        resources=(ResourceSpec(owner="ruth", path="/data/browsing.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("good-app", res),
            access("bad-app", res),
            advance(8 * DAY),
            monitor(res),   # bad-app flagged; the responder revokes it
            attempt_access("bad-app", res, fact="denied_after_revocation", negate=True),
            attempt_access("good-app", res, fact="honest_reaccess_served"),
            repurchase_certificate("bad-app", res),
            attempt_access("bad-app", res, fact="certificate_alone_insufficient",
                           negate=True),
            regrant("bad-app", res),
            attempt_access("bad-app", res, fact="served_after_regrant"),
            advance(DAY),
            monitor(res),   # the re-admitted device is a compliant holder again
            check_holds("bad-app", res, "readmitted_copy_held"),
        ),
        respond_to_violations=True,
    ).validate()


def expired_reaccess_spec() -> ScenarioSpec:
    """Re-access of a deleted copy: retention erased it, a fresh fetch re-seals it."""
    res = "ezra:/data/telemetry.csv"
    return ScenarioSpec(
        name="expired-reaccess",
        description=(
            "An honest consumer's copy is erased by its own TEE when the "
            "retention lapses; with grant and certificate intact, a later "
            "re-access is served and seals a fresh copy whose retention "
            "clock starts anew."
        ),
        participants=(
            ParticipantSpec("ezra", "owner"),
            ParticipantSpec("reader-app", "consumer", purpose="service-improvement"),
        ),
        resources=(ResourceSpec(owner="ezra", path="/data/telemetry.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("reader-app", res),
            use("reader-app", res),
            advance(9 * DAY),
            monitor(res),   # housekeeping erased the copy first: compliant
            check_holds("reader-app", res, "expired_copy_deleted", negate=True),
            attempt_access("reader-app", res, fact="deleted_copy_reaccess_served"),
            check_holds("reader-app", res, "fresh_copy_held"),
            advance(DAY),
            monitor(res),   # the fresh copy is well inside its new retention
        ),
    ).validate()


def byzantine_validator_spec() -> ScenarioSpec:
    """A 3-validator market where one validator equivocates mid-run.

    The usage-control story is ordinary — two consumers access and use a
    monitored resource — but the chain underneath is a replicated
    3-validator network whose third validator double-seals its slot between
    the accesses and the monitoring round.  The conformance suite asserts
    that every honest replica converges to the same head, that the
    slashable equivocation proof names validator 2, that
    ``verify_chain(replay=True)`` passes on the canonical chain, and that
    the violation ledger still closes (the negligent holder is flagged as
    if consensus had never been attacked).
    """
    res = "vera:/data/sensor-feed.csv"
    return ScenarioSpec(
        name="byzantine-validator",
        description=(
            "One of three PoA validators seals two conflicting blocks for "
            "the same slot; fork-choice converges the honest replicas, the "
            "double-seal is recorded as a slashable proof, and monitoring "
            "results are unaffected."
        ),
        participants=(
            ParticipantSpec("vera", "owner"),
            ParticipantSpec("tidy-app", "consumer", purpose="web-analytics"),
            ParticipantSpec(
                "messy-app", "consumer", purpose="web-analytics",
                behavior=Behavior.VIOLATING,
            ),
        ),
        resources=(ResourceSpec(owner="vera", path="/data/sensor-feed.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("tidy-app", res),
            access("messy-app", res),
            use("tidy-app", res),
            equivocate(2),
            use("messy-app", res),
            advance(9 * DAY),
            monitor(res),
        ),
        validators=3,
    ).validate()


def validator_churn_spec() -> ScenarioSpec:
    """Exercise the on-chain validator registry: join, slash, leave.

    A durable 4-validator deployment runs in epoch-aware mode
    (``epoch_length=4``): the Aura rotation is re-derived from the
    validator-registry contract at every epoch boundary.  A fifth replica
    joins mid-run by bonding a deposit through an ordinary transaction and
    starts proposing at the next boundary.  Validator 2 then equivocates;
    the double-seal proof is submitted back to the registry as a signed
    slash transaction, the contract re-verifies it, burns the bond, and the
    next epoch's rotation excludes the culprit on every replica — no
    skipped slots once the boundary passes.  Validator 3 is hard-crashed
    after the slash and cold-started from disk to prove the state-derived
    rotation survives recovery, and the joined validator finally leaves,
    entering cool-down.  The usage-control story (walt's ledger served to a
    reader app) is unaffected throughout.
    """
    res = "walt:/data/ledger.csv"
    return ScenarioSpec(
        name="validator-churn",
        description=(
            "A durable 4-validator epoch-aware deployment admits a fifth "
            "validator through a bonded join transaction, slashes an "
            "equivocator on-chain (proof verified by the registry contract, "
            "bond burned, rotation excludes it at the next epoch), "
            "cold-starts a crashed follower from disk after the slash, and "
            "processes a leave — while the market keeps serving."
        ),
        participants=(
            ParticipantSpec("walt", "owner"),
            ParticipantSpec("reader-app", "consumer", purpose="service-improvement"),
        ),
        resources=(ResourceSpec(owner="walt", path="/data/ledger.csv",
                                retention_seconds=MONTH),),
        timeline=(
            access("reader-app", res),
            join_validator(4),
            use("reader-app", res),
            equivocate(2),
            advance(DAY),
            monitor(res),
            crash_validator(3),
            restart_validator(3),
            leave_validator(4),
            advance(DAY),
            monitor(res),
        ),
        validators=4,
        durable=True,
        snapshot_interval=4,
        max_reorg_depth=4,
        epoch_length=4,
    ).validate()


def durable_churn_spec() -> ScenarioSpec:
    """Hard-crash a durable validator mid-run and cold-start it from disk.

    A 3-validator deployment persists every replica's chain (block log,
    finality snapshots every 4 blocks, reorg window 4).  Validator 1 is
    killed -9 mid-run — its store is abandoned un-synced with a torn record
    at the log tail — while the market keeps operating through the
    remaining replicas.  The restart rebuilds it from disk: every record
    checksum re-verified, the torn tail truncated, the chain cold-started
    from the best promoted snapshot plus a re-executed tail, and the
    missing blocks resynced from peers.  The conformance suite asserts the
    restarted replica passes ``verify_chain(replay=True)``, that every
    replica converges on one head, and that the violation ledger closes as
    if the crash had never happened.
    """
    res = "dana:/data/turbine-logs.csv"
    return ScenarioSpec(
        name="durable-churn",
        description=(
            "A durable 3-validator deployment hard-crashes one replica "
            "(kill -9: unacknowledged tail, torn tail record) and rebuilds it "
            "from its chain store; recovery truncates the garbage, "
            "cold-starts from a finality snapshot, resyncs the rest from "
            "peers, and the market's monitoring results are unaffected."
        ),
        participants=(
            ParticipantSpec("dana", "owner"),
            ParticipantSpec("steady-app", "consumer", purpose="predictive-maintenance"),
            ParticipantSpec(
                "sloppy-app", "consumer", purpose="predictive-maintenance",
                behavior=Behavior.VIOLATING,
            ),
        ),
        resources=(ResourceSpec(owner="dana", path="/data/turbine-logs.csv",
                                retention_seconds=WEEK),),
        timeline=(
            access("steady-app", res),
            access("sloppy-app", res),
            use("steady-app", res),
            crash_validator(1),
            use("sloppy-app", res),
            advance(DAY),
            monitor(res),
            restart_validator(1),
            advance(8 * DAY),
            monitor(res),
        ),
        validators=3,
        durable=True,
        snapshot_interval=4,
        max_reorg_depth=4,
    ).validate()


POPULATION_SETUP_COHORT = 250


def population_spec(num_consumers: int = 1000, num_owners: int = 2,
                    seed: int = 2026,
                    behavior_mix: Optional[Mapping[Behavior, float]] = None,
                    name: Optional[str] = None,
                    setup_cohort: Optional[int] = POPULATION_SETUP_COHORT,
                    monitor_workers: int = 1) -> ScenarioSpec:
    """The population-scale family: thousands of consumers, mixed profiles.

    Built through :func:`~repro.core.spec.spec_from_workload` from one seed,
    so ``population_spec(2000, seed=7)`` is the same scenario everywhere —
    the benchmarks, the library, and a failure replay all agree on it.
    Owners each publish one resource; every consumer accesses one resource
    and uses it once, then every resource is monitored after nine days.
    Setup registers/funds/onboards consumers one cohort per block
    (*setup_cohort*, default 250), so the setup phase seals
    O(population / cohort) blocks instead of O(population).
    """
    from repro.sim.workload import WorkloadConfig

    config = WorkloadConfig(
        num_owners=num_owners,
        num_consumers=num_consumers,
        resources_per_owner=1,
        reads_per_consumer=1,
        seed=seed,
    )
    spec = spec_from_workload(
        config,
        random.Random(seed),
        behavior_mix=behavior_mix if behavior_mix is not None else POPULATION_BEHAVIOR_MIX,
        name=name or f"population-{num_consumers}",
        setup_cohort=setup_cohort,
    )
    if monitor_workers != 1:
        spec = dataclasses.replace(spec, monitor_workers=monitor_workers)
    return spec


def bounded_use_spec() -> ScenarioSpec:
    """A max-access policy: the TEE deletes the copy at the use ceiling."""
    res = "max:/data/panel.csv"
    return ScenarioSpec(
        name="bounded-use",
        description=(
            "The policy allows three uses; the third use triggers the "
            "deletion duty inside the TEE, and the next use is refused."
        ),
        participants=(
            ParticipantSpec("max", "owner"),
            ParticipantSpec("metered-app", "consumer", purpose="marketing"),
        ),
        resources=(ResourceSpec(owner="max", path="/data/panel.csv", max_accesses=3),),
        timeline=(
            access("metered-app", res),
            use("metered-app", res),
            use("metered-app", res),
            use("metered-app", res),
            use("metered-app", res),   # refused: the copy is gone
            check_holds("metered-app", res, "copy_deleted_at_ceiling", negate=True),
            monitor(res),
        ),
    ).validate()


def market_rush_spec() -> ScenarioSpec:
    """A busy honest market: several owners, consumers, and clean rounds."""
    r1 = "oak:/data/browsing.csv"
    r2 = "oak:/data/fitness.json"
    r3 = "pine:/data/purchases.csv"
    return ScenarioSpec(
        name="market-rush",
        description=(
            "Two owners, three honest consumers, overlapping accesses and "
            "uses; every monitoring round is compliant and the money adds up."
        ),
        participants=(
            ParticipantSpec("oak", "owner"),
            ParticipantSpec("pine", "owner"),
            ParticipantSpec("app-1", "consumer", purpose="web-analytics"),
            ParticipantSpec("app-2", "consumer", purpose="marketing"),
            ParticipantSpec("app-3", "consumer", purpose="service-improvement"),
        ),
        resources=(
            ResourceSpec(owner="oak", path="/data/browsing.csv", retention_seconds=MONTH),
            ResourceSpec(owner="oak", path="/data/fitness.json", retention_seconds=MONTH),
            ResourceSpec(owner="pine", path="/data/purchases.csv", retention_seconds=MONTH),
        ),
        timeline=(
            access("app-1", r1),
            access("app-2", r1),
            access("app-2", r3),
            access("app-3", r2),
            access("app-3", r3),
            use("app-1", r1),
            use("app-2", r3),
            use("app-3", r2),
            advance(12 * HOUR),
            monitor(r1),
            monitor(r2),
            monitor(r3),
        ),
    ).validate()


SCENARIO_LIBRARY: Dict[str, SpecFactory] = {
    "alice-bob": alice_bob_spec,
    "negligent-holder": negligent_holder_spec,
    "unreachable-device": unreachable_device_spec,
    "byzantine-oracle": byzantine_oracle_spec,
    "stale-oracle-replay": stale_oracle_spec,
    "late-payer": late_payer_spec,
    "churn-mid-retention": churned_pod_spec,
    "revocation-playbook": revocation_playbook_spec,
    "revocation-recovery": revocation_recovery_spec,
    "expired-reaccess": expired_reaccess_spec,
    "bounded-use": bounded_use_spec,
    "market-rush": market_rush_spec,
    "byzantine-validator": byzantine_validator_spec,
    "validator-churn": validator_churn_spec,
    "durable-churn": durable_churn_spec,
    # A small member of the population family so the fast suite exercises
    # the mixed-profile path end to end; the benchmarks scale it to 1k-5k.
    "population-demo": lambda: population_spec(num_consumers=60, seed=2026,
                                               name="population-demo"),
}


def get_scenario(name: str) -> ScenarioSpec:
    """Build the named scenario spec (raises KeyError for unknown names)."""
    return SCENARIO_LIBRARY[name]()
