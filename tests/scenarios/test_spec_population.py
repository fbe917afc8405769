"""`spec_from_workload` at population scale: determinism, counts, mix.

The population-scale scenario family is built from a single seed; these
tests pin the properties the benchmarks and the library rely on:

* the derived spec is a pure function of (config, seed) — building it twice
  yields equal specs, and the runner reproduces identical outcomes;
* requested participant counts are honored exactly;
* a requested behavior mix is realized with exact quotas (largest-remainder
  rounding), shuffled across the population by the seeded rng;
* ``CHURNED`` consumers get a scripted ``churn`` step, and population specs
  raise the genesis supply enough to fund everyone.
"""

import random
from collections import Counter

import pytest

from repro.common.errors import ValidationError
from repro.core.runner import ScenarioRunner
from repro.core.scenario_library import POPULATION_BEHAVIOR_MIX, population_spec
from repro.core.spec import Behavior, ScenarioSpec, behavior_quotas, spec_from_workload
from repro.sim.workload import WorkloadConfig

MIX = {
    Behavior.HONEST: 0.7,
    Behavior.VIOLATING: 0.2,
    Behavior.CHURNED: 0.1,
}


def build(num_consumers=200, seed=99, mix=MIX):
    config = WorkloadConfig(num_owners=3, num_consumers=num_consumers,
                            resources_per_owner=2, reads_per_consumer=1, seed=seed)
    return spec_from_workload(config, random.Random(seed), behavior_mix=mix,
                              name="population-test")


def test_population_spec_is_deterministic_given_seed():
    assert build() == build()
    assert build(seed=100) != build(seed=99)


def test_population_spec_round_trips_through_json():
    spec = build()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_participant_counts_are_honored():
    spec = build(num_consumers=137)
    assert len(spec.owners()) == 3
    assert len(spec.consumers()) == 137
    assert len(spec.resources) == 6


def test_participants_are_found_by_name():
    spec = build(num_consumers=137)
    for participant in spec.participants:
        assert spec.participant(participant.name) is participant
    with pytest.raises(ValidationError, match="unknown participant"):
        spec.participant("nobody")


def test_behavior_mix_matches_requested_proportions_exactly():
    spec = build(num_consumers=200)
    counts = Counter(p.behavior for p in spec.consumers())
    assert counts[Behavior.HONEST] == 140
    assert counts[Behavior.VIOLATING] == 40
    assert counts[Behavior.CHURNED] == 20


def test_behavior_quotas_distribute_remainders_deterministically():
    quotas = behavior_quotas(10, {Behavior.HONEST: 0.5, Behavior.VIOLATING: 0.25,
                                  Behavior.LATE_PAYER: 0.25})
    # 5 / 2.5 / 2.5 -> floors 5 / 2 / 2, the leftover seat goes to the tied
    # largest remainder with the smaller behavior value ("late-payer").
    assert quotas == {Behavior.HONEST: 5, Behavior.LATE_PAYER: 3,
                      Behavior.VIOLATING: 2}
    # Weights that do not divide the population still cover it exactly.
    quotas = behavior_quotas(7, {Behavior.HONEST: 1, Behavior.VIOLATING: 1,
                                 Behavior.CHURNED: 1})
    assert sum(quotas.values()) == 7
    assert all(2 <= count <= 3 for count in quotas.values())


def test_behavior_quotas_reject_degenerate_weights():
    with pytest.raises(ValidationError):
        behavior_quotas(10, {Behavior.HONEST: 0.0})
    with pytest.raises(ValidationError):
        behavior_quotas(10, {Behavior.HONEST: -1.0, Behavior.VIOLATING: 2.0})


def test_churned_consumers_get_a_scripted_churn_step():
    spec = build(num_consumers=50)
    churned = {p.name for p in spec.consumers() if p.behavior is Behavior.CHURNED}
    churn_steps = {s.participant for s in spec.timeline if s.kind == "churn"}
    assert churned and churn_steps == churned


def test_population_spec_scales_the_genesis_supply():
    spec = build(num_consumers=400)
    assert spec.operator_funds >= 2 * 50_000_000 * 400


def test_behavior_mix_accepts_string_keys():
    spec = build(mix={"honest": 0.5, "violating-consumer": 0.5})
    counts = Counter(p.behavior for p in spec.consumers())
    assert counts[Behavior.HONEST] == 100
    assert counts[Behavior.VIOLATING] == 100


def test_library_population_family_runs_and_closes_its_ledger():
    """A small member of the 1k–5k family: every profile present, ledger closed."""
    spec = population_spec(num_consumers=100, seed=11, name="population-ci")
    behaviors = Counter(p.behavior for p in spec.consumers())
    expected = behavior_quotas(100, POPULATION_BEHAVIOR_MIX)
    assert behaviors == Counter({b: n for b, n in expected.items() if n})

    result = ScenarioRunner(spec).run()
    assert result.ledger.matches
    assert result.mispredictions == []
    # The mixed adversarial minority is actually detected.
    assert len(result.ledger.observed) > 0
    rerun = ScenarioRunner(spec).run()
    assert [v.key for v in rerun.ledger.observed] == [v.key for v in result.ledger.observed]
    assert rerun.facts["chain_height"] == result.facts["chain_height"]
