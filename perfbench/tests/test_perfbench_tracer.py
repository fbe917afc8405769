"""Self-tests of the benchmark's tracer and run checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

import layers
import run
import worker
import workloads
from tracer import Target, Tracer, _resolve

SMALL_SIZES = {"MARKET_CONSUMERS": 12, "SHARDED_CONSUMERS": 12, "DURABLE_CONSUMERS": 10}


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    for name, value in SMALL_SIZES.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(worker, "OUT", tmp_path)
    return tmp_path


def _bindings(targets):
    """Every attribute a tracer would patch: each owner and each repro alias."""
    bound = {}
    for target in targets:
        owner, attr, raw = _resolve(target.path)
        bound[(id(owner), attr)] = (owner, attr, raw)
        if isinstance(owner, type):
            continue
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is raw:
                    bound[(id(module), alias)] = (module, alias, raw)
    return bound


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_traced_run_restores_every_wrapped_function(small_workloads):
    targets = layers.PROBES + layers.LAYERS
    before = _bindings(targets)
    assert len(before) > len(targets)  # aliases such as monitoring.verify_signature
    worker.run_once("durable-replicas", seed=5, trace=True)
    for owner, attr, raw in before.values():
        assert _current(owner, attr) is raw, f"{owner!r}.{attr} was not restored"
    assert os.fsync.__name__ == "fsync"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_hash_and_reports_every_layer(small_workloads, workload):
    untraced = worker.run_once(workload, seed=3, trace=False)
    traced = worker.run_once(workload, seed=3, trace=True)
    assert traced["head"] == untraced["head"]
    assert traced["totalGas"] == untraced["totalGas"]
    for record in (untraced, traced):
        assert all(record["checks"].values()), record["checks"]
        assert record["failures"]["count"] == 0, record["failures"]
    expected = set(layers.PER_LAYER) - {"trace.overhead"}
    assert set(traced["layers"]) == expected
    idle = ("store.append.calls", "network.blocks_delivered", "network.resync_s")
    durable = workloads.WORKLOADS[workload](3).durable
    assert all(bool(traced["layers"][name]) == durable for name in idle)
    assert (small_workloads / f"spans-{workload}-seed3.json").exists()
    assert not any(path.name.startswith("tmp-") for path in small_workloads.iterdir())


def test_self_times_of_nested_spans_sum_to_the_parent_duration():
    import spanfixture

    tracer = Tracer([
        Target("spanfixture:outer", "outer"),
        Target("spanfixture:middle", "middle"),
        Target("spanfixture:inner", "inner"),
    ])
    with tracer:
        spanfixture.outer(20000)
    assert tracer.calls == [1, 2, 5]
    selfs = tracer.self_times()
    children = {}
    for span, parent in enumerate(tracer.span_parent):
        children.setdefault(parent, []).append(span)
    for span in range(len(selfs)):
        nested = sum(tracer.duration(child) for child in children.get(span, []))
        assert selfs[span] >= 0
        assert selfs[span] + nested == pytest.approx(tracer.duration(span), abs=1e-9)
    (root,) = tracer.spans_named("outer")
    assert sum(selfs[span] for span in tracer.subtree(root)) == pytest.approx(
        tracer.duration(root), abs=1e-9
    )
    assert spanfixture.outer.__name__ == "outer"


def test_missed_violations_are_counted_by_behaviour(small_workloads, monkeypatch):
    """Known defect, counted rather than filtered: a stale oracle's replay
    cache is filled inside the forked round worker and dies with it, so on
    two workers every round after a resource's first misses each stale
    holder's replay violation (why ``rounds-sharded`` leaves them out)."""
    from repro.core.scenario_library import population_spec
    from repro.core.spec import Behavior

    def stale_sharded(seed):
        spec = population_spec(num_consumers=40, seed=seed,
                               monitor_workers=workloads.ROUND_WORKERS)
        return workloads.monitored_periodically(spec, workloads.EXTRA_ROUNDS)

    monkeypatch.setitem(worker.WORKLOADS, "stale-sharded", stale_sharded)
    stale = sum(
        1 for p in stale_sharded(4).consumers() if p.behavior is Behavior.STALE_ORACLE
    )
    assert stale > 0
    record = worker.run_once("stale-sharded", seed=4, trace=False)
    missed = stale * workloads.EXTRA_ROUNDS
    assert record["failures"]["missedByBehavior"] == {"stale-oracle": missed}
    assert record["failures"]["count"] == missed
    assert all(record["checks"].values())


def test_silent_fallback_of_a_sharded_round_fails_the_run(small_workloads, monkeypatch):
    def no_fork():
        raise OSError("fork disabled")

    monkeypatch.setattr(os, "fork", no_fork)
    record = worker.run_once("rounds-sharded", seed=3, trace=False)
    rounds = sum(step.kind == "monitor" for step in workloads.rounds_sharded(3).timeline)
    assert record["fallbackRounds"] == rounds
    assert record["checks"]["noFallbackRounds"] is False


def test_benchmark_json_matches_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_failed_install_restores_what_it_patched():
    import spanfixture

    original = spanfixture.outer
    tracer = Tracer([Target("spanfixture:outer", "outer"), Target("spanfixture:gone", "gone")])
    with pytest.raises(AttributeError):
        tracer.install()
    assert spanfixture.outer is original
