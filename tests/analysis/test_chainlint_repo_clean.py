"""The chainlint gate: the repo's own contract layer must stay clean.

The gate mirrors the CI job exactly — same paths, same off-chain
subscription cross-check, same justified baseline.  The mutation tests
prove the gate has teeth: re-introducing a single nondeterministic call or
journal-bypassing mutation into real contract source is flagged with the
right rule id at the right line.
"""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, analyze_source, load_baseline
from repro.analysis.engine import find_suppressions

REPO = Path(__file__).resolve().parents[2]
CONTRACT_PATHS = [
    REPO / "src/repro/contracts",
    REPO / "src/repro/blockchain/vm.py",
    # The chain store writes the durable contract registry and replays
    # contract-created state on cold start — its surfaces face the same
    # determinism discipline as the layer it persists.  Its one `os`
    # import (fsync/atomic-rename durability) carries a justified inline
    # suppression.
    REPO / "src/repro/blockchain/storage.py",
]
OFFCHAIN_PATHS = [
    REPO / "src/repro/blockchain/node.py",
    REPO / "src/repro/oracles",
    REPO / "src/repro/core",
]
BASELINE = Path(__file__).parent / "chainlint_baseline.json"


def test_contract_layer_is_chainlint_clean():
    analyzer = Analyzer()
    findings = analyzer.analyze_paths(CONTRACT_PATHS, offchain=OFFCHAIN_PATHS)
    fresh, _ = Analyzer.apply_baseline(findings, load_baseline(BASELINE))
    assert fresh == [], "new chainlint findings:\n" + "\n".join(f.format() for f in fresh)


def test_contract_layer_carries_no_inline_suppressions():
    """Contracts are clean without exceptions: a finding there is fixed, not
    silenced on its line."""
    suppressed = {
        f"{path.relative_to(REPO)}:{line}"
        for path in (REPO / "src/repro/contracts").rglob("*.py")
        for line in find_suppressions(path.read_text())
    }
    assert suppressed == set()


def test_baseline_entries_all_carry_justifications():
    # load_baseline raises on a justification-less entry; loading is the test.
    load_baseline(BASELINE)


def _inject(path: Path, anchor: str, statement: str):
    """Insert *statement* right after *anchor* in *path*'s source.

    Returns (mutated_source, 1-based line of the injected statement).
    """
    lines = path.read_text().splitlines()
    index = lines.index(anchor)
    lines.insert(index + 1, statement)
    return "\n".join(lines) + "\n", index + 2


def test_reintroduced_randomness_is_flagged_at_the_injected_line():
    source, line = _inject(
        REPO / "src/repro/contracts/market.py",
        '        amount = self.storage.get_entry("earnings", beneficiary, 0)',
        "        amount += int(random.random())",
    )
    findings = analyze_source(source, filename="market.py")
    assert ("DET002", line) in {(f.rule_id, f.line) for f in findings}


def test_reintroduced_raw_dict_mutation_is_flagged_at_the_injected_line():
    source, line = _inject(
        REPO / "src/repro/contracts/market.py",
        '        amount = self.storage.get_entry("earnings", beneficiary, 0)',
        '        self.storage.get("earnings", {})[beneficiary] = 0',
    )
    findings = analyze_source(source, filename="market.py")
    assert ("STO003", line) in {(f.rule_id, f.line) for f in findings}


def test_reintroduced_whole_slot_rmw_is_flagged():
    source, line = _inject(
        REPO / "src/repro/contracts/oracle_hub.py",
        '        self.storage.delete_entry("pending_index", str(request_id))',
        '        record["late"] = True\n'
        '        self.storage[f"request:{request_id}"] = record',
    )
    findings = analyze_source(source, filename="oracle_hub.py")
    assert ("STO002", line + 1) in {(f.rule_id, f.line) for f in findings}


def test_registry_contract_reintroduced_nondeterminism_is_flagged():
    """The validator registry is inside the gate: a wall-clock read in the
    slash path lands as a fresh DET finding at its own line."""
    source, line = _inject(
        REPO / "src/repro/contracts/validator_registry.py",
        '        bond = record.get("bond", 0)',
        "        record['slashedAt'] = time.time()",
    )
    findings = analyze_source(source, filename="validator_registry.py")
    assert ("DET002", line) in {(f.rule_id, f.line) for f in findings}


def test_storage_layer_reintroduced_banned_import_is_flagged():
    """Nondeterminism slipping into the chain store is caught, not baselined.

    The one sanctioned `os` import rides an inline justification; any new
    banned module lands as a fresh DET001 at its own line.
    """
    source, line = _inject(
        REPO / "src/repro/blockchain/storage.py",
        "import hashlib",
        "import random",
    )
    findings = analyze_source(source, filename="storage.py")
    assert ("DET001", line) in {(f.rule_id, f.line) for f in findings}


def test_storage_layer_os_suppression_is_inline_not_baselined():
    """storage.py's `os` usage must stay justified in-source, never drift
    into the shared baseline file where it would mask other DET001s."""
    assert not any(
        entry.file.endswith("storage.py") for entry in load_baseline(BASELINE)
    )


def test_offchain_subscriptions_all_match_emitted_events():
    """Every subscribe/add_filter/get_logs event literal has an emitter."""
    analyzer = Analyzer()
    analyzer.analyze_paths(CONTRACT_PATHS)
    findings = analyzer.finish(
        sorted(p for root in OFFCHAIN_PATHS
               for p in ([root] if root.is_file() else root.rglob("*.py")))
    )
    evt = [f for f in findings if f.rule_id == "EVT002"]
    assert evt == [], "\n".join(f.format() for f in evt)
