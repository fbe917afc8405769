"""The Alice & Bob motivating scenario (Section II), end to end.

Alice owns internet-browsing data with a one-month retention policy; Bob owns
medical data restricted to medical purposes.  Both trade on the market: Alice
(a healthcare researcher) retrieves Bob's medical dataset, Bob (a web data
analyst) retrieves Alice's browsing dataset.  After two days Alice shortens
her retention to one week and Bob narrows his allowed purpose to academic
pursuits; the paper requires that:

* Alice's browsing data is erased from Bob's device once the *new* expiry
  lapses, enforced automatically by Bob's TEE;
* Bob's purpose change does not cut off Alice, because her application is in
  the medical/academic research domain for a university hospital.

The story is expressed declaratively as
:func:`repro.core.scenario_library.alice_bob_spec` and executed by the
:class:`~repro.core.runner.ScenarioRunner`; :func:`run_alice_bob_scenario`
is the convenience wrapper that runs it.  The paper's assertion points are
``result.facts["alice_can_still_use_bobs_data"]``,
``result.facts["bob_copy_deleted_after_update"]`` and
``result.facts["bob_use_blocked_after_deletion"]``; the two resources are
``result.resource_ids["alice:/data/browsing-history.csv"]`` and
``result.resource_ids["bob:/data/medical-records.ttl"]``.  The result also
carries the per-process traces and the per-phase gas/block accounting every
scenario run has.
"""

from __future__ import annotations

from repro.core.runner import ScenarioResult, ScenarioRunner
from repro.core.scenario_library import alice_bob_spec

__all__ = ["ScenarioResult", "run_alice_bob_scenario"]


def run_alice_bob_scenario() -> ScenarioResult:
    """Run the full motivating use case and return its observable outcomes."""
    return ScenarioRunner(alice_bob_spec()).run()
