"""Pull-in oracle.

Pull-based, in-bound: a contract *requests* data that an off-chain provider
must supply.  The on-chain half is the
:class:`~repro.contracts.oracle_hub.OracleRequestHub` request queue; the
off-chain half (this class) watches for requests, obtains the answer from a
registered provider callback, and posts it back with a transaction.

The architecture uses the pattern during policy monitoring (Fig. 2.6): "the
DE App ... communicates with all devices that have a copy of the resource in
their Trusted Execution Environment via the Pull-in Oracle.  The Pull-in
Oracle, then, requests evidence that the usage policies are being adhered
to."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import ValidationError
from repro.blockchain.transaction import Receipt
from repro.oracles.base import OracleComponent

# A provider receives the request payload and returns the off-chain answer.
RequestProvider = Callable[[Dict[str, Any]], Dict[str, Any]]

# Injectable fault modes (adversarial/faulty off-chain component, used by the
# scenario engine's behavior profiles):
#
# * ``unresponsive`` — the component never posts a fulfillment; the request
#   stays pending and the monitoring round records "no evidence provided".
# * ``stale-replay`` — the component answers, but replays the first response
#   it ever produced for the same (kind, resource) instead of asking its
#   provider again.  The replayed evidence carries a valid enclave signature
#   over *old* data, so only a freshness check catches it.
# * ``tamper-compliant`` — the component rewrites the provider's answer to
#   claim compliance and hides the usage trail.  It has no enclave key, so
#   the rewritten body no longer matches the enclave signature.
FAULT_UNRESPONSIVE = "unresponsive"
FAULT_STALE_REPLAY = "stale-replay"
FAULT_TAMPER = "tamper-compliant"
FAULT_MODES = (FAULT_UNRESPONSIVE, FAULT_STALE_REPLAY, FAULT_TAMPER)


class PullInOracle(OracleComponent):
    """Answers on-chain data requests with off-chain information."""

    def _providers(self) -> Dict[str, RequestProvider]:
        if not hasattr(self, "_provider_map"):
            self._provider_map: Dict[str, RequestProvider] = {}
        return self._provider_map

    def register_provider(self, kind: str, provider: RequestProvider) -> None:
        """Register the callable that answers requests of the given *kind*."""
        self._providers()[kind] = provider

    # -- fault injection --------------------------------------------------------

    @property
    def fault_mode(self) -> Optional[str]:
        """The currently injected fault, or None for a healthy component."""
        return getattr(self, "_fault_mode", None)

    def inject_fault(self, mode: Optional[str]) -> None:
        """Make this off-chain component faulty (or healthy again with None)."""
        if mode is not None and mode not in FAULT_MODES:
            raise ValidationError(f"unknown pull-in fault mode {mode!r}")
        self._fault_mode = mode

    def _replay_cache(self) -> Dict[Tuple[str, Any], Dict[str, Any]]:
        if not hasattr(self, "_stale_responses"):
            self._stale_responses: Dict[Tuple[str, Any], Dict[str, Any]] = {}
        return self._stale_responses

    def _faulty_response(self, record: Dict[str, Any],
                         provider: RequestProvider) -> Dict[str, Any]:
        """Produce the (possibly faulty) response for one request."""
        if self.fault_mode == FAULT_STALE_REPLAY:
            # The stale component stops consulting its device: it replays the
            # first answer it ever produced for this (kind, resource).
            key = (record["kind"], record.get("payload", {}).get("resource_id"))
            cache = self._replay_cache()
            if key not in cache:
                cache[key] = provider(record["payload"])
            return cache[key]
        response = provider(record["payload"])
        if self.fault_mode == FAULT_TAMPER:
            forged = dict(response)
            forged["compliant"] = True
            compliance = dict(forged.get("compliance") or {})
            compliance["compliant"] = True
            compliance["pendingDuties"] = []
            forged["compliance"] = compliance
            # Hiding the usage trail always alters the signed body.
            forged["usageSummary"] = {}
            return forged
        return response

    def authorize_on_chain(self) -> Receipt:
        """Authorize this component's address as a provider on the hub contract."""
        return self.module.call_contract(
            self.contract_address, "authorize_provider", {"provider": self.module.address}
        )

    def pending_requests(self, kind: Optional[str] = None) -> List[int]:
        """Request identifiers still awaiting fulfillment on the hub."""
        return self.module.read(self.contract_address, "pending_requests", {"kind": kind})

    def compute_response(self, request_id: int) -> Optional[Dict[str, Any]]:
        """The answer this component would post for one pending request.

        Reads the request, asks the registered provider and applies any
        injected fault; submits nothing.  Returns None when the component
        has an ``unresponsive`` fault injected (it never answers).
        """
        if self.fault_mode == FAULT_UNRESPONSIVE:
            return None
        record = self.module.read(self.contract_address, "get_request", {"request_id": request_id})
        provider = self._providers().get(record["kind"])
        if provider is None:
            raise LookupError(f"no off-chain provider registered for request kind {record['kind']!r}")
        return self._faulty_response(record, provider)

    def serve_request(self, request_id: int) -> Optional[Receipt]:
        """Answer one pending request using the registered provider.

        Returns None without touching the chain when the component has an
        ``unresponsive`` fault injected (the request stays pending).
        """
        response = self.compute_response(request_id)
        if response is None:
            return None
        return self._fulfill(request_id, response)

    def fulfill_served(self, request_id: int, response: Dict[str, Any]) -> Receipt:
        """Submit the fulfillment transaction for an already-computed response.

        The sharded monitoring coordinator runs :meth:`compute_response` (the
        expensive enclave work) in forked workers, which submit nothing; the
        parent then submits each fulfillment exactly once through this
        method, so its chain carries the same transaction the in-process
        flow would have sealed.  A fulfillment the hub rejects reverts and
        fails the enclosing batch with :class:`ContractError`.
        """
        return self._fulfill(request_id, response)

    def _fulfill(self, request_id: int, response: Dict[str, Any]) -> Receipt:
        receipt = self.module.call_contract(
            self.contract_address,
            "fulfill_request",
            {"request_id": request_id, "response": response},
        )
        self._count()
        return receipt

    def serve_pending(self, kind: Optional[str] = None) -> int:
        """Answer every pending request (optionally of one kind); returns the count."""
        served = 0
        for request_id in self.pending_requests(kind):
            record = self.module.read(self.contract_address, "get_request", {"request_id": request_id})
            if record["kind"] not in self._providers():
                continue
            self.serve_request(request_id)
            served += 1
        return served
