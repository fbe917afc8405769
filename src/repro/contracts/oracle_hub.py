"""On-chain half of the pull-in oracle pattern.

In the pull-in pattern the *contract* initiates a data request that an
off-chain provider must answer (Section IV-6 uses it to ask consumer TEEs for
usage evidence).  The hub contract keeps an explicit request queue: contracts
(or the DE App workflow acting through the pod manager) enqueue requests, the
off-chain oracle component watches the ``OracleRequest`` events, obtains the
answer from the real world, and posts it back with :meth:`fulfill_request`.

Storage layout: each request lives in its own ``request:{id}`` slot and the
identifiers of unfulfilled requests are kept in a ``pending_index`` mapping
(``id -> kind``), so enqueueing, fulfilling, and listing pending requests
all touch O(1) / O(pending) entries regardless of how many requests the hub
has ever processed.  :meth:`create_requests` enqueues a whole monitoring
round's worth of requests in a single transaction.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.contracts.base import SmartContract


class OracleRequestHub(SmartContract):
    """Request/response queue connecting on-chain consumers to off-chain providers."""

    def constructor(self, **_: Any) -> None:
        # Read by no method, but every pinned state root commits to it.
        self.storage["administrator"] = self.msg_sender
        self.storage["next_request_id"] = 1
        self.storage["pending_index"] = {}
        self.storage["authorized_providers"] = {}

    # -- provider management -----------------------------------------------------

    def authorize_provider(self, provider: str) -> bool:
        """Allow an off-chain provider address to fulfill requests."""
        self.storage.set_entry("authorized_providers", provider, True)
        self.emit("ProviderAuthorized", provider=provider)
        return True

    def is_authorized(self, provider: str) -> bool:
        return bool(self.storage.get_entry("authorized_providers", provider, False))

    # -- request lifecycle ----------------------------------------------------------

    def create_request(self, kind: str, payload: Dict[str, Any],
                       target: Optional[str] = None) -> int:
        """Enqueue an oracle request; emits ``OracleRequest`` for off-chain watchers."""
        self.require(bool(kind), "request kind must be non-empty")
        return self._enqueue(kind, payload, target)

    def create_requests(self, requests: List[Dict[str, Any]]) -> List[int]:
        """Batch variant of :meth:`create_request`: one transaction, many requests.

        Each item carries ``kind``, ``payload``, and optionally ``target``.
        Returns the identifiers in input order; one ``OracleRequest`` event
        is emitted per request, so off-chain watchers see the same stream
        as with individual transactions.
        """
        for request in requests:
            self.require(bool(request.get("kind")), "request kind must be non-empty")
        return [
            self._enqueue(request["kind"], request.get("payload", {}), request.get("target"))
            for request in requests
        ]

    def _enqueue(self, kind: str, payload: Dict[str, Any], target: Optional[str]) -> int:
        request_id = self.storage.get("next_request_id", 1)
        self.storage["next_request_id"] = request_id + 1
        self.storage[f"request:{request_id}"] = {
            "kind": kind,
            "payload": payload,
            "target": target,
            "requested_by": self.msg_sender,
            "requested_at": self.block_timestamp,
            "fulfilled": False,
            "response": None,
            "fulfilled_by": None,
            "fulfilled_at": None,
        }
        self.storage.set_entry("pending_index", str(request_id), kind)
        self.emit("OracleRequest", request_id=request_id, kind=kind, payload=payload, target=target)
        return request_id

    def fulfill_request(self, request_id: int, response: Dict[str, Any],
                        provider: Optional[str] = None) -> Dict[str, Any]:
        """Record the off-chain answer to a pending request."""
        responder = provider or self.msg_sender
        self.require(self.is_authorized(responder), f"{responder} is not an authorized oracle provider")
        record = self.storage.get(f"request:{request_id}")
        self.require(record is not None, f"unknown oracle request {request_id}")
        self.require(not record["fulfilled"], f"oracle request {request_id} is already fulfilled")
        key = f"request:{request_id}"
        record = dict(record, fulfilled=True, response=response,
                      fulfilled_by=responder, fulfilled_at=self.block_timestamp)
        self.storage.set_entry(key, "fulfilled", True)
        self.storage.set_entry(key, "response", response)
        self.storage.set_entry(key, "fulfilled_by", responder)
        self.storage.set_entry(key, "fulfilled_at", record["fulfilled_at"])
        self.storage.delete_entry("pending_index", str(request_id))
        self.emit("OracleResponse", request_id=request_id, response=response, provider=responder)
        return record

    # -- queries ------------------------------------------------------------------------

    def get_request(self, request_id: int) -> Dict[str, Any]:
        """Return the full state of one oracle request."""
        record = self.storage.get(f"request:{request_id}")
        self.require(record is not None, f"unknown oracle request {request_id}")
        return record

    def pending_requests(self, kind: Optional[str] = None) -> List[int]:
        """Return the identifiers of requests that still await fulfillment.

        Served from the ``pending_index`` mapping: the cost is O(pending),
        not O(every request ever created).
        """
        pending = [
            int(request_id)
            for request_id, request_kind in sorted(self.storage.get("pending_index", {}).items())
            if kind is None or request_kind == kind
        ]
        return sorted(pending)
