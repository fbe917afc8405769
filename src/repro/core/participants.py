"""Data owners and data consumers.

These classes bundle the per-participant moving parts of Fig. 1: a data owner
operates a pod manager plus its blockchain interaction module and push-in
oracle; a data consumer operates a trusted execution environment with its
trusted application, pull-out/pull-in oracle components, and its own
interaction module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.errors import NotFoundError
from repro.policy.model import Policy
from repro.solid.pod import OCTET_STREAM
from repro.solid.pod_manager import PodManager
from repro.solid.webid import WebID
from repro.blockchain.transaction import LogEntry, Receipt
from repro.oracles.base import BlockchainInteractionModule
from repro.oracles.pull_in import PullInOracle
from repro.oracles.pull_out import PullOutOracle
from repro.oracles.push_in import PushInOracle
from repro.oracles.push_out import PushOutOracle
from repro.tee.enclave import TrustedExecutionEnvironment
from repro.tee.trusted_app import TrustedApplication


@dataclass
class DataOwner:
    """A data owner: WebID, pod manager, and the owner-side oracle components."""

    webid: WebID
    pod_manager: PodManager
    module: BlockchainInteractionModule
    push_in: PushInOracle
    push_out: PushOutOracle
    market_address: str
    monitoring_evidence: List[LogEntry] = field(default_factory=list)
    receipts: List[Receipt] = field(default_factory=list)
    # resource_id -> id of the latest monitoring round opened by this owner
    # (recorded by the architecture wiring from the start_monitoring return
    # value, so coordinators never re-scan MonitoringRequested logs).
    monitoring_round_ids: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.webid.name

    @property
    def address(self) -> str:
        return self.webid.address

    # -- pod and resource management -------------------------------------------------

    def initialize_pod(self, default_policy: Optional[Policy] = None,
                       subscribers: Optional[List[str]] = None):
        """Fig. 2.1 — create the pod; the wiring pushes its record on-chain."""
        return self.pod_manager.create_pod(default_policy=default_policy, subscribers=subscribers)

    def upload_resource(self, path: str, content: bytes, content_type: str = OCTET_STREAM,
                        metadata: Optional[Dict[str, str]] = None) -> str:
        """Store data in the pod through the Solid protocol (pre-publication)."""
        return self.pod_manager.upload_resource(path, content, content_type, metadata)

    def publish_resource(self, path: str, policy: Policy,
                         metadata: Optional[Dict[str, Any]] = None) -> str:
        """Fig. 2.2 — add an uploaded resource to the data market."""
        return self.pod_manager.publish_resource(path, policy, metadata)

    def update_policy(self, path: str, new_policy: Policy) -> Policy:
        """Fig. 2.5 — revise the usage policy of a published resource."""
        return self.pod_manager.update_policy(path, new_policy)

    def request_monitoring(self, path: str) -> str:
        """Fig. 2.6 — ask the DE App to check compliance for a resource."""
        return self.pod_manager.request_monitoring(path)

    # -- market ---------------------------------------------------------------------------

    def list_on_market(self, resource_id: str) -> Receipt:
        """Register the resource on the data market so consumers can pay for it."""
        return self.module.call_contract(
            self.market_address, "list_resource", {"resource_id": resource_id, "owner": self.address}
        )

    def market_earnings(self) -> int:
        """Accumulated (not yet withdrawn) market earnings of this owner."""
        return self.module.read(self.market_address, "earnings_of", {"owner": self.address})

    def withdraw_earnings(self) -> Receipt:
        """Withdraw accumulated market earnings to the owner's account."""
        return self.module.call_contract(self.market_address, "withdraw_earnings", {"owner": self.address})

    # -- monitoring results ------------------------------------------------------------------

    def record_evidence_notification(self, log: LogEntry) -> None:
        """Push-out callback collecting evidence notifications for this owner."""
        self.monitoring_evidence.append(log)

    def evidence_for(self, resource_id: str) -> List[LogEntry]:
        return [log for log in self.monitoring_evidence if log.data.get("resource_id") == resource_id]


@dataclass
class DataConsumer:
    """A data consumer: WebID, TEE + trusted application, and consumer-side oracles."""

    webid: WebID
    tee: TrustedExecutionEnvironment
    trusted_app: TrustedApplication
    module: BlockchainInteractionModule
    pull_out: PullOutOracle
    pull_in: PullInOracle
    push_out: PushOutOracle
    market_address: str
    dist_exchange_address: str
    purpose: Optional[str] = None
    certificates: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    policy_update_notifications: List[LogEntry] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.webid.name

    @property
    def address(self) -> str:
        return self.webid.address

    @property
    def device_id(self) -> str:
        return self.tee.device_id

    # -- market interactions --------------------------------------------------------------

    def subscribe_to_market(self, payment: Optional[int] = None) -> Receipt:
        """Pay the subscription fee and join the data market."""
        fees = self.module.read(self.market_address, "get_fees")
        amount = payment if payment is not None else fees["subscription_fee"]
        return self.module.call_contract(self.market_address, "subscribe", {}, value=amount)

    def purchase_certificate(self, resource_id: str, payment: Optional[int] = None) -> Dict[str, Any]:
        """Buy the market-fee certificate required to access *resource_id*."""
        fees = self.module.read(self.market_address, "get_fees")
        amount = payment if payment is not None else fees["access_fee"]
        receipt = self.module.call_contract(
            self.market_address, "purchase_certificate", {"resource_id": resource_id}, value=amount
        )
        certificate = receipt.return_value
        self.certificates[resource_id] = certificate
        self.trusted_app.hold_certificate(resource_id, certificate["certificate_id"])
        return certificate

    # -- resource lifecycle (Fig. 2.3 / 2.4) ----------------------------------------------------

    def lookup_resource(self, resource_id: str) -> Dict[str, Any]:
        """Fig. 2.3 — resource indexing through the pull-out oracle."""
        return self.trusted_app.lookup_resource(resource_id)

    def retrieve_resource(self, resource_id: str) -> Dict[str, Any]:
        """Fig. 2.4 — fetch the resource into the TEE and record the grant on-chain."""
        result = self.trusted_app.retrieve_resource(resource_id)
        self.module.call_contract(
            self.dist_exchange_address,
            "record_access_grant",
            {
                "resource_id": resource_id,
                "consumer": self.webid.iri,
                "device_id": self.device_id,
                "purpose": self.purpose,
            },
        )
        return result

    def use_resource(self, resource_id: str, purpose: Optional[str] = None) -> bytes:
        """Use the locally stored copy under policy enforcement."""
        return self.trusted_app.use_resource(resource_id, purpose)

    def holds_copy(self, resource_id: str) -> bool:
        return self.trusted_app.holds_copy(resource_id)

    # -- policy updates (Fig. 2.5) ------------------------------------------------------------------

    def handle_policy_update(self, log: LogEntry) -> None:
        """Push-out callback: apply an on-chain policy update to the local copy."""
        holders = log.data.get("holders") or []
        if holders and self.device_id not in holders:
            return
        self.policy_update_notifications.append(log)
        resource_id = log.data.get("resource_id")
        policy_data = log.data.get("policy")
        if resource_id is None or policy_data is None:
            return
        try:
            self.trusted_app.handle_policy_update(resource_id, policy_data)
        except NotFoundError:
            # The device no longer holds (or never held) the copy.
            pass

    # -- monitoring (Fig. 2.6) -------------------------------------------------------------------------

    def provide_usage_evidence(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Pull-in provider answering usage-evidence requests for this device."""
        resource_id = payload.get("resource_id", "")
        return self.trusted_app.provide_evidence(resource_id)
