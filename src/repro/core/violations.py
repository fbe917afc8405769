"""Violation handling.

The paper's architecture "enables users to revoke access if data consumers do
not adhere to the usage policies" (Section I).  Detection happens during
policy monitoring (the DE App records a ``ViolationDetected`` event); this
module implements the *response*: the owner-side component that listens for
violations concerning their resources and executes a revocation playbook —

1. revoke the offending device's access grant in the DE App (so future policy
   updates and monitoring rounds no longer treat it as a legitimate holder);
2. revoke the consumer's WAC authorization on the pod (no further retrievals);
3. ask the market operator to revoke the consumer's fee certificates for the
   resource (a fresh certificate purchase would be required after re-granting).

Every response is recorded in a :class:`ViolationResponse` so examples and
tests can assert exactly what was done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.blockchain.transaction import LogEntry
from repro.core.participants import DataOwner


@dataclass
class ViolationResponse:
    """What the responder did about one detected violation."""

    resource_id: str
    device_id: str
    details: str
    grant_revoked: bool = False
    acl_revoked: bool = False
    certificates_revoked: List[str] = field(default_factory=list)
    consumer_webid: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "resourceId": self.resource_id,
            "deviceId": self.device_id,
            "details": self.details,
            "grantRevoked": self.grant_revoked,
            "aclRevoked": self.acl_revoked,
            "certificatesRevoked": list(self.certificates_revoked),
            "consumerWebid": self.consumer_webid,
        }


class ViolationResponder:
    """Owner-side component reacting to on-chain ``ViolationDetected`` events."""

    def __init__(self, architecture, owner: DataOwner):
        self.architecture = architecture
        self.owner = owner
        self.responses: List[ViolationResponse] = []
        owner.push_out.subscribe("ViolationDetected", self.handle_violation_event)

    # -- event handling -------------------------------------------------------------

    def handle_violation_event(self, log: LogEntry) -> Optional[ViolationResponse]:
        """React to one ``ViolationDetected`` event (ignoring other owners' resources)."""
        resource_id = log.data.get("resource_id", "")
        if not self._owns(resource_id):
            return None
        return self.respond(
            resource_id=resource_id,
            device_id=log.data.get("device_id", ""),
            details=log.data.get("details", ""),
        )

    def _owns(self, resource_id: str) -> bool:
        pod = self.owner.pod_manager.pod
        return pod is not None and resource_id.startswith(pod.base_url)

    # -- the revocation playbook --------------------------------------------------------

    def respond(self, resource_id: str, device_id: str, details: str = "") -> ViolationResponse:
        """Execute the revocation playbook for one violating device."""
        response = ViolationResponse(resource_id=resource_id, device_id=device_id, details=details)

        # 1. Revoke the access grant recorded in the DE App.
        receipt = self.owner.module.call_contract(
            self.architecture.dist_exchange_address,
            "revoke_grant",
            {"resource_id": resource_id, "device_id": device_id},
        )
        response.grant_revoked = bool(receipt.return_value)

        # Identify the consumer behind the offending device (for ACL and
        # certificate revocation); unknown devices only get the grant revoked.
        consumer = self.architecture.consumer_for_device(device_id)
        if consumer is not None:
            response.consumer_webid = consumer.webid.iri
            revoked = self.owner.pod_manager.revoke_access(consumer.webid.iri)
            response.acl_revoked = revoked > 0
            response.certificates_revoked = self._revoke_certificates(consumer, resource_id)

        self.responses.append(response)
        return response

    def _revoke_certificates(self, consumer, resource_id: str) -> List[str]:
        """Ask the market operator to revoke the consumer's certificates for the resource."""
        revoked = []
        certificate = consumer.certificates.get(resource_id)
        if certificate:
            self.architecture.operator_module.call_contract(
                self.architecture.market_address,
                "revoke_certificate",
                {"certificate_id": certificate["certificate_id"]},
            )
            revoked.append(certificate["certificate_id"])
        return revoked

    # -- reporting -----------------------------------------------------------------------

    def responses_for(self, resource_id: str) -> List[ViolationResponse]:
        return [response for response in self.responses if response.resource_id == resource_id]

    def summary(self) -> Dict[str, int]:
        """Aggregate counts used by examples and the monitoring report."""
        return {
            "violationsHandled": len(self.responses),
            "grantsRevoked": sum(1 for r in self.responses if r.grant_revoked),
            "aclRevocations": sum(1 for r in self.responses if r.acl_revoked),
            "certificatesRevoked": sum(len(r.certificates_revoked) for r in self.responses),
        }
