"""The decentralized data market contract.

The motivating scenario (Section II) describes a market where consumers pay a
fee and obtain "a certificate proving [they have] paid the market fee", which
pod managers verify before serving a resource; Section V-4 sketches a
subscription-based business model that redistributes market profit to data
owners "proportionately to the accesses granted to their data".  This
contract implements that machinery:

* subscriptions paid in the chain's base currency;
* fee certificates issued per (consumer, resource) pair, verifiable by pod
  managers through a read-only call;
* an earnings ledger crediting owners for each certificate bought over their
  resources, with withdrawal of accumulated remuneration.

Storage layout: certificates live in per-entity ``certificate:{id}`` slots;
subscribers, resource owners, earnings, and access counts are mappings
manipulated one entry at a time (``set_entry`` / ``get_entry``), and the
figures :meth:`market_statistics` reports are maintained as running
aggregates — so every market operation touches O(1) entries no matter how
many subscribers or certificates the market has accumulated.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.serialization import stable_hash
from repro.contracts.base import SmartContract


class DataMarket(SmartContract):
    """Subscriptions, market-fee certificates, and owner remuneration."""

    def constructor(self, subscription_fee: int = 100, access_fee: int = 10,
                    owner_share_percent: int = 80, **_: Any) -> None:
        self.require(0 <= owner_share_percent <= 100, "owner_share_percent must be within [0, 100]")
        self.storage["operator"] = self.msg_sender
        self.storage["subscription_fee"] = int(subscription_fee)
        self.storage["access_fee"] = int(access_fee)
        self.storage["owner_share_percent"] = int(owner_share_percent)
        self.storage["subscribers"] = {}
        self.storage["certificate_index"] = {}
        self.storage["earnings"] = {}
        self.storage["operator_earnings"] = 0
        self.storage["resource_owners"] = {}
        self.storage["access_counts"] = {}
        # Running aggregates behind market_statistics().
        self.storage["subscriber_count"] = 0
        self.storage["certificate_count"] = 0
        self.storage["listed_count"] = 0
        self.storage["outstanding_owner_earnings"] = 0

    # -- configuration -------------------------------------------------------

    def get_fees(self) -> Dict[str, int]:
        """Return the current subscription and access fees."""
        return {
            "subscription_fee": self.storage.get("subscription_fee", 0),
            "access_fee": self.storage.get("access_fee", 0),
            "owner_share_percent": self.storage.get("owner_share_percent", 0),
        }

    def set_fees(self, subscription_fee: Optional[int] = None, access_fee: Optional[int] = None) -> Dict[str, int]:
        """Operator-only adjustment of the fee schedule."""
        self.require(self.msg_sender == self.storage.get("operator"), "only the operator may change fees")
        if subscription_fee is not None:
            self.require(subscription_fee >= 0, "subscription_fee must be non-negative")
            self.storage["subscription_fee"] = int(subscription_fee)
        if access_fee is not None:
            self.require(access_fee >= 0, "access_fee must be non-negative")
            self.storage["access_fee"] = int(access_fee)
        return self.get_fees()

    # -- registration of tradable resources ---------------------------------------

    def list_resource(self, resource_id: str, owner: str) -> str:
        """Associate a resource with the owner who should earn from its accesses."""
        self.require(bool(resource_id), "resource_id must be non-empty")
        self.require(bool(owner), "owner must be non-empty")
        is_new = self.storage.set_entry("resource_owners", resource_id, owner)
        if is_new:
            self.storage["listed_count"] = self.storage.get("listed_count", 0) + 1
        self.emit("ResourceListed", resource_id=resource_id, owner=owner)
        return resource_id

    # -- subscriptions --------------------------------------------------------------

    def subscribe(self, account: Optional[str] = None) -> Dict[str, Any]:
        """Pay the subscription fee and become a market subscriber."""
        subscriber = account or self.msg_sender
        fee = self.storage.get("subscription_fee", 0)
        self.require(self.msg_value >= fee, f"subscription requires a payment of {fee}")
        record = {
            "since": self.block_timestamp,
            "paid": self.msg_value,
            "active": True,
        }
        is_new = self.storage.set_entry("subscribers", subscriber, record)
        if is_new:
            self.storage["subscriber_count"] = self.storage.get("subscriber_count", 0) + 1
        self.storage["operator_earnings"] = self.storage.get("operator_earnings", 0) + self.msg_value
        self.emit("Subscribed", account=subscriber, paid=self.msg_value)
        return record

    def is_subscribed(self, account: str) -> bool:
        """Return True when *account* holds an active subscription."""
        record = self.storage.get_entry("subscribers", account)
        return bool(record and record.get("active"))

    def cancel_subscription(self, account: Optional[str] = None) -> bool:
        """Deactivate a subscription (no refund)."""
        subscriber = account or self.msg_sender
        record = self.storage.get_entry("subscribers", subscriber)
        self.require(record is not None, f"{subscriber} is not subscribed")
        record["active"] = False
        self.storage.set_entry("subscribers", subscriber, record)
        self.emit("SubscriptionCancelled", account=subscriber)
        return True

    # -- fee certificates --------------------------------------------------------------

    def purchase_certificate(self, resource_id: str, consumer: Optional[str] = None) -> Dict[str, Any]:
        """Pay the access fee and obtain a certificate for *resource_id*.

        The certificate identifier commits to the consumer, the resource, and
        the purchase time, so pod managers can verify it with a read-only
        call and detect forgeries.
        """
        buyer = consumer or self.msg_sender
        self.require(self.is_subscribed(buyer), f"{buyer} must be subscribed to the market")
        owner = self.storage.get_entry("resource_owners", resource_id)
        self.require(owner is not None, f"resource {resource_id} is not listed on the market")
        fee = self.storage.get("access_fee", 0)
        self.require(self.msg_value >= fee, f"access to {resource_id} requires a payment of {fee}")

        issued = self.storage.get("certificate_count", 0)
        certificate_id = stable_hash(
            {
                "consumer": buyer,
                "resource_id": resource_id,
                "issued_at": self.block_timestamp,
                "nonce": issued,
            }
        )
        certificate = {
            "certificate_id": certificate_id,
            "consumer": buyer,
            "resource_id": resource_id,
            "issued_at": self.block_timestamp,
            "fee_paid": self.msg_value,
            "revoked": False,
        }
        self.storage[f"certificate:{certificate_id}"] = certificate
        self.storage.set_entry("certificate_index", certificate_id, True)
        self.storage["certificate_count"] = issued + 1

        # Split the fee between the resource owner and the market operator.
        owner_share = self.msg_value * self.storage.get("owner_share_percent", 0) // 100
        self.storage.set_entry(
            "earnings", owner, self.storage.get_entry("earnings", owner, 0) + owner_share
        )
        self.storage["outstanding_owner_earnings"] = (
            self.storage.get("outstanding_owner_earnings", 0) + owner_share
        )
        self.storage["operator_earnings"] = (
            self.storage.get("operator_earnings", 0) + (self.msg_value - owner_share)
        )
        self.storage.set_entry(
            "access_counts", resource_id, self.storage.get_entry("access_counts", resource_id, 0) + 1
        )

        self.emit(
            "CertificateIssued",
            certificate_id=certificate_id,
            consumer=buyer,
            resource_id=resource_id,
        )
        return certificate

    def verify_certificate(self, certificate_id: str, consumer: str, resource_id: str) -> bool:
        """Check that a certificate exists, matches, and has not been revoked."""
        certificate = self.storage.get(f"certificate:{certificate_id}")
        if certificate is None:
            return False
        return (
            certificate["consumer"] == consumer
            and certificate["resource_id"] == resource_id
            and not certificate["revoked"]
        )

    def revoke_certificate(self, certificate_id: str) -> bool:
        """Operator-only revocation of a previously issued certificate."""
        self.require(self.msg_sender == self.storage.get("operator"), "only the operator may revoke certificates")
        certificate = self.storage.get(f"certificate:{certificate_id}")
        self.require(certificate is not None, f"unknown certificate {certificate_id}")
        self.storage.set_entry(f"certificate:{certificate_id}", "revoked", True)
        self.emit("CertificateRevoked", certificate_id=certificate_id)
        return True

    # -- remuneration --------------------------------------------------------------------

    def earnings_of(self, owner: str) -> int:
        """Accumulated, not-yet-withdrawn earnings of a data owner."""
        return self.storage.get_entry("earnings", owner, 0)

    def access_count(self, resource_id: str) -> int:
        """Number of certificates purchased for a resource."""
        return self.storage.get_entry("access_counts", resource_id, 0)

    def withdraw_earnings(self, owner: Optional[str] = None) -> int:
        """Transfer an owner's accumulated earnings to their account."""
        beneficiary = owner or self.msg_sender
        self.require(beneficiary == self.msg_sender, "owners may only withdraw their own earnings")
        amount = self.storage.get_entry("earnings", beneficiary, 0)
        self.require(amount > 0, "nothing to withdraw")
        self.storage.set_entry("earnings", beneficiary, 0)
        self.storage["outstanding_owner_earnings"] = (
            self.storage.get("outstanding_owner_earnings", 0) - amount
        )
        self.transfer(beneficiary, amount)
        self.emit("EarningsWithdrawn", owner=beneficiary, amount=amount)
        return amount

    def market_statistics(self) -> Dict[str, Any]:
        """Aggregate figures used by the affordability benchmark (all O(1))."""
        return {
            "subscribers": self.storage.get("subscriber_count", 0),
            "certificates": self.storage.get("certificate_count", 0),
            "listed_resources": self.storage.get("listed_count", 0),
            "operator_earnings": self.storage.get("operator_earnings", 0),
            "total_owner_earnings": self.storage.get("outstanding_owner_earnings", 0),
        }
