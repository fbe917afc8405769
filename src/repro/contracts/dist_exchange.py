"""The DistExchange application (DE App).

Section III-B of the paper assigns three responsibilities to the blockchain
application: "(i) recording where data resides, (ii) declaring what the usage
restrictions are, and (iii) monitoring compliance with these policies."  The
contract below implements them plus the bookkeeping the six processes of
Fig. 2 require:

* **Pod initiation** — :meth:`register_pod` records a pod's web reference and
  default policy (pushed in by the pod manager's push-in oracle).
* **Resource initiation** — :meth:`register_resource` indexes a resource's
  location and its usage policy, emitting ``ResourceRegistered``.
* **Resource indexing** — :meth:`get_resource` is the read-only lookup the
  consumer's pull-out oracle performs.
* **Resource access** — :meth:`record_access_grant` notes which consumer now
  holds a copy, so later policy updates and monitoring reach them.
* **Policy modification** — :meth:`update_policy` replaces the policy and
  emits ``PolicyUpdated`` (the push-out oracle notifies consumer TEEs).
* **Policy monitoring** — :meth:`start_monitoring` opens a monitoring round
  (``MonitoringRequested`` is picked up by the pull-in oracle), and
  :meth:`record_usage_evidence` stores the evidence reported back by TEEs;
  :meth:`report_violation` records detected violations.

Storage layout
--------------

State is keyed by *composite slots*, one slot per entity, so every method
touches O(its own entries) regardless of how many pods, resources, grants,
rounds, or violations the deployment has accumulated:

================================  ==============================================
slot                              contents
================================  ==============================================
``administrator``                 deployer (read by no method)
``pod:{pod_url}``                 one pod record
``pod_index``                     mapping ``pod_url -> True`` (updated per entry)
``resource:{resource_id}``        one resource record
``resource_index``                mapping ``resource_id -> True``
``policy:{resource_id}``          the current usage policy
``grants:{resource_id}``          list of access grants for one resource
``round:{round_id}``              round metadata incl. holder/response counters
``round:{round_id}:holders``      mapping ``device_id -> True`` (grant order)
``round:{round_id}:responses``    mapping ``device_id -> evidence``
``evidence:{resource_id}``        append-only evidence list for one resource
``violations``                    append-only global violation list
``violations:{resource_id}``      append-only per-resource violation index
``next_round_id``                 monitoring round counter
================================  ==============================================

The batch entry point :meth:`record_usage_evidence_batch` (and
:meth:`record_access_grants`) lets a monitoring round confirm all of its
evidence in a single transaction; combined with
``BlockchainInteractionModule.batch()`` a round seals a small constant
number of blocks instead of O(holders).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.contracts.base import SmartContract


class DistExchangeApp(SmartContract):
    """On-chain registry and monitor for usage-controlled resources."""

    # -- deployment -----------------------------------------------------------

    def constructor(self, administrator: Optional[str] = None, **_: Any) -> None:
        # Read by no method, but every pinned state root commits to it.
        self.storage["administrator"] = administrator or self.msg_sender
        self.storage["pod_index"] = {}
        self.storage["resource_index"] = {}
        self.storage["violations"] = []
        self.storage["next_round_id"] = 1

    # -- pod initiation (Fig. 2.1) ------------------------------------------------

    def register_pod(self, pod_url: str, owner: str, default_policy: Dict[str, Any]) -> str:
        """Record a pod's root location and its default usage policy."""
        self.require(bool(pod_url), "pod_url must be non-empty")
        self.require(bool(owner), "owner must be non-empty")
        self.require(
            not self.storage.has_entry("pod_index", pod_url),
            f"pod {pod_url} is already registered",
        )
        self.storage[f"pod:{pod_url}"] = {
            "owner": owner,
            "registered_by": self.msg_sender,
            "registered_at": self.block_timestamp,
            "default_policy": default_policy,
        }
        self.storage.set_entry("pod_index", pod_url, True)
        self.emit("PodRegistered", pod_url=pod_url, owner=owner)
        return pod_url

    def get_pod(self, pod_url: str) -> Dict[str, Any]:
        """Return the recorded metadata of a pod."""
        record = self.storage.get(f"pod:{pod_url}")
        self.require(record is not None, f"pod {pod_url} is not registered")
        return record

    def list_pods(self) -> List[str]:
        """Return the URLs of every registered pod."""
        return sorted(self.storage.get("pod_index", {}).keys())

    # -- resource initiation (Fig. 2.2) ----------------------------------------------

    def register_resource(self, resource_id: str, pod_url: str, location: str,
                          owner: str, policy: Dict[str, Any],
                          metadata: Optional[Dict[str, Any]] = None) -> str:
        """Index a resource: its physical location and applicable usage policy."""
        self.require(bool(resource_id), "resource_id must be non-empty")
        pod = self.storage.get(f"pod:{pod_url}")
        self.require(pod is not None, f"pod {pod_url} is not registered")
        self.require(pod["owner"] == owner, "resource owner must own the pod")
        self.require(
            not self.storage.has_entry("resource_index", resource_id),
            f"resource {resource_id} is already registered",
        )
        self.storage[f"resource:{resource_id}"] = {
            "pod_url": pod_url,
            "location": location,
            "owner": owner,
            "registered_at": self.block_timestamp,
            "metadata": metadata or {},
        }
        self.storage[f"policy:{resource_id}"] = policy
        self.storage[f"grants:{resource_id}"] = []
        self.storage.set_entry("resource_index", resource_id, True)
        self.emit("ResourceRegistered", resource_id=resource_id, owner=owner, location=location)
        return resource_id

    def list_resources(self) -> List[str]:
        """Return the identifiers of every indexed resource."""
        return sorted(self.storage.get("resource_index", {}).keys())

    # -- resource indexing (Fig. 2.3) ----------------------------------------------------

    def get_resource(self, resource_id: str) -> Dict[str, Any]:
        """Return the location and usage policy of a resource (pull-out read)."""
        record = self.storage.get(f"resource:{resource_id}")
        self.require(record is not None, f"resource {resource_id} is not registered")
        record["policy"] = self.storage.get(f"policy:{resource_id}")
        record["resource_id"] = resource_id
        return record

    def get_policy(self, resource_id: str) -> Dict[str, Any]:
        """Return only the current usage policy of a resource."""
        policy = self.storage.get(f"policy:{resource_id}")
        self.require(policy is not None, f"resource {resource_id} has no policy")
        return policy

    # -- resource access bookkeeping (Fig. 2.4) ---------------------------------------------

    def record_access_grant(self, resource_id: str, consumer: str, device_id: str,
                            purpose: Optional[str] = None) -> Dict[str, Any]:
        """Record that *consumer*'s device now holds a copy of the resource."""
        self.require(
            self.storage.has_entry("resource_index", resource_id),
            f"resource {resource_id} is not registered",
        )
        return self._append_grant(resource_id, consumer, device_id, purpose)

    def record_access_grants(self, resource_id: str, grants: List[Dict[str, Any]]) -> int:
        """Batch variant of :meth:`record_access_grant`: one transaction, many grants.

        Each item carries ``consumer``, ``device_id``, and optionally
        ``purpose``.  Returns the number of grants recorded.
        """
        self.require(
            self.storage.has_entry("resource_index", resource_id),
            f"resource {resource_id} is not registered",
        )
        for grant in grants:
            self._append_grant(
                resource_id, grant["consumer"], grant["device_id"], grant.get("purpose")
            )
        return len(grants)

    def _append_grant(self, resource_id: str, consumer: str, device_id: str,
                      purpose: Optional[str]) -> Dict[str, Any]:
        grant = {
            "consumer": consumer,
            "device_id": device_id,
            "purpose": purpose,
            "granted_at": self.block_timestamp,
            "active": True,
        }
        self.storage.append(f"grants:{resource_id}", grant)
        self.emit("AccessGranted", resource_id=resource_id, consumer=consumer, device_id=device_id)
        return grant

    def get_grants(self, resource_id: str) -> List[Dict[str, Any]]:
        """Return every access grant recorded for a resource."""
        return self.storage.get(f"grants:{resource_id}", [])

    def revoke_grant(self, resource_id: str, device_id: str) -> bool:
        """Mark a consumer device's grant as inactive (e.g. after deletion)."""
        key = f"grants:{resource_id}"
        entries = self.storage.get(key, [])
        matches = [
            index
            for index, grant in enumerate(entries)
            if grant["device_id"] == device_id and grant["active"]
        ]
        for index in matches:
            self.storage.set_item(key, index, dict(entries[index], active=False))
        if matches:
            self.emit("AccessRevoked", resource_id=resource_id, device_id=device_id)
        return bool(matches)

    def _active_holders(self, resource_id: str) -> List[str]:
        return [
            grant["device_id"]
            for grant in self.storage.get(f"grants:{resource_id}", [])
            if grant["active"]
        ]

    # -- policy modification (Fig. 2.5) ----------------------------------------------------

    def update_policy(self, resource_id: str, policy: Dict[str, Any], owner: str) -> Dict[str, Any]:
        """Replace the usage policy of a resource and notify copy holders."""
        record = self.storage.get(f"resource:{resource_id}")
        self.require(record is not None, f"resource {resource_id} is not registered")
        self.require(record["owner"] == owner, "only the owner may update the policy")
        previous = self.storage.get(f"policy:{resource_id}")
        self.storage[f"policy:{resource_id}"] = policy
        self.emit(
            "PolicyUpdated",
            resource_id=resource_id,
            policy=policy,
            previous_version=(previous or {}).get("version"),
            new_version=policy.get("version"),
            holders=self._active_holders(resource_id),
        )
        return policy

    # -- policy monitoring (Fig. 2.6) ---------------------------------------------------------

    def start_monitoring(self, resource_id: str, requested_by: str) -> int:
        """Open a monitoring round for a resource; returns the round identifier."""
        self.require(
            self.storage.has_entry("resource_index", resource_id),
            f"resource {resource_id} is not registered",
        )
        round_id = self.storage.get("next_round_id", 1)
        self.storage["next_round_id"] = round_id + 1
        # Deduplicate: a device holding several active grants (e.g. after
        # retrieving the same resource twice) is still one holder — it
        # answers once, and holder_count must agree with the holders map or
        # the round could never close.
        holder_map = {device_id: True for device_id in self._active_holders(resource_id)}
        holders = list(holder_map)
        self.storage[f"round:{round_id}"] = {
            "resource_id": resource_id,
            "requested_by": requested_by,
            "requested_at": self.block_timestamp,
            "holder_count": len(holder_map),
            "response_count": 0,
            "closed": False,
        }
        self.storage[f"round:{round_id}:holders"] = holder_map
        self.storage[f"round:{round_id}:responses"] = {}
        self.emit(
            "MonitoringRequested",
            round_id=round_id,
            resource_id=resource_id,
            holders=holders,
            requested_by=requested_by,
        )
        return round_id

    def record_usage_evidence(self, round_id: int, device_id: str,
                              evidence: Dict[str, Any]) -> Dict[str, Any]:
        """Store the usage evidence a TEE reported for a monitoring round."""
        meta = self.storage.get(f"round:{round_id}")
        self.require(meta is not None, f"unknown monitoring round {round_id}")
        self.require(not meta["closed"], f"monitoring round {round_id} is closed")
        return self._record_one_evidence(round_id, meta, device_id, evidence)

    def record_usage_evidence_batch(self, round_id: int,
                                    evidence_items: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Batch variant of :meth:`record_usage_evidence`: one transaction per round.

        Each item carries ``device_id`` and ``evidence``.  Evidence is
        processed in order with the exact per-item semantics of the single
        call (events, violation reports, round closing), so a batched round
        leaves the same on-chain record as one transaction per device.
        Items arriving after the round closes mid-batch are rejected without
        being recorded — the same outcome as the sequential flow, where
        those individual transactions revert with "round is closed" — and
        their device ids are returned under ``rejected``.
        """
        meta = self.storage.get(f"round:{round_id}")
        self.require(meta is not None, f"unknown monitoring round {round_id}")
        self.require(not meta["closed"], f"monitoring round {round_id} is closed")
        recorded = 0
        rejected: List[str] = []
        for item in evidence_items:
            if meta["closed"]:
                rejected.append(item["device_id"])
                continue
            meta = self._record_one_evidence(round_id, meta, item["device_id"], item["evidence"])
            recorded += 1
        return {"round_id": round_id, "recorded": recorded,
                "rejected": rejected, "closed": meta["closed"]}

    def _record_one_evidence(self, round_id: int, meta: Dict[str, Any], device_id: str,
                             evidence: Dict[str, Any]) -> Dict[str, Any]:
        """Record one device's evidence; touches O(1) entries.  Returns the meta."""
        is_new_response = self.storage.set_entry(f"round:{round_id}:responses", device_id, evidence)
        if is_new_response and self.storage.has_entry(f"round:{round_id}:holders", device_id):
            meta["response_count"] += 1
            self.storage.set_entry(f"round:{round_id}", "response_count", meta["response_count"])
        # Checked on every record (not only holder responses) so a round with
        # zero active holders closes on its first piece of evidence, exactly
        # like the outstanding-holders scan this counter replaced.
        if meta["response_count"] >= meta["holder_count"]:
            meta["closed"] = True
            self.storage.set_entry(f"round:{round_id}", "closed", True)
        self.storage.append(
            f"evidence:{meta['resource_id']}",
            {"round_id": round_id, "device_id": device_id, "evidence": evidence},
        )
        self.emit(
            "EvidenceRecorded",
            round_id=round_id,
            resource_id=meta["resource_id"],
            device_id=device_id,
            compliant=bool(evidence.get("compliant", False)),
            round_closed=meta["closed"],
        )
        if not evidence.get("compliant", True):
            self.report_violation(
                meta["resource_id"], device_id, evidence.get("details", "non-compliant evidence")
            )
        return meta

    def get_monitoring_round(self, round_id: int) -> Dict[str, Any]:
        """Return the state of a monitoring round (holders, responses, closed)."""
        meta = self.storage.get(f"round:{round_id}")
        self.require(meta is not None, f"unknown monitoring round {round_id}")
        return {
            "resource_id": meta["resource_id"],
            "requested_by": meta["requested_by"],
            "requested_at": meta["requested_at"],
            "holders": sorted(self.storage.get(f"round:{round_id}:holders", {})),
            "responses": self.storage.get(f"round:{round_id}:responses", {}),
            "closed": meta["closed"],
        }

    def get_evidence(self, resource_id: str) -> List[Dict[str, Any]]:
        """Return every piece of evidence recorded for a resource."""
        return self.storage.get(f"evidence:{resource_id}", [])

    # -- violations --------------------------------------------------------------------------

    def report_violation(self, resource_id: str, device_id: str, details: str) -> Dict[str, Any]:
        """Record a detected usage-policy violation."""
        violation = {
            "resource_id": resource_id,
            "device_id": device_id,
            "details": details,
            "reported_at": self.block_timestamp,
        }
        self.storage.append("violations", violation)
        self.storage.append(f"violations:{resource_id}", violation)
        self.emit("ViolationDetected", resource_id=resource_id, device_id=device_id, details=details)
        return violation

    def get_violations(self, resource_id: Optional[str] = None) -> List[Dict[str, Any]]:
        """Return recorded violations, optionally filtered by resource.

        The filtered query is served from the per-resource violations index,
        so it never scans violations concerning other resources.
        """
        if resource_id is None:
            return self.storage.get("violations", [])
        return self.storage.get(f"violations:{resource_id}", [])
