"""Policy monitoring (Fig. 2.6).

"The policy monitoring process regularly checks usage policy compliance once
data are accessed.  The Pod Manager uses the Push-in Oracle to start the
monitoring (for instance, via a scheduled job).  The Push-in Oracle forwards
the request to the DE App, which in turn communicates with all devices that
have a copy of the resource in their Trusted Execution Environment via the
Pull-in Oracle.  The Pull-in Oracle, then, requests evidence that the usage
policies are being adhered to.  The Push-out Oracle is subsequently required
by the DE App to send the pieces of evidence gathered from the various
trusted applications to the Pod Manager that initiated the policy monitoring
process."

The :class:`MonitoringCoordinator` drives that loop for a deployment: it
opens the round through the owner's pod manager, relays the DE App's evidence
requests to the copy-holding devices through the oracle request hub, records
the answers on-chain, and assembles a :class:`MonitoringReport`.

A round runs in three batched phases: the evidence requests for every holder
are enqueued with one ``create_requests`` transaction, the devices'
fulfillments are confirmed in one block through
``BlockchainInteractionModule.batch()``, and the collected evidence is
recorded with one ``record_usage_evidence_batch`` transaction — so a round
seals a small constant number of blocks instead of O(holders).  Rounds over
more than :attr:`MonitoringCoordinator.CHUNK_SIZE` holders split each batch
transaction into bounded chunks that still confirm in one block.

Evidence claiming compliance is **verified** before it is recorded: the
enclave signature must check out over the body, the measurement must be
trusted by the deployment's attestation verifier, and the evidence must
have been generated after the round opened (:func:`verify_evidence`).  A
faulty or Byzantine oracle component that replays stale evidence or forges
a compliant verdict is therefore recorded as a violation, with the
rejection reason on-chain.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.errors import NotFoundError, OracleError
from repro.common.serialization import canonical_json, stable_hash
from repro.blockchain.crypto import verify as verify_signature
from repro.core.participants import DataConsumer, DataOwner

NO_EVIDENCE = {"compliant": False, "details": "no evidence provided"}

# Evidence fields added on top of the signed body by the enclave.
_EVIDENCE_ENVELOPE = ("evidenceId", "signature", "publicKey")


def verify_evidence(evidence: Dict[str, Any], not_before: Optional[float] = None,
                    trusted_measurements: Optional[Set[str]] = None) -> Tuple[bool, str]:
    """Check that a piece of usage evidence is genuine and fresh.

    The enclave signs the evidence body with its attestation key
    (:meth:`~repro.tee.enclave.TrustedExecutionEnvironment.usage_evidence`);
    a faulty or Byzantine oracle component relaying the evidence can replay
    an old answer or rewrite the body, but it cannot re-sign.  Returns
    ``(ok, reason)`` — *reason* is empty when the evidence checks out.
    """
    signature = evidence.get("signature")
    public_key = evidence.get("publicKey")
    if not signature or not public_key:
        return False, "evidence carries no enclave signature"
    body = {key: value for key, value in evidence.items() if key not in _EVIDENCE_ENVELOPE}
    if evidence.get("evidenceId") != stable_hash(body):
        return False, "evidence digest does not match its body"
    try:
        if not verify_signature(tuple(public_key), canonical_json(body), tuple(signature)):
            return False, "invalid enclave signature"
    except (TypeError, ValueError):
        return False, "malformed enclave signature"
    if trusted_measurements is not None and body.get("measurement") not in trusted_measurements:
        return False, "evidence from an untrusted enclave measurement"
    if not_before is not None:
        generated_at = body.get("generatedAt")
        if not isinstance(generated_at, (int, float)) or generated_at < not_before:
            return False, "stale evidence (generated before the round opened)"
    return True, ""


@dataclass
class MonitoringReport:
    """Outcome of one monitoring round."""

    round_id: int
    resource_id: str
    holders: List[str]
    evidence: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    compliant_devices: List[str] = field(default_factory=list)
    non_compliant_devices: List[str] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def all_compliant(self) -> bool:
        return not self.non_compliant_devices

    def to_dict(self) -> dict:
        return {
            "roundId": self.round_id,
            "resourceId": self.resource_id,
            "holders": list(self.holders),
            "compliantDevices": list(self.compliant_devices),
            "nonCompliantDevices": list(self.non_compliant_devices),
            "violations": list(self.violations),
        }


class MonitoringCoordinator:
    """Drives monitoring rounds across the DE App, oracles, and consumer TEEs."""

    # Rounds over more than CHUNK_SIZE holders split their batch
    # transactions (create_requests / record_usage_evidence_batch) into
    # bounded chunks confirmed together in one block, so a 5k-holder round
    # never hashes one 5k-item canonical-JSON payload.  Rounds at or under
    # it submit one transaction per phase.
    CHUNK_SIZE = 500

    def __init__(self, architecture, workers: int = 1):
        self.architecture = architecture
        # With workers > 1 a round partitions its holder set into
        # contiguous shards and hands each to a forked worker process: the
        # per-device evidence generation and enclave-signature verification
        # (the round's CPU wall at 10k consumers) run in parallel against
        # copy-on-write state, and the parent seals every fulfillment once,
        # in holder order, on its own chain.  workers=1 is byte-identical to
        # the in-process flow.  A worker that fails raises its traceback as
        # an OracleError; only a worker that could not be started or never
        # reported makes the round run in-process, recorded in fallbacks.
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.reports: List[MonitoringReport] = []
        # One {"round_id", "reason"} entry per sharded round that ran
        # in-process because its workers could not deliver.
        self.fallbacks: List[Dict[str, Any]] = []

    # -- single round -------------------------------------------------------------

    def run_round(self, owner: DataOwner, resource_path: str) -> MonitoringReport:
        """Execute one complete monitoring round for *resource_path*."""
        arch = self.architecture
        # Evidence generated before the round opened is a replay by
        # definition; remember the opening time for the freshness check.
        opened_at = arch.clock.now()
        resource_id = owner.request_monitoring(resource_path)
        # The architecture wiring records the id start_monitoring returned.
        round_id = owner.monitoring_round_ids[resource_id]
        round_record = arch.dist_exchange_read("get_monitoring_round", {"round_id": round_id})
        holders: List[str] = list(round_record["holders"])
        report = MonitoringReport(round_id=round_id, resource_id=resource_id, holders=holders)
        self._collect_evidence(report, opened_at)
        report.violations = arch.dist_exchange_read("get_violations", {"resource_id": resource_id})
        self.reports.append(report)
        return report

    def _collect_evidence(self, report: MonitoringReport, opened_at: float) -> None:
        """One block per phase: request fan-out, fulfillments, recording.

        Each phase is a single transaction up to :attr:`CHUNK_SIZE` holders
        and a handful of bounded, same-block transactions beyond it.
        """
        arch = self.architecture
        if not report.holders:
            return

        # The DE App requests evidence from every copy holder via the pull-in
        # oracle: one (chunked) transaction enqueues the whole round.
        receipts = arch.operator_module.call_contract_chunked(
            arch.oracle_hub_address,
            "create_requests",
            "requests",
            [
                {
                    "kind": "usage_evidence",
                    "payload": {
                        "resource_id": report.resource_id,
                        "device_id": device_id,
                        "round_id": report.round_id,
                    },
                    "target": device_id,
                }
                for device_id in report.holders
            ],
            chunk_size=self.CHUNK_SIZE,
        )
        returned_ids = [request_id for receipt in receipts for request_id in receipt.return_value]
        request_ids: Dict[str, int] = dict(zip(report.holders, returned_ids))

        # Each device's off-chain pull-in component answers its own request;
        # the fulfillment transactions of every reachable device are sealed
        # in a single block.
        served: List[Tuple[str, int, Optional[DataConsumer]]] = [
            (device_id, request_id, arch.consumer_for_device(device_id))
            for device_id, request_id in request_ids.items()
        ]
        outcomes = self._serve_sharded(served, opened_at, report.round_id)
        modules = {id(c.module): c.module for _, _, c in served if c is not None}
        if outcomes is None:
            with arch.operator_module.batch(*modules.values()):
                for _, request_id, consumer in served:
                    if consumer is not None:
                        consumer.pull_in.serve_request(request_id)
            evidence_by_device = {
                device_id: self._screen_evidence(self._fetch_response(request_id), opened_at)
                for device_id, request_id in request_ids.items()
            }
        else:
            # The workers computed and screened the responses (the expensive
            # enclave work) without touching any chain; the parent submits
            # each fulfillment once, in holder order, so the round seals the
            # same fulfillment block — transaction for transaction — as the
            # in-process flow.
            with arch.operator_module.batch(*modules.values()):
                for device_id, request_id, consumer in served:
                    if consumer is not None and outcomes[device_id]["fulfilled"]:
                        consumer.pull_in.fulfill_served(
                            request_id, outcomes[device_id]["response"])
            evidence_by_device = {
                device_id: outcomes[device_id]["evidence"]
                for device_id in request_ids
            }

        # The collected evidence is recorded in the DE App with one (chunked)
        # batch transaction; it emits one EvidenceRecorded event per device
        # (delivered to the owner by the push-out oracle).  Report
        # bookkeeping runs here, in holder order, so sharded and in-process
        # rounds yield identical reports.
        evidence_items = []
        for device_id in request_ids:
            evidence = evidence_by_device[device_id]
            report.evidence[device_id] = evidence
            if evidence.get("compliant", False):
                report.compliant_devices.append(device_id)
            else:
                report.non_compliant_devices.append(device_id)
            evidence_items.append({"device_id": device_id, "evidence": evidence})
        arch.operator_module.call_contract_chunked(
            arch.dist_exchange_address,
            "record_usage_evidence_batch",
            "evidence_items",
            evidence_items,
            static_args={"round_id": report.round_id},
            chunk_size=self.CHUNK_SIZE,
        )

    # -- scheduled monitoring ------------------------------------------------------------

    def schedule_periodic(self, owner: DataOwner, resource_path: str, interval: float):
        """Register a recurring monitoring job on the architecture's scheduler."""
        if self.architecture.scheduler is None:
            raise NotFoundError("the architecture has no scheduler (a real-time clock is in use)")
        return self.architecture.scheduler.schedule_every(
            interval,
            lambda: self.run_round(owner, resource_path),
            label=f"monitoring:{resource_path}",
        )

    # -- helpers -----------------------------------------------------------------------------

    def _fetch_response(self, request_id: int) -> Dict[str, Any]:
        """Return a request's response, or the no-evidence marker when unanswered."""
        record = self.architecture.node.call(
            self.architecture.oracle_hub_address, "get_request", {"request_id": request_id}
        )
        if not record["fulfilled"]:
            return dict(NO_EVIDENCE)
        return record["response"]

    def _screen_evidence(self, evidence: Dict[str, Any], opened_at: float) -> Dict[str, Any]:
        """Verify one device's evidence; returns what to record.

        Evidence claiming compliance must carry a valid, fresh enclave
        signature from a trusted measurement; otherwise it is rejected and
        recorded as non-compliant (so the DE App registers the violation),
        with the rejection reason in ``details``.  Pure with respect to the
        round (no report bookkeeping), so shard workers can run it.
        """
        if evidence.get("compliant", False):
            ok, reason = verify_evidence(
                evidence,
                not_before=opened_at,
                trusted_measurements=self._trusted_measurements(),
            )
            if not ok:
                evidence = dict(evidence)
                evidence["compliant"] = False
                evidence["details"] = f"evidence rejected: {reason}"
        return evidence

    # -- sharded serving (workers > 1) -------------------------------------------------------

    def _serve_sharded(self, served, opened_at: float, round_id: int):
        """Compute a round's evidence across forked workers; None = run in-process.

        Each worker inherits the whole deployment copy-on-write, detaches
        every chain store (a child must never write to the parent's durable
        log), runs :meth:`_run_shard` on its contiguous shard and streams a
        ``{device_id: {fulfilled, response, evidence}}`` map back through a
        pipe.  Workers submit nothing: the parent's fulfillment batch is
        the only place the round's fulfillments are signed, executed and
        sealed.

        A worker that raises reports its traceback, which the parent raises
        as :class:`OracleError` without re-running the round.  Only a worker
        that could not be started (no ``os.fork``, an ``OSError`` from
        ``pipe``/``fork``; the workers already started are then killed) or
        that never delivered a readable report makes the round run
        in-process; each such round is appended to
        :attr:`fallbacks` with its reason.  Rounds under two holders run
        in-process by design and are not fallbacks.
        """
        if self.workers <= 1 or len(served) < 2:
            return None
        if not hasattr(os, "fork"):
            return self._fall_back(round_id, "os.fork is unavailable on this platform")
        count = min(self.workers, len(served))
        base, extra = divmod(len(served), count)
        shards, start = [], 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            shards.append(served[start:start + size])
            start += size
        children = []
        try:
            for shard in shards:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
                if pid == 0:
                    # Whatever happens, the worker exits here and never
                    # unwinds into the parent's stack.
                    status = 1
                    try:
                        status = self._report_shard(shard, opened_at, read_fd, write_fd)
                    finally:
                        os._exit(status)
                os.close(write_fd)
                children.append((pid, read_fd))
        except OSError as exc:
            # The round reruns in-process, so the started workers' shards
            # would be computed for nothing: stop them before reaping.
            # Imported only here, like traceback below: importing signal
            # adds about 35 kB to every process that imports this module.
            import signal

            for pid, read_fd in children:
                os.kill(pid, signal.SIGKILL)
                os.close(read_fd)
                os.waitpid(pid, 0)
            return self._fall_back(
                round_id, f"could not start a round worker: {type(exc).__name__}: {exc}")
        # Drain every pipe before waiting on its child: a shard result
        # larger than the pipe buffer would otherwise deadlock the pair.
        reports = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as source:
                data = source.read()
            _, status = os.waitpid(pid, 0)
            body = data[8:]
            framed = len(data) >= 8 and int.from_bytes(data[:8], "big") == len(body)
            reports.append((pid, os.waitstatus_to_exitcode(status), framed, body))
        for pid, code, framed, body in reports:
            if code == 1 and framed:
                raise OracleError(
                    f"round worker {pid} failed in monitoring round {round_id}:\n"
                    + body.decode("utf-8", "replace"))
        merged: Dict[str, Dict[str, Any]] = {}
        for pid, code, framed, body in reports:
            if code != 0 or not framed:
                return self._fall_back(
                    round_id, f"round worker {pid} exited with status {code} without a report")
            try:
                merged.update(pickle.loads(body))
            except Exception as exc:
                return self._fall_back(
                    round_id, f"unreadable report from round worker {pid}: {exc!r}")
        if len(merged) != len(served):
            return self._fall_back(
                round_id, f"workers reported {len(merged)} of {len(served)} holders")
        return merged

    def _report_shard(self, shard, opened_at: float, read_fd: int, write_fd: int) -> int:
        """Forked worker: run one shard and write its report; returns the exit status.

        The report is a length-prefixed pickle of :meth:`_run_shard`'s result
        (status 0) or, if the shard raised, its formatted traceback (status
        1).  Status 2 means the pipe itself failed: there is nowhere left to
        report to, and the parent sees a worker without a report.
        """
        try:
            os.close(read_fd)
            self._detach_stores()
            payload, status = pickle.dumps(self._run_shard(shard, opened_at)), 0
        except BaseException:
            # Imported only here: traceback and its dependencies add about
            # 0.4 MB to every process that imports this module.
            import traceback

            payload, status = traceback.format_exc().encode("utf-8"), 1
        try:
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(len(payload).to_bytes(8, "big"))
                sink.write(payload)
        except BaseException:
            return 2
        return status

    def _run_shard(self, shard, opened_at: float) -> Dict[str, Dict[str, Any]]:
        """Worker body: compute and screen one shard's evidence.

        Per device: whether its pull-in component answered, the raw response
        (for the parent to submit in its fulfillment batch), and the screened
        evidence.  Opens no batch, submits no transaction and reads nothing
        back from the hub.  The screening verdict transfers: the parent
        submits byte-identical responses, so re-screening there would reach
        the same conclusion.  The provider call stays here, so a
        ``stale-replay`` component's replay cache lives in the worker and
        dies with it.
        """
        outcomes: Dict[str, Dict[str, Any]] = {}
        for device_id, request_id, consumer in shard:
            response = None if consumer is None else consumer.pull_in.compute_response(request_id)
            outcomes[device_id] = {
                "fulfilled": response is not None,
                "response": response,
                "evidence": self._screen_evidence(
                    dict(NO_EVIDENCE) if response is None else response, opened_at),
            }
        return outcomes

    def _fall_back(self, round_id: int, reason: str) -> None:
        """Record that a sharded round runs in-process, and why."""
        self.fallbacks.append({"round_id": round_id, "reason": reason})

    def _detach_stores(self) -> None:
        """Disconnect every chain in the deployment from its durable store.

        Called in a freshly forked worker: the child shares file
        descriptions (and offsets) with the parent, so a single child write
        would corrupt the parent's log.  Dropping the references is enough —
        the duplicated descriptors are reclaimed when the worker exits.
        """
        arch = self.architecture
        chains = [arch.node.chain]
        if arch.validator_network is not None:
            chains += [validator.node.chain for validator in arch.validator_network.validators
                       if validator.node is not None]
        for chain in chains:
            chain.store = None
            chain.snapshot_interval = 0

    def _trusted_measurements(self) -> Set[str]:
        # Fail loudly if the deployment ever loses its attestation verifier:
        # silently skipping the measurement check would weaken verification.
        return self.architecture.attestation_verifier.trusted_measurements
