"""Blockchain node: transaction pool, block production, and an RPC-like facade.

Off-chain components (pod managers' blockchain interaction modules, the
oracle components, the TEE's evidence publisher) never touch the chain
internals directly; they talk to a :class:`BlockchainNode`, which mirrors the
surface a JSON-RPC endpoint would expose: submit signed transactions, query
receipts and logs, perform read-only contract calls, and register event
filters.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.common.clock import Clock
from repro.common.errors import IntegrityError, SignatureError, ValidationError
from repro.blockchain.block import Block
from repro.blockchain.chain import DEFAULT_MAX_REORG_DEPTH, Blockchain
from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.gas import GasSchedule
from repro.blockchain.storage import ChainStore, RecoveryReport
from repro.blockchain.transaction import LogEntry, Receipt, Transaction, verify_transactions
from repro.blockchain.vm import BlockContext, ContractRegistry


@dataclass(eq=False)
class EventFilter:
    """A subscription over contract event logs.

    ``address`` and ``event`` narrow the logs delivered; ``callback`` (when
    given) is invoked synchronously for each matching log as blocks are
    produced — this is exactly the hook the push-out oracle's off-chain
    component uses.  Two subscriptions are equal only when they are the same
    object, so removing one never compares the logs each has collected.
    """

    address: Optional[str] = None
    event: Optional[str] = None
    callback: Optional[Callable[[LogEntry], None]] = None
    from_block: int = 0
    collected: List[LogEntry] = field(default_factory=list)
    active: bool = True

    def matches(self, log: LogEntry) -> bool:
        if not self.active:
            return False
        if self.address is not None and log.address != self.address:
            return False
        if self.event is not None and log.event != self.event:
            return False
        if log.block_number is not None and log.block_number < self.from_block:
            return False
        return True

    def deliver(self, log: LogEntry) -> None:
        self.collected.append(log)
        if self.callback is not None:
            self.callback(log)

    def stop(self) -> None:
        self.active = False


def forged_batch_error(invalid: List[Transaction]) -> SignatureError:
    """The error that aborts production when deferred signatures are forged."""
    return SignatureError(
        f"{len(invalid)} batched transaction(s) carry invalid signatures "
        f"(first: {invalid[0].hash})"
    )


class BlockchainNode:
    """A validating node with a pending-transaction pool and event filters."""

    def __init__(self, consensus: ProofOfAuthority, validator_key: KeyPair,
                 registry: Optional[ContractRegistry] = None,
                 schedule: Optional[GasSchedule] = None,
                 clock: Optional[Clock] = None,
                 genesis_balances: Optional[Dict[str, int]] = None,
                 require_signatures: bool = True,
                 persist_dir: Optional[str] = None,
                 max_reorg_depth: Optional[int] = None,
                 snapshot_interval: int = 0,
                 genesis_timestamp: Optional[float] = None):
        # A static committee is closed: the node's key must be in it.  An
        # epoch-aware deployment admits keys outside the genesis set — a
        # joiner's authority comes from the registry contract, and the slot
        # schedule (not node construction) decides who may seal.
        if consensus.epoch_length <= 0 and not consensus.is_validator(validator_key.address):
            raise ValidationError("the node's key must belong to the validator set")
        self.consensus = consensus
        self.validator_key = validator_key
        self.chain = Blockchain(
            consensus, registry, schedule, clock, genesis_balances,
            max_reorg_depth=(
                max_reorg_depth if max_reorg_depth is not None
                else DEFAULT_MAX_REORG_DEPTH
            ),
            genesis_timestamp=genesis_timestamp,
        )
        # Populated by open_from_disk with what recovery found on disk.
        self.recovery: Optional[RecoveryReport] = None
        if persist_dir is not None:
            store = ChainStore.create(
                persist_dir,
                genesis_balances or {},
                list(consensus.validators),
                consensus.block_interval,
                self.chain.max_reorg_depth,
                epoch_length=consensus.epoch_length,
                snapshot_interval=snapshot_interval,
                require_signatures=require_signatures,
                genesis_timestamp=self.chain.blocks[0].header.timestamp,
            )
            self.chain.attach_store(store)
            store.record_contracts(
                {name: self.registry.get(name) for name in self.registry.known()})
        self.pending: List[Transaction] = []
        self._pending_by_sender: Dict[str, int] = {}
        # Transactions enqueued while a batch is active; their signatures are
        # checked in one amortized verify_batch pass at block production.
        self._deferred_verification: List[Transaction] = []
        # The TransactionBatch currently deferring submissions, if any;
        # batches are exclusive per node (see BlockchainInteractionModule.batch).
        self.active_batch: Optional[object] = None
        self.filters: List[EventFilter] = []
        # Filters indexed by their (address, event) narrowing, so delivering
        # a log consults only the filters that could match it — with one
        # filter per consumer device (policy-update subscriptions), scanning
        # every filter for every log made log dispatch O(devices x logs).
        self._filters_by_key: Dict[tuple, List[EventFilter]] = {}
        self.require_signatures = require_signatures
        self.blocks_produced = 0
        # Back-reference set by a BlockchainNetwork when this node is one
        # replica of a multi-validator deployment.  Submissions are then
        # broadcast to every replica and block production goes through the
        # network's proposer rotation instead of this node's key alone.
        self.network = None

    # -- registry / deployment helpers ----------------------------------------

    @property
    def registry(self) -> ContractRegistry:
        return self.chain.vm.registry

    def register_contract(self, contract_class, name: Optional[str] = None) -> str:
        """Make a contract class deployable on this node."""
        key = self.registry.register(contract_class, name)
        if self.chain.store is not None:
            self.chain.store.record_contract(key, contract_class)
        return key

    # -- durability -------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: sync the chain store and release its handles."""
        if self.chain.store is not None:
            self.chain.store.close()

    def hard_crash(self, torn_tail: bool = False) -> None:
        """Simulate kill -9: drop the store handles without syncing.

        No acknowledgement is appended to ``commits.log`` (records past its
        last committed count form the unsynced tail) and *torn_tail* leaves
        a half-written record at the end of the block log — both of which
        recovery must handle.
        """
        if self.chain.store is not None:
            self.chain.store.abandon(torn_tail=torn_tail)

    @staticmethod
    def _restore_registry(registry: ContractRegistry, store: ChainStore) -> None:
        """Make every durably recorded contract resolvable again.

        A class the caller already provided (the deployment's registry
        factory) wins; missing names are imported by their recorded
        module/qualname.  A recorded contract that can no longer be
        resolved is fatal — the chain's transactions would not replay.
        """
        known = set(registry.known())
        for entry in store.read_registry():
            name = entry.get("name")
            if name in known:
                continue
            try:
                target: Any = importlib.import_module(entry["module"])
                for part in entry["qualname"].split("."):
                    target = getattr(target, part)
            except Exception as exc:
                raise IntegrityError(
                    f"durable registry entry {name!r} -> "
                    f"{entry.get('module')}.{entry.get('qualname')} cannot be "
                    f"resolved: {exc}"
                ) from exc
            registry.register(target, name)

    @classmethod
    def open_from_disk(cls, persist_dir: str, validator_key: KeyPair,
                       registry: Optional[ContractRegistry] = None,
                       schedule: Optional[GasSchedule] = None,
                       clock: Optional[Clock] = None,
                       consensus: Optional[ProofOfAuthority] = None) -> "BlockchainNode":
        """Rebuild a node from its persist directory after a (hard) crash.

        Opens the store (verifying every record checksum and truncating any
        torn tail), reconstructs the consensus engine from the manifest —
        or cross-checks a provided one against it — restores the durable
        contract registry, and cold-starts the chain from the best valid
        snapshot plus a re-executed tail.  The resulting
        :class:`~repro.blockchain.storage.RecoveryReport` is left on
        ``node.recovery``.
        """
        store, report = ChainStore.open(persist_dir)
        if consensus is None:
            consensus = ProofOfAuthority(
                validators=store.validators,
                block_interval=store.block_interval,
                epoch_length=store.epoch_length,
            )
        else:
            if (
                list(consensus.validators) != store.validators
                or consensus.block_interval != store.block_interval
                or consensus.epoch_length != store.epoch_length
            ):
                raise IntegrityError(
                    f"chain store at {persist_dir} was written for a different "
                    f"genesis validator set, block interval, or epoch length "
                    f"than the provided consensus"
                )
            # The manifest cross-check covers genesis CONFIG only.  Rotation
            # history is chain STATE: start from a fresh engine and let
            # load_from_store re-derive the active set from restored contract
            # state instead of inheriting whatever the caller's engine holds.
            consensus = consensus.with_validators(store.validators)
        registry = registry if registry is not None else ContractRegistry()
        cls._restore_registry(registry, store)
        node = cls(
            consensus,
            validator_key,
            registry=registry,
            schedule=schedule,
            clock=clock,
            genesis_balances=store.genesis_balances,
            require_signatures=store.require_signatures,
            max_reorg_depth=store.max_reorg_depth,
            genesis_timestamp=store.genesis_timestamp,
        )
        node.chain.load_from_store(store, report)
        node.recovery = report
        return node

    # -- transaction submission --------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> str:
        """Validate and enqueue a signed transaction; returns its hash.

        On a networked node the transaction is broadcast to every online
        replica's mempool; otherwise it is enqueued locally.  Outside a
        batch the signature is checked immediately.  While a
        :class:`~repro.oracles.base.TransactionBatch` is active (a
        monitoring round confirming thousands of fulfillments in one
        block), verification is deferred and performed as a single
        amortized pass when the block is produced — an invalid signature
        still never reaches the chain, the error just surfaces at flush.
        """
        if self.network is not None:
            return self.network.broadcast_transaction(tx)
        return self.enqueue_transaction(tx)

    def enqueue_transaction(self, tx: Transaction, defer_verification: bool = False) -> str:
        """Add a transaction to this node's own pending pool.

        With *defer_verification* (replicas receiving a broadcast) the
        signature check is postponed to the amortized pre-production pass;
        the transaction can never reach the chain unverified.
        """
        if self.require_signatures:
            if defer_verification or self.active_batch is not None:
                self._deferred_verification.append(tx)
            elif not tx.verify_signature():
                raise SignatureError(f"transaction {tx.hash} carries an invalid signature")
        self.pending.append(tx)
        self._pending_by_sender[tx.sender] = self._pending_by_sender.get(tx.sender, 0) + 1
        return tx.hash

    def next_nonce(self, address: str) -> int:
        """Nonce the next transaction from *address* should carry.

        Accounts for transactions already sitting in the pending pool (via a
        per-sender counter, so queueing N transactions costs O(N), not
        O(N^2)) so a sender can queue several transactions for one block.
        """
        on_chain = 0
        if self.chain.state.has_account(address):
            on_chain = self.chain.state.get_account(address).nonce
        return on_chain + self._pending_by_sender.get(address, 0)

    # -- block production ------------------------------------------------------------

    def verify_deferred(self) -> List[Transaction]:
        """Batch-verify deferred signatures; drop and return the invalid ones.

        Invalid transactions are removed from the pending pool (so a later
        block cannot include them); the caller raises
        :func:`forged_batch_error` for them (the network first drops them
        from every other replica too).
        """
        if not self._deferred_verification:
            return []
        deferred, self._deferred_verification = self._deferred_verification, []
        invalid = [
            tx for tx, ok in zip(deferred, verify_transactions(deferred)) if not ok
        ]
        if invalid:
            self._remove_from_pending({id(tx) for tx in invalid}, by_identity=True)
        return invalid

    def drop_transactions(self, tx_hashes) -> None:
        """Remove the given transactions from the pending pool (by hash)."""
        hashes = set(tx_hashes)
        if not hashes:
            return
        self._remove_from_pending(hashes, by_identity=False)
        self._deferred_verification = [
            tx for tx in self._deferred_verification if tx.hash not in hashes
        ]

    def _remove_from_pending(self, keys, by_identity: bool) -> None:
        marker = (lambda tx: id(tx)) if by_identity else (lambda tx: tx.hash)
        removed = [tx for tx in self.pending if marker(tx) in keys]
        if not removed:
            return
        self.pending = [tx for tx in self.pending if marker(tx) not in keys]
        for tx in removed:
            remaining = self._pending_by_sender.get(tx.sender, 0) - 1
            if remaining > 0:
                self._pending_by_sender[tx.sender] = remaining
            else:
                self._pending_by_sender.pop(tx.sender, None)

    def produce_block(self, timestamp: Optional[float] = None) -> Block:
        """Execute the pending pool into a sealed block and append it.

        On a networked node this drives the network's proposer rotation
        until this node's pending transactions are canonically mined (a
        reorg can momentarily return them to the pool), mirroring the
        auto-mining contract the interaction modules rely on.
        """
        if self.network is not None:
            network = self.network
            me = network.validator_by_address(self.validator_key.address)
            if not me.online:
                raise ValidationError(
                    "an offline validator cannot drive block production"
                )
            block = network.produce_until_block()
            stalled_rounds = 0
            while self.pending:
                before = len(self.pending)
                block = network.produce_until_block()
                if len(self.pending) >= before:
                    # A reorg can momentarily return transactions to the
                    # pool; sustained lack of progress means they are not
                    # being mined at all (do not spin forever).
                    stalled_rounds += 1
                    if stalled_rounds > 2 * len(network.validators):
                        raise ValidationError(
                            f"{len(self.pending)} pending transaction(s) are "
                            f"not being mined by any proposer"
                        )
                else:
                    stalled_rounds = 0
            return block
        invalid = self.verify_deferred()
        if invalid:
            raise forged_batch_error(invalid)
        proposer = self.consensus.expected_proposer(self.chain.height + 1)
        if proposer != self.validator_key.address:
            # Single-node deployments simply rotate through the schedule; a
            # node only refuses when it genuinely lacks the proposer's key.
            raise ValidationError(
                f"not this node's turn: block {self.chain.height + 1} expects {proposer}"
            )
        return self.propose_block(None, timestamp)

    def propose_block(self, slot: Optional[int], timestamp: Optional[float] = None) -> Block:
        """Build, seal and append the pending pool as the next block.

        The one sealing path: single-node production passes no *slot*; the
        network's production loop passes the rotation slot, which is
        recorded in the header extra (and therefore covered by the seal) so
        every replica can check the seal against the rotation schedule.
        Single-node headers carry no slot.  The caller is responsible for
        having verified deferred signatures first.
        """
        transactions = list(self.pending)
        self.pending.clear()
        self._pending_by_sender.clear()
        block = self.chain.build_block(transactions, self.validator_key.address, timestamp)
        if slot is not None:
            block.header.extra["slot"] = slot
        self.consensus.seal(block, self.validator_key)
        self.chain.append_block(block)
        self.blocks_produced += 1
        self._dispatch_logs(block)
        return block

    def import_block(self, block: Block) -> str:
        """Accept a sealed block from a peer replica.

        The chain validates and executes it (possibly reorging to the
        branch it completes); transactions that became canonical leave the
        pending pool, transactions a reorg detached return to it, and event
        filters see the logs of every newly canonical block.
        """
        if self.require_signatures:
            # The chain re-verifies every *carried* signature; a node that
            # requires signatures must additionally refuse blocks smuggling
            # unsigned transactions (which carry nothing to verify).
            unsigned = [
                tx.hash for tx in block.transactions
                if tx.signature is None or tx.public_key is None
            ]
            if unsigned:
                raise IntegrityError(
                    f"block {block.number} carries unsigned transaction(s): "
                    f"{unsigned[:3]}"
                )
        status, applied, detached = self.chain.receive_block(block)
        if applied:
            included = {tx.hash for b in applied for tx in b.transactions}
            if included:
                self.drop_transactions(included)
            returned = [
                tx for b in detached for tx in b.transactions if tx.hash not in included
            ]
            pending_hashes = {tx.hash for tx in self.pending}
            for tx in returned:
                if tx.hash not in pending_hashes:
                    self.enqueue_transaction(tx, defer_verification=True)
            for b in applied:
                self._dispatch_logs(b)
        return status

    def _dispatch_logs(self, block: Block) -> None:
        for receipt in block.receipts:
            for log in receipt.logs:
                for key in (
                    (log.address, log.event),
                    (log.address, None),
                    (None, log.event),
                    (None, None),
                ):
                    for event_filter in self._filters_by_key.get(key, ()):
                        if event_filter.matches(log):
                            event_filter.deliver(log)

    # -- queries ----------------------------------------------------------------------

    def get_receipt(self, transaction_hash: str) -> Receipt:
        return self.chain.receipt_for(transaction_hash)

    def get_balance(self, address: str) -> int:
        return self.chain.state.balance_of(address)

    def call(self, address: str, method: str, args: Optional[Dict[str, Any]] = None,
             caller: Optional[str] = None) -> Any:
        """Read-only contract call evaluated against the current head state."""
        block = BlockContext(
            number=self.chain.height,
            timestamp=self.chain.head.header.timestamp,
            proposer=self.chain.head.header.proposer,
        )
        return self.chain.vm.call_readonly(address, method, args, caller, block)

    def get_logs(self, address: Optional[str] = None, event: Optional[str] = None,
                 from_block: int = 0) -> List[LogEntry]:
        """Return historical logs matching the given criteria.

        Served from the chain's per-address / per-event log indexes instead
        of scanning every block.
        """
        return self.chain.logs_for(address=address, event=event, from_block=from_block)

    def add_filter(self, address: Optional[str] = None, event: Optional[str] = None,
                   callback: Optional[Callable[[LogEntry], None]] = None,
                   from_block: Optional[int] = None) -> EventFilter:
        """Register a live event filter (the push-out oracle's subscription)."""
        event_filter = EventFilter(
            address=address,
            event=event,
            callback=callback,
            from_block=from_block if from_block is not None else self.chain.height + 1,
        )
        self.filters.append(event_filter)
        self._filters_by_key.setdefault((address, event), []).append(event_filter)
        return event_filter

    def remove_filter(self, event_filter: EventFilter) -> None:
        event_filter.stop()
        if event_filter in self.filters:
            self.filters.remove(event_filter)
        bucket = self._filters_by_key.get((event_filter.address, event_filter.event))
        if bucket and event_filter in bucket:
            bucket.remove(event_filter)
