"""Chain storage and validation.

The :class:`Blockchain` owns the ordered list of blocks, the canonical world
state, and the contract VM.  It exposes exactly the operations the node and
the benchmarks need: append validated blocks, look up blocks/transactions/
receipts, verify the whole chain (the tamper-evidence property of
Section V-2), and rebuild the state by replaying blocks.

Transactions are executed in one place, :func:`execute_transactions`.  A
sealed block the chain did not build itself — a peer's, a reorg branch, the
store's non-final tail, or any block under :meth:`Blockchain.replay` — goes
through :func:`execute_block`, which checks the header's ``gas_used``,
``receipts_root`` and ``state_root`` against that execution, so every path
checks a block the same way.

Appending a block maintains a set of indexes so lookups never scan the chain:

* ``tx hash -> (block number, position)`` behind :meth:`transaction_by_hash`;
* per-sender and per-recipient ``(transaction, receipt)`` lists behind
  :meth:`transactions_with_receipts` (the explorer's audit queries);
* per-address and per-event log lists behind :meth:`logs_for`;
* running aggregates (transaction/failure/gas counters, gas grouped by
  sender and by method) behind the O(1) statistics accessors.

The chain is no longer a bare list: sealed blocks received from peers are
kept in a **block tree** keyed by parent hash, so a node can hold competing
tips (the fallout of an equivocating validator).  Fork-choice is
deterministic — longest valid chain, ties broken by lowest header hash —
and switching branches is a bounded :meth:`reorg`: the journaled world
state rolls back to the fork point (one open journal frame per non-final
canonical block) and the winning branch is executed and fully validated in
its place.  A branch whose execution does not match its headers (forged
``gas_used``, stale ``state_root``) is rejected and marked invalid, and the
previous canonical chain is restored.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.common.clock import Clock, SystemClock
from repro.common.errors import IntegrityError, NotFoundError, ValidationError
from repro.common.serialization import from_canonical_json
from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.consensus import EquivocationDetector, EquivocationProof, ProofOfAuthority
from repro.blockchain.gas import GasSchedule
from repro.blockchain.state import WorldState
from repro.blockchain.storage import read_checked_json
from repro.blockchain.transaction import LogEntry, Receipt, Transaction, verify_transactions
from repro.blockchain.vm import BlockContext, ContractRegistry, ContractVM

GENESIS_PARENT_HASH = "0x" + "00" * 32

# Canonical blocks deeper than this are final: their journal frames are
# discarded and no reorg can cross them.
DEFAULT_MAX_REORG_DEPTH = 64


def execute_transactions(vm: ContractVM, transactions: List[Transaction],
                         context: BlockContext) -> Tuple[List[Receipt], int]:
    """Run *transactions* in order on *vm*'s state: ``(receipts, gas used)``.

    The one place a block's transactions are executed — production, peer
    import, reorg, the cold-start tail and replay all come through here —
    and where receipts and their logs are stamped with the block number,
    transaction hash and log index.
    """
    receipts: List[Receipt] = []
    gas_used = 0
    for tx in transactions:
        receipt = vm.execute_transaction(tx, context)
        receipt.block_number = context.number
        for index, log in enumerate(receipt.logs):
            log.block_number = context.number
            log.transaction_hash = tx.hash
            log.log_index = index
        receipts.append(receipt)
        gas_used += receipt.gas_used
    return receipts, gas_used


def execute_block(vm: ContractVM, block: Block) -> List[Receipt]:
    """Execute a sealed block on *vm*'s state and check its header against it.

    Raises :class:`IntegrityError` when the header's ``gas_used``,
    ``receipts_root`` or ``state_root`` does not match the execution — the
    check that catches a forgery surviving a re-seal.  Returns the receipts
    of the execution; the caller owns the state's journal frame.
    """
    header = block.header
    context = BlockContext(
        number=header.number, timestamp=header.timestamp, proposer=header.proposer
    )
    receipts, gas_used = execute_transactions(vm, block.transactions, context)
    if gas_used != header.gas_used:
        raise IntegrityError(
            f"block {header.number} header claims gas_used={header.gas_used} "
            f"but its transactions consume {gas_used}"
        )
    if Block.compute_receipts_root(receipts) != header.receipts_root:
        raise IntegrityError(
            f"block {header.number} receipts do not match the executed transactions"
        )
    if header.state_root != vm.state.state_root():
        raise IntegrityError(
            f"block {header.number} commits to a state root that does not match "
            f"the state its transactions produce"
        )
    return receipts


def check_signatures(block: Block) -> None:
    """Re-verify every signature a block's transactions carry.

    One amortized :func:`verify_transactions` pass; raises
    :class:`IntegrityError` naming the first forged transactions.
    Unsigned transactions carry nothing to verify and pass.
    """
    signed = [tx for tx in block.transactions
              if tx.signature is not None or tx.public_key is not None]
    if not signed:
        return
    forged = [tx.hash for tx, ok in zip(signed, verify_transactions(signed)) if not ok]
    if forged:
        raise IntegrityError(
            f"block {block.number} carries transaction(s) with forged "
            f"signatures: {forged[:3]}"
        )


class Blockchain:
    """A chain of validated blocks, a block tree of competing tips, and state."""

    def __init__(self, consensus: ProofOfAuthority, registry: Optional[ContractRegistry] = None,
                 schedule: Optional[GasSchedule] = None, clock: Optional[Clock] = None,
                 genesis_balances: Optional[Dict[str, int]] = None,
                 max_reorg_depth: int = DEFAULT_MAX_REORG_DEPTH,
                 genesis_timestamp: Optional[float] = None):
        self.consensus = consensus
        self.clock = clock if clock is not None else SystemClock()
        # A restart must rebuild a bit-identical genesis even though the
        # shared clock has advanced; the store's manifest carries the
        # original timestamp and passes it back through here.
        self._genesis_timestamp = genesis_timestamp
        self._genesis_balances = dict(genesis_balances or {})
        self.state = self._genesis_state()
        self.vm = ContractVM(self.state, registry, schedule)
        self.blocks: List[Block] = []
        self._receipts_by_tx: Dict[str, Receipt] = {}
        self._blocks_by_hash: Dict[str, Block] = {}
        # -- block tree / fork choice -----------------------------------------
        if max_reorg_depth < 1:
            raise ValidationError("max_reorg_depth must be at least 1")
        self.max_reorg_depth = max_reorg_depth
        self.equivocation = EquivocationDetector(consensus)
        self._children: Dict[str, List[str]] = {}
        self._tips: Set[str] = set()
        self._invalid_blocks: Set[str] = set()
        # One open journal frame per non-final canonical block; True while a
        # block built by build_block awaits its append_block.
        self._open_frames = 0
        self._pending_frame = False
        # -- durability (see repro.blockchain.storage) ------------------------
        # When a ChainStore is attached, every canonical adoption appends a
        # checksummed record, reorgs rewind the log, cadence heights emit
        # pending state snapshots, and finality promotes them.  _restoring
        # suppresses the hooks while the chain is being rebuilt FROM the
        # store (the records are already on disk).
        self.store = None
        self.snapshot_interval = 0
        self._restoring = False
        # -- dynamic validator set (see repro.contracts.validator_registry) ---
        # When a registry contract address is set and the consensus engine is
        # epoch-aware (epoch_length > 0), every adopted block at an epoch
        # boundary derives the next rotation from contract state via a
        # read-only call, and reorgs roll recorded rotations back with the
        # blocks that produced them.
        self.validator_registry_address: Optional[str] = None
        # -- chain indexes, maintained by _index_block -----------------------
        self._tx_locations: Dict[str, Tuple[int, int]] = {}
        self._tx_receipts: List[Tuple[Transaction, Receipt]] = []
        self._tx_receipts_by_sender: Dict[str, List[Tuple[Transaction, Receipt]]] = {}
        self._tx_receipts_by_recipient: Dict[str, List[Tuple[Transaction, Receipt]]] = {}
        self._logs: List[LogEntry] = []
        self._logs_by_address: Dict[str, List[LogEntry]] = {}
        self._logs_by_event: Dict[str, List[LogEntry]] = {}
        self._transaction_count = 0
        self._failed_transaction_count = 0
        self._total_gas = 0
        self._gas_by_sender: Dict[str, int] = {}
        self._gas_by_method: Dict[str, int] = {}
        self._create_genesis()

    # -- genesis -----------------------------------------------------------

    def _genesis_state(self) -> WorldState:
        """A fresh world state holding only the genesis balances."""
        state = WorldState()
        for address, balance in self._genesis_balances.items():
            state.create_account(address, balance=balance)
        return state

    def _create_genesis(self) -> None:
        header = BlockHeader(
            number=0,
            parent_hash=GENESIS_PARENT_HASH,
            timestamp=(
                self._genesis_timestamp
                if self._genesis_timestamp is not None
                else self.clock.now()
            ),
            transactions_root=Block.compute_transactions_root([]),
            receipts_root=Block.compute_receipts_root([]),
            state_root=self.state.state_root(),
            proposer=self.consensus.validators[0],
        )
        genesis = Block(header=header)
        self.blocks.append(genesis)
        self._blocks_by_hash[genesis.hash] = genesis
        self._tips.add(genesis.hash)

    # -- accessors ------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].number

    @property
    def head(self) -> Block:
        return self.blocks[-1]

    def block_by_number(self, number: int) -> Block:
        if not 0 <= number < len(self.blocks):
            raise NotFoundError(f"no block at height {number}")
        return self.blocks[number]

    def block_by_hash(self, block_hash: str) -> Block:
        """Return a block from the tree (canonical or competing branch)."""
        if block_hash not in self._blocks_by_hash:
            raise NotFoundError(f"no block with hash {block_hash}")
        return self._blocks_by_hash[block_hash]

    def knows_block(self, block_hash: str) -> bool:
        """Whether the block is in the tree (canonical or not)."""
        return block_hash in self._blocks_by_hash

    def receipt_for(self, transaction_hash: str) -> Receipt:
        if transaction_hash not in self._receipts_by_tx:
            raise NotFoundError(f"no receipt for transaction {transaction_hash}")
        return self._receipts_by_tx[transaction_hash]

    def transaction_by_hash(self, transaction_hash: str) -> Transaction:
        location = self._tx_locations.get(transaction_hash)
        if location is None:
            raise NotFoundError(f"no transaction with hash {transaction_hash}")
        number, position = location
        return self.blocks[number].transactions[position]

    def transaction_location(self, transaction_hash: str) -> Tuple[int, int]:
        """Return ``(block number, position in block)`` of a transaction."""
        location = self._tx_locations.get(transaction_hash)
        if location is None:
            raise NotFoundError(f"no transaction with hash {transaction_hash}")
        return location

    # -- indexed queries -------------------------------------------------------

    def transactions_with_receipts(self, sender: Optional[str] = None,
                                   to: Optional[str] = None) -> List[Tuple[Transaction, Receipt]]:
        """Return ``(transaction, receipt)`` pairs in chain order.

        Uses the per-sender / per-recipient indexes, so filtered queries cost
        O(matching transactions) instead of O(chain).
        """
        if sender is not None:
            pairs = self._tx_receipts_by_sender.get(sender, [])
            if to is not None:
                return [(tx, receipt) for tx, receipt in pairs if tx.to == to]
            return list(pairs)
        if to is not None:
            return list(self._tx_receipts_by_recipient.get(to, []))
        return list(self._tx_receipts)

    def logs_for(self, address: Optional[str] = None, event: Optional[str] = None,
                 from_block: int = 0) -> List[LogEntry]:
        """Return logs in chain order, narrowed via the log indexes."""
        if address is not None and event is not None:
            by_address = self._logs_by_address.get(address, [])
            by_event = self._logs_by_event.get(event, [])
            candidates = by_address if len(by_address) <= len(by_event) else by_event
        elif address is not None:
            candidates = self._logs_by_address.get(address, [])
        elif event is not None:
            candidates = self._logs_by_event.get(event, [])
        else:
            candidates = self._logs
        return [
            log for log in candidates
            if (address is None or log.address == address)
            and (event is None or log.event == event)
            and (log.block_number is None or log.block_number >= from_block)
        ]

    def all_logs(self) -> List[LogEntry]:
        """Return every event log recorded on the chain, in order."""
        return list(self._logs)

    def total_gas_used(self) -> int:
        """Sum of the gas consumed by every block (the affordability metric)."""
        return self._total_gas

    def transaction_count(self) -> int:
        return self._transaction_count

    def failed_transaction_count(self) -> int:
        return self._failed_transaction_count

    def log_count(self) -> int:
        return len(self._logs)

    def gas_by_sender(self) -> Dict[str, int]:
        """Total gas consumed, grouped by transaction sender (O(senders))."""
        return dict(self._gas_by_sender)

    def gas_by_method(self) -> Dict[str, int]:
        """Total gas consumed, grouped by called method (O(methods))."""
        return dict(self._gas_by_method)

    @staticmethod
    def method_key(tx: Transaction) -> str:
        """Grouping key used by the per-method gas aggregates."""
        return tx.data.get("method") or ("<deploy>" if tx.is_contract_creation else "<transfer>")

    # -- block production ---------------------------------------------------------

    def build_block(self, transactions: List[Transaction], proposer: str,
                    timestamp: Optional[float] = None) -> Block:
        """Execute *transactions* on the state and assemble the next block.

        The caller (the node's consensus loop) is responsible for sealing the
        returned block and handing it to :meth:`append_block`.
        """
        if not self.consensus.is_validator(proposer):
            raise ValidationError(f"{proposer} is not an authorized validator")
        if self._pending_frame:
            # An earlier build was abandoned (never appended); discard its
            # state effects so this build starts from the head state.
            self.state.rollback()
            self._pending_frame = False
        self.state.begin()
        self._pending_frame = True
        context = BlockContext(
            number=self.height + 1,
            timestamp=timestamp if timestamp is not None else self.clock.now(),
            proposer=proposer,
        )
        included = list(transactions)
        receipts, gas_used = execute_transactions(self.vm, included, context)
        header = BlockHeader(
            number=context.number,
            parent_hash=self.head.hash,
            timestamp=context.timestamp,
            transactions_root=Block.compute_transactions_root(included),
            receipts_root=Block.compute_receipts_root(receipts),
            # The incremental root only re-hashes accounts touched by the
            # transactions above; append_block then reuses the cached value.
            state_root=self.state.state_root(),
            proposer=proposer,
            gas_used=gas_used,
        )
        return Block(header=header, transactions=included, receipts=receipts)

    def append_block(self, block: Block) -> Block:
        """Validate a sealed block against the head and append it.

        Pairs with :meth:`build_block`, which executed the block's
        transactions and left their journal frame open; a validation
        failure rolls that frame back, so a rejected block leaves no trace
        on the state.
        """
        try:
            self.consensus.validate_block(block, self.head.header)
            # state_root() returns the root cached by build_block — no state
            # is re-hashed here as long as nothing mutated it in between.
            if block.header.state_root != self.state.state_root():
                raise IntegrityError(
                    f"block {block.number} commits to a state root that does not match the local state"
                )
        except IntegrityError:
            if self._pending_frame:
                self.state.rollback()
                self._pending_frame = False
            raise
        if not self._pending_frame:
            # Hand-assembled block (tests appending an empty block without
            # build_block): open an empty frame so every canonical non-final
            # block owns exactly one frame.
            self.state.begin()
        self._pending_frame = False
        self._adopt_canonical(block)
        return block

    def attach_store(self, store) -> None:
        """Persist every canonical block (and snapshot cadence) to *store*."""
        self.store = store
        self.snapshot_interval = store.snapshot_interval

    def use_validator_registry(self, address: str) -> None:
        """Derive the rotation from the registry contract at *address*.

        Takes effect at the next epoch boundary; heights already adopted
        keep the rotations they were validated under.
        """
        self.validator_registry_address = address
        if self.store is not None and not self._restoring:
            self._save_rotations()

    def _save_rotations(self) -> None:
        """Persist the registry address and derived rotations as a sidecar.

        The sidecar is pure recovery acceleration: a cold start seeds the
        consensus engine from it so the fast-adopted final prefix validates
        under the rotations it was sealed under, then re-derives the live
        rotation from the restored contract state.
        """
        if self.store is None:
            return
        epoch_length = self.consensus.epoch_length
        self.store.save_rotations({
            "registryAddress": self.validator_registry_address,
            "rotations": {
                str(epoch): {
                    "height": epoch * epoch_length,
                    "validators": list(validators),
                }
                for epoch, validators in self.consensus.rotation_history().items()
            },
        })

    def _maybe_derive_rotation(self, block: Block) -> None:
        """At an epoch boundary, derive the next rotation from contract state.

        Runs for every adopted block — live production, peer import, reorg
        re-application, and cold-start tail re-execution all converge on the
        same state-derived schedule.  The read-only call sees the post-block
        state (the block's journal frame is open on the head state), so the
        rotation for epoch ``e`` reflects every join/leave/slash settled up
        to and including boundary block ``e * epoch_length``.
        """
        epoch_length = self.consensus.epoch_length
        if (
            epoch_length <= 0
            or self.validator_registry_address is None
            or block.number <= 0
            or block.number % epoch_length != 0
        ):
            return
        active = self.vm.call_readonly(
            self.validator_registry_address,
            "active_validators",
            block=BlockContext(
                number=block.number,
                timestamp=block.header.timestamp,
                proposer=block.header.proposer,
            ),
        )
        if not active:
            # An empty committee cannot seal anything; keep the previous
            # rotation rather than bricking the chain.
            return
        self.consensus.record_rotation(block.number // epoch_length, list(active))
        if self.store is not None and not self._restoring:
            self._save_rotations()

    def observe_seal(self, block: Block):
        """Feed a sealed block to the equivocation detector, persisting proofs.

        Every observation site (local production, peer import, gossiped
        siblings) goes through here so a slashable double-seal reaches the
        durable proof file the moment it is detected — the rotation/slash
        state then survives a hard crash.
        """
        proof = self.equivocation.observe(block)
        if proof is not None and self.store is not None and not self._restoring:
            self.store.append_proof(proof)
        return proof

    def _adopt_canonical(self, block: Block) -> None:
        """Make an executed, validated block the new canonical head."""
        self.blocks.append(block)
        self._blocks_by_hash[block.hash] = block
        self._add_to_tree(block)
        self.observe_seal(block)
        self._index_block(block)
        self._maybe_derive_rotation(block)
        self._open_frames += 1
        persisting = self.store is not None and not self._restoring
        if persisting:
            self.store.append_block(block)
            if self.snapshot_interval and block.number % self.snapshot_interval == 0:
                # The head state right now IS the state at this height; the
                # snapshot stays pending until the height finalizes below.
                # The write serializes the live state at once: no copy.
                self.store.write_pending_snapshot(
                    block.number, block.header.state_root, self.state.live_dict()
                )
        while self._open_frames > self.max_reorg_depth:
            finalized = self.height - self._open_frames + 1
            self.state.commit_oldest()
            self._open_frames -= 1
            if persisting:
                self.store.promote_snapshots_up_to(finalized)

    def _add_to_tree(self, block: Block) -> None:
        siblings = self._children.setdefault(block.header.parent_hash, [])
        if block.hash not in siblings:
            siblings.append(block.hash)
        self._tips.discard(block.header.parent_hash)
        if block.hash not in self._children or not self._children[block.hash]:
            self._tips.add(block.hash)

    def _index_block(self, block: Block) -> None:
        """Fold a newly appended block into the chain indexes."""
        self._total_gas += block.header.gas_used
        for position, (tx, receipt) in enumerate(zip(block.transactions, block.receipts)):
            self._receipts_by_tx[receipt.transaction_hash] = receipt
            self._tx_locations[tx.hash] = (block.number, position)
            pair = (tx, receipt)
            self._tx_receipts.append(pair)
            self._tx_receipts_by_sender.setdefault(tx.sender, []).append(pair)
            if tx.to is not None:
                self._tx_receipts_by_recipient.setdefault(tx.to, []).append(pair)
            self._transaction_count += 1
            if not receipt.status:
                self._failed_transaction_count += 1
            self._gas_by_sender[tx.sender] = self._gas_by_sender.get(tx.sender, 0) + receipt.gas_used
            key = self.method_key(tx)
            self._gas_by_method[key] = self._gas_by_method.get(key, 0) + receipt.gas_used
            for log in receipt.logs:
                self._logs.append(log)
                self._logs_by_address.setdefault(log.address, []).append(log)
                self._logs_by_event.setdefault(log.event, []).append(log)

    def _unindex_block(self, block: Block) -> None:
        """Remove the most recently indexed block from every chain index.

        Only ever called for the block at the canonical head, so every list
        entry to remove sits at the end of its list and removal is O(block
        contents).
        """
        self._total_gas -= block.header.gas_used
        for tx, receipt in zip(reversed(block.transactions), reversed(block.receipts)):
            self._receipts_by_tx.pop(receipt.transaction_hash, None)
            self._tx_locations.pop(tx.hash, None)
            self._tx_receipts.pop()
            sender_pairs = self._tx_receipts_by_sender.get(tx.sender)
            if sender_pairs:
                sender_pairs.pop()
                if not sender_pairs:
                    del self._tx_receipts_by_sender[tx.sender]
            if tx.to is not None:
                recipient_pairs = self._tx_receipts_by_recipient.get(tx.to)
                if recipient_pairs:
                    recipient_pairs.pop()
                    if not recipient_pairs:
                        del self._tx_receipts_by_recipient[tx.to]
            self._transaction_count -= 1
            if not receipt.status:
                self._failed_transaction_count -= 1
            self._gas_by_sender[tx.sender] -= receipt.gas_used
            if not self._gas_by_sender[tx.sender]:
                del self._gas_by_sender[tx.sender]
            key = self.method_key(tx)
            self._gas_by_method[key] -= receipt.gas_used
            if not self._gas_by_method[key]:
                del self._gas_by_method[key]
            for log in reversed(receipt.logs):
                self._logs.pop()
                self._logs_by_address[log.address].pop()
                self._logs_by_event[log.event].pop()

    # -- block tree: peer blocks, fork choice, reorgs ---------------------------

    def is_canonical(self, block_hash: str) -> bool:
        """True when the block is on the current canonical chain."""
        block = self._blocks_by_hash.get(block_hash)
        if block is None or block.number > self.height:
            return False
        return self.blocks[block.number].hash == block_hash

    def tips(self) -> List[str]:
        """Hashes of the current block-tree leaves (competing tips included)."""
        return sorted(self._tips)

    def receive_block(self, block: Block) -> Tuple[str, List[Block], List[Block]]:
        """Accept a sealed block from a peer.

        Validates the header, Merkle roots, seal (against the rotation
        schedule), and every transaction signature, records the header with
        the equivocation detector, and stores the block in the tree.  A
        block extending the canonical head is executed and fully validated
        against its header commitments; a block on a side branch triggers
        fork-choice and — when the side branch wins — a :meth:`reorg`.

        Returns ``(status, applied, detached)`` where *status* is one of
        ``"known"``, ``"extended"``, ``"side"``, or ``"reorged"``,
        *applied* lists the blocks that just became canonical, and
        *detached* lists the previously canonical blocks a reorg rolled
        back (their transactions may need re-queueing).
        """
        if block.hash in self._blocks_by_hash:
            return "known", [], []
        if self._pending_frame:
            # A locally built block was never appended; discard its state
            # effects before executing anything from the network.
            self.state.rollback()
            self._pending_frame = False
        parent = self._blocks_by_hash.get(block.header.parent_hash)
        if parent is None:
            raise NotFoundError(
                f"block {block.number} links to unknown parent {block.header.parent_hash}"
            )
        if parent.hash in self._invalid_blocks:
            self._invalid_blocks.add(block.hash)
            raise IntegrityError(f"block {block.number} extends an invalid branch")
        self.consensus.validate_block(block, parent.header)
        try:
            check_signatures(block)
        except IntegrityError:
            self._invalid_blocks.add(block.hash)
            raise
        self._blocks_by_hash[block.hash] = block
        self._add_to_tree(block)
        self.observe_seal(block)
        if parent.hash == self.head.hash:
            try:
                self._apply_block(block)
            except IntegrityError:
                self._mark_invalid(block.hash)
                raise
            return "extended", [block], []
        winner = self.fork_choice_tip()
        if winner != self.head.hash:
            applied, detached = self.reorg(winner)
            return "reorged", applied, detached
        return "side", [], []

    def _apply_block(self, block: Block) -> None:
        """Execute a stored block on the head state, validate, and adopt it.

        The block runs in a fresh journal frame.  When its header does not
        match the execution (:func:`execute_block` raises
        :class:`IntegrityError`) the frame is rolled back, so a forged
        branch never becomes canonical; otherwise the frame stays open as
        the block's reorg frame.
        """
        self.state.begin()
        try:
            block.receipts = execute_block(self.vm, block)
        except IntegrityError:
            self.state.rollback()
            raise
        self._adopt_canonical(block)

    def _mark_invalid(self, block_hash: str) -> None:
        """Mark a block and every stored descendant as permanently invalid."""
        frontier = [block_hash]
        while frontier:
            current = frontier.pop()
            if current in self._invalid_blocks:
                continue
            self._invalid_blocks.add(current)
            frontier.extend(self._children.get(current, ()))

    def _branch_from_canonical(self, tip_hash: str) -> Optional[Tuple[int, List[Block]]]:
        """Walk a tip back to the canonical chain.

        Returns ``(fork block number, branch blocks ascending)`` or ``None``
        when the branch is unusable (invalid block, or a fork point deeper
        than the open reorg window).
        """
        branch: List[Block] = []
        current = self._blocks_by_hash.get(tip_hash)
        while current is not None and not self.is_canonical(current.hash):
            if current.hash in self._invalid_blocks:
                return None
            branch.append(current)
            current = self._blocks_by_hash.get(current.header.parent_hash)
        if current is None:
            return None
        if self.height - current.number > self._open_frames:
            return None  # the fork point is already final
        branch.reverse()
        return current.number, branch

    def fork_choice_tip(self) -> str:
        """Deterministic fork choice over the stored tips.

        Longest valid chain wins; equal heights break toward the lowest
        header hash, so every replica holding the same tree picks the same
        winner without further communication.
        """
        best_hash = self.head.hash
        best_height = self.head.number
        for tip_hash in sorted(self._tips):
            if tip_hash == best_hash or tip_hash in self._invalid_blocks:
                continue
            block = self._blocks_by_hash[tip_hash]
            better = block.number > best_height or (
                block.number == best_height and tip_hash < best_hash
            )
            if not better or self._branch_from_canonical(tip_hash) is None:
                continue
            best_hash, best_height = tip_hash, block.number
        return best_hash

    def reorg(self, tip_hash: str) -> Tuple[List[Block], List[Block]]:
        """Switch the canonical chain to the branch ending at *tip_hash*.

        Rolls the journaled state back to the fork point — one frame per
        detached block, O(touched slots), no re-execution from genesis —
        then executes and fully validates the winning branch.  If any block
        of the new branch fails execution validation, the branch is marked
        invalid, the old chain is restored, and :class:`IntegrityError`
        propagates.  Returns ``(applied, detached)``.
        """
        if self.is_canonical(tip_hash):
            return [], []
        located = self._branch_from_canonical(tip_hash)
        if located is None:
            raise IntegrityError(f"no viable branch to {tip_hash} within the reorg window")
        fork_number, branch = located
        detached = self._rollback_to(fork_number)
        applied: List[Block] = []
        for block in branch:
            try:
                self._apply_block(block)
            except IntegrityError:
                self._mark_invalid(block.hash)
                for _ in applied:
                    self._detach_head()
                for old in detached:
                    self._apply_block(old)
                raise
            applied.append(block)
        return applied, detached

    def _rollback_to(self, fork_number: int) -> List[Block]:
        """Detach canonical blocks above *fork_number*; returns them ascending."""
        detached: List[Block] = []
        while self.height > fork_number:
            detached.append(self._detach_head())
        detached.reverse()
        return detached

    def _detach_head(self) -> Block:
        """Pop the canonical head: unindex it and roll back its state frame.

        The block stays in the tree (a later reorg may re-adopt it).
        """
        block = self.blocks.pop()
        self._unindex_block(block)
        self.state.rollback()
        self._open_frames -= 1
        # A detached boundary block takes its derived rotation with it; the
        # winning branch re-derives its own at the same height.
        if self.consensus.drop_rotations_above(block.number - 1):
            if self.store is not None and not self._restoring:
                self._save_rotations()
        if self.store is not None and not self._restoring:
            # Reorgs are bounded by the open-frame window, so the truncation
            # never crosses a committed finality boundary.
            self.store.rewind_to(block.number - 1)
            self.store.discard_pending_from(block.number)
        return block

    # -- verification ----------------------------------------------------------

    def verify_chain(self, replay: bool = False) -> bool:
        """Re-validate every block link, Merkle root, and seal.

        Raises :class:`IntegrityError` on the first inconsistency; returns
        True when the whole chain checks out.  This is the mechanism behind
        the paper's tamper-evidence claim: any retroactive modification of a
        recorded resource location or usage policy breaks a hash or a seal.

        With ``replay=True`` the chain is additionally re-executed from
        genesis (:meth:`replay`), which catches semantic forgeries that
        survive re-sealing — a header carrying a ``gas_used`` that does not
        match its receipts, or a ``state_root`` that does not match the
        state produced by its transactions.
        """
        parent: Optional[BlockHeader] = None
        for block in self.blocks:
            self.consensus.validate_block(block, parent)
            parent = block.header
        if replay:
            self.replay()
        return True

    def replay(self) -> WorldState:
        """Rebuild the world state from genesis, checking every header.

        Re-executes each block's transactions on a fresh genesis state
        (sharing this chain's contract registry and gas schedule) through
        :func:`execute_block`, which raises :class:`IntegrityError` when a
        header's ``gas_used``, ``receipts_root`` or ``state_root`` does not
        match the replayed execution.  Returns the rebuilt state.

        Every transaction that carries signature material is additionally
        re-verified (:func:`check_signatures`), so a forged signature
        smuggled into a block (e.g. by a deployment running with
        ``require_signatures=False``) is rejected even though its Merkle
        roots and seal are internally consistent.  Unsigned transactions
        are tolerated for exactly those deployments.
        """
        state = self._genesis_state()
        vm = ContractVM(state, self.vm.registry, self.vm.schedule)
        if self.blocks[0].header.state_root != state.state_root():
            raise IntegrityError("genesis state_root does not match the genesis balances")
        for block in self.blocks[1:]:
            check_signatures(block)
            execute_block(vm, block)
        return state

    # -- cold start from disk ----------------------------------------------------

    def load_from_store(self, store, report) -> None:
        """Rebuild this (genesis-only) chain from a :class:`ChainStore`.

        Every record's SHA-256 was already verified by ``ChainStore.open``;
        this pass additionally checks header linkage, truncating the log at
        the first record that does not extend the chain (garbage that
        happens to frame correctly).  Blocks at or below the best promoted
        snapshot's height are *final* and adopted without re-execution —
        their receipts come from the checksummed records and the snapshot
        provides the exact state at that height (verified by rebuilding its
        ``state_root`` before it is trusted).  Only the non-final tail is
        re-executed through the VM, so a cold start costs O(tail) execution
        plus O(chain) parsing instead of a full replay from genesis.
        ``verify_chain(replay=True)`` remains the full semantic check.
        """
        if self.height != 0:
            raise ValidationError("load_from_store needs a freshly created chain")
        self._restoring = True
        try:
            blocks = [
                Block.from_dict(from_canonical_json(payload))
                for payload in store.block_payloads
            ]
            # Linkage pre-scan: a record prefix is only usable while each
            # block extends the previous one.
            linked = 0
            parent = self.blocks[0].header
            for block in blocks:
                if (
                    block.header.parent_hash != parent.hash
                    or block.number != parent.number + 1
                ):
                    report.issues.append(
                        f"record {linked} does not extend the header chain; "
                        f"truncating the log there"
                    )
                    break
                parent = block.header
                linked += 1
            if linked < len(blocks):
                report.records_truncated += len(blocks) - linked
                report.records_loaded = linked
                blocks = blocks[:linked]
                store.rewind_to(linked)
            # Seed the rotation history from the sidecar so the fast-adopted
            # prefix validates under the rotations it was sealed under.  Only
            # boundaries within the recovered chain are trusted; the live
            # rotation is re-derived from restored contract state below.
            sidecar = store.read_rotations()
            registry_address = sidecar.get("registryAddress")
            if registry_address:
                self.validator_registry_address = registry_address
            epoch_length = self.consensus.epoch_length
            if epoch_length > 0:
                seeded = [
                    (int(epoch), entry)
                    for epoch, entry in sidecar.get("rotations", {}).items()
                ]
                for epoch, entry in sorted(seeded):
                    if 0 < epoch * epoch_length <= len(blocks):
                        self.consensus.record_rotation(
                            epoch, list(entry.get("validators", []))
                        )
            # Best usable snapshot: highest promoted height that matches the
            # chain's own commitment and whose contents rebuild to the
            # claimed state root.
            snapshot_state: Optional[WorldState] = None
            snapshot_height = 0
            for height, path in reversed(store.promoted_snapshots()):
                if height > len(blocks):
                    report.snapshots_rejected.append(
                        f"snapshot at height {height} is above the recovered chain"
                    )
                    continue
                try:
                    payload = read_checked_json(path)
                except IntegrityError as exc:
                    report.snapshots_rejected.append(str(exc))
                    continue
                claimed_root = payload.get("stateRoot")
                if (
                    payload.get("height") != height
                    or claimed_root != blocks[height - 1].header.state_root
                ):
                    report.snapshots_rejected.append(
                        f"snapshot at height {height} does not match the chain's "
                        f"state commitment"
                    )
                    continue
                candidate = WorldState.from_dict(payload.get("state", {}))
                if candidate.state_root() != claimed_root:
                    report.snapshots_rejected.append(
                        f"snapshot at height {height} claims state_root "
                        f"{claimed_root} but its contents hash differently"
                    )
                    continue
                snapshot_state, snapshot_height = candidate, height
                break
            # Fast-adopt the final prefix: header rules only (the record
            # checksum vouches for the bytes; seals were verified before
            # they were ever written).  No journal frames are opened —
            # final blocks own none.
            parent = self.blocks[0].header
            for block in blocks[:snapshot_height]:
                self.consensus.validate_header(block.header, parent)
                self.blocks.append(block)
                self._blocks_by_hash[block.hash] = block
                self._add_to_tree(block)
                self._index_block(block)
                parent = block.header
            if snapshot_state is not None:
                self.state.restore(snapshot_state)
                report.snapshot_height = snapshot_height
                report.fast_adopted_blocks = snapshot_height
                # The rotation is STATE, not config: re-derive it from the
                # restored contract state at the snapshot boundary rather
                # than trusting the sidecar, which is only an accelerator.
                self._maybe_derive_rotation(self.blocks[snapshot_height])
            # Re-execute the non-final tail with full validation; each block
            # opens its reorg frame exactly as live adoption would.
            for block in blocks[snapshot_height:]:
                self.consensus.validate_block(block, self.blocks[-1].header)
                self._apply_block(block)
                report.replayed_blocks += 1
            # Slash state survives the restart: recovered proofs are
            # re-verified from their own sealed-header material.
            for wire in store.read_proofs():
                try:
                    proof = EquivocationProof.from_wire(wire)
                except (KeyError, TypeError) as exc:
                    raise IntegrityError(
                        f"unreadable equivocation proof in {store.proofs_path}: {exc}"
                    ) from exc
                if self.equivocation.restore_proof(proof):
                    report.proofs_restored += 1
        finally:
            self._restoring = False
        self.attach_store(store)
        if self.validator_registry_address is not None:
            # Persist the reconciled view (sidecar rotations truncated to the
            # recovered chain, boundary re-derived from restored state).
            self._save_rotations()
