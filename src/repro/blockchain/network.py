"""Multi-validator blockchain network backed by full nodes.

Section V-2 of the paper argues that "the availability of the DE app is
preserved by the distributed nature of the blockchain.  If an attack succeeds
in bringing down one of the nodes, the blockchain ecosystem can continue to
operate by relying on the rest of the nodes."

Each validator here is a complete :class:`~repro.blockchain.node.BlockchainNode`
— its own mempool, event filters, receipts, deferred-verification batching,
and chain replica with a block tree.  Transactions are broadcast to every
online replica; block production walks the Aura-style round-robin schedule
(the slot is recorded in the sealed header, so every replica checks the seal
against the rotation), and produced blocks are shipped to the other replicas
as sealed wire copies that each node re-executes and validates before
adopting (:meth:`~repro.blockchain.chain.Blockchain.receive_block`).

Three fault classes are injectable:

* **crash** — :meth:`fail_validator` takes a node offline: it misses its
  slots (a liveness hit, counted in :attr:`skipped_slots`), receives neither
  transactions nor blocks, and resyncs block-by-block on
  :meth:`recover_validator`.  On a durable network (``persist_root`` set)
  :meth:`crash_validator` goes further — a kill -9 that destroys the
  in-memory replica and abandons its chain store mid-append;
  :meth:`restart_validator` rebuilds the node from disk (verifying every
  record checksum, truncating the torn tail, cold-starting from the best
  finality snapshot) and resyncs the rest from peers;
* **partition** — :meth:`partition` splits block delivery into two islands
  that keep producing on diverging branches; :meth:`heal_partition` lets
  deterministic fork-choice (longest chain, lowest-hash tie-break) converge
  everyone onto one head;
* **Byzantine equivocation** — :meth:`equivocate_validator` makes a
  validator seal *two* conflicting blocks for its next slot and show
  different ones to different replicas.  Every replica's
  :class:`~repro.blockchain.consensus.EquivocationDetector` records the
  double-seal as a slashable proof naming the proposer, the network stops
  scheduling the slashed validator, and fork-choice converges the honest
  replicas onto a single head.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.common.clock import Clock, SimulatedClock
from repro.common.errors import NotFoundError, ValidationError
from repro.blockchain.block import Block
from repro.blockchain.consensus import EquivocationProof, ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.gas import GasSchedule
from repro.blockchain.node import BlockchainNode, forged_batch_error
from repro.blockchain.state import copy_jsonlike
from repro.blockchain.storage import validator_store_path
from repro.blockchain.transaction import Transaction
from repro.blockchain.vm import ContractRegistry


class NetworkValidator:
    """One validator: a key, a full node replica, and its fault status."""

    def __init__(self, keypair: KeyPair, node: BlockchainNode,
                 persist_dir: Optional[str] = None):
        self.keypair = keypair
        self.node = node
        self.persist_dir = persist_dir
        self.online = True
        self.slashed = False
        self.pending_equivocation = False
        # A *crashed* validator lost its process, not just its connectivity:
        # ``node`` is None until restart_validator rebuilds it from disk.
        self.crashed = False

    @property
    def address(self) -> str:
        return self.keypair.address

    @property
    def chain(self):
        return self.node.chain

    @property
    def schedulable(self) -> bool:
        """Whether the rotation should hand this validator its slot."""
        return self.online and not self.slashed


class BlockchainNetwork:
    """A set of PoA validators, each running a full :class:`BlockchainNode`.

    The first validator is the *primary*: architecture deployments point
    their interaction modules at its node, and its canonical chain is the
    one reports and invariants are read from (all honest replicas converge
    to the same head, so the choice is cosmetic).
    """

    def __init__(self, num_validators: int = 4, block_interval: float = 5.0,
                 registry_factory=None, schedule: Optional[GasSchedule] = None,
                 clock: Optional[Clock] = None,
                 genesis_balances: Optional[Dict[str, int]] = None,
                 keypairs: Optional[List[KeyPair]] = None,
                 require_signatures: bool = True,
                 persist_root: Optional[str] = None,
                 max_reorg_depth: Optional[int] = None,
                 snapshot_interval: int = 0,
                 epoch_length: int = 0):
        if keypairs is not None:
            num_validators = len(keypairs)
        if num_validators < 1:
            raise ValidationError("a network needs at least one validator")
        self.clock = clock if clock is not None else SimulatedClock()
        if keypairs is None:
            keypairs = [KeyPair.from_name(f"validator-{index}") for index in range(num_validators)]
        # The genesis template.  Every node runs its OWN engine clone (a
        # replica's rotation history is chain state, derived from the blocks
        # it adopted) — sharing one engine would let a replica that reorged
        # through an epoch boundary corrupt the schedule its peers validate
        # against.
        self.consensus = ProofOfAuthority(
            validators=[kp.address for kp in keypairs], block_interval=block_interval,
            epoch_length=epoch_length,
        )
        # Held so restart_validator / join_validator can build replicas the
        # same way the originals were built.
        self._registry_factory = registry_factory
        self._schedule = schedule
        self._persist_root = persist_root
        self._genesis_balances = dict(genesis_balances or {})
        self._require_signatures = require_signatures
        self._max_reorg_depth = max_reorg_depth
        self._snapshot_interval = snapshot_interval
        self.validators: List[NetworkValidator] = []
        for index, keypair in enumerate(keypairs):
            registry = registry_factory() if registry_factory else ContractRegistry()
            persist_dir = (
                validator_store_path(persist_root, index)
                if persist_root is not None else None
            )
            node = BlockchainNode(
                self.consensus.with_validators(self.consensus.validators),
                keypair,
                registry=registry,
                schedule=schedule,
                clock=self.clock,
                genesis_balances=genesis_balances,
                require_signatures=require_signatures,
                persist_dir=persist_dir,
                max_reorg_depth=max_reorg_depth,
                snapshot_interval=snapshot_interval,
            )
            node.network = self
            self.validators.append(NetworkValidator(keypair, node, persist_dir=persist_dir))
        # Later replicas must rebuild a bit-identical genesis block even
        # though the shared clock has advanced (see join_validator).
        self._genesis_timestamp = self.validators[0].chain.blocks[0].header.timestamp
        # Dynamic validator set: the registry contract every replica derives
        # its rotation from, and the slash transactions already submitted
        # (one per distinct proof).
        self.validator_registry_address: Optional[str] = None
        self._slash_submitted: Set[Tuple[int, str]] = set()
        self.skipped_slots = 0
        self.current_slot = 0
        # One record per slot the rotation visited: the liveness trace the
        # scenario conformance suite checks (a slot is skipped if and only
        # if its proposer was crashed or slashed when the slot came up).
        self.slot_log: List[Dict] = []
        # Equivocation proofs aggregated from the replicas' detectors,
        # deduplicated by (height, proposer).
        self.equivocation_proofs: List[EquivocationProof] = []
        self._proof_keys: Set[Tuple[int, str]] = set()
        # Indices isolated from the rest while a partition is active.
        self._partition: Optional[Set[int]] = None

    # -- membership / failures ----------------------------------------------------

    @property
    def primary(self) -> BlockchainNode:
        """The node architecture deployments submit through (validator 0)."""
        return self.validators[0].node

    def validator_by_address(self, address: str) -> NetworkValidator:
        for validator in self.validators:
            if validator.address == address:
                return validator
        raise NotFoundError(f"no validator with address {address}")

    def _check_index(self, index: int) -> None:
        """Range-check a fault-injection target (no negative-index aliasing)."""
        if not 0 <= index < len(self.validators):
            raise ValidationError(
                f"validator index {index} out of range "
                f"(deployment has {len(self.validators)} validators)"
            )

    def fail_validator(self, index: int) -> None:
        """Take the validator at *index* offline (crash fault)."""
        self._check_index(index)
        validator = self.validators[index]
        validator.online = False
        # A queued equivocation dies with the process that was meant to
        # perform it — recovery must not act on the stale instruction.
        validator.pending_equivocation = False

    def recover_validator(self, index: int) -> None:
        """Bring the validator at *index* back online and resync its replica."""
        self._check_index(index)
        validator = self.validators[index]
        if validator.crashed:
            raise ValidationError(
                f"validator {index} hard-crashed; restart_validator must "
                f"rebuild it from its chain store"
            )
        validator.online = True
        self._sync_to_best(validator)

    def crash_validator(self, index: int, torn_tail: bool = True) -> None:
        """Hard-crash the validator at *index* (kill -9, not a clean stop).

        The replica's in-memory state is lost entirely: its chain store is
        abandoned un-synced (``commits.log`` lags the block log, leaving an
        unsynced tail) and, with *torn_tail*, a half-written record is left
        at the end of the log — exactly what a power cut mid-append produces.
        Only :meth:`restart_validator` can bring it back.
        """
        self._check_index(index)
        validator = self.validators[index]
        if validator.crashed:
            raise ValidationError(f"validator {index} is already crashed")
        if validator.persist_dir is None:
            raise ValidationError(
                "hard crashes need a durable network (persist_root unset)"
            )
        validator.node.hard_crash(torn_tail=torn_tail)
        validator.node = None
        validator.online = False
        validator.crashed = True
        # Same rationale as fail_validator: the equivocation instruction does
        # not survive the crash.
        validator.pending_equivocation = False

    def restart_validator(self, index: int) -> Dict[str, object]:
        """Rebuild a hard-crashed validator from its chain store and resync.

        The store is re-opened with every record checksum verified and any
        torn tail truncated; the chain cold-starts from the best promoted
        snapshot plus a re-executed tail, the durable registry and
        equivocation proofs are restored, and whatever the truncation lost
        is fetched back from the best online peer.  Returns the recovery
        report (camelCase keys) plus ``resyncedBlocks``.
        """
        self._check_index(index)
        validator = self.validators[index]
        if not validator.crashed:
            raise ValidationError(f"validator {index} is not crashed")
        registry = self._registry_factory() if self._registry_factory else None
        node = BlockchainNode.open_from_disk(
            validator.persist_dir,
            validator.keypair,
            registry=registry,
            schedule=self._schedule,
            clock=self.clock,
            consensus=self.consensus,
        )
        node.network = self
        if (
            self.validator_registry_address is not None
            and node.chain.validator_registry_address is None
        ):
            # The rotation sidecar normally restores this; a store crashed
            # before its first epoch boundary has no sidecar yet.
            node.chain.use_validator_registry(self.validator_registry_address)
        validator.node = node
        validator.crashed = False
        validator.online = True
        recovered_height = node.chain.height
        self._sync_to_best(validator)
        report: Dict[str, object] = dict(node.recovery.to_dict())
        report["recoveredHeight"] = recovered_height
        report["resyncedBlocks"] = node.chain.height - recovered_height
        return report

    def close(self) -> None:
        """Cleanly sync and close every live replica's chain store."""
        for validator in self.validators:
            if validator.node is not None:
                validator.node.close()

    def partition(self, indices: Iterable[int]) -> None:
        """Split block delivery: *indices* form one island, the rest the other."""
        island = set(indices)
        if not all(0 <= index < len(self.validators) for index in island):
            raise ValidationError("partition indices out of range")
        self._partition = island

    def heal_partition(self) -> None:
        """Reconnect the islands and converge every replica via fork-choice."""
        self._partition = None
        for validator in self.online_validators():
            self._sync_to_best(validator)

    def equivocate_validator(self, index: int) -> None:
        """Make the validator at *index* double-seal its next proposing slot.

        An unschedulable target is rejected outright: latching the flag on a
        crashed, offline, or already-slashed validator would leave a stale
        instruction that fires on a later recovery.
        """
        self._check_index(index)
        validator = self.validators[index]
        if not validator.schedulable or validator.crashed:
            if validator.crashed:
                state = "crashed"
            elif not validator.online:
                state = "offline"
            else:
                state = "slashed"
            raise ValidationError(
                f"validator {index} is {state} and will never reach a "
                f"proposing slot; refusing to queue an equivocation"
            )
        validator.pending_equivocation = True

    # -- dynamic membership (validator-registry contract) -------------------------

    def use_validator_registry(self, address: str) -> None:
        """Derive every replica's rotation from the registry contract at *address*."""
        if self.consensus.epoch_length <= 0:
            raise ValidationError(
                "a validator registry needs an epoch-aware network "
                "(epoch_length > 0)"
            )
        self.validator_registry_address = address
        for validator in self.validators:
            if validator.node is not None:
                validator.node.chain.use_validator_registry(address)

    def join_validator(self, keypair: Optional[KeyPair] = None) -> NetworkValidator:
        """Spin up a new replica and submit its bonded ``join`` transaction.

        The replica is built against the same genesis (bit-identical genesis
        block), synced from the best peer, and starts following immediately;
        it only receives proposing slots once the epoch boundary after its
        join settles it into the derived rotation.  The join transaction is
        signed by the candidate itself and carries the registry's bond as
        its value, so the caller must have funded the candidate's address.
        """
        if self.validator_registry_address is None:
            raise ValidationError(
                "joining needs a validator registry (static committees are closed)"
            )
        index = len(self.validators)
        if keypair is None:
            keypair = KeyPair.from_name(f"validator-{index}")
        for validator in self.validators:
            if validator.address == keypair.address:
                raise ValidationError(f"{keypair.address} already runs a replica")
        registry = self._registry_factory() if self._registry_factory else ContractRegistry()
        persist_dir = (
            validator_store_path(self._persist_root, index)
            if self._persist_root is not None else None
        )
        node = BlockchainNode(
            self.consensus.with_validators(self.consensus.validators),
            keypair,
            registry=registry,
            schedule=self._schedule,
            clock=self.clock,
            genesis_balances=self._genesis_balances,
            require_signatures=self._require_signatures,
            persist_dir=persist_dir,
            max_reorg_depth=self._max_reorg_depth,
            snapshot_interval=self._snapshot_interval,
            genesis_timestamp=self._genesis_timestamp,
        )
        node.network = self
        node.chain.use_validator_registry(self.validator_registry_address)
        validator = NetworkValidator(keypair, node, persist_dir=persist_dir)
        self.validators.append(validator)
        self._sync_to_best(validator)
        bond = self.primary.call(self.validator_registry_address, "bond_amount")
        tx = Transaction(
            sender=keypair.address,
            to=self.validator_registry_address,
            data={"method": "join", "args": {}},
            value=bond,
            nonce=node.next_nonce(keypair.address),
        ).sign(keypair)
        self.broadcast_transaction(tx)
        return validator

    def leave_validator(self, index: int) -> str:
        """Submit the validator's ``leave`` transaction (rotation exit).

        The replica keeps running — it still validates and serves queries —
        but the derived rotation stops handing it slots at the next epoch
        boundary.  Returns the transaction hash.
        """
        self._check_index(index)
        if self.validator_registry_address is None:
            raise ValidationError(
                "leaving needs a validator registry (static committees are closed)"
            )
        validator = self.validators[index]
        if validator.node is None:
            raise ValidationError(f"validator {index} is crashed; nothing to sign with")
        tx = Transaction(
            sender=validator.address,
            to=self.validator_registry_address,
            data={"method": "leave", "args": {}},
            nonce=validator.node.next_nonce(validator.address),
        ).sign(validator.keypair)
        return self.broadcast_transaction(tx)

    def withdraw_bond(self, index: int) -> str:
        """Submit an exited validator's ``withdraw`` (cool-down bond refund)."""
        self._check_index(index)
        if self.validator_registry_address is None:
            raise ValidationError("withdrawing needs a validator registry")
        validator = self.validators[index]
        if validator.node is None:
            raise ValidationError(f"validator {index} is crashed; nothing to sign with")
        tx = Transaction(
            sender=validator.address,
            to=self.validator_registry_address,
            data={"method": "withdraw", "args": {}},
            nonce=validator.node.next_nonce(validator.address),
        ).sign(validator.keypair)
        return self.broadcast_transaction(tx)

    def online_validators(self) -> List[NetworkValidator]:
        return [validator for validator in self.validators if validator.online]

    def honest_validators(self) -> List[NetworkValidator]:
        """Validators with no recorded equivocation proof against them."""
        byzantine = {proof.proposer for proof in self.equivocation_proofs}
        return [v for v in self.validators if v.address not in byzantine]

    @property
    def is_available(self) -> bool:
        """The DE App remains available while at least one validator is online."""
        return bool(self.online_validators())

    # -- transaction flow -----------------------------------------------------------

    def broadcast_transaction(self, tx: Transaction) -> str:
        """Gossip a transaction into every online replica's mempool.

        The first online replica verifies the signature immediately (or
        defers it to its active batch); the others always defer — their
        amortized pre-production pass re-checks from the shared verdict
        cache, so a forged transaction still never reaches any chain.
        """
        online = self.online_validators()
        if not online:
            raise ValidationError("no online validator can accept transactions")
        first, rest = online[0], online[1:]
        tx_hash = first.node.enqueue_transaction(tx)
        for validator in rest:
            validator.node.enqueue_transaction(tx, defer_verification=True)
        return tx_hash

    # -- block production -----------------------------------------------------------

    def produce_next_block(self) -> Optional[Block]:
        """Advance one slot of the round-robin schedule.

        Returns the block that became canonical on the primary, or ``None``
        when the slot was skipped (crashed or slashed proposer).  Pending
        transactions stay queued for the next schedulable proposer.
        """
        if not self.is_available:
            return None
        self.current_slot += 1
        slot = self.current_slot
        rotation = self._active_rotation()
        address = rotation[(slot - 1) % len(rotation)]
        proposer = self.validator_by_address(address)
        index = self.validators.index(proposer)
        self._advance_clock()
        entry = {
            "slot": slot,
            "proposer": proposer.address,
            "proposerIndex": index,
            "online": proposer.online,
            "slashed": proposer.slashed,
            "produced": False,
            "equivocated": False,
            "blockHash": None,
        }
        self.slot_log.append(entry)
        if not proposer.schedulable:
            self.skipped_slots += 1
            entry["reason"] = "slashed" if proposer.slashed else "crashed"
            return None
        invalid = proposer.node.verify_deferred()
        if invalid:
            hashes = [tx.hash for tx in invalid]
            for validator in self.online_validators():
                if validator is not proposer:
                    validator.node.drop_transactions(hashes)
            # The slot aborts before anything is mined; not a liveness fault.
            entry["reason"] = "forged-transactions"
            raise forged_batch_error(invalid)
        timestamp = self.clock.now()
        if proposer.pending_equivocation:
            proposer.pending_equivocation = False
            block = self._produce_equivocating(proposer, slot, timestamp)
            entry["equivocated"] = True
        else:
            block = proposer.node.propose_block(slot, timestamp)
            self._deliver(block, proposer)
        self._collect_proofs()
        entry["produced"] = True
        entry["blockHash"] = block.hash
        return block

    def produce_blocks(self, count: int) -> List[Block]:
        """Run *count* slots and return the blocks actually produced."""
        produced = []
        for _ in range(count):
            block = self.produce_next_block()
            if block is not None:
                produced.append(block)
        return produced

    def produce_until_block(self, max_slots: Optional[int] = None) -> Block:
        """Advance slots until one produces a block (the auto-mining hook)."""
        limit = max_slots if max_slots is not None else 2 * len(self.validators)
        for _ in range(limit):
            block = self.produce_next_block()
            if block is not None:
                return block
        raise ValidationError(
            f"no schedulable proposer produced a block within {limit} slots"
        )

    def _active_rotation(self) -> Tuple[str, ...]:
        """The rotation slots currently iterate: the active set, in join order.

        Derived from the best online replica's engine at the height it would
        seal next, so a slash or membership change settled on-chain takes
        scheduling effect at the epoch boundary that follows it.  Static
        deployments (epoch_length == 0) always get the genesis order.
        """
        source = self._best_source()
        if source is not None:
            return source.node.consensus.rotation_for_height(source.chain.height + 1)
        return tuple(validator.address for validator in self.validators)

    def _advance_clock(self) -> None:
        if isinstance(self.clock, SimulatedClock):
            self.clock.advance(self.consensus.block_interval)

    # -- replication ------------------------------------------------------------

    @staticmethod
    def _wire(block: Block) -> Block:
        """A deep copy of a sealed block, as a peer would receive it."""
        return Block.from_dict(copy_jsonlike(block.to_dict()))

    def _reachable(self, a_index: int, b_index: int) -> bool:
        if self._partition is None:
            return True
        return (a_index in self._partition) == (b_index in self._partition)

    def _deliver(self, block: Block, proposer: NetworkValidator) -> None:
        """Ship a sealed block to every online replica reachable from the proposer."""
        proposer_index = self.validators.index(proposer)
        for index, validator in enumerate(self.validators):
            if validator is proposer or not validator.online:
                continue
            if not self._reachable(proposer_index, index):
                continue
            validator.node.import_block(self._wire(block))

    def _produce_equivocating(self, proposer: NetworkValidator, slot: int,
                              timestamp: float) -> Block:
        """Seal two conflicting blocks for one slot and split their delivery.

        The proposer signs a second, empty header at the same height (a
        perfectly valid block on its own — only the *pair* is damning),
        shows each half of the network a different one, and then the
        conflicting headers gossip everywhere: every replica's detector
        records the slashable proof and deterministic fork-choice converges
        the honest replicas onto the lower-hash branch.
        """
        node = proposer.node
        # The conflicting sibling: built first so its (empty) state frame is
        # discarded before the real block executes the pending pool.
        sibling = node.chain.build_block([], proposer.address, timestamp)
        sibling.header.extra["slot"] = slot
        sibling.header.extra["equivocation"] = "sibling"
        node.consensus.seal(sibling, proposer.keypair)
        block = node.propose_block(slot, timestamp)
        node.chain.observe_seal(sibling)

        proposer_index = self.validators.index(proposer)
        recipients = [
            (index, validator)
            for index, validator in enumerate(self.validators)
            if validator is not proposer and validator.online
            and self._reachable(proposer_index, index)
        ]
        for position, (_, validator) in enumerate(recipients):
            first = block if position % 2 == 0 else sibling
            validator.node.import_block(self._wire(first))
        # Gossip: the conflicting headers spread to everyone (including the
        # equivocator's own replica), so detection and convergence follow.
        for _, validator in recipients:
            validator.node.import_block(self._wire(block))
            validator.node.import_block(self._wire(sibling))
        node.import_block(self._wire(sibling))
        winner_hash = min(block.hash, sibling.hash)
        return block if winner_hash == block.hash else sibling

    def _collect_proofs(self) -> None:
        """Aggregate new equivocation proofs and slash their proposers.

        The local ``slashed`` flag stops the rotation from handing the
        culprit another slot immediately (static deployments have nothing
        else).  With a validator registry the proof is ALSO submitted as an
        ordinary signed transaction — the contract re-verifies it, burns the
        bond, and the next epoch's derived rotation drops the culprit on
        every replica, making the slash a replayable state transition.
        """
        for validator in self.validators:
            if validator.node is None:
                continue
            for proof in validator.chain.equivocation.proofs:
                key = (proof.height, proof.proposer)
                if key in self._proof_keys:
                    continue
                self._proof_keys.add(key)
                self.equivocation_proofs.append(proof)
        for proof in self.equivocation_proofs:
            culprit = self.validator_by_address(proof.proposer)
            culprit.slashed = True
            # A queued equivocation must not survive the slash (the stale
            # instruction would fire if the culprit were ever re-admitted).
            culprit.pending_equivocation = False
            if self.validator_registry_address is not None:
                self._submit_slash(proof)

    def _submit_slash(self, proof: EquivocationProof) -> None:
        """Broadcast the slash transaction for *proof* (once per proof).

        Any funded, honest, online validator may submit — the proof is
        self-authenticating, so the contract trusts nothing about the
        sender.  The submission is deduplicated locally AND idempotent
        on-chain (the contract rejects an already-settled (height, proposer)
        pair), so replayed proofs after a restart cannot double-burn.
        """
        key = (proof.height, proof.proposer)
        if key in self._slash_submitted:
            return
        submitter = None
        for validator in self.online_validators():
            if validator.slashed:
                continue
            if validator.node.get_balance(validator.address) > 0:
                submitter = validator
                break
        if submitter is None:
            return  # retried on the next _collect_proofs pass
        tx = Transaction(
            sender=submitter.address,
            to=self.validator_registry_address,
            data={"method": "slash", "args": {"proof": proof.to_wire()}},
            nonce=submitter.node.next_nonce(submitter.address),
        ).sign(submitter.keypair)
        self.broadcast_transaction(tx)
        self._slash_submitted.add(key)

    # -- replica management ------------------------------------------------------------

    def _best_source(self, exclude: Optional[NetworkValidator] = None) -> Optional[NetworkValidator]:
        """The online replica whose head wins fork-choice network-wide."""
        best: Optional[NetworkValidator] = None
        for validator in self.online_validators():
            if validator is exclude:
                continue
            if best is None:
                best = validator
                continue
            head, best_head = validator.chain.head, best.chain.head
            if (head.number, head.hash) != (best_head.number, best_head.hash) and (
                head.number > best_head.number
                or (head.number == best_head.number and head.hash < best_head.hash)
            ):
                best = validator
        return best

    def _sync_to_best(self, validator: NetworkValidator) -> None:
        """Catch a replica up by importing the best peer's canonical blocks.

        Starts from the highest source-canonical block the target already
        knows (walking down from the lagging height), so a recovery costs
        O(divergence + missing blocks), not O(chain).
        """
        source = self._best_source(exclude=validator)
        if source is None:
            return
        target = validator.node
        source_blocks = source.chain.blocks
        start = min(target.chain.height, source.chain.height)
        while start > 0 and not target.chain.knows_block(source_blocks[start].hash):
            start -= 1
        for block in source_blocks[start + 1:]:
            if target.chain.knows_block(block.hash):
                continue
            target.import_block(self._wire(block))
        self._collect_proofs()

    # -- health ------------------------------------------------------------------------

    def heights(self) -> Dict[str, int]:
        """Chain height of every live validator (crashed replicas have none)."""
        return {
            validator.address: validator.chain.height
            for validator in self.validators if validator.node is not None
        }

    def heads(self) -> Dict[str, str]:
        """Canonical head hash of every live validator."""
        return {
            validator.address: validator.chain.head.hash
            for validator in self.validators if validator.node is not None
        }

    def consistent(self) -> bool:
        """True when every online replica agrees on the head block hash."""
        online = self.online_validators()
        if not online:
            return True
        heads = {validator.chain.head.hash for validator in online}
        return len(heads) == 1

    def honest_heads_converged(self) -> bool:
        """True when every *online, honest* replica agrees on the head hash."""
        heads = {
            validator.chain.head.hash
            for validator in self.honest_validators()
            if validator.online
        }
        return len(heads) <= 1

    def liveness_report(self) -> Dict[str, object]:
        """The liveness shadow: a slot is skipped iff its proposer was down.

        ``violations`` lists slots where production disagreed with the
        proposer's recorded availability — empty in a conforming run.
        """
        violations = [
            entry for entry in self.slot_log
            if entry.get("reason") != "forged-transactions"
            and entry["produced"] != (entry["online"] and not entry["slashed"])
        ]
        return {
            "slots": len(self.slot_log),
            "produced": sum(1 for entry in self.slot_log if entry["produced"]),
            "skipped": self.skipped_slots,
            "violations": violations,
        }
