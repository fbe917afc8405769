"""verify_chain(replay=True) catches semantic forgeries that survive re-sealing.

A malicious validator can rewrite a header field and re-seal the block: the
links, Merkle roots, and seal all check out, so structural verification
passes.  Only re-executing the block exposes that the header's ``gas_used``
or ``state_root`` does not match what the transactions actually do — exactly
the docstring's tamper-evidence promise.  Every path that executes a sealed
block it did not build checks it the same way: a peer's import, replay from
genesis, and the re-executed tail of a cold start.
"""

import pytest

from repro.common.clock import SimulatedClock
from repro.common.errors import IntegrityError
from repro.common.serialization import canonical_json
from repro.blockchain.block import Block
from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.node import BlockchainNode
from repro.blockchain.state import copy_jsonlike
from repro.blockchain.storage import encode_record, scan_records
from repro.blockchain.transaction import Transaction
from repro.blockchain.vm import ContractRegistry, SmartContract

VALIDATOR = KeyPair.from_name("replay-validator")
USER = KeyPair.from_name("replay-user")


class Tally(SmartContract):
    def constructor(self, **_):
        self.storage["total"] = 0

    def add(self, amount: int):
        self.storage["total"] = self.storage.get("total", 0) + amount
        self.emit("Added", amount=amount)
        return self.storage["total"]


def tally_registry():
    registry = ContractRegistry()
    registry.register(Tally)
    return registry


def fresh_node(persist_dir=None):
    """A genesis-only node; every call builds the same genesis block."""
    return BlockchainNode(
        ProofOfAuthority(validators=[VALIDATOR.address], block_interval=1.0),
        VALIDATOR,
        registry=tally_registry(),
        clock=SimulatedClock(start=1000.0),
        genesis_balances={VALIDATOR.address: 10**12, USER.address: 10**10},
        persist_dir=persist_dir,
    )


def node_with_history(persist_dir=None):
    node = fresh_node(persist_dir)

    def send(to, data, value=0):
        tx = Transaction(sender=USER.address, to=to, data=data, value=value,
                         nonce=node.next_nonce(USER.address))
        tx.sign(USER)
        node.submit_transaction(tx)
        node.produce_block()
        return node.get_receipt(tx.hash)

    deploy = send(None, {"contract_class": "Tally"})
    assert deploy.status
    send(deploy.contract_address, {"method": "add", "args": {"amount": 5}})
    send(deploy.contract_address, {"method": "add", "args": {"amount": 7}})
    return node


def chain_with_history():
    return node_with_history().chain


def reseal(chain, block):
    chain.consensus.seal(block, VALIDATOR)


def wire(block):
    """The block as a peer or the disk would hand it over: a fresh copy."""
    return Block.from_dict(copy_jsonlike(block.to_dict()))


def test_replay_accepts_an_untampered_chain():
    chain = chain_with_history()
    assert chain.verify_chain()
    assert chain.verify_chain(replay=True)
    replayed = chain.replay()
    assert replayed.state_root() == chain.head.header.state_root


def test_forged_gas_used_passes_structural_checks_but_fails_replay():
    chain = chain_with_history()
    head = chain.head
    head.header.gas_used += 1_000            # claim the block was cheaper/dearer
    reseal(chain, head)                      # a validator can always re-seal
    # Seed-level verification (links + roots + seals) accepts the forgery...
    assert chain.verify_chain()
    # ...replay does not.
    with pytest.raises(IntegrityError, match="gas_used"):
        chain.verify_chain(replay=True)


def test_stale_state_root_passes_structural_checks_but_fails_replay():
    chain = chain_with_history()
    head = chain.head
    parent = chain.block_by_number(head.number - 1)
    head.header.state_root = parent.header.state_root   # roll the commitment back
    reseal(chain, head)
    assert chain.verify_chain()
    with pytest.raises(IntegrityError, match="state root"):
        chain.verify_chain(replay=True)


def test_tampered_receipts_fail_replay_even_with_fixed_roots():
    chain = chain_with_history()
    head = chain.head
    # Rewrite the recorded receipt and make the header commit to the forgery,
    # so verify_roots() is happy; the replayed receipts still disagree.
    head.receipts[0].gas_used += 500
    head.header.gas_used += 500
    head.header.receipts_root = Block.compute_receipts_root(head.receipts)
    reseal(chain, head)
    assert chain.verify_chain()
    with pytest.raises(IntegrityError):
        chain.verify_chain(replay=True)


# -- one forgery, every validating path -----------------------------------------


def forge(chain, block, field):
    """Rewrite one header field of *block* and re-seal it, as a validator can."""
    if field == "gas_used":
        block.header.gas_used += 1_000
    else:
        block.header.state_root = chain.block_by_number(block.number - 1).header.state_root
    reseal(chain, block)


def import_forged_head(field, tmp_path):
    source = chain_with_history()
    peer = fresh_node()
    for block in source.blocks[1:-1]:
        peer.import_block(wire(block))
    head = wire(source.head)
    forge(source, head, field)
    peer.import_block(head)


def replay_forged_head(field, tmp_path):
    chain = chain_with_history()
    forge(chain, chain.head, field)
    assert chain.verify_chain()
    chain.verify_chain(replay=True)


def cold_start_on_forged_head(field, tmp_path):
    node = node_with_history(persist_dir=str(tmp_path))
    head = wire(node.chain.head)
    node.close()
    forge(node.chain, head, field)
    log = tmp_path / "blocks.log"
    payloads, _, issues = scan_records(log.read_bytes())
    assert not issues and len(payloads) == head.number
    payloads[-1] = canonical_json(head.to_dict())
    log.write_bytes(b"".join(encode_record(payload) for payload in payloads))
    BlockchainNode.open_from_disk(str(tmp_path), VALIDATOR, registry=tally_registry())


@pytest.mark.parametrize("path", [import_forged_head, replay_forged_head,
                                  cold_start_on_forged_head],
                         ids=["import", "replay", "cold-start"])
@pytest.mark.parametrize("field, message", [("gas_used", "gas_used"),
                                            ("state_root", "state root")])
def test_forged_header_is_rejected_on_every_validating_path(path, field, message, tmp_path):
    with pytest.raises(IntegrityError, match=message):
        path(field, tmp_path)
