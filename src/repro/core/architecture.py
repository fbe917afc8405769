"""Deployment wiring of the decentralized usage control architecture (Fig. 1).

:class:`UsageControlArchitecture` stands up a complete deployment:

* a Proof-of-Authority blockchain node operated by the market operator, with
  the :class:`~repro.contracts.dist_exchange.DistExchangeApp`,
  :class:`~repro.contracts.market.DataMarket`, and
  :class:`~repro.contracts.oracle_hub.OracleRequestHub` contracts deployed;
* an attestation verifier trusting the reference trusted-application
  measurement;
* a shared Solid client and network latency model;
* factories that register data owners (pod manager + push-in/push-out
  oracles, wired so that pod-manager events become DE App transactions) and
  data consumers (TEE + trusted application + pull-out/pull-in/push-out
  oracles, wired so that on-chain policy updates reach the device).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.clock import Clock, SimulatedClock
from repro.common.errors import ValidationError
from repro.policy.serialization import policy_to_dict
from repro.sim.metrics import MetricsRegistry
from repro.sim.network import NetworkModel
from repro.sim.scheduler import EventScheduler
from repro.blockchain.consensus import ProofOfAuthority
from repro.blockchain.crypto import KeyPair
from repro.blockchain.gas import GasSchedule
from repro.blockchain.network import BlockchainNetwork
from repro.blockchain.node import BlockchainNode
from repro.blockchain.vm import ContractRegistry
from repro.contracts.dist_exchange import DistExchangeApp
from repro.contracts.market import DataMarket
from repro.contracts.oracle_hub import OracleRequestHub
from repro.contracts.validator_registry import ValidatorRegistry
from repro.oracles.base import BlockchainInteractionModule
from repro.oracles.pull_in import FAULT_UNRESPONSIVE, PullInOracle
from repro.oracles.pull_out import PullOutOracle
from repro.oracles.push_in import PushInOracle
from repro.oracles.push_out import PushOutOracle
from repro.solid.client import SolidClient
from repro.solid.pod_manager import PodManager
from repro.solid.webid import WebID
from repro.tee.attestation import AttestationVerifier
from repro.tee.enclave import TrustedExecutionEnvironment
from repro.tee.trusted_app import TrustedApplication
from repro.core.participants import DataConsumer, DataOwner


@dataclass
class ArchitectureConfig:
    """Tunable parameters of a deployment."""

    block_interval: float = 5.0
    subscription_fee: int = 100
    access_fee: int = 10
    owner_share_percent: int = 80
    initial_participant_funds: int = 50_000_000
    operator_funds: int = 10_000_000_000
    # Size of the PoA validator set.  1 (the default) is the classic
    # single-node deployment; >1 stands up a replicated validator network
    # (one full node per validator, proposer rotation, fault injection) and
    # routes every transaction through it.
    validators: int = 1
    # Dynamic validator sets: with epoch_length > 0 a multi-validator
    # deployment deploys the ValidatorRegistry contract, derives the PoA
    # rotation from its state at every epoch_length-block boundary, and
    # settles join (bonded deposit), leave (cool-down refund), and slash
    # (proof-verified bond burn) as ordinary transactions.  0 keeps the
    # committee static.
    epoch_length: int = 0
    validator_bond: int = 1_000_000
    validator_cooldown_blocks: int = 8
    gas_schedule: GasSchedule = None  # type: ignore[assignment]
    # Durable deployments: a directory root makes every validator persist
    # its chain to ``<persist_dir>/validator-<i>`` (crash-safe block log,
    # finality snapshots every ``snapshot_interval`` blocks, durable
    # contract registry), enabling hard crashes and cold-start recovery.
    persist_dir: Optional[str] = None
    snapshot_interval: int = 0
    max_reorg_depth: Optional[int] = None

    def __post_init__(self):
        if self.gas_schedule is None:
            self.gas_schedule = GasSchedule()
        if self.initial_participant_funds <= 0:
            raise ValidationError("participants need positive initial funds")
        if not 0 <= self.owner_share_percent <= 100:
            raise ValidationError("owner_share_percent must be within [0, 100]")
        if self.subscription_fee < 0:
            raise ValidationError("subscription_fee must be non-negative")
        if self.access_fee < 0:
            raise ValidationError("access_fee must be non-negative")
        if self.block_interval <= 0:
            raise ValidationError("block_interval must be positive")
        if self.validators < 1:
            raise ValidationError("a deployment needs at least one validator")
        if self.epoch_length < 0:
            raise ValidationError("epoch_length must be non-negative")
        if self.epoch_length and self.validators < 2:
            raise ValidationError(
                "a dynamic validator set (epoch_length > 0) needs a "
                "multi-validator deployment (validators > 1)"
            )
        if self.validator_bond < 0:
            raise ValidationError("validator_bond must be non-negative")
        if self.validator_cooldown_blocks < 0:
            raise ValidationError("validator_cooldown_blocks must be non-negative")
        if self.snapshot_interval < 0:
            raise ValidationError("snapshot_interval must be non-negative")
        if self.max_reorg_depth is not None and self.max_reorg_depth < 1:
            raise ValidationError("max_reorg_depth must be at least 1")
        if self.snapshot_interval and self.persist_dir is None:
            raise ValidationError("snapshot_interval needs a persist_dir")


class UsageControlArchitecture:
    """A fully wired deployment of the usage control architecture."""

    def __init__(self, config: Optional[ArchitectureConfig] = None,
                 clock: Optional[Clock] = None, network: Optional[NetworkModel] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config if config is not None else ArchitectureConfig()
        self.clock = clock if clock is not None else SimulatedClock(start=1_700_000_000.0)
        self.scheduler = EventScheduler(self.clock) if isinstance(self.clock, SimulatedClock) else None
        self.network = network if network is not None else NetworkModel(seed=11)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

        # -- blockchain layer -------------------------------------------------------
        # With validators == 1 the deployment is the classic single node
        # (bit-identical to earlier releases); with more, the operator seals
        # as validator 0 of a replicated network and every interaction
        # module talks to its node, which broadcasts submissions to the
        # other replicas and drives the proposer rotation when auto-mining.
        self.operator_key = KeyPair.from_name("market-operator")
        genesis_balances = {self.operator_key.address: self.config.operator_funds}

        def _registry() -> ContractRegistry:
            registry = ContractRegistry()
            registry.register(DistExchangeApp)
            registry.register(DataMarket)
            registry.register(OracleRequestHub)
            registry.register(ValidatorRegistry)
            return registry

        if self.config.validators > 1:
            keypairs = [self.operator_key] + [
                KeyPair.from_name(f"validator-{index}")
                for index in range(1, self.config.validators)
            ]
            self.validator_network: Optional[BlockchainNetwork] = BlockchainNetwork(
                block_interval=self.config.block_interval,
                registry_factory=_registry,
                schedule=self.config.gas_schedule,
                clock=self.clock,
                genesis_balances=genesis_balances,
                keypairs=keypairs,
                persist_root=self.config.persist_dir,
                max_reorg_depth=self.config.max_reorg_depth,
                snapshot_interval=self.config.snapshot_interval,
                epoch_length=self.config.epoch_length,
            )
            self.node = self.validator_network.primary
        else:
            self.validator_network = None
            consensus = ProofOfAuthority(
                validators=[self.operator_key.address],
                block_interval=self.config.block_interval,
            )
            self.node = BlockchainNode(
                consensus,
                self.operator_key,
                registry=_registry(),
                schedule=self.config.gas_schedule,
                clock=self.clock,
                genesis_balances=genesis_balances,
                persist_dir=self.config.persist_dir,
                max_reorg_depth=self.config.max_reorg_depth,
                snapshot_interval=self.config.snapshot_interval,
            )
        self.operator_module = BlockchainInteractionModule(
            self.node, self.operator_key, network=self.network
        )

        # -- contract deployment -----------------------------------------------------
        self.dist_exchange_address = self.operator_module.deploy_contract("DistExchangeApp")
        self.market_address = self.operator_module.deploy_contract(
            "DataMarket",
            {
                "subscription_fee": self.config.subscription_fee,
                "access_fee": self.config.access_fee,
                "owner_share_percent": self.config.owner_share_percent,
            },
        )
        self.oracle_hub_address = self.operator_module.deploy_contract("OracleRequestHub")
        # Dynamic deployments additionally deploy the validator registry
        # (block 4) and point every replica's rotation derivation at it; the
        # operator escrows the genesis bonds at deployment.  Static
        # deployments keep the exact three-contract genesis prefix.
        self.validator_registry_address: Optional[str] = None
        if self.validator_network is not None and self.config.epoch_length > 0:
            genesis_validators = list(self.validator_network.consensus.validators)
            self.validator_registry_address = self.operator_module.deploy_contract(
                "ValidatorRegistry",
                {
                    "initial_validators": genesis_validators,
                    "bond_amount": self.config.validator_bond,
                    "cooldown_blocks": self.config.validator_cooldown_blocks,
                },
                value=self.config.validator_bond * len(genesis_validators),
            )
            self.validator_network.use_validator_registry(self.validator_registry_address)

        # -- trust layer ----------------------------------------------------------------
        self.attestation_verifier = AttestationVerifier()
        self.solid_client = SolidClient(network=self.network)

        self.owners: Dict[str, DataOwner] = {}
        self.consumers: Dict[str, DataConsumer] = {}
        # device_id -> consumer, so monitoring and violation handling resolve
        # a device in O(1) instead of scanning every registered consumer.
        self.consumers_by_device: Dict[str, DataConsumer] = {}

    # -- funding ------------------------------------------------------------------------

    def _fund(self, address: str, amount: Optional[int] = None) -> None:
        """Transfer initial funds from the operator to a new participant."""
        self.operator_module.send_transaction(
            address, {}, value=amount if amount is not None else self.config.initial_participant_funds
        )

    # -- participant registration ----------------------------------------------------------

    def register_owner(self, name: str) -> DataOwner:
        """Create a data owner with a wired pod manager and oracle components."""
        if name in self.owners:
            raise ValidationError(f"an owner named {name} is already registered")
        webid = WebID(name)
        self._fund(webid.address)
        module = BlockchainInteractionModule(self.node, webid.keypair, network=self.network)
        push_in = PushInOracle(module, self.dist_exchange_address)
        push_out = PushOutOracle(module, self.dist_exchange_address)

        pod_manager = PodManager(
            webid,
            clock=self.clock,
            certificate_verifier=self._certificate_verifier,
        )
        self.solid_client.register_pod_manager(pod_manager)

        owner = DataOwner(
            webid=webid,
            pod_manager=pod_manager,
            module=module,
            push_in=push_in,
            push_out=push_out,
            market_address=self.market_address,
        )
        self._wire_owner(owner)
        self.owners[name] = owner
        self.metrics.counter("participants.owners").increment()
        return owner

    def register_consumer(self, name: str, purpose: Optional[str] = None,
                          device_id: Optional[str] = None) -> DataConsumer:
        """Create a data consumer with a TEE, trusted application, and oracles."""
        if name in self.consumers:
            raise ValidationError(f"a consumer named {name} is already registered")
        webid = WebID(name)
        self._fund(webid.address)
        module = BlockchainInteractionModule(self.node, webid.keypair, network=self.network)
        tee = TrustedExecutionEnvironment(
            device_id=device_id or f"device-{name}",
            owner_identity=webid.iri,
            clock=self.clock,
            default_purpose=purpose,
        )
        self.attestation_verifier.trust_measurement(tee.measurement)

        pull_out = PullOutOracle(module, self.dist_exchange_address)
        pull_in = PullInOracle(module, self.oracle_hub_address)
        push_out = PushOutOracle(module, self.dist_exchange_address)

        trusted_app = TrustedApplication(
            webid,
            tee,
            solid_client=self.solid_client,
            resource_resolver=pull_out.resource_record,
            purpose=purpose,
        )
        consumer = DataConsumer(
            webid=webid,
            tee=tee,
            trusted_app=trusted_app,
            module=module,
            pull_out=pull_out,
            pull_in=pull_in,
            push_out=push_out,
            market_address=self.market_address,
            dist_exchange_address=self.dist_exchange_address,
            purpose=purpose,
        )
        self._wire_consumer(consumer)
        self.consumers[name] = consumer
        self.consumers_by_device[consumer.device_id] = consumer
        self.metrics.counter("participants.consumers").increment()
        return consumer

    def consumer_for_device(self, device_id: str) -> Optional[DataConsumer]:
        """Return the consumer operating *device_id* (O(1) map lookup)."""
        return self.consumers_by_device.get(device_id)

    def disconnect_consumer(self, name: str) -> DataConsumer:
        """Take a consumer's device offline for the architecture's callbacks.

        The device stops receiving push-out notifications (policy updates,
        evidence events) and its pull-in component no longer answers
        monitoring requests — modelling a powered-off or churned device.
        Its local TEE keeps working, and the consumer stays registered so
        on-chain records (grants, certificates) still name it.
        """
        if name not in self.consumers:
            raise ValidationError(f"no consumer named {name} is registered")
        consumer = self.consumers[name]
        consumer.push_out.unsubscribe_all()
        consumer.pull_in.inject_fault(FAULT_UNRESPONSIVE)
        return consumer

    # -- wiring ---------------------------------------------------------------------------------

    def _certificate_verifier(self, certificate_id: str, consumer_address: str, resource_id: str) -> bool:
        """Pod managers verify market-fee certificates with a read-only call."""
        return bool(
            self.node.call(
                self.market_address,
                "verify_certificate",
                {
                    "certificate_id": certificate_id,
                    "consumer": consumer_address,
                    "resource_id": resource_id,
                },
            )
        )

    def _wire_owner(self, owner: DataOwner) -> None:
        """Connect pod-manager events to the owner's push-in oracle (Fig. 2.1/2.2/2.5/2.6)."""

        def on_pod_created(pod_url: str, owner_webid: WebID, default_policy) -> None:
            receipt = owner.push_in.push_pod_registration(
                pod_url, owner_webid.iri, policy_to_dict(default_policy)
            )
            owner.receipts.append(receipt)
            self.metrics.counter("process.pod_initiation").increment()

        def on_resource_published(resource_id: str, pod_url: str, location: str,
                                  owner_webid: WebID, policy, metadata) -> None:
            receipt = owner.push_in.push_resource_registration(
                resource_id, pod_url, location, owner_webid.iri, policy_to_dict(policy), metadata
            )
            owner.receipts.append(receipt)
            owner.list_on_market(resource_id)
            self.metrics.counter("process.resource_initiation").increment()

        def on_policy_updated(resource_id: str, policy, owner_webid: WebID) -> None:
            receipt = owner.push_in.push_policy_update(
                resource_id, policy_to_dict(policy), owner_webid.iri
            )
            owner.receipts.append(receipt)
            self.metrics.counter("process.policy_modification").increment()

        def on_monitoring_requested(resource_id: str, owner_webid: WebID) -> None:
            receipt = owner.push_in.push_monitoring_request(resource_id, owner_webid.iri)
            owner.receipts.append(receipt)
            # start_monitoring returns the round id; remember it so the
            # monitoring coordinator does not re-scan the event history.
            owner.monitoring_round_ids[resource_id] = receipt.return_value
            self.metrics.counter("process.policy_monitoring").increment()

        owner.pod_manager.on(
            "pod_created",
            lambda pod_url, owner, default_policy: on_pod_created(pod_url, owner, default_policy),
        )
        owner.pod_manager.on(
            "resource_published",
            lambda resource_id, pod_url, location, owner, policy, metadata: on_resource_published(
                resource_id, pod_url, location, owner, policy, metadata
            ),
        )
        owner.pod_manager.on(
            "policy_updated",
            lambda resource_id, policy, owner: on_policy_updated(resource_id, policy, owner),
        )
        owner.pod_manager.on(
            "monitoring_requested",
            lambda resource_id, owner: on_monitoring_requested(resource_id, owner),
        )
        # The push-out oracle delivers evidence notifications back to the owner.
        owner.push_out.subscribe("EvidenceRecorded", owner.record_evidence_notification)

    def _wire_consumer(self, consumer: DataConsumer) -> None:
        """Subscribe the consumer's device to policy updates and evidence requests."""
        consumer.push_out.subscribe("PolicyUpdated", consumer.handle_policy_update)
        consumer.pull_in.register_provider("usage_evidence", consumer.provide_usage_evidence)
        consumer.pull_in.authorize_on_chain()

    # -- validator fault injection -----------------------------------------------------------------

    def _require_network(self) -> BlockchainNetwork:
        if self.validator_network is None:
            raise ValidationError(
                "validator faults need a multi-validator deployment (config.validators > 1)"
            )
        return self.validator_network

    def fail_validator(self, index: int) -> None:
        """Crash the validator at *index* (its slots are skipped)."""
        self._require_network().fail_validator(index)

    def recover_validator(self, index: int) -> None:
        """Bring a crashed validator back and resync its replica."""
        self._require_network().recover_validator(index)

    def equivocate_validator(self, index: int) -> None:
        """Make the validator at *index* double-seal its next proposing slot."""
        self._require_network().equivocate_validator(index)

    def crash_validator(self, index: int) -> None:
        """Hard-crash (kill -9) the validator at *index*, abandoning its store."""
        self._require_network().crash_validator(index)

    def restart_validator(self, index: int) -> Dict[str, object]:
        """Rebuild a hard-crashed validator from disk; returns the recovery report."""
        return self._require_network().restart_validator(index)

    # -- dynamic validator membership ---------------------------------------------------------------

    def _require_registry(self) -> BlockchainNetwork:
        network = self._require_network()
        if self.validator_registry_address is None:
            raise ValidationError(
                "validator membership changes need a dynamic deployment "
                "(config.epoch_length > 0)"
            )
        return network

    def join_validator(self, index: Optional[int] = None) -> Dict[str, object]:
        """Stand up a new funded replica and settle its bonded ``join`` on-chain.

        *index* (when given) must be the next free validator index — the
        step is deterministic, so scenario specs name the replica they
        expect to create.  The operator funds the candidate with the bond
        plus gas headroom; the join transaction itself is signed by the
        candidate.  Returns the new replica's address, index, and bond.
        """
        network = self._require_registry()
        expected = len(network.validators)
        if index is not None and index != expected:
            raise ValidationError(
                f"the next validator index is {expected}, not {index}"
            )
        keypair = KeyPair.from_name(f"validator-{expected}")
        self._fund(keypair.address, self.config.validator_bond + 5_000_000)
        validator = network.join_validator(keypair)
        return {
            "address": validator.address,
            "index": expected,
            "bond": self.config.validator_bond,
        }

    def leave_validator(self, index: int) -> str:
        """Settle the validator's ``leave`` on-chain (exit at the next boundary)."""
        network = self._require_registry()
        if not 0 <= index < len(network.validators):
            raise ValidationError(
                f"validator index {index} out of range "
                f"(deployment has {len(network.validators)} validators)"
            )
        leaver = network.validators[index]
        # Genesis validators other than the operator hold no funds; cover
        # the gas for the leave (and a later withdraw) transaction.
        if self.node.get_balance(leaver.address) < 1_000_000:
            self._fund(leaver.address, 5_000_000)
        return network.leave_validator(index)

    # -- chain-level helpers -------------------------------------------------------------------------

    def dist_exchange_read(self, method: str, args: Optional[dict] = None):
        """Read-only call on the DE App (operator view)."""
        return self.node.call(self.dist_exchange_address, method, args or {})

    def market_read(self, method: str, args: Optional[dict] = None):
        """Read-only call on the data market contract."""
        return self.node.call(self.market_address, method, args or {})

    def total_gas_used(self) -> int:
        """Total gas consumed by the deployment so far (affordability metric)."""
        return self.node.chain.total_gas_used()

    def advance_time(self, seconds: float) -> None:
        """Advance the simulated clock (and run any scheduled jobs)."""
        # A deployment has a scheduler exactly when its clock is simulated.
        if self.scheduler is not None:
            self.scheduler.run_for(seconds)
