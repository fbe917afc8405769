"""Cryptographic primitives.

The chain needs three things: a collision-resistant hash (SHA-256), Merkle
roots over transactions and receipts, and digital signatures so that "methods
through which the state of smart contracts is changed can be invoked only by
signing transactions with auditable digital signatures" (paper, Section V-2).

Signatures are ECDSA over secp256k1 implemented in pure Python.  Nonces are
derived deterministically from the message and private key (in the spirit of
RFC 6979), so signing is reproducible and never leaks the key through a bad
RNG.

Signing and verification run on :mod:`repro.blockchain.fastec`:
fixed-base comb tables for ``k·G`` and a GLV-split Shamir ladder for
``u1·G + u2·Q``.  Around them sit an LRU ``(public key, message digest,
signature)`` verdict cache and :func:`verify_batch`, which amortizes
per-sender table construction across a whole block of signatures.
Signatures and verdicts are bit-identical to textbook affine
double-and-add ECDSA, which ``tests/blockchain/reference_ecdsa.py`` keeps
as the oracle of the Hypothesis pins in
``tests/blockchain/test_bc_crypto_fast_property.py``.
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import SignatureError, ValidationError
from repro.blockchain import fastec

# secp256k1 domain parameters.
_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
_G = (_GX, _GY)

assert (fastec.P, fastec.N, fastec.GX, fastec.GY) == (_P, _N, _GX, _GY)

# Bounded memo of verification verdicts keyed by (public key, message digest,
# r, s).  Monitoring rounds and chain replays re-verify the same signatures;
# the verdict for a given key/digest/signature triple never changes (a
# rotated key is a different cache key), so hits are always sound.
_VERIFY_CACHE: "OrderedDict[Tuple[Tuple[int, int], bytes, int, int], bool]" = OrderedDict()
# Sized so a full 10k-consumer scenario's seals + txs (several signed
# transactions per participant) fit without cycling; an LRU smaller than
# the working set misses on every lookup during replay.  Entries are a
# small key tuple + bool (~250 B), so the cap is ~30 MB.
_VERIFY_CACHE_LIMIT = 131072


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of *data*."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Return the hex SHA-256 digest of *data*."""
    return hashlib.sha256(data).hexdigest()


def merkle_root(leaves: Iterable[bytes]) -> str:
    """Compute the Merkle root (hex) of an ordered sequence of leaf payloads.

    Leaves are hashed individually; at odd levels the last node is duplicated
    (Bitcoin-style).  The root of an empty sequence is the hash of the empty
    string, which keeps empty blocks well-defined.
    """
    level: List[bytes] = [sha256(leaf) for leaf in leaves]
    if not level:
        return sha256_hex(b"")
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0].hex()


def merkle_proof(leaves: List[bytes], index: int) -> List[Tuple[str, str]]:
    """Return the audit path for leaf *index* as (side, sibling-hash-hex) pairs."""
    if not 0 <= index < len(leaves):
        raise ValidationError("leaf index out of range")
    level = [sha256(leaf) for leaf in leaves]
    path: List[Tuple[str, str]] = []
    position = index
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        sibling_index = position + 1 if position % 2 == 0 else position - 1
        side = "right" if position % 2 == 0 else "left"
        path.append((side, level[sibling_index].hex()))
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        position //= 2
    return path


def verify_merkle_proof(leaf: bytes, path: List[Tuple[str, str]], root: str) -> bool:
    """Check that *leaf* is included under *root* following the audit *path*."""
    current = sha256(leaf)
    for side, sibling_hex in path:
        sibling = bytes.fromhex(sibling_hex)
        current = sha256(current + sibling) if side == "right" else sha256(sibling + current)
    return current.hex() == root


# -- keys and signatures -------------------------------------------------------


def _inverse_mod(value: int, modulus: int) -> int:
    return pow(value, -1, modulus)


def _deterministic_nonce(private_key: int, digest: bytes) -> int:
    """Derive a deterministic nonce from the key and message digest."""
    key_bytes = private_key.to_bytes(32, "big")
    counter = 0
    while True:
        material = hmac.new(key_bytes, digest + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        nonce = int.from_bytes(material, "big") % _N
        if nonce != 0:
            return nonce
        counter += 1


def _sign_with(multiply_g, private_key: int, message: bytes) -> Tuple[int, int]:
    """The ECDSA signing loop, parameterized over the k·G implementation."""
    if not 1 <= private_key < _N:
        raise SignatureError("private key out of range")
    digest = sha256(message)
    z = int.from_bytes(digest, "big")
    while True:
        k = _deterministic_nonce(private_key, digest)
        point = multiply_g(k)
        assert point is not None
        r = point[0] % _N
        if r == 0:
            digest = sha256(digest)
            continue
        s = (_inverse_mod(k, _N) * (z + r * private_key)) % _N
        if s == 0:
            digest = sha256(digest)
            continue
        # Enforce low-s form so signatures are unique.
        if s > _N // 2:
            s = _N - s
        return (r, s)


def sign(private_key: int, message: bytes) -> Tuple[int, int]:
    """Produce an ECDSA signature (r, s) over SHA-256(message).

    Uses the fixed-base comb tables; bit-identical to affine double-and-add
    ECDSA (same deterministic nonce, same low-s form).
    """
    return _sign_with(fastec.mul_g, private_key, message)


def _verify_fast(public_key: Tuple[int, int], digest: bytes, r: int, s: int,
                 point_table: Optional[fastec.FlatTable] = None) -> bool:
    """Shamir-ladder verification over a precomputed message digest."""
    z = int.from_bytes(digest, "big")
    w = _inverse_mod(s, _N)
    point = fastec.shamir_mul(z * w % _N, r * w % _N, public_key, point_table)
    if point is None:
        return False
    return point[0] % _N == r


def _cache_verdict(key, verdict: bool) -> bool:
    _VERIFY_CACHE[key] = verdict
    if len(_VERIFY_CACHE) > _VERIFY_CACHE_LIMIT:
        _VERIFY_CACHE.popitem(last=False)
    return verdict


def _checked_signature(public_key, signature) -> Optional[Tuple[int, int]]:
    """Shared precheck of both verify paths: well-formed (r, s) in range,
    public key on the curve.  Returns the scalars, or None to reject."""
    try:
        r, s = signature
    except (TypeError, ValueError):
        return None
    if not (isinstance(r, int) and isinstance(s, int)):
        return None
    if not (1 <= r < _N and 1 <= s < _N):
        return None
    if not fastec.is_on_curve(public_key):
        return None
    return (r, s)


def _verify_cached(public_key: Tuple[int, int], message: bytes, r: int, s: int) -> bool:
    key = (tuple(public_key), sha256(message), r, s)
    cached = _VERIFY_CACHE.get(key)
    if cached is not None:
        _VERIFY_CACHE.move_to_end(key)
        return cached
    return _cache_verdict(key, _verify_fast(key[0], key[1], r, s))


def verify(public_key: Tuple[int, int], message: bytes, signature: Tuple[int, int]) -> bool:
    """Verify an ECDSA signature over SHA-256(message).

    Fast path: one Shamir double-scalar ladder with cached per-key tables,
    behind an LRU verdict cache keyed by (public key, digest, signature) —
    so re-verifying a signature (chain replay, repeated monitoring rounds)
    is a dictionary hit.  Verdicts are identical to affine double-and-add
    verification for any on-curve public key; off-curve keys are rejected
    outright.
    """
    scalars = _checked_signature(public_key, signature)
    if scalars is None:
        return False
    return _verify_cached(public_key, message, *scalars)


def verify_batch(items: Sequence[Tuple[Tuple[int, int], bytes, Tuple[int, int]]]) -> List[bool]:
    """Verify many ``(public key, message, signature)`` triples in one pass.

    The pass is amortized, not just looped: repeated triples are served from
    the verdict cache without touching the curve at all, and the width-5
    table of a distinct public key (and of its λ image) is built only when
    at least one of its triples actually misses (and is kept in the LRU for
    the next block).
    A block carrying K signatures from M senders therefore costs M table
    builds plus K Shamir ladders on first sight, and K dictionary hits on
    replay.
    """
    results: List[bool] = []
    for public_key, message, signature in items:
        scalars = _checked_signature(public_key, signature)
        if scalars is None:
            results.append(False)
            continue
        point = tuple(public_key)
        r, s = scalars
        key = (point, sha256(message), r, s)
        cached = _VERIFY_CACHE.get(key)
        if cached is not None:
            _VERIFY_CACHE.move_to_end(key)
            results.append(cached)
            continue
        table = fastec.table_for_pubkey(point)
        results.append(_cache_verdict(key, _verify_fast(point, key[1], r, s, table)))
    return results


def clear_signature_caches() -> None:
    """Reset the verdict cache and every precomputed-table cache."""
    _VERIFY_CACHE.clear()
    fastec.clear_tables()


def address_from_public_key(public_key: Tuple[int, int]) -> str:
    """Derive a 20-byte hex address from an uncompressed public key."""
    x, y = public_key
    payload = x.to_bytes(32, "big") + y.to_bytes(32, "big")
    return "0x" + sha256(payload)[-20:].hex()


@dataclass(frozen=True)
class KeyPair:
    """A secp256k1 key pair with its derived account address."""

    private_key: int
    public_key: Tuple[int, int]
    address: str

    @classmethod
    def generate(cls, seed: Optional[bytes] = None) -> "KeyPair":
        """Generate a key pair, optionally deterministically from *seed*."""
        if seed is None:
            import secrets

            private_key = secrets.randbelow(_N - 1) + 1
        else:
            private_key = (int.from_bytes(sha256(seed), "big") % (_N - 1)) + 1
        public_key = fastec.mul_g(private_key)
        assert public_key is not None
        return cls(private_key=private_key, public_key=public_key, address=address_from_public_key(public_key))

    @classmethod
    def from_name(cls, name: str) -> "KeyPair":
        """Convenience constructor deriving a key pair from a human-readable name."""
        return cls.generate(seed=name.encode("utf-8"))

    def sign(self, message: bytes) -> Tuple[int, int]:
        """Sign *message* with this key pair's private key."""
        return sign(self.private_key, message)

    def verify(self, message: bytes, signature: Tuple[int, int]) -> bool:
        """Verify a signature allegedly produced by this key pair."""
        return verify(self.public_key, message, signature)
