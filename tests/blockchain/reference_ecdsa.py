"""Reference ECDSA over secp256k1: affine double-and-add, the specification.

Every point addition pays one modular inversion, so a scalar multiplication
costs ~9 ms: far too slow for the chain, but short enough to check by eye.
:mod:`repro.blockchain.crypto` signs and verifies on the fast kernels of
:mod:`repro.blockchain.fastec`; the Hypothesis pins in
``test_bc_crypto_fast_property.py`` compare them with these functions,
which share only the signing loop (deterministic nonce, low-s form) with
the fast path.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.blockchain.crypto import _G, _N, _P, _inverse_mod, _sign_with, sha256

Point = Optional[Tuple[int, int]]  # None is the point at infinity


def _point_add(a: Point, b: Point) -> Point:
    if a is None:
        return b
    if b is None:
        return a
    ax, ay = a
    bx, by = b
    if ax == bx and (ay + by) % _P == 0:
        return None
    if a == b:
        slope = (3 * ax * ax) * _inverse_mod(2 * ay, _P) % _P
    else:
        slope = (by - ay) * _inverse_mod(bx - ax, _P) % _P
    x = (slope * slope - ax - bx) % _P
    y = (slope * (ax - x) - ay) % _P
    return (x, y)


def _point_multiply(k: int, point: Point) -> Point:
    if k % _N == 0 or point is None:
        return None
    result: Point = None
    addend = point
    while k:
        if k & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        k >>= 1
    return result


def reference_sign(private_key: int, message: bytes) -> Tuple[int, int]:
    """Sign via the affine double-and-add reference path (the specification)."""
    return _sign_with(lambda k: _point_multiply(k, _G), private_key, message)


def reference_verify(public_key: Tuple[int, int], message: bytes,
                     signature: Tuple[int, int]) -> bool:
    """Verify via the affine double-and-add reference path."""
    try:
        r, s = signature
    except (TypeError, ValueError):
        return False
    if not (1 <= r < _N and 1 <= s < _N):
        return False
    z = int.from_bytes(sha256(message), "big")
    w = _inverse_mod(s, _N)
    u1 = (z * w) % _N
    u2 = (r * w) % _N
    point = _point_add(_point_multiply(u1, _G), _point_multiply(u2, public_key))
    if point is None:
        return False
    return point[0] % _N == r
