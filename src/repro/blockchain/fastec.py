"""Accelerated secp256k1 group arithmetic.

The reference implementation in :mod:`repro.blockchain.crypto` works in
affine coordinates, paying one modular inversion (~20µs) per point addition
— a full scalar multiplication costs ~9ms, which dominates every signed
transaction and caps scenario populations at a few dozen participants.

This module provides the fast path the reference is pinned against:

* **Jacobian projective coordinates** — additions and doublings become a
  handful of modular multiplications; the single inversion happens when a
  result is converted back to affine.
* **Fixed-base precomputed tables** for the generator ``G`` — a comb of
  64 × 15 affine multiples (4-bit windows), so ``k·G`` (signing, key
  generation) is ~64 mixed additions and **zero doublings**.
* **GLV split + Shamir's trick** for verification — secp256k1 has an
  efficiently computable endomorphism ``λ·(x, y) = (β·x, y)`` (Gallant,
  Lambert and Vanstone, CRYPTO 2001; the split libsecp256k1 uses), so each
  of ``u1`` and ``u2`` splits into two scalars of at most 128 bits with
  ``k ≡ k1 + k2·λ (mod N)``.  ``u1·G + u2·Q`` then runs as one interleaved
  signed-wNAF ladder over four tables sharing ~129 doublings instead of
  ~257: width-8 odd multiples of ``G`` and ``λG`` (precomputed once),
  the width-5 odd-multiples table of ``Q`` (cached per public key, LRU),
  and ``λQ``'s, derived per ladder by multiplying each ``x`` of ``Q``'s
  table by ``β``.
* **Montgomery batch inversion** to normalize whole tables with a single
  modular inversion.

Everything here is exact integer arithmetic over the same curve, so results
are bit-identical to the reference — a guarantee the Hypothesis suite in
``tests/blockchain/test_bc_crypto_fast_property.py`` pins.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

# secp256k1 domain parameters (duplicated from crypto.py to keep this module
# dependency-free; crypto.py asserts the two agree at import time).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

AffinePoint = Tuple[int, int]
# Jacobian (X, Y, Z) with x = X/Z^2, y = Y/Z^3; None is the point at infinity.
JacobianPoint = Optional[Tuple[int, int, int]]

# The secp256k1 endomorphism: λ·(x, y) = (β·x, y) for every curve point,
# where β³ ≡ 1 (mod P) and λ³ ≡ 1 (mod N).
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A short basis (A1, B1), (A2, B2) of the lattice {(a, b): a + b·λ ≡ 0 (mod N)}.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

_COMB_WINDOW = 4
_COMB_WINDOWS = 64  # 256 bits / 4-bit windows
_GLV_G_WIDTH = 8    # wNAF width for the fixed G and λG tables (64 odd multiples each)
_Q_NAF_WIDTH = 5    # wNAF width for per-public-key tables (8 odd multiples)

# Must exceed the number of distinct signers a scenario re-verifies in a
# cycle: an LRU cycled over more keys than it holds misses on every lookup,
# so each verification silently rebuilds its table and per-participant cost
# goes superlinear right past the limit (observed at 5k consumers when this
# was 4096).  Sized for the 10k-consumer sweep plus validators/owners;
# a width-5 table is 8 affine points (~1 KB), so the cap is ~16 MB.
_PUBKEY_TABLE_LIMIT = 16384


# -- Jacobian primitives -------------------------------------------------------


def jac_double(point: JacobianPoint) -> JacobianPoint:
    """Double a Jacobian point (a = 0 curve)."""
    if point is None:
        return None
    x1, y1, z1 = point
    if y1 == 0:
        return None
    yy = y1 * y1 % P
    s = 4 * x1 * yy % P
    m = 3 * x1 * x1 % P
    x3 = (m * m - 2 * s) % P
    y3 = (m * (s - x3) - 8 * yy * yy) % P
    z3 = 2 * y1 * z1 % P
    return (x3, y3, z3)


def jac_add(a: JacobianPoint, b: JacobianPoint) -> JacobianPoint:
    """General Jacobian + Jacobian addition (used only to build tables)."""
    if a is None:
        return b
    if b is None:
        return a
    x1, y1, z1 = a
    x2, y2, z2 = b
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 * z2z2 % P
    s2 = y2 * z1 * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return None
        return jac_double(a)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hh = h * h % P
    hhh = hh * h % P
    v = u1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - s1 * hhh) % P
    z3 = z1 * z2 % P * h % P
    return (x3, y3, z3)


def jac_add_affine(a: JacobianPoint, b: AffinePoint) -> JacobianPoint:
    """Mixed addition: Jacobian accumulator + affine table entry (Z2 = 1)."""
    x2, y2 = b
    if a is None:
        return (x2, y2, 1)
    x1, y1, z1 = a
    z1z1 = z1 * z1 % P
    u2 = x2 * z1z1 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u2 == x1:
        if s2 != y1:
            return None
        return jac_double(a)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hh = h * h % P
    hhh = hh * h % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    y3 = (r * (v - x3) - y1 * hhh) % P
    z3 = z1 * h % P
    return (x3, y3, z3)


def jac_to_affine(point: JacobianPoint) -> Optional[AffinePoint]:
    """Convert back to affine coordinates (one modular inversion)."""
    if point is None:
        return None
    x, y, z = point
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return (x * z_inv2 % P, y * z_inv2 % P * z_inv % P)


def batch_to_affine(points: List[Tuple[int, int, int]]) -> List[AffinePoint]:
    """Normalize many Jacobian points with one inversion (Montgomery's trick)."""
    if not points:
        return []
    prefix: List[int] = []
    acc = 1
    for _, _, z in points:
        acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)
    out: List[Optional[AffinePoint]] = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        z_inv = inv * (prefix[i - 1] if i else 1) % P
        inv = inv * z % P
        z_inv2 = z_inv * z_inv % P
        out[i] = (x * z_inv2 % P, y * z_inv2 % P * z_inv % P)
    return out  # type: ignore[return-value]


def is_on_curve(point: Optional[AffinePoint]) -> bool:
    """Check that an affine point satisfies y^2 = x^3 + 7 over the field."""
    if point is None:
        return False
    try:
        x, y = point
    except (TypeError, ValueError):
        return False
    if not (isinstance(x, int) and isinstance(y, int)):
        return False
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + 7)) % P == 0


# -- precomputed tables --------------------------------------------------------

_comb_table: Optional[List[List[AffinePoint]]] = None
# (G table, λG table) of width-8 odd multiples.
_glv_g_tables: Optional[Tuple[List[AffinePoint], List[AffinePoint]]] = None
# public key (affine tuple) -> width-5 odd-multiples table, LRU-evicted.
_pubkey_tables: "OrderedDict[AffinePoint, List[AffinePoint]]" = OrderedDict()


def _odd_multiples(point: AffinePoint, count: int) -> List[AffinePoint]:
    """[1P, 3P, 5P, ..., (2·count−1)P] as affine points (one inversion)."""
    base: JacobianPoint = (point[0], point[1], 1)
    step = jac_double(base)
    jacs: List[Tuple[int, int, int]] = [base]  # type: ignore[list-item]
    for _ in range(count - 1):
        jacs.append(jac_add(jacs[-1], step))  # type: ignore[arg-type]
    return batch_to_affine(jacs)


def comb_table() -> List[List[AffinePoint]]:
    """64 windows × 15 entries: table[w][d-1] = (d << 4w)·G, affine."""
    global _comb_table
    if _comb_table is None:
        rows: List[Tuple[int, int, int]] = []
        base: JacobianPoint = (GX, GY, 1)
        for _ in range(_COMB_WINDOWS):
            row = [base]
            for _ in range(14):
                row.append(jac_add(row[-1], base))
            rows.extend(row)  # type: ignore[arg-type]
            # next window's base is 16× this one: row[7] = 8·base, doubled.
            base = jac_double(row[7])
        flat = batch_to_affine(rows)
        _comb_table = [flat[i * 15:(i + 1) * 15] for i in range(_COMB_WINDOWS)]
    return _comb_table


def _endomorphism(table: List[AffinePoint]) -> List[AffinePoint]:
    """λ·T for every point T of *table*: one multiplication by β per entry."""
    return [(BETA * x % P, y) for x, y in table]


def glv_g_tables() -> Tuple[List[AffinePoint], List[AffinePoint]]:
    """Width-8 odd multiples of G and of λG: [G, 3G, ..., 127G] and its λ image."""
    global _glv_g_tables
    if _glv_g_tables is None:
        g_table = _odd_multiples((GX, GY), 1 << (_GLV_G_WIDTH - 2))
        _glv_g_tables = (g_table, _endomorphism(g_table))
    return _glv_g_tables


def table_for_pubkey(point: AffinePoint) -> List[AffinePoint]:
    """Width-5 odd-multiples table for *point*, built once per key (LRU).

    This is the amortization behind batched verification: a monitoring block
    carrying K transactions from M distinct senders builds M tables, not K.
    """
    table = _pubkey_tables.get(point)
    if table is None:
        table = _odd_multiples(point, 1 << (_Q_NAF_WIDTH - 2))
        _pubkey_tables[point] = table
        if len(_pubkey_tables) > _PUBKEY_TABLE_LIMIT:
            _pubkey_tables.popitem(last=False)
    else:
        _pubkey_tables.move_to_end(point)
    return table


def clear_tables() -> None:
    """Drop every cached table (tests and memory-pressure hooks)."""
    global _comb_table, _glv_g_tables
    _comb_table = None
    _glv_g_tables = None
    _pubkey_tables.clear()


# -- scalar multiplication -----------------------------------------------------


def wnaf(k: int, width: int) -> List[int]:
    """Non-adjacent form of *k* with the given window width (LSB first)."""
    digits: List[int] = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    full = 1 << width
    while k:
        if k & 1:
            digit = k & mask
            if digit >= half:
                digit -= full
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


def mul_g(k: int) -> Optional[AffinePoint]:
    """k·G via the fixed-base comb: ~64 mixed additions, no doublings."""
    k %= N
    if k == 0:
        return None
    table = comb_table()
    acc: JacobianPoint = None
    window = 0
    while k:
        digit = k & 15
        if digit:
            acc = jac_add_affine(acc, table[window][digit - 1])
        k >>= _COMB_WINDOW
        window += 1
    return jac_to_affine(acc)


def glv_split(k: int) -> Tuple[int, int]:
    """Split *k* into (k1, k2) with k ≡ k1 + k2·λ (mod N), each at most 128 bits.

    (k1, k2) is (k, 0) minus a nearby vector of the lattice spanned by the
    short basis (Babai rounding), so either half may be negative.
    """
    c1 = (_B2 * k + N // 2) // N
    c2 = (-_B1 * k + N // 2) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _signed_wnaf(k: int, width: int) -> List[int]:
    """wNAF of a possibly negative scalar: |k|'s digits, negated if k < 0."""
    if k < 0:
        return [-digit for digit in wnaf(-k, width)]
    return wnaf(k, width)


def shamir_mul(u1: int, u2: int, point: Optional[AffinePoint],
               point_table: Optional[List[AffinePoint]] = None) -> Optional[AffinePoint]:
    """u1·G + u2·P in one interleaved wNAF ladder (shared doublings).

    Both scalars are GLV-split, so the ladder adds from four tables — G, λG,
    P and λP — over at most 129 doublings.  *point* must lie on the curve:
    the endomorphism that derives λP's table holds only there.
    *point_table* lets a caller that already fetched the per-key table (the
    batch verifier) skip the cache lookup.
    """
    u1 %= N
    u2 %= N
    if u2 == 0 or point is None:
        return mul_g(u1)
    g_table, lambda_g_table = glv_g_tables()
    q_table = point_table if point_table is not None else table_for_pubkey(point)
    g1, g2 = glv_split(u1)
    q1, q2 = glv_split(u2)
    terms = (
        (_signed_wnaf(g1, _GLV_G_WIDTH), g_table),
        (_signed_wnaf(g2, _GLV_G_WIDTH), lambda_g_table),
        (_signed_wnaf(q1, _Q_NAF_WIDTH), q_table),
        (_signed_wnaf(q2, _Q_NAF_WIDTH), _endomorphism(q_table)),
    )
    acc: JacobianPoint = None
    for i in range(max(len(digits) for digits, _ in terms) - 1, -1, -1):
        acc = jac_double(acc)
        for digits, table in terms:
            if i < len(digits) and digits[i]:
                digit = digits[i]
                px, py = table[abs(digit) >> 1]
                acc = jac_add_affine(acc, (px, py if digit > 0 else P - py))
    return jac_to_affine(acc)
