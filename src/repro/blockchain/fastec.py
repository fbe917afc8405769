"""Accelerated secp256k1 group arithmetic.

:mod:`repro.blockchain.crypto` builds ECDSA on the two kernels here: ``k·G``
(signing, key generation) and ``u1·G + u2·Q`` (verification).  Textbook
affine double-and-add pays one modular inversion (~10 µs) per point addition
and ~9 ms per scalar multiplication; these kernels stay exact integer
arithmetic over the same curve, so every result is bit-identical to it — a
guarantee the Hypothesis suite in ``tests/blockchain/test_bc_crypto_fast_property.py``
pins against a reference double-and-add kept in the test tree.

* **Jacobian projective coordinates** — additions and doublings are a
  handful of modular multiplications; the one inversion happens when a
  result is converted back to affine.  Both kernels are single loops over
  local integers: no per-step function call and no per-step tuple.
* **A signed 8-bit fixed-base comb** for ``k·G`` (after Lim and Lee,
  CRYPTO '94): ``k`` is recoded into 33 windows with digits in [−127, 128],
  and window ``w`` adds ``|d|·2^(8w)·G`` from a 33 × 128 table, with its
  ``y`` negated when ``d < 0``.  ``k·G`` is ~32 mixed additions and zero
  doublings.
* **GLV split + one merged wNAF schedule** for verification — secp256k1 has
  an efficiently computable endomorphism ``λ·(x, y) = (β·x, y)`` (Gallant,
  Lambert and Vanstone, CRYPTO 2001; the split libsecp256k1 uses), so each
  of ``u1`` and ``u2`` splits into two scalars of at most 128 bits with
  ``k ≡ k1 + k2·λ (mod N)``.  The signed-wNAF digits of the four halves are
  merged into one schedule sorted by bit position, one int per nonzero
  digit, and the ladder doubles in place down to each scheduled position
  and adds there: at most 128 doublings instead of ~256.  The digits index
  width-12 odd-multiple tables of ``G`` and ``λG`` (built once) and width-5
  ones of ``Q`` and ``λQ`` (cached together per public key, LRU).
* **Flat tables.**  Every table is a tuple of ints — all ``x``, then all
  ``y`` — never one tuple per point, and is built the same way.  Ints are
  not tracked by the garbage collector, so the ~5k precomputed points
  neither trigger collections while they are built nor lengthen every full
  collection after.
* **Montgomery batch inversion** normalizes a table (or one comb row) with a
  single modular inversion.
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
# A flat table: the x's of its points, then their y's (then, for a GLV
# table, the x's of their λ images, which share the y's).
FlatTable = Tuple[int, ...]

# The secp256k1 endomorphism: λ·(x, y) = (β·x, y) for every curve point,
# where β³ ≡ 1 (mod P) and λ³ ≡ 1 (mod N).
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A short basis (A1, B1), (A2, B2) of the lattice {(a, b): a + b·λ ≡ 0 (mod N)}.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1
_HALF_N = N // 2

_COMB_WINDOWS = 33  # 32 signed 8-bit windows of a 256-bit scalar, plus the last carry
_COMB_ROW = 128     # entries per window: |digit| = 1..128
_GLV_G_WIDTH = 12   # wNAF width for the fixed G and λG tables (1024 odd multiples each)
_Q_NAF_WIDTH = 5    # wNAF width for per-public-key tables (8 odd multiples each)

# A ladder schedule code is ``position << _POS_SHIFT | serial``: the bit
# position of one nonzero digit, and where its point sits in the schedule's
# point list.  Sorted descending, the first code's position is the number
# of doublings the ladder runs.  Four halves of at most 128 bits have at
# most 2·11 + 2·26 nonzero digits, so a serial never reaches _END's.
_POS_SHIFT = 8
_SERIAL_MASK = (1 << _POS_SHIFT) - 1
_END = _SERIAL_MASK  # position 0, no digit: runs the trailing doublings

# Must exceed the number of distinct signers a scenario re-verifies in a
# cycle: an LRU cycled over more keys than it holds misses on every lookup,
# so each verification silently rebuilds its table and per-participant cost
# goes superlinear right past the limit (observed at 5k consumers when this
# was 4096).  Sized for the 10k-consumer sweep plus validators/owners; an
# entry is one flat tuple of 24 ints (Q's and λQ's eight odd multiples,
# ~1.8 KB), so the cap is ~30 MB.
_PUBKEY_TABLE_LIMIT = 16384


# -- Jacobian primitives (table builds and rare ladder cases) ------------------
#
# (X, Y, Z) stands for the affine point (X/Z², Y/Z³); Z = 0 is infinity.


def _double(x: int, y: int, z: int) -> Tuple[int, int, int]:
    """Double a Jacobian point (a = 0 curve); infinity stays infinity."""
    yy = y * y % P
    s = 4 * x * yy % P
    m = 3 * x * x % P
    x3 = (m * m - 2 * s) % P
    return x3, (m * (s - x3) - 8 * yy * yy) % P, 2 * y * z % P


def _add_affine(x1: int, y1: int, z1: int, x2: int, y2: int) -> Tuple[int, int, int]:
    """Jacobian point + affine point, with the infinity and doubling cases."""
    if not z1:
        return x2, y2, 1
    zz = z1 * z1 % P
    u2 = x2 * zz % P
    s2 = y2 * z1 % P * zz % P
    if u2 == x1:
        return _double(x1, y1, z1) if s2 == y1 else (0, 0, 0)
    h = u2 - x1
    r = s2 - y1
    hh = h * h % P
    hhh = hh * h % P
    v = x1 * hh % P
    x3 = (r * r - hhh - 2 * v) % P
    return x3, (r * (v - x3) - y1 * hhh) % P, z1 * h % P


def _to_affine(x: int, y: int, z: int) -> Optional[AffinePoint]:
    """Convert back to affine coordinates (one modular inversion)."""
    if not z:
        return None
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return (x * z_inv2 % P, y * z_inv2 % P * z_inv % P)


def _normalize(xs: List[int], ys: List[int], zs: List[int]) -> None:
    """Make the points (xs[i], ys[i], zs[i]) affine in place, with one
    inversion for all of them (Montgomery's trick)."""
    prefix: List[int] = []
    acc = 1
    for z in zs:
        acc = acc * z % P
        prefix.append(acc)
    inv = pow(acc, -1, P)
    for i in range(len(zs) - 1, -1, -1):
        z_inv = inv * prefix[i - 1] % P if i else inv
        inv = inv * zs[i] % P
        z_inv2 = z_inv * z_inv % P
        xs[i] = xs[i] * z_inv2 % P
        ys[i] = ys[i] * z_inv2 % P * z_inv % P


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

# The signed comb: point 128·w + d − 1 is d·2^(8w)·G.
_comb_table: Optional[FlatTable] = None
# GLV table of G: width-12 odd multiples of G and λG.
_glv_g_table: Optional[FlatTable] = None
# public key (affine tuple) -> GLV table of width-5 odd multiples, LRU-evicted.
_pubkey_tables: "OrderedDict[AffinePoint, FlatTable]" = OrderedDict()


def comb_table() -> FlatTable:
    """The signed comb's 33 × 128 affine points, flat: point ``128·w + d − 1``
    is ``d·2^(8w)·G`` for d = 1..128."""
    global _comb_table
    if _comb_table is None:
        xs: List[int] = []
        ys: List[int] = []
        bx, by = GX, GY
        for _ in range(_COMB_WINDOWS):
            # 1·B .. 128·B for this window's base B, then 256·B: the next
            # window's base, normalized with the row.
            row_x, row_y, row_z = [bx], [by], [1]
            x, y, z = bx, by, 1
            for _ in range(_COMB_ROW - 1):
                x, y, z = _add_affine(x, y, z, bx, by)
                row_x.append(x)
                row_y.append(y)
                row_z.append(z)
            x, y, z = _double(x, y, z)
            row_x.append(x)
            row_y.append(y)
            row_z.append(z)
            _normalize(row_x, row_y, row_z)
            bx, by = row_x.pop(), row_y.pop()
            xs += row_x
            ys += row_y
        _comb_table = tuple(xs + ys)
    return _comb_table


def _glv_table(x: int, y: int, width: int) -> FlatTable:
    """Odd multiples [1T, 3T, ..., (2^(width−1) − 1)T] of T = (x, y) and of
    λT, flat: their x's, their y's (shared by λT's), then λT's x's (β·x)."""
    # 2T in affine, so every step is a mixed addition (T has odd order: 2T ≠ ∞).
    dx, dy = _to_affine(*_double(x, y, 1))
    xs, ys, zs = [x], [y], [1]
    for _ in range((1 << (width - 2)) - 1):
        px, py, pz = _add_affine(xs[-1], ys[-1], zs[-1], dx, dy)
        xs.append(px)
        ys.append(py)
        zs.append(pz)
    _normalize(xs, ys, zs)
    return tuple(xs + ys + [BETA * px % P for px in xs])


def glv_g_table() -> FlatTable:
    """GLV table of G: width-12 odd multiples [G, 3G, ..., 2047G] and their λ images."""
    global _glv_g_table
    if _glv_g_table is None:
        _glv_g_table = _glv_table(GX, GY, _GLV_G_WIDTH)
    return _glv_g_table


def table_for_pubkey(point: AffinePoint) -> FlatTable:
    """GLV table of *point* (width-5 odd multiples of Q and λQ), built once
    per key (LRU).

    This is the amortization behind batched verification: a monitoring block
    carrying K transactions from M distinct senders builds M tables, not K.
    """
    table = _pubkey_tables.get(point)
    if table is None:
        table = _glv_table(point[0], point[1], _Q_NAF_WIDTH)
        _pubkey_tables[point] = table
        if len(_pubkey_tables) > _PUBKEY_TABLE_LIMIT:
            _pubkey_tables.popitem(last=False)
    else:
        _pubkey_tables.move_to_end(point)
    return table


def clear_tables() -> None:
    """Drop every cached table (tests and memory-pressure hooks)."""
    global _comb_table, _glv_g_table
    _comb_table = None
    _glv_g_table = None
    _pubkey_tables.clear()


# -- scalar multiplication -----------------------------------------------------


def mul_g(k: int) -> Optional[AffinePoint]:
    """k·G via the signed 8-bit comb: ~32 mixed additions, no doublings."""
    k %= N
    table = comb_table()
    y_at = len(table) >> 1
    x = y = z = 0
    row = -_COMB_ROW
    carry = 0
    while k or carry:
        row += _COMB_ROW
        window = (k & 0xFF) + carry
        k >>= 8
        if window > 128:  # digit window − 256, carried into the next window
            carry = 1
            if window == 256:
                continue
            index = row + 255 - window
            px = table[index]
            py = P - table[y_at + index]
        elif window:
            carry = 0
            index = row + window - 1
            px = table[index]
            py = table[y_at + index]
        else:
            continue
        if not z:
            x, y, z = px, py, 1
            continue
        zz = z * z % P
        u = px * zz % P
        s = py * z % P * zz % P
        if u == x:
            x, y, z = _double(x, y, z) if s == y else (0, 0, 0)
            continue
        h = u - x
        r = s - y
        hh = h * h % P
        hhh = hh * h % P
        v = x * hh % P
        x = (r * r - hhh - 2 * v) % P
        y = (r * (v - x) - y * hhh) % P
        z = z * h % P
    return _to_affine(x, y, z)


def glv_split(k: int) -> Tuple[int, int]:
    """Split *k* into (k1, k2) with k ≡ k1 + k2·λ (mod N), each at most 128 bits.

    (k1, k2) is (k, 0) minus a nearby vector of the lattice spanned by the
    short basis (Babai rounding), so either half may be negative.
    """
    c1 = (_B2 * k + _HALF_N) // N
    c2 = (-_B1 * k + _HALF_N) // N
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _push_digits(k: int, width: int, table: FlatTable, x_at: int,
                 codes: List[int], points: List[int]) -> None:
    """Append the signed-wNAF digits of *k* (either sign) to a ladder schedule.

    A nonzero digit d at bit position ``pos`` appends the code
    ``pos << _POS_SHIFT | serial`` and, at ``points[2·serial]``, the x and y
    of d·T: *table* is T's GLV table, whose x's start at *x_at* (0 for T,
    ``2·count`` for λT) and y's at ``count``; y is negated when d < 0.
    """
    count = 1 << (width - 2)
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    pos = 0
    while k:
        if not k & 1:
            zeros = (k & -k).bit_length() - 1
            k >>= zeros
            pos += zeros
        digit = k & mask
        if digit < half:
            index = digit >> 1
            points.append(table[x_at + index])
            points.append(table[count + index])
        else:
            digit -= mask + 1
            index = -digit >> 1
            points.append(table[x_at + index])
            points.append(P - table[count + index])
        codes.append(pos << _POS_SHIFT | len(codes))
        # k − digit is divisible by 2^width: the next width − 1 digits are 0.
        k = (k - digit) >> width
        pos += width


def _ladder_schedule(u1: int, u2: int, q_table: FlatTable) -> Tuple[List[int], List[int]]:
    """The merged schedule of ``u1·G + u2·Q``: codes sorted by descending
    position, and the flat (x, y) list their serials index."""
    g_table = glv_g_table()
    codes: List[int] = []
    points: List[int] = []
    g1, g2 = glv_split(u1)
    q1, q2 = glv_split(u2)
    _push_digits(g1, _GLV_G_WIDTH, g_table, 0, codes, points)
    _push_digits(g2, _GLV_G_WIDTH, g_table, 2 << (_GLV_G_WIDTH - 2), codes, points)
    _push_digits(q1, _Q_NAF_WIDTH, q_table, 0, codes, points)
    _push_digits(q2, _Q_NAF_WIDTH, q_table, 2 << (_Q_NAF_WIDTH - 2), codes, points)
    codes.sort(reverse=True)
    return codes, points


def shamir_mul(u1: int, u2: int, point: Optional[AffinePoint],
               point_table: Optional[FlatTable] = None) -> Optional[AffinePoint]:
    """u1·G + u2·P in one GLV-split wNAF ladder (shared doublings).

    Both scalars are GLV-split and their digits merged into one schedule
    over the G, λG, P and λP tables, so the ladder runs at most 128
    doublings.  *point* must lie on the curve: the endomorphism behind λP's
    table holds only there.  *point_table* lets a caller that already
    fetched the per-key table (the batch verifier) skip the cache lookup.
    """
    u1 %= N
    u2 %= N
    if u2 == 0 or point is None:
        return mul_g(u1)
    codes, points = _ladder_schedule(
        u1, u2, point_table if point_table is not None else table_for_pubkey(point)
    )
    top = codes[0] >> _POS_SHIFT
    codes.append(_END)
    x = y = z = 0
    for code in codes:
        pos = code >> _POS_SHIFT
        while top > pos:
            yy = y * y % P
            z = 2 * y * z % P
            s = 4 * x * yy % P
            m = 3 * x * x % P
            x = (m * m - 2 * s) % P
            y = (m * (s - x) - 8 * yy * yy) % P
            top -= 1
        if code == _END:
            break
        at = (code & _SERIAL_MASK) << 1
        px = points[at]
        py = points[at + 1]
        if not z:
            x, y, z = px, py, 1
            continue
        zz = z * z % P
        u = px * zz % P
        s = py * z % P * zz % P
        if u == x:
            x, y, z = _double(x, y, z) if s == y else (0, 0, 0)
            continue
        h = u - x
        r = s - y
        hh = h * h % P
        hhh = hh * h % P
        v = x * hh % P
        x = (r * r - hhh - 2 * v) % P
        y = (r * (v - x) - y * hhh) % P
        z = z * h % P
    return _to_affine(x, y, z)
