"""Hypothesis pins: the fast crypto path is bit-identical to the reference.

:mod:`repro.blockchain.fastec` replaces the affine double-and-add of
``reference_ecdsa.py`` with a signed 8-bit fixed-base comb (sign) and a
GLV-split wNAF ladder over one merged digit schedule (verify).  The two
implementations must be indistinguishable:

* ``sign`` == ``reference_sign``, bit for bit, including the low-s form;
* ``verify`` == ``reference_verify`` on valid signatures, wrong keys,
  tampered messages, and tampered signatures;
* the scalar-multiplication primitives agree with the reference ladder on
  arbitrary scalars, on the comb's carry and group-order edge cases, and on
  the degenerate ladders where an addition meets a doubling, the sum is
  infinity, or the key is ``λG``;
* the GLV split recombines to its scalar with halves of at most 128 bits,
  so one verification ladder's schedule starts at most at position 128
  and the ladder runs at most 128 doublings;
* the fixed tables are flat tuples of ints: building them triggers no
  young garbage collection;
* the verification cache can never serve a stale verdict across a key
  rotation, because the public key is part of the cache key;
* ``verify_batch`` agrees item-by-item with ``verify``, malformed
  signatures and off-curve keys included.

The ``slow`` acceptance test replays the full sign/verify equivalence on
500 derandomized generated cases.
"""

import gc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_ecdsa import _point_add, _point_multiply, reference_sign, reference_verify
from repro.blockchain import fastec
from repro.blockchain.crypto import KeyPair, _G, _N, sign, verify, verify_batch

private_keys = st.integers(1, _N - 1)
scalars = st.integers(0, 2 * _N)
messages = st.binary(min_size=0, max_size=256)


# -- primitive equivalence -----------------------------------------------------


@given(scalars)
@settings(max_examples=30, deadline=None)
def test_fixed_base_comb_matches_reference_ladder(k):
    assert fastec.mul_g(k) == _point_multiply(k, _G)


@pytest.mark.parametrize("k", [
    1,
    _N - 1,
    _N - 2,
    2**255,                                    # top window exactly 128: digit +128
    2**248 - 1,                                # 31 windows of 0xFF: carry runs to window 31
    int("FF" * 15 + "FD" + "FF" * 16, 16),     # every window 0xFF but one: carry into window 32
    2**256 - 1,                                # every window 0xFF before reduction mod N
], ids=["1", "N-1", "N-2", "2^255", "2^248-1", "0xFF-windows-below-N", "2^256-1"])
def test_signed_comb_boundaries_match_reference_ladder(k):
    assert fastec.mul_g(k) == _point_multiply(k, _G)


def _reference_sum(u1, u2, point):
    return _point_add(_point_multiply(u1, _G), _point_multiply(u2, point))


@given(scalars, scalars, private_keys)
@settings(max_examples=20, deadline=None)
def test_shamir_ladder_matches_reference_sum(u1, u2, secret):
    point = fastec.mul_g(secret)
    assert fastec.shamir_mul(u1, u2, point) == _reference_sum(u1, u2, point)


# -- the GLV split -------------------------------------------------------------


@given(st.integers(0, _N - 1))
@example(0)
@example(1)
@example(_N - 1)
@example(_N // 2)
@example(fastec.LAMBDA)
@example(_N - fastec.LAMBDA)
@settings(max_examples=200, deadline=None)
def test_glv_split_recombines_into_two_halves_of_at_most_128_bits(k):
    k1, k2 = fastec.glv_split(k)
    assert (k1 + k2 * fastec.LAMBDA) % _N == k
    assert abs(k1).bit_length() <= 128
    assert abs(k2).bit_length() <= 128


def test_endomorphism_constants_map_g_to_lambda_g():
    assert pow(fastec.BETA, 3, fastec.P) == 1
    assert pow(fastec.LAMBDA, 3, _N) == 1
    assert _point_multiply(fastec.LAMBDA, _G) == (fastec.BETA * _G[0] % fastec.P, _G[1])


@given(st.integers(1, _N - 1))
@settings(max_examples=10, deadline=None)
def test_ladder_on_q_equal_g_meets_a_doubling(u1):
    """Q = G, u2 = u1: the G and Q terms add the same points in step."""
    assert fastec.shamir_mul(u1, u1, _G) == _reference_sum(u1, u1, _G)


@given(st.integers(1, _N - 1))
@settings(max_examples=10, deadline=None)
def test_ladder_on_q_equal_g_with_opposite_scalars_is_infinity(u1):
    assert _reference_sum(u1, _N - u1, _G) is None
    assert fastec.shamir_mul(u1, _N - u1, _G) is None


@given(st.integers(1, _N - 1), st.integers(1, _N - 1))
@settings(max_examples=10, deadline=None)
def test_ladder_on_q_equal_lambda_g(u1, u2):
    lambda_g = (fastec.BETA * _G[0] % fastec.P, _G[1])
    assert fastec.shamir_mul(u1, u2, lambda_g) == _reference_sum(u1, u2, lambda_g)


def _ladder_doublings(u1, u2, point):
    """Run one verification ladder; return its doubling count and result.

    The ladder doubles once per bit position below the first (highest) code
    of the schedule ``fastec._ladder_schedule`` hands it, so that position
    is its doubling count."""
    tops = []
    real = fastec._ladder_schedule

    def recording(*args):
        codes, points = real(*args)
        tops.append(codes[0] >> fastec._POS_SHIFT)
        return codes, points

    with mock.patch.object(fastec, "_ladder_schedule", recording):
        result = fastec.shamir_mul(u1, u2, point)
    assert len(tops) == 1, "one ladder runs one schedule"
    return tops[0], result


@given(st.integers(1, _N - 1), st.integers(1, _N - 1))
@example(_N - 1, _N - 2)
@example(2**255 + 1, 2**255 + 3)  # full-width scalars, whatever Hypothesis draws
@settings(max_examples=25, deadline=None)
def test_verification_ladder_runs_at_most_129_doublings(u1, u2):
    """Half-length ladder pin: the GLV halves are at most 128 bits, so their
    wNAF digits sit at positions 0..128 (129 digits) and the ladder doubles
    at most 128 times; an unsplit 256-bit schedule starts near position 256."""
    point = KeyPair.from_name("doubling-count").public_key
    doublings, result = _ladder_doublings(u1, u2, point)
    assert doublings <= 128
    assert result is not None


def test_fixed_tables_build_without_a_generation_0_collection():
    """The comb and G tables hold ~5k points as flat tuples of ints, which
    the garbage collector does not track.  One tuple per point would add
    thousands of tracked objects, each young collection threshold's worth
    triggering a collection while the tables are built, and every later
    full collection would traverse them."""
    assert gc.isenabled()
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    fastec.clear_tables()
    fastec.comb_table()
    fastec.glv_g_table()
    assert gc.get_stats()[0]["collections"] == before


# -- sign/verify equivalence ---------------------------------------------------


@given(private_keys, messages)
@settings(max_examples=50, deadline=None)
def test_fast_sign_is_bit_identical_to_reference(private_key, message):
    signature = sign(private_key, message)
    assert signature == reference_sign(private_key, message)
    r, s = signature
    assert 1 <= r < _N
    assert 1 <= s <= _N // 2  # low-s form preserved


@given(private_keys, messages)
@settings(max_examples=50, deadline=None)
def test_sign_verify_round_trip_on_both_paths(private_key, message):
    public_key = fastec.mul_g(private_key)
    signature = sign(private_key, message)
    assert verify(public_key, message, signature) is True
    assert reference_verify(public_key, message, signature) is True


@given(private_keys, private_keys, messages)
@settings(max_examples=25, deadline=None)
def test_wrong_key_rejected_by_both_paths(key_a, key_b, message):
    signature = sign(key_a, message)
    public_b = fastec.mul_g(key_b)
    expected = key_a == key_b
    assert verify(public_b, message, signature) is expected
    assert reference_verify(public_b, message, signature) is expected


@given(private_keys, messages, st.binary(min_size=1, max_size=16))
@settings(max_examples=25, deadline=None)
def test_tampered_message_rejected_by_both_paths(private_key, message, suffix):
    public_key = fastec.mul_g(private_key)
    signature = sign(private_key, message)
    tampered = message + suffix
    assert verify(public_key, tampered, signature) is False
    assert reference_verify(public_key, tampered, signature) is False


@given(private_keys, messages, st.integers(1, _N - 1))
@settings(max_examples=25, deadline=None)
def test_tampered_signature_rejected_by_both_paths(private_key, message, delta):
    public_key = fastec.mul_g(private_key)
    r, s = sign(private_key, message)
    forged = ((r + delta) % _N or 1, s)
    assert verify(public_key, message, forged) is reference_verify(
        public_key, message, forged
    )
    assert verify(public_key, message, forged) is False or forged == (r, s)


MALFORMED_SIGNATURES = (None, (), (1,), (0, 1), (1, 0), (_N, 1), (1, _N), "nope", (1.5, 2))


def test_malformed_signatures_rejected_identically():
    kp = KeyPair.from_name("malformed-sig-check")
    message = b"payload"
    for bogus in MALFORMED_SIGNATURES:
        assert verify(kp.public_key, message, bogus) is False  # type: ignore[arg-type]


def test_off_curve_public_key_is_rejected():
    kp = KeyPair.from_name("off-curve-check")
    signature = kp.sign(b"payload")
    x, y = kp.public_key
    assert verify((x, (y + 1) % fastec.P), b"payload", signature) is False


def test_verify_batch_rejects_bad_items_item_by_item_like_verify(monkeypatch):
    """Malformed signatures and an off-curve key are rejected in place, before
    any table is built for them, and the well-formed items between them keep
    their verdicts."""
    kp = KeyPair.from_name("batch-malformed-check")
    message = b"payload"
    good = (kp.public_key, message, kp.sign(message))
    x, y = kp.public_key
    off_curve = ((x, (y + 1) % fastec.P), message, good[2])
    triples = [good]
    for bogus in MALFORMED_SIGNATURES:
        triples += [(kp.public_key, message, bogus), good]
    triples.append(off_curve)

    built = []
    real = fastec.table_for_pubkey

    def counting(point):
        built.append(point)
        return real(point)

    monkeypatch.setattr(fastec, "table_for_pubkey", counting)
    verdicts = verify_batch(triples)  # type: ignore[arg-type]
    assert verdicts == [True] + [False, True] * len(MALFORMED_SIGNATURES) + [False]
    assert verdicts == [verify(*triple) for triple in triples]  # type: ignore[arg-type]
    assert built == [kp.public_key]


# -- caches --------------------------------------------------------------------


def test_verification_cache_survives_key_rotation():
    """A rotated key can never be served a stale verdict: the public key is
    part of the cache key, so old-key entries are unreachable from it."""
    message = b"rotate me"
    old = KeyPair.from_name("rotation-old")
    new = KeyPair.from_name("rotation-new")

    old_sig = old.sign(message)
    assert verify(old.public_key, message, old_sig) is True   # cached True
    assert verify(old.public_key, message, old_sig) is True   # cache hit
    # After rotation the old signature must not validate under the new key,
    # cached or not — and repeatedly, so a hit is exercised too.
    assert verify(new.public_key, message, old_sig) is False
    assert verify(new.public_key, message, old_sig) is False
    new_sig = new.sign(message)
    assert verify(new.public_key, message, new_sig) is True
    assert verify(old.public_key, message, new_sig) is False


def test_replayed_batch_serves_verdicts_without_building_tables(monkeypatch):
    """Replay pin: a batch seen once must be answered wholly from the verdict
    cache — zero wNAF table constructions on the second pass."""
    keys = [KeyPair.from_name(f"batch-replay-{i}") for i in range(3)]
    triples = []
    for i, keypair in enumerate(keys):
        message = f"batch-replay-payload-{i}".encode()
        triples.append((keypair.public_key, message, keypair.sign(message)))
    # A tampered triple rides along so False verdicts replay from cache too.
    public_key, message, signature = triples[0]
    triples.append((public_key, message + b"!tampered", signature))

    builds = []
    real = fastec.table_for_pubkey

    def counting(point):
        builds.append(point)
        return real(point)

    monkeypatch.setattr(fastec, "table_for_pubkey", counting)
    first = verify_batch(triples)
    assert first == [True, True, True, False]
    assert len(builds) == len(triples)  # fresh keys: every triple missed
    builds.clear()
    assert verify_batch(triples) == first
    assert builds == []


@given(st.lists(st.tuples(private_keys, messages, st.booleans()),
                min_size=1, max_size=8))
@settings(max_examples=20, deadline=None)
def test_verify_batch_agrees_with_individual_verify(items):
    triples = []
    for private_key, message, valid in items:
        public_key = fastec.mul_g(private_key)
        signature = sign(private_key, message)
        if not valid:
            message = message + b"!tampered"
        triples.append((public_key, message, signature))
    assert verify_batch(triples) == [
        verify(public_key, message, signature)
        for public_key, message, signature in triples
    ]


# -- acceptance: 500 pinned cases ---------------------------------------------


@pytest.mark.slow
@given(private_keys, messages)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_sign_verify_bit_identical_on_500_cases(private_key, message):
    """Acceptance pin: fast ECDSA == reference ECDSA on 500 generated cases."""
    signature = sign(private_key, message)
    assert signature == reference_sign(private_key, message)
    public_key = fastec.mul_g(private_key)
    assert public_key == _point_multiply(private_key, _G)
    assert verify(public_key, message, signature) is True
    assert reference_verify(public_key, message, signature) is True
    assert verify(public_key, message + b"x", signature) is False
    assert reference_verify(public_key, message + b"x", signature) is False


# -- cache sizing vs the population sweep --------------------------------------


def test_signature_caches_hold_a_10k_consumer_working_set():
    """An LRU cycled over more keys than it holds misses on every lookup, so
    per-participant cost goes superlinear the moment the population passes
    the cache size (observed at 5k consumers with a 4096-table cap).  Pin
    the caps above the nightly sweep's working set: 10k consumer keys plus
    validators/owners for the table cache, several signed transactions per
    participant for the verdict cache."""
    import repro.blockchain.crypto as crypto_mod

    assert fastec._PUBKEY_TABLE_LIMIT >= 12_000
    assert crypto_mod._VERIFY_CACHE_LIMIT >= 100_000
