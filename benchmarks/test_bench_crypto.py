"""Crypto micro-benchmark: the per-operation cost of the fast ECDSA path.

Every state change in the architecture is a signed transaction, every block
is sealed and every usage report is a signed attestation, so secp256k1
signing and verification (:mod:`repro.blockchain.fastec`) are the largest
single cost of the repository benchmark's workloads.  This file times the
operations a run performs, in microseconds per call (median over repeats):

* ``sign_us`` — one deterministic-nonce signature (fixed-base comb);
* ``verify_us`` — a first verification under a key whose table is already
  built: one verdict-cache miss, one ladder;
* ``verify_cold_us`` — a first verification under a fresh key: the key's
  table is built, then one ladder runs;
* ``verify_cached_us`` — a re-verification, served by the verdict cache;

and counts the doublings one verification ladder runs
(``ladder_doublings``, the most over the sampled signatures): the ladder
doubles once per bit position below the first code of the digit schedule
``fastec._ladder_schedule`` hands it.  Timings carry no assertion: they
swing with the host.  The doubling count is exact, so its ``pinned_ratio``
(doublings / 256, the doublings of an unsplit 256-bit ladder) lets
``scripts/bench_trend.py`` catch a ladder regression without timing
noise.
"""

from __future__ import annotations

import statistics
import time
from unittest import mock

from repro.blockchain import crypto, fastec
from repro.blockchain.crypto import KeyPair

SAMPLES = 40   # operations per timed batch
REPEATS = 5    # timed batches per operation


def _median_us(batches) -> float:
    """Median per-operation microseconds over timed *batches* of SAMPLES calls."""
    per_call = []
    for batch in batches:
        started = time.perf_counter()
        batch()
        per_call.append((time.perf_counter() - started) / SAMPLES * 1e6)
    return round(statistics.median(per_call), 1)


def _triple(keypair: KeyPair, message: bytes):
    return (keypair.public_key, message, keypair.sign(message))


def _verify_all(triples):
    return lambda: [crypto.verify(*triple) for triple in triples]


def _ladder_doublings(triple) -> int:
    """Verify *triple* (a verdict-cache miss) and return its ladder's doublings."""
    tops = []
    real = fastec._ladder_schedule

    def recording(*args):
        codes, points = real(*args)
        tops.append(codes[0] >> fastec._POS_SHIFT)
        return codes, points

    with mock.patch.object(fastec, "_ladder_schedule", recording):
        assert crypto.verify(*triple)
    assert len(tops) == 1, "one verification runs one ladder"
    return tops[0]


def test_crypto_operation_costs(report):
    from bench_helpers import bench_row, emit_bench_json

    crypto.clear_signature_caches()
    signer = KeyPair.from_name("bench-crypto-signer")
    messages = [f"bench-crypto-sign-{index}".encode() for index in range(SAMPLES)]
    sign_us = _median_us([lambda: [signer.sign(message) for message in messages]] * REPEATS)

    # One verification builds the G tables and the signer's table; every
    # timed triple after it is new to the verdict cache, so it runs a ladder.
    assert crypto.verify(*_triple(signer, b"bench-crypto-warm-up"))
    warm_batches = [
        [_triple(signer, f"bench-crypto-warm-{repeat}-{index}".encode()) for index in range(SAMPLES)]
        for repeat in range(REPEATS)
    ]
    verify_us = _median_us([_verify_all(triples) for triples in warm_batches])
    verify_cached_us = _median_us([_verify_all(triples) for triples in warm_batches])

    # One fresh key per verification, so each call also builds a table.
    cold_batches = [
        [_triple(KeyPair.from_name(f"bench-crypto-cold-{repeat}-{index}"), b"cold")
         for index in range(SAMPLES)]
        for repeat in range(REPEATS)
    ]
    verify_cold_us = _median_us([_verify_all(triples) for triples in cold_batches])

    # Doublings per ladder, counted on first verifications under a warm table.
    ladder_doublings = max(
        _ladder_doublings(_triple(signer, f"bench-crypto-count-{index}".encode()))
        for index in range(SAMPLES)
    )
    doubling_ratio = round(ladder_doublings / 256, 3)

    report("crypto per operation", sign_us=sign_us, verify_us=verify_us,
           verify_cold_us=verify_cold_us, verify_cached_us=verify_cached_us,
           ladder_doublings=ladder_doublings)
    emit_bench_json("crypto", [
        bench_row("sign_us", [SAMPLES], [sign_us]),
        bench_row("verify_us", [SAMPLES], [verify_us]),
        bench_row("verify_cold_us", [SAMPLES], [verify_cold_us]),
        bench_row("verify_cached_us", [SAMPLES], [verify_cached_us]),
        bench_row("ladder_doublings", [SAMPLES], [ladder_doublings],
                  pinned_ratio=doubling_ratio),
    ])
    assert doubling_ratio <= 0.51
