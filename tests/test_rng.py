import numpy as np
from numpy.random import Philox

from tnpmc.rng import (
    batched_uniform_words,
    binomial_inverse,
    make_generator,
    philox_words,
    splitmix64,
    stream_key,
)


def test_philox_matches_numpy_blocks():
    # numpy's Philox advances the counter before generating, so emulate that
    rng = np.random.default_rng(0)
    for _ in range(20):
        key = rng.integers(0, 2**63, size=2, dtype=np.uint64)
        ctr = rng.integers(0, 2**63, size=4, dtype=np.uint64)
        expect = Philox(key=key, counter=ctr).random_raw(4)
        bumped = ctr.copy()
        bumped[0] += np.uint64(1)
        got = philox_words(bumped[0], bumped[1], bumped[2], bumped[3], key[0], key[1])
        assert all(int(g) == int(e) for g, e in zip(got, expect))


def test_batched_uniforms_deterministic_and_in_range():
    k0 = np.arange(1000, dtype=np.uint64)
    k1 = np.arange(1000, 2000, dtype=np.uint64)
    ctr = np.full(1000, 7, dtype=np.uint64)
    u = batched_uniform_words(k0, k1, ctr)[0]
    assert np.array_equal(u, batched_uniform_words(k0, k1, ctr)[0])
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity check
    assert abs(u.mean() - 0.5) < 0.05
    u2 = batched_uniform_words(k0, k1, ctr + np.uint64(1))[0]
    assert not np.array_equal(u, u2)


def test_uniform_words_independent():
    k0 = np.arange(4000, dtype=np.uint64)
    k1 = np.zeros(4000, dtype=np.uint64)
    ctr = np.zeros(4000, dtype=np.uint64)
    u0, u1, u2, u3 = batched_uniform_words(k0, k1, ctr)
    for u in (u0, u1, u2, u3):
        assert abs(u.mean() - 0.5) < 0.03
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.05


def test_stream_key_distinct():
    keys = {stream_key(1, a, b) for a in range(50) for b in range(10)}
    assert len(keys) == 500
    assert stream_key(1, 2, 3) == stream_key(1, 2, 3)
    assert stream_key(1, 2, 3) != stream_key(2, 2, 3)


def test_splitmix_is_deterministic():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)


def test_make_generator_reproducible_and_disjoint():
    g1 = make_generator(123, 456, 9).random(4)
    g2 = make_generator(123, 456, 9).random(4)
    assert np.array_equal(g1, g2)
    g3 = make_generator(123, 456, 10).random(4)
    assert not np.array_equal(g1, g3)
    # generator path must not collide with the batched-uniform counter space
    words = batched_uniform_words(*(np.array([v], dtype=np.uint64) for v in (123, 456, 9)))
    assert g1[0] not in np.concatenate(words)


def test_binomial_inverse_moments():
    rng = np.random.default_rng(11)
    m = np.full(200_000, 40)
    p = np.full(200_000, 0.05)
    u = rng.random(200_000)
    k = binomial_inverse(m, p, u)
    assert k.min() >= 0 and k.max() <= 40
    assert abs(k.mean() - 2.0) < 0.02  # mean m*p = 2
    assert abs(k.var() - 2.0 * 0.95) < 0.05  # var m*p*(1-p)


def test_binomial_inverse_edge_cases():
    k = binomial_inverse(np.array([10]), np.array([0.0]), np.array([0.999]))
    assert k[0] == 0
    k = binomial_inverse(np.array([3]), np.array([0.4]), np.array([1.0 - 1e-16]))
    assert k[0] <= 3
