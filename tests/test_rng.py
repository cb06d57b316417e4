import numpy as np

from tnpmc.engine import SOURCE_STREAM_TAG, STEP_STREAM_TAG
from tnpmc.rng import (
    batched_uniform_words,
    binomial_inverse,
    make_generator,
    splitmix64,
    stream_key,
)


def test_batched_uniforms_deterministic_and_in_range():
    lanes = np.ones(1000, dtype=np.int64)
    u = batched_uniform_words(lanes, make_generator(123, 456, 7))[0]
    assert u.shape == (1000,)
    assert np.array_equal(u, batched_uniform_words(lanes, make_generator(123, 456, 7))[0])
    assert u.min() >= 0.0 and u.max() < 1.0
    # crude uniformity check
    assert abs(u.mean() - 0.5) < 0.05
    u2 = batched_uniform_words(lanes, make_generator(123, 456, 8))[0]
    assert not np.array_equal(u, u2)


def test_uniform_words_independent():
    u0, u1, u2, u3 = batched_uniform_words(np.ones(4000), make_generator(1, 0, 0))
    for u in (u0, u1, u2, u3):
        assert abs(u.mean() - 0.5) < 0.03
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.05


def test_step_stream_reproducible_distinct_and_prefix_stable():
    step_key = stream_key(42, STEP_STREAM_TAG)

    def step_words(step, n):
        return np.stack(batched_uniform_words(np.ones(n), make_generator(*step_key, step)))

    assert np.array_equal(step_words(3, 50), step_words(3, 50))
    assert not np.array_equal(step_words(3, 50), step_words(4, 50))
    source = make_generator(*stream_key(42, SOURCE_STREAM_TAG, 0), 3).random(200)
    assert not np.isin(step_words(3, 50).ravel(), source).any()
    # u0 of member i is value i of the step's stream, whatever the member count
    small, large = step_words(3, 50), step_words(3, 300)
    assert np.array_equal(small[0], large[0, :50])
    assert np.array_equal(small[0], make_generator(*step_key, 3).random(50))


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
    g4 = make_generator(124, 456, 9).random(4)
    assert not np.isin(g1, np.concatenate([g3, g4])).any()


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
