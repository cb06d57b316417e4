"""Counter-based random streams for reproducible trajectory stepping.

Every trajectory owns a Philox4x64 key derived from (seed, id, spawn index)
plus a draw counter. Uniform variates for multiplicity-1 trajectories are
produced in one vectorized pass over all keys; multi-realization draws
(multinomial splits, Poisson creations) go through ``numpy.random.Generator``
seeded with the same key on a disjoint counter block, so the two paths can
never collide and results are independent of scheduling.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round, used to derive stream keys."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def stream_key(seed: int, a: int, b: int = 0) -> tuple[int, int]:
    """Derive a Philox key pair from (seed, a, b); distinct inputs give distinct streams."""
    s = splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    s = splitmix64(s ^ splitmix64(a & 0xFFFFFFFFFFFFFFFF))
    s = splitmix64(s ^ splitmix64(b & 0xFFFFFFFFFFFFFFFF))
    k0 = splitmix64(s)
    k1 = splitmix64(k0)
    return k0, k1


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 64x64 -> 128 bit product via 32-bit limbs (numpy has no native 128-bit).
    ah = a >> _S32
    al = a & _MASK32
    bh = b >> _S32
    bl = b & _MASK32
    ll = al * bl
    lh = al * bh
    hl = ah * bl
    mid = (ll >> _S32) + (lh & _MASK32) + (hl & _MASK32)
    lo = (ll & _MASK32) | ((mid & _MASK32) << _S32)
    hi = ah * bh + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    return hi, lo


def philox_words(c0, c1, c2, c3, k0, k1) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 block function; matches numpy's Philox bit for bit.

    All arguments are uint64 scalars or equal-length arrays. Returns the four
    output words of the counter block.
    """
    x0 = np.asarray(c0, dtype=np.uint64).copy()
    x1 = np.asarray(c1, dtype=np.uint64).copy()
    x2 = np.asarray(c2, dtype=np.uint64).copy()
    x3 = np.asarray(c3, dtype=np.uint64).copy()
    y0 = np.asarray(k0, dtype=np.uint64).copy()
    y1 = np.asarray(k1, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):  # modular uint64 arithmetic by design
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, x0)
            hi1, lo1 = _mulhilo(_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ y0, lo1, hi0 ^ x3 ^ y1, lo0
            y0 = y0 + _W0
            y1 = y1 + _W1
    return x0, x1, x2, x3


def _to_unit(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def batched_uniforms(key0: np.ndarray, key1: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per (key, counter) lane, evaluated in a single pass."""
    zeros = np.zeros_like(counter)
    w0, _, _, _ = philox_words(counter, zeros, zeros, zeros, key0, key1)
    return _to_unit(w0)


def batched_uniform_words(key0: np.ndarray, key1: np.ndarray, counter: np.ndarray):
    """All four independent uniforms of each lane's counter block."""
    zeros = np.zeros_like(counter)
    w0, w1, w2, w3 = philox_words(counter, zeros, zeros, zeros, key0, key1)
    return _to_unit(w0), _to_unit(w1), _to_unit(w2), _to_unit(w3)


_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GENERATOR = np.random.Generator(_PHILOX)


def make_generator(key0: int, key1: int, counter: int) -> np.random.Generator:
    """Generator on the (key, counter) stream, on a counter block disjoint
    from the one ``batched_uniforms`` consumes (word 3 tagged 1).

    One module-level Philox instance is re-keyed in place, so repeated calls
    avoid bit-generator construction overhead; each call invalidates the
    generator returned by the previous one.
    """
    st = _PHILOX.state
    st["state"]["counter"][:] = (0, 0, counter, 1)
    st["state"]["key"][:] = (key0, key1)
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    _PHILOX.state = st
    return _GENERATOR


def binomial_inverse(m: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized Binomial(m, p) sampling by CDF inversion; intended for small
    m*p (the loop runs max(k)+1 rounds)."""
    m = np.asarray(m, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    k = np.zeros(m.shape, dtype=np.int64)
    pmf = (1.0 - p) ** m
    cdf = pmf.copy()
    active = u >= cdf
    ratio = p / np.where(p < 1.0, 1.0 - p, 1.0)
    while active.any():
        kf = k.astype(np.float64)
        step = np.where(active, (m - kf) / (kf + 1.0) * ratio, 0.0)
        pmf = pmf * step
        cdf = cdf + pmf
        k = k + active.astype(np.int64)
        newly = u >= cdf
        # guard against fp tails: stop once pmf underflows or k reaches m
        active = newly & (pmf > 0.0) & (k < m)
    return np.minimum(k, m.astype(np.int64))


def uniform_at(key0: int, key1: int, counter: int) -> float:
    """Scalar convenience wrapper around :func:`batched_uniforms`."""
    u = batched_uniforms(
        np.array([key0], dtype=np.uint64),
        np.array([key1], dtype=np.uint64),
        np.array([counter], dtype=np.uint64),
    )
    return float(u[0])
