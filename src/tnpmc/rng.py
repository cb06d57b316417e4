"""Counter-based random streams for reproducible stepping.

``stream_key`` hashes (seed, tag, index) into a Philox4x64 key, and
``make_generator`` opens the stream of a key at a counter block. The engine
opens one stream per step, keyed by the seed and a step tag at the step
counter, and consumes it in array order: four uniforms per object, then the
multinomial draws of large lumps in object order. Source-term creations use
another key at the same counter. Results therefore depend only on
``(config, seed)``, and a resumed run needs only the step counter.
"""

from __future__ import annotations

import numpy as np


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


def batched_uniform_words(lanes: np.ndarray, gen: np.random.Generator):
    """Four uniforms per lane, drawn as ``gen.random((4, n))`` row by row.

    Lane i takes the i-th value of each row, so the first ``n`` draws of the
    stream are the first uniforms of lanes 0..n-1 whatever ``n`` is.
    """
    return tuple(gen.random((4, len(lanes))))


_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GENERATOR = np.random.Generator(_PHILOX)


def make_generator(key0: int, key1: int, counter: int) -> np.random.Generator:
    """Generator on the (key, counter) stream.

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
