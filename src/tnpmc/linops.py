"""Dense complex linear algebra helpers for small Hilbert spaces (d <~ 64).

States are plain 1-d complex arrays, operators 2-d complex arrays. The
eigensolver canonicalizes ordering and phases so that spectral decompositions
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITIAN_TOL = 1e-10
WEIGHT_TOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def herm_deviation(a: np.ndarray):
    """Max-norm distance of ``a`` from its Hermitian part: a float for one
    matrix (d, d), one value per matrix for a stack (m, d, d)."""
    if a.ndim == 2:
        return float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    return np.abs(a - np.swapaxes(a.conj(), -1, -2)).max(axis=(-2, -1), initial=0.0)


def assert_hermitian(a: np.ndarray, tol=HERMITIAN_TOL, what: str = "matrix") -> None:
    """NonHermitianInput unless ``a``, one matrix or each of a stack, is within
    ``tol`` of its Hermitian part; for a stack ``tol`` may give one tolerance per matrix."""
    dev = herm_deviation(a)
    if a.ndim == 2:
        if dev > tol:
            raise NonHermitianInput(f"{what} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
        return
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        k = bad[0]
        raise NonHermitianInput(f"{what} {k} of the stack deviates from Hermiticity by {dev[k]:.3e} "
                                f"(tol {np.broadcast_to(tol, dev.shape)[k]:.1e})")


def phase_fix(psi: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """Rotate the global phase so the first significant amplitude is real positive."""
    mags = np.abs(psi)
    scale = mags.max()
    if scale == 0.0:
        return psi.copy()
    idx = int(np.argmax(mags > threshold * scale))
    ref = psi[idx]
    if ref == 0:
        return psi.copy()
    return psi * (ref.conjugate() / abs(ref))


def phase_fix_each(states: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """:func:`phase_fix` of every row of an (n, d) block, row by row the same bytes.

    The factor conj(r) / hypot(re r, im r) rounds as phase_fix's numpy-scalar
    conj(r) / abs(r) does, which np.abs does not.
    """
    mags = np.abs(states)
    first = np.argmax(mags > threshold * mags.max(axis=1, keepdims=True), axis=1)
    del mags  # a stack's temporaries set the peak memory of a run with a source
    refs = states[np.arange(states.shape[0]), first]
    absref = np.hypot(refs.real, refs.imag)
    absref[absref == 0.0] = 1.0  # an all-zero row stays zero
    return states * (refs.conj() / absref)[:, None]


def phase_fix_rows(states: np.ndarray, threshold: float = 1e-5) -> np.ndarray:
    """Vectorized :func:`phase_fix` over the rows of an (n, d) state block.

    The threshold is absolute; intended for unit-norm states where the leading
    amplitude is O(1).
    """
    mags = np.abs(states)
    idx = np.argmax(mags > threshold, axis=1)
    ref = states[np.arange(states.shape[0]), idx]
    absref = np.abs(ref)
    absref[absref == 0.0] = 1.0
    return states * (ref.conj() / absref)[:, None]


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition of one matrix or of a stack: ``values`` (..., d) ascending,
    ``vectors`` (..., d, d) orthonormal columns. Indexing a stack gives one matrix's."""

    values: np.ndarray
    vectors: np.ndarray

    def __getitem__(self, k) -> "HermitianEigen":
        return HermitianEigen(values=self.values[k], vectors=self.vectors[k])

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ np.swapaxes(self.vectors.conj(), -1, -2)


def _block_lexsort(cols: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Stable order of the rows of ``cols`` by ``block`` (non-negative), then by
    the rounded (re, im, re, im, ...) keys of each row: the order of
    ``np.lexsort((*keys.T[::-1], block))``, from one sort of byte strings.

    Each row becomes a big-endian string of unsigned words whose byte order is
    the key order: the block, then the key floats with their bits mapped so
    that they sort as the floats do (``+ 0.0`` makes -0.0 equal 0.0).
    """
    keys = np.round(np.ascontiguousarray(cols).view(np.float64), 10)
    keys += 0.0
    bits = keys.view(np.int64)
    flip = bits >> 63  # all ones for a negative float, whose bits then sort reversed
    flip |= np.int64(-1 << 63)
    bits ^= flip
    words = np.empty((bits.shape[0], bits.shape[1] + 1), dtype=">u8")
    words[:, 0] = block
    words[:, 1:] = bits.view(np.uint64)
    return np.argsort(words.view(f"V{words.itemsize * words.shape[1]}").ravel(), kind="stable")


def _canonical_order(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh already sorts each spectrum ascending. Every column is phase-fixed
    # as phase_fix does with its default threshold. A degenerate block (values
    # within tol of its first) is then ordered by the rounded (re, im, re, im,
    # ...) keys of its phase-fixed columns.
    shape, d = vectors.shape, values.shape[-1]
    if d == 0 or values.size == 0:
        return values, vectors
    vals, vecs = values.reshape(-1, d), vectors.reshape(-1, d, d)
    m = vals.shape[0]
    # one row per phase-fixed column, matrix after matrix
    cols = phase_fix_each(np.swapaxes(vecs, 1, 2).reshape(m * d, d))
    # start[k, j]: first column of the block of column j; a block runs while
    # values stay within tol of its first value
    tol = 1e-12 * np.maximum(1.0, np.abs(vals).max(axis=1))
    start = np.empty((m, d), dtype=np.intp)
    start[:, 0] = 0
    rows = np.arange(m)
    for j in range(1, d):
        prev = start[:, j - 1]
        start[:, j] = np.where(vals[:, j] - vals[rows, prev] <= tol, prev, j)
    order = np.arange(m * d)
    block = (rows[:, None] * d + start).ravel()  # unique across the stack
    if (block != order).any():
        order = _block_lexsort(cols, block)
    out_vecs = np.ascontiguousarray(np.swapaxes(cols[order].reshape(m, d, d), 1, 2))
    return vals.ravel()[order].reshape(values.shape), out_vecs.reshape(shape)


def hermitian_eig(a: np.ndarray, tol=HERMITIAN_TOL) -> HermitianEigen:
    """Full spectral decomposition of a Hermitian matrix (d, d) or of each of a stack (m, d, d).

    A stack takes one ``np.linalg.eigh`` call and gives, matrix by matrix,
    the same bytes as separate calls. Raises ``NonHermitianInput`` when a
    matrix violates the Hermiticity tolerance ``tol`` (a scalar, or one per
    matrix). Ordering is ascending in eigenvalue with deterministic
    tie-breaking and phase-fixed eigenvectors, so repeated calls give
    identical output.
    """
    assert_hermitian(a, tol)
    values, vectors = np.linalg.eigh(0.5 * (a + np.swapaxes(a.conj(), -1, -2)))
    values, vectors = _canonical_order(values, vectors)
    return HermitianEigen(values=values, vectors=vectors)


def split_hermitian(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose X = X_h + i X_a with both parts Hermitian (exact recombination)."""
    xh = 0.5 * (x + x.conj().T)
    xa = (x - x.conj().T) / 2j
    return xh, xa


def split_positive(a: np.ndarray):
    """Write a Hermitian A as mu+ rho+ - mu- rho- with unit-trace positive rho±.

    Components with weight below 1e-12 are reported absent (weight 0, matrix None).
    """
    eig = hermitian_eig(a)
    pos = eig.values > 0
    mu_plus = float(eig.values[pos].sum())
    mu_minus = float(-eig.values[~pos].sum())
    rho_plus = None
    rho_minus = None
    if mu_plus > WEIGHT_TOL:
        v = eig.vectors[:, pos]
        rho_plus = (v * eig.values[pos]) @ v.conj().T / mu_plus
    else:
        mu_plus = 0.0
    if mu_minus > WEIGHT_TOL:
        v = eig.vectors[:, ~pos]
        rho_minus = (v * (-eig.values[~pos])) @ v.conj().T / mu_minus
    else:
        mu_minus = 0.0
    return mu_plus, rho_plus, mu_minus, rho_minus


def expectation(a: np.ndarray, psi: np.ndarray) -> complex:
    """<psi|A|psi>; real up to rounding when A is Hermitian."""
    if a.shape[0] != a.shape[1] or a.shape[1] != psi.shape[0]:
        raise DimensionMismatch(f"operator {a.shape} incompatible with state of dim {psi.shape[0]}")
    return complex(np.vdot(psi, a @ psi))


def expectations_rows(a: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real part of <psi|A|psi> for every row of an (n, d) state block."""
    return np.einsum("ni,ni->n", states.conj(), states @ a.T).real
