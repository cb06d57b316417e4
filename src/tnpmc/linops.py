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


def herm_deviation(a: np.ndarray) -> float:
    """Max-norm distance of ``a`` from its Hermitian part."""
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> None:
    dev = herm_deviation(a)
    if dev > tol:
        raise NonHermitianInput(f"{what} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")


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
    """Spectral decomposition; ``values`` ascending, ``vectors`` orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def _canonical_order(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # eigh already sorts ascending. Every column is phase-fixed as phase_fix
    # does with its default threshold; each factor is a numpy-scalar division,
    # because the array division rounds differently in the last bit. A
    # degenerate block (values within tol of its first) is then ordered by the
    # rounded (re, im, re, im, ...) keys of its phase-fixed columns.
    d = values.shape[0]
    if d == 0:
        return values, vectors
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-8 * mags.max(axis=0), axis=0)
    refs = vectors[first, np.arange(d)]
    cols = vectors * np.array([r.conjugate() / abs(r) for r in refs])
    tol = 1e-12 * max(1.0, float(np.abs(values).max()))
    order = np.arange(d)
    end = 0
    for i in np.flatnonzero(np.diff(values) <= tol):
        if i < end:
            continue
        within = values[i:] - values[i] <= tol
        end = i + (within.size if within.all() else int(np.argmin(within)))
        # a float view of a complex row interleaves (re, im) as the keys do
        keys = np.round(np.ascontiguousarray(cols[:, i:end].T).view(np.float64), 10)
        order[i:end] = i + np.lexsort(keys.T[::-1])
    return values[order], np.ascontiguousarray(cols[:, order])


def hermitian_eig(a: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEigen:
    """Full spectral decomposition of a Hermitian matrix.

    Raises ``NonHermitianInput`` when ``a`` violates the Hermiticity tolerance.
    Ordering is ascending in eigenvalue with deterministic tie-breaking and
    phase-fixed eigenvectors, so repeated calls give identical output.
    """
    assert_hermitian(a, tol)
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
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
    return np.einsum("ni,ij,nj->n", states.conj(), a, states).real
