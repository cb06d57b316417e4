"""Divisibility diagnostics for dynamical maps.

Complete positivity of the short-interval intermediate maps is checked through
the spectrum of their normalized Choi state (trace 1 for trace-preserving
maps); positivity, for qubits, through the maximal Bloch-vector norm of the
induced affine map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import DynamicalMap, TimeGrid, intermediate_matrices, propagate_map
from .model import TnpModel, pauli_ops


def choi_matrices(maps: np.ndarray, d: int) -> np.ndarray:
    """Normalized Choi states (1/d) sum_ab Lambda(E_ab) (x) E_ab of a stack (m, d^2, d^2) of map matrices.

    Entry (i + d*j, a + d*b) of a map matrix is Lambda(E_ab)[i, j], which is
    Choi entry (i*d + a, j*d + b); the Choi states are that index reshuffle.
    """
    j = maps.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3).reshape(maps.shape) / d
    return 0.5 * (j + np.swapaxes(j.conj(), -1, -2))


def choi_eigenvalues(dynmap: DynamicalMap) -> np.ndarray:
    """Ascending eigenvalues of the normalized Choi state of the map."""
    return np.linalg.eigvalsh(choi_matrices(dynmap.matrix[None], dynmap.dim)[0])


def bloch_forms(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, c) of every qubit map in a stack (k, 4, 4): m_ab = tr[s_a L[s_b]]/2, c_a = tr[s_a L[1]]/2."""
    p = pauli_ops()
    basis = np.stack([p.identity, p.x, p.y, p.z])
    # tr[A Y] = vec(A^T) . vec(Y), and vec(A^T) is the C-order ravel of A
    left = basis.reshape(4, 4)
    right = np.swapaxes(basis, -1, -2).reshape(4, 4)
    forms = 0.5 * np.einsum("ap,kpq,bq->kab", left, maps, right).real
    return forms[:, 1:, 1:], forms[:, 1:, 0]


def _fibonacci_sphere(n: int) -> np.ndarray:
    idx = np.arange(n)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (idx + 0.5) / n
    r = np.sqrt(1.0 - z * z)
    theta = golden * idx
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def max_bloch_norms(m: np.ndarray, c: np.ndarray, n_points: int = 4096, refine_steps: int = 20) -> np.ndarray:
    """max over unit vectors v of ||m[k] v + c[k]|| for every affine map r -> m[k] r + c[k] of a stack.

    A Fibonacci-sphere scan followed by projected gradient ascent with
    backtracking; accurate to ~1e-4 on smooth maps. The scan runs one map at
    a time, which keeps its memory at one (3, n_points) block; the ascent runs
    on all maps at once, and a map stops moving when its image or its tangent
    gradient vanishes.
    """
    pts = _fibonacci_sphere(n_points).T.copy()  # (3, n_points): the image rows are its coordinates
    k = m.shape[0]
    v = np.empty((k, 3))
    fv = np.empty(k)
    for s in range(k):
        x0, x1, x2 = np.square(m[s] @ pts + c[s][:, None])
        norms = np.sqrt(x0 + x1 + x2)  # the bytes of np.linalg.norm of the image points
        best = int(np.argmax(norms))
        v[s], fv[s] = pts[:, best], norms[best]
    step = np.full(k, 0.05)
    moving = np.ones(k, dtype=bool)
    for _ in range(refine_steps):
        img = np.einsum("kab,kb->ka", m, v) + c
        nrm = np.linalg.norm(img, axis=1)
        moving &= nrm != 0.0
        grad = np.einsum("kba,kb->ka", m, img / np.where(moving, nrm, 1.0)[:, None])
        tang = grad - np.einsum("ka,ka->k", grad, v)[:, None] * v
        g = np.linalg.norm(tang, axis=1)
        moving &= g >= 1e-14
        if not moving.any():
            break
        cand = v + step[:, None] * tang / np.where(moving, g, 1.0)[:, None]
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        fc = np.linalg.norm(np.einsum("kab,kb->ka", m, cand) + c, axis=1)
        up = moving & (fc > fv)
        v[up], fv[up] = cand[up], fc[up]
        step[up] *= 1.2
        step[moving & ~up] *= 0.5
    return fv


@dataclass(frozen=True)
class DivisibilityReport:
    """Per-interval diagnostics; Bloch norms are NaN for d != 2."""

    times: np.ndarray  # interval midpoints
    choi_eigenvalues: np.ndarray  # (n_intervals, d^2), ascending
    max_bloch_norms: np.ndarray

    @property
    def min_choi_eigenvalues(self) -> np.ndarray:
        return self.choi_eigenvalues[:, 0]

    def rows(self) -> list[tuple]:
        """(t, min, second, third, max_bloch_norm) rows for CSV output."""
        out = []
        for i, t in enumerate(self.times):
            eigs = self.choi_eigenvalues[i]
            second = float(eigs[1]) if eigs.shape[0] > 1 else float("nan")
            third = float(eigs[2]) if eigs.shape[0] > 2 else float("nan")
            out.append((float(t), float(eigs[0]), second, third, float(self.max_bloch_norms[i])))
        return out


def divisibility_report(model: TnpModel, grid: TimeGrid, adjoint: bool = False) -> DivisibilityReport:
    """Intermediate-map diagnostics over every grid interval.

    With ``adjoint=True`` the diagnostics are applied to the Hilbert-Schmidt
    adjoint of the propagator, i.e. to the dynamics in the opposite picture.
    """
    stack = np.stack([m.matrix for m in propagate_map(model, grid)])
    if adjoint:
        stack = np.swapaxes(stack.conj(), -1, -2)
    grid_times = grid.times()
    inter = intermediate_matrices(stack[:-1], stack[1:], grid_times[:-1])
    eigs = np.linalg.eigvalsh(choi_matrices(inter, model.dim))
    norms = max_bloch_norms(*bloch_forms(inter)) if model.dim == 2 else np.full(grid.n_steps, np.nan)
    times = 0.5 * (grid_times[:-1] + grid_times[1:])
    return DivisibilityReport(times=times, choi_eigenvalues=eigs, max_bloch_norms=norms)
