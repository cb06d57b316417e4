"""Deterministic reference solvers: fixed-step RK4 for the density operator,
the inhomogeneous moment hierarchy, and dynamical-map propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonFiniteState, SingularMap
from .model import SourceTerm, TnpModel


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise InvalidParameter(f"dt must be positive, got {self.dt}")
        ratio = (self.t1 - self.t0) / self.dt
        n = round(ratio)
        if n < 1 or abs(ratio - n) > 1e-6 * max(1.0, abs(ratio)):
            raise InvalidParameter(f"(t1 - t0)/dt = {ratio} is not close to a positive integer")

    @property
    def n_steps(self) -> int:
        return round((self.t1 - self.t0) / self.dt)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def time_at(self, i: int) -> float:
        return self.t0 + self.dt * i


@dataclass(frozen=True)
class OperatorTrajectory:
    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, ..., d, d): one (d, d) or a stack per grid point

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation between stored grid values, clamped at the ends."""
        s = (t - self.grid.t0) / self.grid.dt
        i0 = int(np.floor(s))
        n = self.values.shape[0] - 1
        if i0 < 0:
            return self.values[0]
        if i0 >= n:
            return self.values[n]
        w = s - i0
        return (1.0 - w) * self.values[i0] + w * self.values[i0 + 1]


def integrate(model: TnpModel, rho0: np.ndarray, grid: TimeGrid) -> OperatorTrajectory:
    """Classical fixed-step RK4 of one operator (d, d) or of a stack (m, d, d).

    The generator (:meth:`TnpModel.generator_at`) is evaluated at 2n + 1
    times of an n-step grid: at the start, and at the midpoint and the end of
    every step, whose end carries into the next step. Each step re-symmetrizes
    to kill Hermiticity drift. A stack is integrated in one run, and every
    member follows the same arithmetic as when integrated alone.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    out = np.empty((grid.n_steps + 1,) + rho.shape, dtype=complex)
    out[0] = rho
    dt = grid.dt
    end = model.generator_at(grid.t0)
    for i in range(grid.n_steps):
        start, t_next = end, grid.time_at(i + 1)
        mid = model.generator_at(grid.time_at(i) + 0.5 * dt)
        end = model.generator_at(t_next)
        k1 = start(rho)
        k2 = mid(rho + 0.5 * dt * k1)
        k3 = mid(rho + 0.5 * dt * k2)
        k4 = end(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))
        if not np.isfinite(rho).all():
            raise NonFiniteState(f"non-finite density operator at t = {t_next:.6g}")
        out[i + 1] = rho
    return OperatorTrajectory(grid=grid, values=out)


@dataclass(frozen=True)
class HierarchyResult:
    trajectories: tuple[OperatorTrajectory, ...]  # tau_0 .. tau_kmax
    moments: np.ndarray  # (k_max + 1, n_steps + 1), mu_k(t) = tr tau_k(t)


def solve_hierarchy(
    model: TnpModel, counting_channel: int, k_max: int, rho0: np.ndarray, grid: TimeGrid
) -> HierarchyResult:
    """Iteratively solve d tau_k/dt = L[tau_k] + k J[tau_{k-1}], tau_k(0) = 0 for k >= 1.

    ``model`` must be trace preserving; J is the jump superoperator of the
    selected channel. Stage k reads the stored stage-(k-1) trajectory through
    linear interpolation, including at RK4 midpoints.
    """
    if not model.is_trace_preserving:
        probe = np.eye(model.dim) / model.dim
        for t in (grid.t0, 0.5 * (grid.t0 + grid.t1), grid.t1):
            if abs(model.trace_derivative(t, probe)) > 1e-9:
                raise InvalidParameter("hierarchy base model must be trace preserving")
    if not 0 <= counting_channel < len(model.channels):
        raise InvalidParameter(f"counting channel {counting_channel} out of range")
    ch = model.channels[counting_channel]
    op = np.asarray(ch.op, dtype=complex)

    trajs = [integrate(model, rho0, grid)]
    for k in range(1, k_max + 1):
        prev = trajs[-1]

        def source(t: float, _k=k, _prev=prev) -> np.ndarray:
            return _k * ch.rate_at(t) * (op @ _prev.at(t) @ op.conj().T)

        staged = TnpModel(
            dim=model.dim,
            hamiltonian=model.hamiltonian,
            channels=model.channels,
            gamma=model.gamma,
            source=SourceTerm(source),
        )
        trajs.append(integrate(staged, np.zeros((model.dim, model.dim), dtype=complex), grid))

    moments = np.stack([np.trace(tr.values, axis1=1, axis2=2).real for tr in trajs])
    return HierarchyResult(trajectories=tuple(trajs), moments=moments)


# ---------------------------------------------------------------------------
# Dynamical maps (column-stacking vectorization: vec index = i + d*j)


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape(d, d, order="F")


@dataclass(frozen=True)
class DynamicalMap:
    dim: int
    matrix: np.ndarray  # (d^2, d^2) acting on column-vectorized operators
    time: float

    def apply(self, op: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(op), self.dim)

    def adjoint(self) -> "DynamicalMap":
        """Hilbert-Schmidt adjoint; swaps Heisenberg and Schroedinger pictures."""
        return DynamicalMap(dim=self.dim, matrix=self.matrix.conj().T, time=self.time)


def _hermitian_basis(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d^2 Hermitian basis operators and the (d^2, d^2) matrix whose column
    i + d*j combines their images into the image of E_ij.

    The basis is E_ii, then for each i < j the symmetric S = E_ij + E_ji and
    antisymmetric A = i E_ij - i E_ji, so E_ij = (S - iA)/2, E_ji = (S + iA)/2.
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    comb = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        basis[i, i, i] = 1.0
        comb[i, i + d * i] = 1.0
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            basis[k, i, j] = basis[k, j, i] = 1.0
            basis[k + 1, i, j], basis[k + 1, j, i] = 1j, -1j
            comb[k, i + d * j] = comb[k, j + d * i] = 0.5
            comb[k + 1, i + d * j], comb[k + 1, j + d * i] = -0.5j, 0.5j
            k += 2
    return basis, comb


def propagate_map(model: TnpModel, grid: TimeGrid) -> list[DynamicalMap]:
    """Propagator matrices at every grid point, Lambda_0 = identity.

    The Hermitian operator basis is integrated as one stack, so the RK4 path
    stays within Hermitian matrices, and one fixed combination matrix turns
    the basis images into the columns.
    """
    d = model.dim
    basis, comb = _hermitian_basis(d)
    images = integrate(model, basis, grid).values  # (n + 1, d^2, d, d)
    # row k of images[s] as vec(images[s, k]): column stacking is a C-order ravel of the transpose
    vecs = np.swapaxes(images, -1, -2).reshape(images.shape[0], d * d, d * d)
    matrices = np.swapaxes(vecs, -1, -2) @ comb
    return [DynamicalMap(dim=d, matrix=matrices[s], time=grid.time_at(s)) for s in range(grid.n_steps + 1)]


COND_LIMIT = 1e10


def intermediate_matrices(start: np.ndarray, end: np.ndarray, start_times: np.ndarray) -> np.ndarray:
    """Lambda_t Lambda_s^{-1} for stacks (m, d^2, d^2) of map matrices at s and t.

    Raises ``SingularMap`` naming the earliest start time whose map is
    singular or has condition number above ``COND_LIMIT``.
    """
    cond = np.linalg.cond(start)
    bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularMap(f"Lambda at t = {start_times[k]:.6g} has condition number {cond[k]:.3e}")
    return end @ np.linalg.inv(start)
