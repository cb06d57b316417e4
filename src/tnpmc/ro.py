"""Rate-operator unraveling: jumps land on the eigenstates of a state-dependent
positive operator built from the jump channels plus an arbitrary gauge term,

    R_psi = sum_j gamma_j L_j |psi><psi| L_j^dag + 1/2 (C |psi><psi| + |psi><psi| C^dag),

and eigenbranch alpha has probability lambda_alpha dt. The gauge operator C_psi
reshapes individual branches (and the deterministic drift through
K_psi = H - i/2 Gamma - i/2 C_psi) without changing the ensemble average.
:class:`RoScheme` holds the batched kernels; the replication/disappearance
layer and the reverse-jump machinery are shared with the MCWF scheme through
the common engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import engine
from .ensemble import Ensemble
from .errors import NoSourceState
from .exact import TimeGrid
from .linops import phase_fix
from .mcwf import McwfScheme, normalize_drift, step_context
from .model import TnpModel

BRANCH_PRUNE = 1e-14  # eigenbranches below this weight are dropped
NEG_BRANCH_TOL = -1e-12  # below this an eigenvalue counts as genuinely negative


@dataclass(frozen=True)
class RoStrategy:
    """Gauge choice: C = 0 or a user-supplied C(psi, t)."""

    kind: str
    fn: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @staticmethod
    def zero() -> "RoStrategy":
        return RoStrategy(kind="zero")

    @staticmethod
    def user(fn: Callable[[np.ndarray, float], np.ndarray]) -> "RoStrategy":
        return RoStrategy(kind="user", fn=fn)

    def c_matrix(self, psi: np.ndarray, t: float) -> Optional[np.ndarray]:
        if self.kind == "zero":
            return None
        return np.asarray(self.fn(psi, t), dtype=complex)


class RoScheme:
    """Batched rate-operator stepping for the shared engine."""

    negative_tol = NEG_BRANCH_TOL  # in probability units; lambda tolerance scaled by dt below

    def __init__(self, strategy: Optional[RoStrategy] = None):
        self.strategy = strategy or RoStrategy.zero()

    def prepare(self, model: TnpModel, t: float, dt: float) -> dict:
        self.negative_tol = NEG_BRANCH_TOL * dt
        return step_context(model, t, dt)

    def _rate_operators(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        n, d = states.shape
        r = np.zeros((n, d, d), dtype=complex)
        for j, op in enumerate(ctx["ops"]):
            lp = states @ op.T
            r += ctx["rates"][j] * (lp[:, :, None] * lp[:, None, :].conj())
        if self.strategy.kind != "zero":
            t = ctx["t"]
            for i in range(n):
                c = self.strategy.c_matrix(states[i], t)
                proj = np.outer(states[i], states[i].conj())
                r[i] += 0.5 * (c @ proj + proj @ c.conj().T)
        return 0.5 * (r + np.transpose(r, (0, 2, 1)).conj())

    def jump_bins(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        lam, vec = np.linalg.eigh(self._rate_operators(ctx, states))
        ctx["vectors"] = vec  # read by jump_target
        bins = lam * ctx["dt"]
        bins[np.abs(lam) < BRANCH_PRUNE] = 0.0
        return bins

    def det_states(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        if self.strategy.kind == "zero":
            un = states - 1j * ctx["dt"] * (states @ ctx["K"].T)
        else:
            un = np.empty_like(states)
            for i in range(states.shape[0]):
                k = ctx["K"] - 0.5j * self.strategy.c_matrix(states[i], ctx["t"])
                un[i] = states[i] - 1j * ctx["dt"] * (k @ states[i])
        return normalize_drift(ctx, un)

    x_values = McwfScheme.x_values

    def jump_target(self, ctx: dict, states: np.ndarray, i: int, b: int) -> np.ndarray:
        return phase_fix(ctx["vectors"][i][:, b])

    def reverse_entries(self, ctx, uniq_keys, uniq_states, uniq_counts, match_fn) -> dict:
        """Host-state exits for every negative eigenbranch of a snapshot source;
        NoSourceState when the branch eigenvector is absent from the snapshot."""
        lam, vec = np.linalg.eigh(self._rate_operators(ctx, uniq_states))
        entries: dict[int, list] = {}
        dt = ctx["dt"]
        for v in range(uniq_states.shape[0]):
            if uniq_counts[v] <= 0:
                continue
            for a in range(lam.shape[1]):
                if lam[v, a] >= NEG_BRANCH_TOL:
                    continue
                host = int(match_fn(uniq_keys, phase_fix(vec[v][:, a])[None, :])[0])
                weight = abs(float(lam[v, a])) * dt * float(uniq_counts[v])
                if host < 0:
                    raise NoSourceState(
                        f"reverse jump through eigenbranch {a} of source state {v} at t = {ctx['t']:.6g} "
                        f"has no host state in the ensemble; lost weight {weight:.3e} realizations per step"
                    )
                entries.setdefault(host, []).append((weight, v, a))
        return entries


def run(
    model: TnpModel,
    ensemble: Ensemble,
    grid: TimeGrid,
    *,
    strategy: Optional[RoStrategy] = None,
    reverse_jumps: bool = False,
    record_every: int = 1,
    merge: Optional[bool] = None,
    observables: Optional[dict[str, np.ndarray]] = None,
    jump_mass_limit: float = engine.JUMP_MASS_LIMIT,
    record_distinct: bool = True,
) -> engine.RunResult:
    """Rate-operator counterpart of :func:`tnpmc.mcwf.run`."""
    return engine.run(
        model,
        ensemble,
        grid,
        RoScheme(strategy),
        reverse_jumps=reverse_jumps,
        record_every=record_every,
        merge=merge,
        observables=observables,
        jump_mass_limit=jump_mass_limit,
        record_distinct=record_distinct,
    )
