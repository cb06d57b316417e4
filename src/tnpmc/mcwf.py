"""Monte-Carlo wave-function stepping for trace-nonpreserving generators.

:class:`McwfScheme` holds the batched kernels the engine runs for a block of
unit-norm realizations. Per realization and step, a jump through channel j has
probability gamma_j ||L_j psi||^2 dt, disappearance or creation of a copy
|<Gamma_L - Gamma>| dt (sign-dependent), and the rest is first-order
deterministic drift through K = H - i/2 Gamma. With reverse jumps enabled,
channels with negative rates instead contribute transitions that undo earlier
jumps, with probability weighted by the snapshot count ratio of source and
current state (:meth:`McwfScheme.reverse_entries`).
"""

from __future__ import annotations

import numpy as np

from . import engine
from .errors import NoSourceState, ZeroNorm
from .exact import TimeGrid
# hermitian_eig is unused here, but bench/tracer.py wraps mcwf.hermitian_eig by name
from .linops import expectations_rows, hermitian_eig  # noqa: F401
from .model import TnpModel

NORM_FLOOR = 1e-28  # squared-norm floor for the deterministic map
IMAGE_TOL = 1e-14  # ||L psi'||^2 below this has no reverse-jump source


def step_context(model: TnpModel, t: float, dt: float) -> dict:
    """Per-step inputs of the kernels of both schemes; each model function is evaluated once."""
    rates = np.array([ch.rate_at(t) for ch in model.channels])
    gamma_l = model.gamma_L_from_rates(rates)
    gdiff = None
    if model.is_trace_preserving:
        gamma = gamma_l
    else:
        gamma = model.gamma_at(t)
        gdiff = gamma_l - gamma
    return {
        "t": t,
        "dt": dt,
        "K": model.hamiltonian_at(t) - 0.5j * gamma,
        "ops": model._ops,
        "rates": rates,
        "gdiff": gdiff,
        "negative_tol": 0.0,  # jump bins below this are negative; the rate-operator scheme sets its own
    }


def normalize_drift(ctx: dict, un: np.ndarray) -> np.ndarray:
    """Renormalized rows of the drifted states (1 - i K dt)|psi>; ZeroNorm when one vanishes."""
    n2 = np.einsum("ni,ni->n", un.conj(), un).real
    if float(n2.min()) < NORM_FLOOR:
        raise ZeroNorm(f"deterministic map annihilated a state at t = {ctx['t']:.6g}")
    return un / np.sqrt(n2)[:, None]


class McwfScheme:
    """Batched MCWF probabilities/targets for the shared engine.

    The engine calls ``prepare`` once per step and the kernels on the
    (n, d) block of member states: ``jump_bins`` (n, J) jump probabilities,
    negative for negative rates; ``det_states`` the drifted successors;
    ``x_values`` <Gamma_L - Gamma> per row; ``jump_target`` the states after
    jumps ``b`` of rows ``i``; ``reverse_entries`` the reverse-jump exits.
    """

    def prepare(self, model: TnpModel, t: float, dt: float) -> dict:
        return step_context(model, t, dt)

    def jump_bins(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        n = states.shape[0]
        out = np.empty((n, len(ctx["ops"])))
        for j, op in enumerate(ctx["ops"]):
            lp = states @ op.T
            out[:, j] = ctx["rates"][j] * ctx["dt"] * np.einsum("ni,ni->n", lp.conj(), lp).real
        return out

    def det_states(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        return normalize_drift(ctx, states - 1j * ctx["dt"] * (states @ ctx["K"].T))

    def x_values(self, ctx: dict, states: np.ndarray) -> np.ndarray:
        if ctx["gdiff"] is None:
            return np.zeros(states.shape[0])
        return expectations_rows(ctx["gdiff"], states)

    def jump_target(self, ctx: dict, states: np.ndarray, i, b):
        """L_b psi_i / ||L_b psi_i|| for index arrays ``i`` and ``b`` of one length, (n, d);
        for ints, the one state (d,)."""
        if np.ndim(i) == 0:
            return self.jump_target(ctx, states, np.array([i]), np.array([b]))[0]
        branches = set(b.tolist())
        if len(branches) == 1:
            return _normalized_images(ctx["ops"][branches.pop()], states[i])
        out = np.empty((len(i), states.shape[1]), dtype=complex)
        for j in branches:
            sel = np.flatnonzero(b == j)
            out[sel] = _normalized_images(ctx["ops"][j], states[i[sel]])
        return out

    def reverse_entries(self, ctx, uniq_keys, uniq_states, uniq_counts, match_fn):
        """Host-state exits for every (negative channel, snapshot source) pair:
        arrays of the host class, the weight in realizations per step and the
        source class of each exit, by channel and then by source.

        Raises NoSourceState when the host L psi'/||L psi'|| of a source psi'
        is absent from the snapshot, instead of dropping its weight.
        """
        entries = [(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=np.intp))]
        for j, rate in enumerate(ctx["rates"]):
            if rate >= 0.0:
                continue
            img = uniq_states @ ctx["ops"][j].T
            inorm2 = np.einsum("ni,ni->n", img.conj(), img).real
            valid = np.flatnonzero((inorm2 > IMAGE_TOL) & (uniq_counts > 0))
            if valid.size == 0:
                continue
            hosts = match_fn(uniq_keys, img[valid] / np.sqrt(inorm2[valid])[:, None])
            weights = abs(rate) * ctx["dt"] * inorm2[valid] * uniq_counts[valid]
            lost = hosts < 0
            if lost.any():
                raise NoSourceState(
                    f"reverse jumps through channel {j} at t = {ctx['t']:.6g} have no host state in the "
                    f"ensemble for {int(lost.sum())} source state(s); lost weight "
                    f"{float(weights[lost].sum()):.3e} realizations per step"
                )
            entries.append((hosts, weights, valid))
        return tuple(np.concatenate(e) for e in zip(*entries))


def _normalized_images(op: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """op psi / ||op psi|| for every row psi; each row's bytes are those of
    ``op @ psi / np.linalg.norm(op @ psi)``, whatever the number of rows."""
    lp = np.matmul(op, rows[:, :, None])[:, :, 0]
    return lp / np.sqrt(np.vecdot(lp.real, lp.real) + np.vecdot(lp.imag, lp.imag))[:, None]


def run(model: TnpModel, ensembles, grid: TimeGrid, **options):
    """Advance one ensemble, or several sharing the model and grid, with the MCWF
    scheme; the options and results are those of :func:`tnpmc.engine.run`."""
    return engine.run(model, ensembles, grid, McwfScheme(), **options)
