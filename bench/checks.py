"""Correctness checks of each operation's outputs.

Every check compares the program's output with ``references`` (computed
without ``tnpmc``) or with a property the method must have. Statistical
tolerances come from each estimator's own error; README.md derives them.
A check returns a ``Report`` whose ``failures`` list is empty when the output passes.
"""

from __future__ import annotations

import numpy as np
import scipy.stats

import references as ref
import workloads as wl

# z limits; README.md derives each from the error model of its estimator
Z_KNOWN_VARIANCE = 5.0  # exact variance, Gaussian tail
Z_GROUP_BOOTSTRAP = 5.0  # bootstrap over 100 independent groups
TAIL_P = 1e-7  # exact count tests: each tail below this fails, about 5.3 sigma
Z_REVERSE_GROUPS = 7.0  # standard error from 20 groups (Student t tails)
Z_TOWERS = 8.0  # standard error from the bootstrap over 12 towers (Student t tails)
RESOLVED_RATIO = 10.0  # est / se: about 100 effective tower-level contributions
MOMENT_BIAS = 0.05  # relative O(dt) bias of the staged estimator at dt = 1e-2
# deterministic comparisons
GRID_TOL = 1e-9
RK4_STATE_TOL = 1e-5  # tnpmc's RK4 oracle at dt = 1e-3 against the reference
RK4_COARSE_TOL = 1e-6  # tnpmc's RK4 oracle at dt = 1e-2 (tilted traces)
HIERARCHY_TOL = 1e-3  # tnpmc's hierarchy interpolates stage k-1 linearly: O(dt^2)
CP_TOL = 1e-8  # criterion 8: Choi eigenvalues above -1e-8 count as non-negative
VIOLATION = 1e-6  # criterion 8: a violation must exceed this


class Report:
    def __init__(self):
        self.failures: list[str] = []
        self.max_z: dict[str, float] = {}

    def require(self, ok, message):
        if not bool(ok):
            self.failures.append(message)

    def z_test(self, label, est, exact, se, limit):
        """|est - exact| <= limit * se pointwise; with zero spread the estimate must be exact."""
        est, exact, se = (np.asarray(a, dtype=float) for a in (est, exact, se))
        flat = se <= 0.0
        self.close(f"{label} without spread", est[flat], exact[flat], 1e-12)
        if flat.all():
            return
        est, exact, se = est[~flat], exact[~flat], se[~flat]
        z = np.abs(est - exact) / se
        self.max_z[label] = float(z.max())
        if z.max() > limit:
            i = int(np.argmax(z))
            self.failures.append(f"{label}: z = {z[i]:.2f} > {limit} at point {i} "
                                 f"(est {est[i]:.6g}, exact {exact[i]:.6g}, se {se[i]:.3g})")

    def close(self, label, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(got) else 0.0
        if not err <= tol:
            self.failures.append(f"{label}: max deviation {err:.3g} > {tol:.1g}")


def _grid(report, times, step):
    report.require(np.allclose(times, step * np.arange(len(times)), rtol=0.0, atol=GRID_TOL),
                   f"record times are not multiples of {step}")


# -- qubit_cli ---------------------------------------------------------------


def check_cli(name, a):
    r = Report()
    n = wl.QUBIT_N[name]
    t = a["t"]
    _grid(r, t, wl.QUBIT_DT * wl.QUBIT_RECORD_EVERY)
    r.require(abs(t[-1] - wl.QUBIT_T_FINAL) < GRID_TOL, "last record is not at t_final")
    r.close("trace_estimate vs total_count / N", a["trace_estimate"], a["total_count"] / n, 1e-12)
    est = {"trace": a["trace_estimate"], "pop_0": a["pop_0"], "pop_1": a["pop_1"]}
    if name == "decay":
        exact = dict(zip(est, ref.qubit_decay_closed_form(t)))
        var = {k: v * (1.0 - v) for k, v in exact.items()}  # multinomial, independent realizations
    elif name == "gain":
        exact = dict(zip(est, ref.qubit_gain_closed_form(t)))
        var = dict(zip(est, ref.qubit_gain_variances(t)))
    else:
        exact = dict(zip(est, ref.qubit_ro_reference(t)))
        var = {k: v * (1.0 - v) for k, v in exact.items()}  # Bhatia-Davis bound for X in [0, 1]
    for key in est:
        r.close(f"{key} at t = 0", est[key][0], exact[key][0], 1e-12)
        r.z_test(key, est[key][1:], exact[key][1:], np.sqrt(var[key][1:] / n), Z_KNOWN_VARIANCE)
    if name in ("decay", "gain"):
        # every realization is |0> or |1>, so merging must leave at most two keys
        r.require(np.all((a["distinct_states"] >= 1) & (a["distinct_states"] <= 2)),
                  "more than two distinct states among |0>, |1> realizations")
    return r


# -- photon_counting ---------------------------------------------------------


def _photon_records(t_final):
    return int(round(t_final / (wl.PHOTON["dt"] * wl.PHOTON_RECORD_EVERY))) + 1


def check_moments(a):
    r = Report()
    p = wl.PHOTON
    t_final = wl.PHOTON_MOMENTS_T
    _grid(r, a["times"], p["dt"] * wl.PHOTON_RECORD_EVERY)
    mu = ref.factorial_moments(p["gamma"], p["nbar"], p["Omega"], p["phi"], p["n_max"], p["k_max"],
                               t_final, _photon_records(t_final))
    est, se = a["est"], a["se"]
    r.close("hierarchy oracle (exact column)", a["exact"], mu, HIERARCHY_TOL)
    r.require(np.all(est[:, 0] == 0.0), "moments at t = 0 are not zero")
    r.require(np.all(est >= 0.0), "negative moment estimate")
    r.require(np.all(se[:, -1] > 0.0), "no tower recorded counts at the last time")
    # the tower t statistic is trusted where the towers resolve the estimate
    resolved = (se > 0.0) & (est >= RESOLVED_RATIO * se)
    resolved[:, 0] = False
    for k in range(p["k_max"]):
        live = resolved[k]
        if live.any():
            r.z_test(f"mu_{k + 1}", est[k, live], mu[k, live],
                     se[k, live] + MOMENT_BIAS / Z_TOWERS * mu[k, live], Z_TOWERS)
    r.require(resolved[0, 1:].all(), "mu_1 is not resolved by the towers")
    return r


def check_tilted(a):
    r = Report()
    p = wl.PHOTON
    t_final = wl.PHOTON_TILTED_T
    _grid(r, a["times"], p["dt"] * wl.PHOTON_RECORD_EVERY)
    zetas = tuple(a["zetas"])
    r.require(zetas == wl.PHOTON_ZETAS, "unexpected zeta list")
    exact = ref.tilted_traces(p["gamma"], p["nbar"], p["Omega"], p["phi"], p["n_max"], zetas, t_final,
                              _photon_records(t_final))
    r.close("RK4 oracle (exact column)", a["exact"], exact, RK4_COARSE_TOL)
    est = a["est"]
    zero = zetas.index(0.0)
    r.require(np.all(est[zero] == 1.0), "zeta = 0 does not keep the trace at exactly 1")
    r.require(est[0, -1] < 1.0 < est[-1, -1], "final traces are not ordered zeta<0 < 1 < zeta>0")
    r.require(exact[0, -1] < 1.0 < exact[-1, -1], "exact final traces are not ordered")
    # zeta < 0 only removes realizations, each independently: the number removed is
    # binomial. zeta > 0 only replicates: the number added is Poisson to O(zeta).
    n = wl.PHOTON_TILTED_N
    for zi, zeta in enumerate(zetas):
        changed = np.rint(n * np.abs(est[zi, 1:] - 1.0))
        if zeta < 0.0:
            dist = scipy.stats.binom(n, 1.0 - exact[zi, 1:])
        elif zeta > 0.0:
            dist = scipy.stats.poisson(n * (exact[zi, 1:] - 1.0))
        else:
            continue
        tail = np.minimum(dist.cdf(changed), dist.sf(changed - 1.0))
        r.require(tail.min() >= TAIL_P, f"trace zeta={zeta}: count tail probability {tail.min():.2g} < {TAIL_P}")
    return r


# -- heisenberg --------------------------------------------------------------


def _pairing_state():
    psi = np.array([1.0, 0.6 + 0.8j]) / np.sqrt(2.0)  # HeisenbergConfig's default pairing state
    return np.outer(psi, psi.conj())


def check_heisenberg(a):
    r = Report()
    times = a["times"]
    _grid(r, times, 1e-3 * wl.HEIS_RECORD_EVERY)
    eps = 20.0
    gamma_minus = lambda t: 1.0 + 0.9 * np.cos(40.0 * t)  # noqa: E731
    gamma_plus = lambda t: 0.5 * np.exp(-t)  # noqa: E731
    exact = ref.heisenberg_observables(eps, gamma_minus, gamma_plus, {"sigma_x": ref.SX, "sigma_z": ref.SZ},
                                       _pairing_state(), times)
    for name in ("sigma_x", "sigma_z"):
        r.close(f"{name} RK4 oracle", a[f"{name}_exact"], exact[name][0], RK4_STATE_TOL)
        r.z_test(name, a[f"{name}_est"][1:], exact[name][0][1:], a[f"{name}_se"][1:], Z_GROUP_BOOTSTRAP)
    r.close("trace RK4 oracle", a["trace_exact"], exact["sigma_x"][1], RK4_STATE_TOL)
    r.z_test("trace", a["trace_est"][1:], exact["sigma_x"][1][1:], a["trace_se"][1:], Z_GROUP_BOOTSTRAP)
    return r


def check_divisibility(a, adjoint):
    r = Report()
    eigs, norms, times = a["choi_eigenvalues"], a["max_bloch_norms"], a["times"]
    r.require(eigs.shape == (len(times), 4), "unexpected Choi spectrum shape")
    if adjoint:
        early = times <= 0.5
        r.require(eigs[early, 0].min() < -VIOLATION, "adjoint map stays CP-divisible before t = 0.5")
        r.require(norms[early].max() > 1.0 + VIOLATION, "adjoint map stays P-divisible before t = 0.5")
    else:
        r.require(eigs[:, 0].min() >= -CP_TOL, "Heisenberg-picture map is not CP-divisible")
    return r


# -- reverse_jump ------------------------------------------------------------


def check_negative(raised):
    r = Report()
    r.require(raised == "NegativeProbability", f"expected NegativeProbability, got {raised}")
    return r


def check_reverse(a):
    r = Report()
    times = a["times"]
    _grid(r, times, wl.REV_DT * wl.REV_RECORD_EVERY)
    n_ref = float(a["n_ref"])
    r.close("trace vs total_count / N", a["trace"], a["total_counts"] / n_ref, 1e-12)
    r.require(np.array_equal(a["group_counts"].sum(axis=1), a["total_counts"]), "group counts do not add up")
    exact = ref.oscillating_rate_reference(times)
    groups = {"trace": a["group_counts"] / n_ref, "pop1": a["g_pop1"], "sx": a["g_sx"], "sy": a["g_sy"]}
    g = a["group_counts"].shape[1]
    for name, vals in groups.items():
        est = vals.sum(axis=1)
        se = np.sqrt(g) * vals.std(axis=1, ddof=1)  # the sum over g groups
        r.close(f"{name} at t = 0", est[0], exact[name][0], 1e-12)  # every realization starts in |+>
        r.z_test(name, est[1:], exact[name][1:], se[1:], Z_REVERSE_GROUPS)
    return r


def check(workload, op, arrays, raised):
    if workload == "qubit_cli":
        return check_cli(op.removeprefix("cli_"), arrays)
    if op == "moments":
        return check_moments(arrays)
    if op == "tilted_trace":
        return check_tilted(arrays)
    if op == "observables":
        return check_heisenberg(arrays)
    if op.startswith("divisibility_"):
        return check_divisibility(arrays, adjoint=op.endswith("adjoint"))
    if op == "negative_rate_rejected":
        return check_negative(raised)
    if op == "reverse_jumps":
        return check_reverse(arrays)
    raise KeyError(f"no check for {workload}/{op}")
