"""Reference solutions computed apart from ``tnpmc``.

Every generator here is written down from its formula as a superoperator
matrix on row-major vectorized operators, vec(A X B) = (A kron B^T) vec(X),
and propagated with scipy. Nothing in this module imports ``tnpmc``.

Qubit basis |0>, |1> with sigma_z |0> = +|0>; sigma_- = |0><1| lowers |1>.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SM = np.array([[0, 1], [0, 0]], dtype=complex)
SP = SM.conj().T
PROJ1 = SP @ SM  # |1><1|
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def superop(h, channels, gamma, *, adjoint=False, sparse=False):
    """Matrix of rho -> -i[H, rho] + sum_j r_j L rho L^+ - 1/2 {Gamma, rho}.

    ``channels`` holds (rate, L) pairs. With ``adjoint`` the Heisenberg-picture
    generator X -> i[H, X] + sum_j r_j L^+ X L - 1/2 {Gamma, X} is returned.
    """
    d = h.shape[0]
    kron = scipy.sparse.kron if sparse else np.kron
    eye = scipy.sparse.identity(d, dtype=complex, format="csr") if sparse else np.eye(d)
    sign = 1.0 if adjoint else -1.0
    out = sign * 1j * (kron(h, eye) - kron(eye, h.T))
    for rate, op in channels:
        if adjoint:
            out = out + rate * kron(op.conj().T, op.T)
        else:
            out = out + rate * kron(op, op.conj())
    out = out - 0.5 * (kron(gamma, eye) + kron(eye, gamma.T))
    return out.tocsr() if sparse else out


def vec(a):
    return np.asarray(a, dtype=complex).reshape(-1)


def propagate_constant(gen, x0, times):
    """x(t) = expm(gen t) x0 at each time, for a time-independent generator."""
    return np.stack([scipy.linalg.expm(gen * t) @ x0 for t in times])


def propagate_ode(gen_at, x0, times):
    """Time-ordered propagation of dx/dt = gen(t) x, tight-tolerance DOP853."""
    sol = scipy.integrate.solve_ivp(
        lambda t, x: gen_at(t) @ x,
        (float(times[0]), float(times[-1])),
        np.asarray(x0, dtype=complex),
        method="DOP853",
        t_eval=np.asarray(times, dtype=float),
        rtol=1e-11,
        atol=1e-13,
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


# -- qubit_cli ---------------------------------------------------------------


def qubit_decay_closed_form(times):
    """(a) Decay at rate 1 with Gamma = Gamma_L + 0.5 from |1>: trace, pop_0, pop_1."""
    t = np.asarray(times, dtype=float)
    return np.exp(-0.5 * t), np.exp(-0.5 * t) * (1.0 - np.exp(-t)), np.exp(-1.5 * t)


def qubit_gain_closed_form(times):
    """(b) Decay at rate 1 with Gamma = 0 from |1>: rho_11 stays 1, rho_00 = t."""
    t = np.asarray(times, dtype=float)
    return 1.0 + t, t, np.ones_like(t)


def qubit_gain_variances(times):
    """Per-realization variances of (trace, pop_0, pop_1) for case (b).

    A realization in |1> replicates at rate 1 and jumps to |0> at rate 1, so
    the |1> population is a critical birth-death process n1, the trace counts
    1 + births B and pop_0 counts deaths D = 1 + B - n1. The moment equations
    d<n1^2>/dt = 2<n1>, d<B n1>/dt = <n1^2> + <n1>, d<B^2>/dt = 2<B n1> + <n1>
    from n1 = 1, B = 0 give Var n1 = 2t, Var B = t + t^2 + 2t^3/3 and
    Var D = t - t^2 + 2t^3/3.
    """
    t = np.asarray(times, dtype=float)
    return t + t**2 + 2.0 * t**3 / 3.0, t - t**2 + 2.0 * t**3 / 3.0, 2.0 * t


def qubit_ro_reference(times):
    """(c) H = 0.5 sigma_x, decay at rate 1, Gamma = Gamma_L + 0.2, from |+>."""
    gen = superop(0.5 * SX, [(1.0, SM)], PROJ1 + 0.2 * np.eye(2))
    rhos = propagate_constant(gen, vec(np.outer(PLUS, PLUS.conj())), times)
    rhos = rhos.reshape(-1, 2, 2)
    return np.trace(rhos, axis1=1, axis2=2).real, rhos[:, 0, 0].real, rhos[:, 1, 1].real


# -- photon_counting ---------------------------------------------------------


def _ladder(n_max):
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(complex)
    return a, a.conj().T


def photon_counting_parts(gamma, nbar, omega, phi, n_max):
    """Sparse L (untilted, trace preserving) and J (emission jump) superoperators."""
    a, ad = _ladder(n_max)
    h = 0.5 * omega * (a * np.exp(2j * phi) + ad * np.exp(-2j * phi))
    g_em = gamma * (nbar + 1.0)
    g_ab = gamma * nbar
    gamma_l = g_em * (ad @ a) + g_ab * (a @ ad)
    lind = superop(h, [(g_em, a), (g_ab, ad)], gamma_l, sparse=True)
    jump = (g_em * scipy.sparse.kron(scipy.sparse.csr_matrix(a), scipy.sparse.csr_matrix(a.conj()))).tocsr()
    return lind, jump


def fock_plus(n_max):
    psi = np.zeros(n_max, dtype=complex)
    psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def _trace_of_vec(vs, d):
    return np.asarray(vs).reshape(-1, d, d).trace(axis1=1, axis2=2).real


def factorial_moments(gamma, nbar, omega, phi, n_max, k_max, t_final, n_times):
    """mu_1..mu_kmax at n_times equally spaced times in [0, t_final].

    The hierarchy d tau_k/dt = L tau_k + k J tau_{k-1}, tau_0(0) = rho_0,
    tau_k(0) = 0, is one linear system with the block bidiagonal generator
    [[L], [J, L], [0, 2J, L], ...]; mu_k = tr tau_k.
    """
    lind, jump = photon_counting_parts(gamma, nbar, omega, phi, n_max)
    d2 = n_max * n_max
    blocks = [[None] * (k_max + 1) for _ in range(k_max + 1)]
    for k in range(k_max + 1):
        blocks[k][k] = lind
        if k:
            blocks[k][k - 1] = k * jump
    gen = scipy.sparse.bmat(blocks, format="csr")
    x0 = np.zeros((k_max + 1) * d2, dtype=complex)
    x0[:d2] = vec(fock_plus(n_max))
    xs = scipy.sparse.linalg.expm_multiply(gen, x0, start=0.0, stop=t_final, num=n_times, endpoint=True)
    return np.stack([_trace_of_vec(xs[:, k * d2 : (k + 1) * d2], n_max) for k in range(1, k_max + 1)])


def tilted_traces(gamma, nbar, omega, phi, n_max, zetas, t_final, n_times):
    """tr exp(L_zeta t) rho_0 with L_zeta = L + zeta J (emission tilted, Gamma untilted)."""
    lind, jump = photon_counting_parts(gamma, nbar, omega, phi, n_max)
    x0 = vec(fock_plus(n_max))
    out = []
    for zeta in zetas:
        xs = scipy.sparse.linalg.expm_multiply(
            (lind + zeta * jump).tocsr(), x0, start=0.0, stop=t_final, num=n_times, endpoint=True
        )
        out.append(_trace_of_vec(xs, n_max))
    return np.stack(out)


# -- heisenberg --------------------------------------------------------------


def heisenberg_observables(eps, gamma_minus, gamma_plus, observables, pairing, times):
    """tr[X(t) rho_S] and tr X(t) for each X(0) in ``observables``.

    X evolves under the adjoint of the qubit generator with H = eps sigma_x,
    decay sigma_- at gamma_minus(t) and pumping sigma_+ at gamma_plus(t):
    dX/dt = i eps [sigma_x, X] + g-(s+ X s- - {s+ s-, X}/2) + g+(s- X s+ - {s- s+, X}/2).
    """

    def gen_at(t):
        gm, gp = gamma_minus(t), gamma_plus(t)
        return superop(eps * SX, [(gm, SM), (gp, SP)], gm * (SP @ SM) + gp * (SM @ SP), adjoint=True)

    out = {}
    for name, x0 in observables.items():
        xs = propagate_ode(gen_at, vec(x0), times).reshape(-1, 2, 2)
        out[name] = (
            np.einsum("tij,ji->t", xs, pairing).real,
            np.trace(xs, axis1=1, axis2=2).real,
        )
    return out


# -- reverse_jump ------------------------------------------------------------


def oscillating_rate_reference(times):
    """Criterion-4 model: decay at rate cos 2t, H = 0, Gamma = cos(2t)|1><1| + 0.3, from |+>.

    Returns trace, pop_1, <sigma_x>, <sigma_y> of the unnormalized state.
    """

    def gen_at(t):
        c = np.cos(2.0 * t)
        return superop(np.zeros((2, 2)), [(c, SM)], c * PROJ1 + 0.3 * np.eye(2))

    rhos = propagate_ode(gen_at, vec(np.outer(PLUS, PLUS.conj())), times).reshape(-1, 2, 2)
    return {
        "trace": np.trace(rhos, axis1=1, axis2=2).real,
        "pop1": rhos[:, 1, 1].real,
        "sx": 2.0 * rhos[:, 0, 1].real,
        "sy": -2.0 * rhos[:, 0, 1].imag,
    }
