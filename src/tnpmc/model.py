"""Trace-nonpreserving master-equation models.

A :class:`TnpModel` holds the generator

    d rho / dt = -i [H, rho] + sum_j gamma_j L_j rho L_j^dag - 1/2 {Gamma, rho} + S(t)

with time-dependent rates and operators. ``Gamma`` may be given explicitly
(matrix or callable) or as the sentinel ``"lindblad"`` meaning
Gamma = Gamma_L = sum_j gamma_j L_j^dag L_j, which preserves the trace exactly
and without floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .linops import assert_hermitian

LINDBLAD = "lindblad"


@dataclass(frozen=True)
class TimeScalar:
    """Restricted family of scalar rate functions, serializable for configs."""

    kind: str
    params: tuple

    @staticmethod
    def constant(value: float) -> "TimeScalar":
        return TimeScalar("constant", (float(value),))

    @staticmethod
    def exponential(value: float, rate: float) -> "TimeScalar":
        """value * exp(rate * t)."""
        return TimeScalar("exponential", (float(value), float(rate)))

    @staticmethod
    def sinusoid(amplitude: float, frequency: float, phase: float = 0.0, offset: float = 0.0) -> "TimeScalar":
        """offset + amplitude * cos(frequency * t + phase)."""
        return TimeScalar("sinusoid", (float(amplitude), float(frequency), float(phase), float(offset)))

    @staticmethod
    def table(times: Sequence[float], values: Sequence[float]) -> "TimeScalar":
        """Piecewise-linear interpolation; clamped outside the listed times."""
        t = tuple(float(x) for x in times)
        v = tuple(float(x) for x in values)
        if len(t) != len(v) or len(t) < 2:
            raise InvalidParameter("table needs equal-length times/values with at least two points")
        if any(t[i + 1] <= t[i] for i in range(len(t) - 1)):
            raise InvalidParameter("table times must be strictly increasing")
        return TimeScalar("table", (t, v))

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "exponential":
            c, r = self.params
            return c * np.exp(r * t)
        if self.kind == "sinusoid":
            a, w, phi, off = self.params
            return off + a * np.cos(w * t + phi)
        if self.kind == "table":
            times, values = self.params
            return float(np.interp(t, times, values))
        raise InvalidParameter(f"unknown TimeScalar kind {self.kind!r}")


RateLike = Union[TimeScalar, float, int, Callable[[float], float]]


def rate_value(rate: RateLike, t: float) -> float:
    if callable(rate):
        return float(rate(t))
    return float(rate)


@dataclass(frozen=True)
class JumpChannel:
    rate: RateLike
    op: np.ndarray
    label: str = ""

    def rate_at(self, t: float) -> float:
        return rate_value(self.rate, t)


@dataclass(frozen=True)
class SourceTerm:
    """Positive-semidefinite inhomogeneous term, evaluated per step."""

    value: Union[np.ndarray, Callable[[float], np.ndarray]]

    def at(self, t: float) -> np.ndarray:
        if callable(self.value):
            return np.asarray(self.value(t), dtype=complex)
        return self.value


MatrixLike = Union[np.ndarray, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class TnpModel:
    dim: int
    hamiltonian: MatrixLike
    channels: tuple[JumpChannel, ...]
    gamma: Union[str, MatrixLike] = LINDBLAD
    source: Optional[SourceTerm] = None
    # derived at construction: the channel operators, their adjoints, their products
    # L_j^dag L_j, and a constant H or Gamma as a validated complex matrix (None when callable)
    _ops: tuple[np.ndarray, ...] = field(init=False, repr=False, default=())
    _op_adjoints: tuple[np.ndarray, ...] = field(init=False, repr=False, default=())
    _op_products: tuple[np.ndarray, ...] = field(init=False, repr=False, default=())
    _h: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    _gamma: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        ops = []
        for ch in self.channels:
            op = np.asarray(ch.op, dtype=complex)
            if op.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"channel {ch.label!r} operator shape {op.shape} != ({self.dim}, {self.dim})"
                )
            ops.append(op)
        object.__setattr__(self, "_ops", tuple(ops))
        object.__setattr__(self, "_op_adjoints", tuple(op.conj().T for op in ops))
        object.__setattr__(self, "_op_products", tuple(adj @ op for adj, op in zip(self._op_adjoints, ops)))
        if not callable(self.hamiltonian):
            object.__setattr__(self, "_h", self._checked_hamiltonian(self.hamiltonian))
        h0 = self.hamiltonian_at(0.0)
        if h0.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"Hamiltonian shape {h0.shape} != ({self.dim}, {self.dim})")
        if not (self.is_trace_preserving or callable(self.gamma)):
            object.__setattr__(self, "_gamma", self._checked_gamma(self.gamma))
        self.gamma_at(0.0)

    @property
    def is_trace_preserving(self) -> bool:
        return isinstance(self.gamma, str) and self.gamma == LINDBLAD

    @staticmethod
    def _checked_hamiltonian(h) -> np.ndarray:
        h = np.asarray(h, dtype=complex)
        assert_hermitian(h, what="Hamiltonian")
        return h

    def _checked_gamma(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"Gamma shape {g.shape} != ({self.dim}, {self.dim})")
        assert_hermitian(g, what="Gamma")
        return g

    def hamiltonian_at(self, t: float) -> np.ndarray:
        return self._h if self._h is not None else self._checked_hamiltonian(self.hamiltonian(t))

    def gamma_L(self, t: float) -> np.ndarray:
        """Gamma_L = sum_j gamma_j(t) L_j^dag L_j."""
        return self.gamma_L_from_rates([ch.rate_at(t) for ch in self.channels])

    def gamma_L_from_rates(self, rates: Sequence[float]) -> np.ndarray:
        """Gamma_L = sum_j rates[j] L_j^dag L_j for rates already evaluated at one time."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for rate, product in zip(rates, self._op_products):
            out += rate * product
        return out

    def gamma_at(self, t: float) -> np.ndarray:
        if self.is_trace_preserving:
            return self.gamma_L(t)
        return self._gamma if self._gamma is not None else self._checked_gamma(self.gamma(t))

    def effective_hamiltonian(self, t: float) -> np.ndarray:
        """K = H - (i/2) Gamma, the non-Hermitian drift generator."""
        return self.hamiltonian_at(t) - 0.5j * self.gamma_at(t)

    def source_at(self, t: float) -> Optional[np.ndarray]:
        return None if self.source is None else self.source.at(t)

    def generator_at(self, t: float) -> Callable[[np.ndarray], np.ndarray]:
        """The generator at time t as a function of rho, for one operator (d, d) or
        each of a stack (..., d, d):

            rho -> -i (K rho - rho K^dag) + sum_j gamma_j L_j rho L_j^dag + S,

        with K = H - (i/2) Gamma the drift generator. H, the rates, Gamma and the
        source are evaluated once, here, whatever the number of applications.
        """
        rates = [ch.rate_at(t) for ch in self.channels]
        gamma = self.gamma_L_from_rates(rates) if self.is_trace_preserving else self.gamma_at(t)
        k = self.hamiltonian_at(t) - 0.5j * gamma
        k_dag = k.conj().T
        s = self.source_at(t)

        def apply(rho: np.ndarray) -> np.ndarray:
            rho = np.asarray(rho, dtype=complex)
            if rho.shape[-2:] != (self.dim, self.dim):
                raise DimensionMismatch(f"rho shape {rho.shape} != (..., {self.dim}, {self.dim})")
            out = -1j * (k @ rho - rho @ k_dag)
            for rate, op, adj in zip(rates, self._ops, self._op_adjoints):
                out += rate * (op @ rho @ adj)
            return out if s is None else out + s

        return apply

    def apply_liouvillian(self, t: float, rho: np.ndarray) -> np.ndarray:
        """The generator at time t applied to one operator (d, d) or to each of a stack (..., d, d)."""
        return self.generator_at(t)(rho)

    def trace_derivative(self, t: float, rho: np.ndarray) -> float:
        """tr[(Gamma_L - Gamma) rho]; zero identically for the sentinel Gamma."""
        if self.is_trace_preserving:
            return 0.0
        diff = self.gamma_L(t) - self.gamma_at(t)
        return float(np.trace(diff @ rho).real)


# ---------------------------------------------------------------------------
# Operator builders


@dataclass(frozen=True)
class PauliOps:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    identity: np.ndarray


def pauli_ops() -> PauliOps:
    """Qubit operators; basis ordering |0>, |1> with sigma_z |0> = +|0>."""
    return PauliOps(
        x=np.array([[0, 1], [1, 0]], dtype=complex),
        y=np.array([[0, -1j], [1j, 0]], dtype=complex),
        z=np.array([[1, 0], [0, -1]], dtype=complex),
        plus=np.array([[0, 0], [1, 0]], dtype=complex),
        minus=np.array([[0, 1], [0, 0]], dtype=complex),
        identity=np.eye(2, dtype=complex),
    )


@dataclass(frozen=True)
class BosonOps:
    a: np.ndarray
    adag: np.ndarray
    number: np.ndarray


def boson_ops(n_max: int) -> BosonOps:
    """Truncated ladder operators on the n_max-dimensional Fock space."""
    if n_max < 2:
        raise InvalidParameter(f"n_max must be >= 2, got {n_max}")
    a = np.diag(np.sqrt(np.arange(1, n_max)), 1).astype(complex)
    return BosonOps(a=a, adag=a.conj().T, number=a.conj().T @ a)


def tilted_lindbladian(
    gamma: float, nbar: float, Omega: float, phi: float, zeta: float, n_max: int
) -> TnpModel:
    """Damped driven oscillator with the emission channel tilted by (1 + zeta).

    The decay operator stays at the untilted Gamma_L, so the trace evolves at
    rate zeta * tr[J rho] with J[rho] = gamma (nbar + 1) a rho a^dag.
    """
    if nbar < 0:
        raise InvalidParameter(f"nbar must be >= 0, got {nbar}")
    if zeta <= -1:
        raise InvalidParameter(f"zeta must be > -1, got {zeta}")
    ops = boson_ops(n_max)
    h = 0.5 * Omega * (ops.a * np.exp(2j * phi) + ops.adag * np.exp(-2j * phi))
    channels = (
        JumpChannel(rate=gamma * (nbar + 1) * (1.0 + zeta), op=ops.a, label="emission"),
        JumpChannel(rate=gamma * nbar, op=ops.adag, label="absorption"),
    )
    if zeta == 0.0:
        gamma_op: Union[str, np.ndarray] = LINDBLAD
    else:
        gamma_op = gamma * (nbar + 1) * (ops.adag @ ops.a) + gamma * nbar * (ops.a @ ops.adag)
    return TnpModel(dim=n_max, hamiltonian=h, channels=channels, gamma=gamma_op)


def heisenberg_qubit(eps: RateLike, gamma_minus: RateLike, gamma_plus: RateLike) -> TnpModel:
    """Adjoint (observable-evolution) qubit generator encoded as a TNP model.

    dX/dt = i eps [sx, X] + g- (s+ X s- - 1/2 {s+ s-, X}) + g+ (s- X s+ - 1/2 {s- s+, X})

    The jump channels carry the adjoint operators (s+ at rate g-, s- at rate
    g+) and the Hamiltonian sign flips, while the anticommutator keeps the
    original operator ordering, so Gamma differs from Gamma_L of the encoded
    channels and the evolution is unital but not trace preserving.
    """
    p = pauli_ops()
    proj1 = p.plus @ p.minus  # |1><1|
    proj0 = p.minus @ p.plus  # |0><0|

    def h(t: float) -> np.ndarray:
        return -rate_value(eps, t) * p.x

    def gamma_fn(t: float) -> np.ndarray:
        return rate_value(gamma_minus, t) * proj1 + rate_value(gamma_plus, t) * proj0

    channels = (
        JumpChannel(rate=gamma_minus, op=p.plus, label="adjoint-decay"),
        JumpChannel(rate=gamma_plus, op=p.minus, label="adjoint-absorption"),
    )
    return TnpModel(dim=2, hamiltonian=h, channels=channels, gamma=gamma_fn)


# ---------------------------------------------------------------------------
# Config schema (consumed by the CLI): matrices as nested [re, im] pairs,
# rates as tagged TimeScalar objects, operators as matrices or builtin names.

_BUILTIN_OPS = {
    "sigma_minus": lambda: pauli_ops().minus,
    "sigma_plus": lambda: pauli_ops().plus,
    "sigma_x": lambda: pauli_ops().x,
    "sigma_y": lambda: pauli_ops().y,
    "sigma_z": lambda: pauli_ops().z,
}


def matrix_from_json(obj) -> np.ndarray:
    """Nested lists of [re, im] pairs -> complex matrix."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"malformed matrix: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameter(f"matrix must be square with [re, im] entries, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(a, dtype=complex)]


def time_scalar_from_json(obj) -> TimeScalar:
    if isinstance(obj, (int, float)):
        return TimeScalar.constant(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidParameter(f"rate must be a number or a tagged object, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return TimeScalar.constant(obj["value"])
        if kind == "exponential":
            return TimeScalar.exponential(obj["value"], obj["rate"])
        if kind == "sinusoid":
            return TimeScalar.sinusoid(
                obj["amplitude"], obj["frequency"], obj.get("phase", 0.0), obj.get("offset", 0.0)
            )
        if kind == "table":
            return TimeScalar.table(obj["times"], obj["values"])
    except KeyError as exc:
        raise InvalidParameter(f"rate object missing field {exc}") from None
    raise InvalidParameter(f"unknown rate kind {kind!r}")


def operator_from_json(obj, dim_hint: Optional[int] = None) -> np.ndarray:
    if isinstance(obj, str):
        if obj in _BUILTIN_OPS:
            return _BUILTIN_OPS[obj]()
        if obj.startswith("annihilation(") and obj.endswith(")"):
            return boson_ops(int(obj[13:-1])).a
        if obj.startswith("creation(") and obj.endswith(")"):
            return boson_ops(int(obj[9:-1])).adag
        raise InvalidParameter(f"unknown builtin operator {obj!r}")
    mat = matrix_from_json(obj)
    if dim_hint is not None and mat.shape[0] != dim_hint:
        raise DimensionMismatch(f"operator dim {mat.shape[0]} != model dim {dim_hint}")
    return mat


def model_from_dict(cfg: dict) -> TnpModel:
    """Build a TnpModel from the CLI config schema; unknown keys are rejected."""
    allowed = {"dim", "hamiltonian", "channels", "gamma"}
    unknown = set(cfg) - allowed
    if unknown:
        raise InvalidParameter(f"unknown model keys: {sorted(unknown)}")
    if "dim" not in cfg or "channels" not in cfg:
        raise InvalidParameter("model config requires 'dim' and 'channels'")
    dim = int(cfg["dim"])
    ham = operator_from_json(cfg.get("hamiltonian", matrix_to_json(np.zeros((dim, dim)))), dim)
    channels = []
    for i, ch in enumerate(cfg["channels"]):
        extra = set(ch) - {"label", "rate", "op"}
        if extra:
            raise InvalidParameter(f"unknown channel keys: {sorted(extra)}")
        channels.append(
            JumpChannel(
                rate=time_scalar_from_json(ch["rate"]),
                op=operator_from_json(ch["op"], dim),
                label=ch.get("label", f"channel{i}"),
            )
        )
    gamma_cfg = cfg.get("gamma", LINDBLAD)
    gamma: Union[str, np.ndarray, Callable[[float], np.ndarray]]
    if gamma_cfg == LINDBLAD:
        gamma = LINDBLAD
    elif isinstance(gamma_cfg, dict) and gamma_cfg.get("kind") == "lindblad_plus_identity":
        shift = float(gamma_cfg["shift"])
        base = TnpModel(dim=dim, hamiltonian=ham, channels=tuple(channels))

        def gamma(t: float, _base=base, _shift=shift) -> np.ndarray:
            return _base.gamma_L(t) + _shift * np.eye(dim)

    elif isinstance(gamma_cfg, dict) and gamma_cfg.get("kind") == "matrix":
        gamma = matrix_from_json(gamma_cfg["value"])
    else:
        raise InvalidParameter(
            "gamma must be 'lindblad', {'kind': 'matrix', ...} or {'kind': 'lindblad_plus_identity', ...}"
        )
    return TnpModel(dim=dim, hamiltonian=ham, channels=tuple(channels), gamma=gamma)
