"""The four workloads: reduced copies of acceptance criteria 4 to 9.

``setup`` imports ``tnpmc`` and builds a workload's configs, models and
initial ensembles; it returns the operations of one round. An operation
calls one public entry point through its module attribute (so that wrappers
installed by the tracer are seen) and returns its outputs: the arrays the
checks read and the bytes whose digest must repeat in every round.

Nothing here may import ``tnpmc`` at module level: that import is part of
the measured set-up time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

DEFAULT_SEEDS = {"qubit_cli": 909, "photon_counting": 606, "heisenberg": 707, "reverse_jump": 405}

# qubit_cli: criterion 9 and its variants, shortened to t = 0.3
QUBIT_T_FINAL = 0.3
QUBIT_DT = 1e-3
QUBIT_RECORD_EVERY = 100
QUBIT_N = {"decay": 10_000, "gain": 10_000, "ro": 5_000}
QUBIT_GROUPS = 100
CLI_THREADS = 1  # a second thread measures the host scheduler: see README.md

# photon_counting: criterion 6 (d = 20), moments to t = 0.4, tilted traces to t = 0.6
PHOTON = dict(gamma=1.0, nbar=0.5, Omega=1.0, phi=0.2, n_max=20, k_max=4, dt=1e-2)
PHOTON_RECORD_EVERY = 20
PHOTON_MOMENTS_T = 0.4
PHOTON_TOWERS = 12
PHOTON_TOWER_N = 2_400
PHOTON_TILTED_T = 0.6
PHOTON_TILTED_N = 2_000
PHOTON_ZETAS = (-0.02, 0.0, 0.02)

# heisenberg: criterion 7 (4 positive-part ensembles) and criterion 8
HEIS_T_FINAL = 0.3
HEIS_N = 1_000
HEIS_RECORD_EVERY = 50
DIV_T_FINAL = 0.15

# reverse_jump: criterion 4
REV_T_FINAL = 1.2
REV_DT = 1e-3
REV_RECORD_EVERY = 60
REV_N = 4_000
REV_GROUPS = 20  # 200 realizations per initial object
REV_NEG_N = 200


@dataclass
class Operation:
    name: str
    call: Callable[[], dict]


def sub_seed(seed: int, k: int) -> int:
    """Distinct program seeds of one workload, derived from the benchmark seed."""
    return seed * 16 + k


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bytes, bytearray)):
            h.update(part)
        else:
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode() + str(arr.shape).encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def import_tnpmc() -> SimpleNamespace:
    """The package's modules by name, e.g. ``tn.cli``; the first call imports them."""
    names = ("cli", "divisibility", "engine", "ensemble", "exact", "experiments", "linops",
             "mcwf", "model", "ro", "errors")
    return SimpleNamespace(**{name: importlib.import_module(f"tnpmc.{name}") for name in names})


# -- qubit_cli ---------------------------------------------------------------

ZERO_2X2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
HALF_SIGMA_X = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]


def qubit_cli_configs(seed: int) -> dict[str, dict]:
    def simulate(n, gamma, initial, **extra):
        model = {
            "dim": 2,
            "channels": [{"label": "decay", "rate": 1.0, "op": "sigma_minus"}],
            "gamma": gamma,
        }
        model.update(extra.pop("model", {}))
        cfg = {
            "command": "simulate",
            "model": model,
            "initial_state": initial,
            "dt": QUBIT_DT,
            "t_final": QUBIT_T_FINAL,
            "n_trajectories": n,
            "record_every": QUBIT_RECORD_EVERY,
            "n_groups": QUBIT_GROUPS,
        }
        cfg.update(extra)
        return cfg

    ket1 = [[0.0, 0.0], [1.0, 0.0]]
    plus = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
    return {
        "decay": simulate(QUBIT_N["decay"], {"kind": "lindblad_plus_identity", "shift": 0.5}, ket1,
                          seed=sub_seed(seed, 0)),
        "gain": simulate(QUBIT_N["gain"], {"kind": "matrix", "value": ZERO_2X2}, ket1,
                         seed=sub_seed(seed, 1)),
        "ro": simulate(QUBIT_N["ro"], {"kind": "lindblad_plus_identity", "shift": 0.2}, plus,
                       model={"hamiltonian": HALF_SIGMA_X}, method="ro", seed=sub_seed(seed, 2)),
    }


def _cli_operation(tn, name: str, config: Path, out: Path) -> Operation:
    def call():
        code = tn.cli.main(["--config", str(config), "--out", str(out), "--threads", str(CLI_THREADS)])
        if code != 0:
            raise RuntimeError(f"tnpmc exited with code {code}")
        raw = (out / "results.csv").read_bytes()
        lines = [ln for ln in raw.decode().splitlines() if not ln.startswith("#")]
        columns = lines[0].split(",")
        table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        arrays = {col: table[:, i] for i, col in enumerate(columns)}
        return {"digest": digest(raw), "arrays": arrays}

    return Operation(f"cli_{name}", call)


def setup_qubit_cli(seed: int, work: Path) -> list[Operation]:
    tn = import_tnpmc()
    ops = []
    for name, cfg in qubit_cli_configs(seed).items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        ops.append(_cli_operation(tn, name, path, work / f"out_{name}"))
    return ops


# -- photon_counting ---------------------------------------------------------


def setup_photon_counting(seed: int, work: Path) -> list[Operation]:
    tn = import_tnpmc()
    towers = tn.experiments.PhotonCountingConfig(
        **PHOTON, t_final=PHOTON_MOMENTS_T, zeta_list=PHOTON_ZETAS, n_trajectories=PHOTON_TOWER_N,
        n_towers=PHOTON_TOWERS, record_every=PHOTON_RECORD_EVERY, seed=sub_seed(seed, 0),
    )
    tilted = tn.experiments.PhotonCountingConfig(
        **PHOTON, t_final=PHOTON_TILTED_T, zeta_list=PHOTON_ZETAS, n_trajectories=PHOTON_TILTED_N,
        record_every=PHOTON_RECORD_EVERY, seed=sub_seed(seed, 1),
    )

    def moments():
        s = tn.experiments.run_photon_counting(towers)
        arrays = {"times": s.times, "est": s.est, "se": s.se, "exact": s.exact}
        return {"digest": digest(*arrays.values()), "arrays": arrays}

    def tilted_trace():
        r = tn.experiments.run_tilted_trace(tilted)
        arrays = {"times": r.times, "zetas": np.array(r.zetas), "est": r.est, "se": r.se, "exact": r.exact}
        return {"digest": digest(*arrays.values()), "arrays": arrays}

    return [Operation("moments", moments), Operation("tilted_trace", tilted_trace)]


# -- heisenberg --------------------------------------------------------------


def setup_heisenberg(seed: int, work: Path) -> list[Operation]:
    tn = import_tnpmc()
    cfg = tn.experiments.HeisenbergConfig(
        t_final=HEIS_T_FINAL, n_trajectories=HEIS_N, record_every=HEIS_RECORD_EVERY, seed=sub_seed(seed, 0)
    )
    model = tn.model.heisenberg_qubit(cfg.eps, cfg.gamma_minus, cfg.gamma_plus)
    grid = tn.exact.TimeGrid(0.0, DIV_T_FINAL, cfg.dt)

    def observables():
        r = tn.experiments.run_heisenberg(cfg)
        arrays = {"times": r.times, "trace_est": r.trace_est, "trace_se": r.trace_se,
                  "trace_exact": r.trace_exact, "distinct_states": r.distinct_states}
        for name, s in r.series.items():
            arrays.update({f"{name}_est": s.est, f"{name}_se": s.se, f"{name}_exact": s.exact})
        return {"digest": digest(*arrays.values()), "arrays": arrays}

    def report(adjoint):
        def call():
            rep = tn.divisibility.divisibility_report(model, grid, adjoint=adjoint)
            arrays = {"times": rep.times, "choi_eigenvalues": rep.choi_eigenvalues,
                      "max_bloch_norms": rep.max_bloch_norms}
            return {"digest": digest(*arrays.values()), "arrays": arrays}
        return call

    return [
        Operation("observables", observables),
        Operation("divisibility_heisenberg", report(False)),
        Operation("divisibility_adjoint", report(True)),
    ]


# -- reverse_jump ------------------------------------------------------------


def setup_reverse_jump(seed: int, work: Path) -> list[Operation]:
    tn = import_tnpmc()
    p = tn.model.pauli_ops()
    proj1 = p.plus @ p.minus
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    model = tn.model.TnpModel(
        dim=2,
        hamiltonian=np.zeros((2, 2)),
        channels=(tn.model.JumpChannel(tn.model.TimeScalar.sinusoid(1.0, 2.0), p.minus, "osc"),),
        gamma=lambda t: np.cos(2.0 * t) * proj1 + 0.3 * np.eye(2),
    )
    grid = tn.exact.TimeGrid(0.0, REV_T_FINAL, REV_DT)
    observables = {"pop1": proj1.astype(complex), "sx": p.x, "sy": p.y}
    ens_neg = tn.ensemble.Ensemble.sample_initial([(1.0, plus)], REV_NEG_N, seed=sub_seed(seed, 0))
    ens = tn.ensemble.Ensemble.sample_initial([(1.0, plus)], REV_N, seed=sub_seed(seed, 1), n_groups=REV_GROUPS)

    def without_reverse():
        try:
            tn.mcwf.run(model, ens_neg, grid)
        except tn.errors.NegativeProbability as exc:
            return {"digest": digest(str(exc).encode()), "arrays": {}, "raised": type(exc).__name__}
        return {"digest": digest(b"no error"), "arrays": {}, "raised": None}

    def with_reverse():
        res = tn.mcwf.run(model, ens, grid, reverse_jumps=True, record_every=REV_RECORD_EVERY,
                          observables=observables)
        arrays = {"times": res.times, "trace": res.trace_estimates, "group_counts": res.group_counts,
                  "total_counts": res.total_counts, "n_ref": np.array(res.n_ref)}
        arrays.update({f"g_{k}": v for k, v in res.group_observables.items()})
        return {"digest": digest(*arrays.values()), "arrays": arrays}

    return [Operation("negative_rate_rejected", without_reverse), Operation("reverse_jumps", with_reverse)]


SETUPS = {
    "qubit_cli": setup_qubit_cli,
    "photon_counting": setup_photon_counting,
    "heisenberg": setup_heisenberg,
    "reverse_jump": setup_reverse_jump,
}
