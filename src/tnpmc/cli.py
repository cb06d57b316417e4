"""Config-driven batch driver.

Reads a single JSON document, runs one of {simulate, exact, moments,
heisenberg, divisibility}, and writes results.csv, results.json and meta.json
into the output directory. Outputs are byte-deterministic for a fixed
(config, seed): every file embeds the config hash and effective seed, and no
timestamps are recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, divisibility, exact, experiments, mcwf, ro
from .ensemble import Ensemble
from .errors import (
    ConfigError,
    CutoffLeakage,
    DimensionMismatch,
    EmptyDecomposition,
    InvalidParameter,
    NegativeProbability,
    NegativeSource,
    NoSourceState,
    NonFiniteState,
    NonHermitianInput,
    SingularMap,
    StepTooLarge,
    TnpmcError,
    ZeroNorm,
)
from .exact import TimeGrid
from .model import heisenberg_qubit, model_from_dict, time_scalar_from_json

NUMERICAL_ERRORS = (
    NegativeProbability,
    StepTooLarge,
    CutoffLeakage,
    SingularMap,
    NonFiniteState,
    NegativeSource,
    NoSourceState,
    ZeroNorm,
)
VALIDATION_ERRORS = (
    ConfigError,
    InvalidParameter,
    DimensionMismatch,
    NonHermitianInput,
    EmptyDecomposition,
)


def _require_keys(cfg: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _state_from_json(obj, dim: int) -> list[tuple[float, np.ndarray]]:
    """Initial-state decomposition: a single vector or a weighted mixture."""
    if isinstance(obj, dict):
        _require_keys(obj, {"mixture"}, {"mixture"}, "initial_state")
        out = []
        for item in obj["mixture"]:
            _require_keys(item, {"weight", "state"}, {"weight", "state"}, "mixture item")
            out.append((float(item["weight"]), _vector_from_json(item["state"], dim)))
        return out
    return [(1.0, _vector_from_json(obj, dim))]


def _vector_from_json(obj, dim: int) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"state must be a list of [re, im] pairs, got shape {arr.shape}")
    if arr.shape[0] != dim:
        raise DimensionMismatch(f"state dim {arr.shape[0]} != model dim {dim}")
    vec = arr[:, 0] + 1j * arr[:, 1]
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ConfigError("state vector has zero norm")
    return vec / nrm


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_outputs(out_dir: Path, meta: dict, columns: list[str], rows: list[tuple], extra: dict | None = None):
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [f"# config_sha256={meta['config_sha256']}", f"# seed={meta['seed']}"]
    lines = header + [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    (out_dir / "results.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {"meta": meta, "columns": columns, "rows": [list(r) for r in rows]}
    if extra:
        payload.update(extra)
    (out_dir / "results.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cmd_simulate(cfg: dict, seed: int):
    _require_keys(
        cfg,
        {"command", "model", "initial_state", "dt", "t_final", "n_trajectories", "seed",
         "method", "reverse_jumps", "record_every", "n_groups"},
        {"model", "initial_state", "dt", "t_final", "n_trajectories"},
        "simulate config",
    )
    model = model_from_dict(cfg["model"])
    decomposition = _state_from_json(cfg["initial_state"], model.dim)
    grid = TimeGrid(0.0, float(cfg["t_final"]), float(cfg["dt"]))
    ens = Ensemble.sample_initial(
        decomposition, int(cfg["n_trajectories"]), seed=seed, n_groups=int(cfg.get("n_groups", 1))
    )
    runner = {"mcwf": mcwf.run, "ro": ro.run}.get(cfg.get("method", "mcwf"))
    if runner is None:
        raise ConfigError(f"unknown method {cfg.get('method')!r}")
    res = runner(
        model,
        ens,
        grid,
        reverse_jumps=bool(cfg.get("reverse_jumps", False)),
        record_every=int(cfg.get("record_every", 1)),
    )
    columns = ["t", "trace_estimate", "total_count", "distinct_states"]
    columns += [f"pop_{k}" for k in range(model.dim)]
    rows = []
    for i, t in enumerate(res.times):
        pops = np.diag(res.average_states[i]).real
        rows.append(
            (t, res.trace_estimates[i], int(res.total_counts[i]), int(res.distinct_counts[i]), *pops)
        )
    return columns, rows, None


def _cmd_exact(cfg: dict, seed: int):
    _require_keys(
        cfg,
        {"command", "model", "initial_state", "dt", "t_final", "record_every", "seed"},
        {"model", "initial_state", "dt", "t_final"},
        "exact config",
    )
    model = model_from_dict(cfg["model"])
    decomposition = _state_from_json(cfg["initial_state"], model.dim)
    rho0 = sum(w * np.outer(s, s.conj()) for w, s in decomposition)
    rho0 /= np.trace(rho0).real
    grid = TimeGrid(0.0, float(cfg["t_final"]), float(cfg["dt"]))
    traj = exact.integrate(model, rho0, grid)
    every = int(cfg.get("record_every", 1))
    columns = ["t", "trace"] + [f"pop_{k}" for k in range(model.dim)]
    rows = []
    for i in range(0, grid.n_steps + 1, every):
        rho = traj.values[i]
        rows.append((grid.time_at(i), float(np.trace(rho).real), *np.diag(rho).real))
    return columns, rows, None


def _photon_cfg(cfg: dict, seed: int) -> experiments.PhotonCountingConfig:
    kwargs = {}
    for key in ("gamma", "nbar", "Omega", "phi", "dt", "t_final", "leakage_tol"):
        if key in cfg:
            kwargs[key] = float(cfg[key])
    for key in ("k_max", "n_max", "n_trajectories", "n_towers", "record_every"):
        if key in cfg:
            kwargs[key] = int(cfg[key])
    if "zeta_list" in cfg:
        kwargs["zeta_list"] = tuple(float(z) for z in cfg["zeta_list"])
    return experiments.PhotonCountingConfig(seed=seed, **kwargs)


def _cmd_moments(cfg: dict, seed: int):
    _require_keys(
        cfg,
        {"command", "gamma", "nbar", "Omega", "phi", "zeta_list", "k_max", "n_max", "dt",
         "t_final", "n_trajectories", "seed", "n_towers", "record_every", "tilted", "leakage_tol"},
        set(),
        "moments config",
    )
    pc = _photon_cfg(cfg, seed)
    series = experiments.run_photon_counting(pc)
    extra = None
    if cfg.get("tilted", True):
        tilted = experiments.run_tilted_trace(pc)
        extra = {
            "tilted": {
                "columns": tilted.column_names(),
                "rows": [list(r) for r in tilted.rows()],
            }
        }
    return series.column_names(), series.rows(), extra


def _heisenberg_cfg(cfg: dict, seed: int) -> experiments.HeisenbergConfig:
    kwargs = {}
    for key in ("eps", "gamma_minus", "gamma_plus"):
        if key in cfg:
            kwargs[key] = time_scalar_from_json(cfg[key])
    for key in ("dt", "t_final"):
        if key in cfg:
            kwargs[key] = float(cfg[key])
    for key in ("n_trajectories", "n_groups", "record_every"):
        if key in cfg:
            kwargs[key] = int(cfg[key])
    if "method" in cfg:
        kwargs["method"] = str(cfg["method"])
    if "observables" in cfg:
        kwargs["observables"] = tuple(cfg["observables"])
    if "initial_state" in cfg:
        kwargs["initial_state"] = _vector_from_json(cfg["initial_state"], 2)
    return experiments.HeisenbergConfig(seed=seed, **kwargs)


def _cmd_heisenberg(cfg: dict, seed: int):
    _require_keys(
        cfg,
        {"command", "eps", "gamma_minus", "gamma_plus", "observables", "initial_state",
         "dt", "t_final", "n_trajectories", "seed", "method", "n_groups", "record_every"},
        set(),
        "heisenberg config",
    )
    res = experiments.run_heisenberg(_heisenberg_cfg(cfg, seed))
    shorten = {"sigma_x": "x", "sigma_y": "y", "sigma_z": "z"}
    names = [shorten.get(n, n) for n in res.series]
    columns = (
        ["t"]
        + [f"{n}_est" for n in names]
        + [f"{n}_exact" for n in names]
        + ["trace_est", "trace_exact", "distinct_states"]
    )
    return columns, res.rows(), None


def _cmd_divisibility(cfg: dict, seed: int):
    _require_keys(
        cfg,
        {"command", "model", "heisenberg", "adjoint", "dt", "t_final", "seed"},
        {"dt", "t_final"},
        "divisibility config",
    )
    if ("model" in cfg) == ("heisenberg" in cfg):
        raise ConfigError("divisibility needs exactly one of 'model' or 'heisenberg'")
    if "model" in cfg:
        model = model_from_dict(cfg["model"])
    else:
        h = cfg["heisenberg"]
        _require_keys(h, {"eps", "gamma_minus", "gamma_plus"}, {"eps", "gamma_minus", "gamma_plus"}, "heisenberg model")
        model = heisenberg_qubit(
            time_scalar_from_json(h["eps"]),
            time_scalar_from_json(h["gamma_minus"]),
            time_scalar_from_json(h["gamma_plus"]),
        )
    grid = TimeGrid(0.0, float(cfg["t_final"]), float(cfg["dt"]))
    report = divisibility.divisibility_report(model, grid, adjoint=bool(cfg.get("adjoint", False)))
    columns = ["t", "min_choi_eig", "second_min", "third_min", "max_bloch_norm"]
    return columns, report.rows(), None


_COMMANDS = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "moments": _cmd_moments,
    "heisenberg": _cmd_heisenberg,
    "divisibility": _cmd_divisibility,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tnpmc", description="Trajectory simulations from a JSON config")
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored; runs are single-threaded and bit-identical"
    )
    args = parser.parse_args(argv)

    try:
        raw = Path(args.config).read_text(encoding="utf-8")
        cfg = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        if not isinstance(cfg, dict) or "command" not in cfg:
            raise ConfigError("config must be an object with a 'command' key")
        command = cfg["command"]
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        config_hash = hashlib.sha256(
            json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        columns, rows, extra = _COMMANDS[command](cfg, seed)
        meta = {
            "command": command,
            "config_sha256": config_hash,
            "seed": seed,
            "versions": {
                "tnpmc": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
        }
        _write_outputs(Path(args.out), meta, columns, rows, extra)
        return 0
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"invalid configuration [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except TnpmcError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
