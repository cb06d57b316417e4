"""Benchmark of the tnpmc trajectory engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: qubit_cli, photon_counting, heisenberg, reverse_jump (README.md).
The script starts ``bench/worker.py`` in fresh processes with one BLAS
thread: eight that only time the set-up, then one that sets up and repeats
rounds of the workload's operations for about S seconds. It then checks the
first round's outputs against references computed without tnpmc, checks that
every round reproduced them, writes a run record to
``bench/out/<workload>-seed<N>-trace<T>.json`` and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("qubit_cli", "photon_counting", "heisenberg", "reverse_jump")
SETUP_SAMPLES = 9  # the measuring process plus eight set-up-only processes
SETUP_TIMEOUT_S = 30
MEASURE_TIMEOUT_S = 140
# one BLAS thread in every run: threaded BLAS on these small matrices turns
# a busy second core into millisecond stalls
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


sys.path.insert(0, str(BENCH))


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def _worker(mode, args, work, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    if mode == "measure":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {mode} exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _environment(load_start):
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k] for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas,
        "blas_threads": BLAS_ENV,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def _check_outputs(workload, measured, outputs):
    """Per operation: failures of its first output, and whether every round repeated it."""
    import checks

    results = {}
    names = [op["name"] for op in measured["rounds"][0]["ops"]]
    for i, name in enumerate(names):
        runs = [r["ops"][i] for r in measured["rounds"]]
        done = [op for op in runs if op["error"] is None]
        entry = {"digest": done[0]["digest"] if done else None, "failures": [], "max_z": {},
                 "errors": sorted({op["error"] for op in runs if op["error"] is not None})}
        if done:
            if len({op["digest"] for op in done}) != 1:
                entry["failures"].append("outputs differ between rounds of the same seed")
            arrays = {key.split("/", 1)[1]: outputs[key] for key in outputs.files
                      if key.startswith(name + "/")}
            report = checks.check(workload, name, arrays, done[0]["raised"])
            entry["failures"] += report.failures
            entry["max_z"] = report.max_z
        results[name] = entry
    return results


def _layer_metrics(rounds):
    from tracer import per_layer_metrics

    traced = [r for r in rounds if r["traced"]]
    plain = [r["seconds"] for r in rounds if not r["traced"] and not r["warmup"]]
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        if name == "trace.overhead_s":
            value = statistics.median(r["seconds"] for r in traced) - statistics.median(plain)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in traced]
    return metrics, all(c == counts[0] for c in counts)


def run(args):
    if not (ROOT / "src" / "tnpmc" / "__init__.py").is_file():
        raise BenchmarkError(f"no tnpmc sources under {ROOT / 'src'}")
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(json.loads(_worker("setup", args, work, SETUP_TIMEOUT_S).splitlines()[-1])["setup_s"])
        _worker("measure", args, work, MEASURE_TIMEOUT_S)
        measured = json.loads((work / "measure.json").read_text(encoding="utf-8"))
        import numpy as np

        with np.load(work / "outputs.npz") as outputs:
            op_results = _check_outputs(args.workload, measured, outputs)
        if args.trace:
            shutil.copyfile(work / "spans.npz", OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = measured["rounds"]
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["error"] is not None for r in rounds for op in r["ops"])
    correct = all(not e["failures"] for e in op_results.values())
    counts_repeat = None
    if args.trace:
        metrics, counts_repeat = _layer_metrics(rounds)
    else:
        setups.append(measured["setup_s"])
        values = {
            "run_s": statistics.median(r["seconds"] for r in rounds if not r["warmup"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "operations": op_results,
        "layer_counts_repeat": counts_repeat,
        "setup_samples_s": setups,
        "rounds": [{"warmup": r["warmup"], "traced": r["traced"], "seconds": r["seconds"],
                    "ops": {op["name"]: op["seconds"] for op in r["ops"]}} for r in rounds],
        "environment": _environment(load_start),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's seed in README.md")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        from workloads import DEFAULT_SEEDS

        args.seed = DEFAULT_SEEDS[args.workload]
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
