"""Program side of the benchmark: runs one workload in a fresh process.

    python3 bench/worker.py setup   --workload W --seed N --work DIR
    python3 bench/worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1

``setup`` times the import of ``tnpmc`` plus the building of the workload and
prints it. ``measure`` does the same set-up, then repeats rounds of the
workload's operations for about S seconds (a warm-up round first) and writes ``measure.json`` and
``outputs.npz`` (the first round's outputs) into DIR. With ``--trace 1``
every second round runs with the tracer installed; its spans are kept in
memory and the last traced round's spans are written to ``spans.npz``.

``bench/run.py`` starts this script; it is not meant to be run by hand.
"""

import time

T_START = time.perf_counter()  # before numpy and tnpmc are imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _setup(workload, seed, work):
    import workloads

    ops = workloads.SETUPS[workload](seed, work)
    setup_s = time.perf_counter() - T_START
    import tnpmc

    if not Path(tnpmc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tnpmc was imported from {tnpmc.__file__}, not from {ROOT / 'src'}")
    return ops, setup_s


def _measure(args, ops, setup_s):
    import numpy as np

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    modules = workloads.import_tnpmc()
    # round 0 warms up (first calls run measurably slower); with tracing the
    # rounds after it alternate traced, untraced, traced, ...
    min_rounds = 3 if args.trace else 2
    rounds = []
    first_outputs = {}
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install(modules)
        record = {"warmup": not rounds, "traced": traced, "ops": []}
        t_round = time.perf_counter()
        for op in ops:
            t_op = time.perf_counter()
            try:
                out = op.call()
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            op_s = time.perf_counter() - t_op
            record["ops"].append({
                "name": op.name,
                "seconds": op_s,
                "error": error,
                "digest": out["digest"] if out else None,
                "raised": out.get("raised") if out else None,
            })
            if out is not None and op.name not in first_outputs:
                first_outputs[op.name] = out["arrays"]
        record["seconds"] = time.perf_counter() - t_round
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.collect()
        rounds.append(record)
        elapsed = time.perf_counter() - t_begin
        typical = statistics.median(r["seconds"] for r in rounds[-2:])
        if len(rounds) >= min_rounds and elapsed + typical > args.seconds:
            break

    work = Path(args.work)
    arrays = {f"{op}/{key}": np.asarray(v) for op, d in first_outputs.items() for key, v in d.items()}
    np.savez(work / "outputs.npz", **arrays)
    if tracer is not None:
        np.savez_compressed(work / "spans.npz", **tracer.spans())
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
    }
    (work / "measure.json").write_text(json.dumps(result), encoding="utf-8")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ops, setup_s = _setup(args.workload, args.seed, Path(args.work))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    _measure(args, ops, setup_s)


if __name__ == "__main__":
    main()
