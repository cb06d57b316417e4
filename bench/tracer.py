"""Spans around calls into each ``tnpmc`` layer, installed from outside.

``Tracer.install`` replaces module attributes and class methods of the
package with timing wrappers at every site the engine, studies and CLI call
them through, and ``uninstall`` puts the originals back. Each call records
one span (layer, start, end, parent) into a buffer of the calling thread, so
calls from the engine's worker threads are kept too; a span opened in a
worker thread is a root of that thread. Spans stay in memory until
``collect`` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

# layers reported as `<layer>_s` self times, in the order of BENCHMARK.json
SELF_TIME_LAYERS = [
    "rng.uniform",
    "rng.binomial",
    "rng.generator",
    "rng.stream_key",
    "ensemble.merge",
    "ensemble.keys",
    "linops.phase_fix",
    "ensemble.record",
    "ensemble.distinct",
    "ensemble.append",
    "engine.source",
    "linops.eig",
    "engine.step",
    "engine.loop",
    "engine.snapshot",
    "mcwf.reverse_entries",
    "mcwf.prepare",
    "model.eval",
    "mcwf.jump_bins",
    "mcwf.det_states",
    "mcwf.x_values",
    "mcwf.jump_target",
    "ro.prepare",
    "ro.jump_bins",
    "ro.det_states",
    "exact.integrate",
    "exact.hierarchy",
    "exact.propagate_map",
    "divisibility.report",
    "experiments.study",
    "experiments.bootstrap",
    "cli.main",
]
# counts derived from the number of spans of a layer
CALL_COUNTS = {
    "rng.generator_calls": "rng.generator",
    "rng.stream_key_calls": "rng.stream_key",
    "linops.eig_calls": "linops.eig",
    "model.eval_calls": "model.eval",
    "mcwf.jump_target_calls": "mcwf.jump_target",
    "ro.jump_target_calls": "ro.jump_target",
    "engine.steps": "engine.step",
}
# counts accumulated by the wrappers from the arguments and results of calls
ARG_COUNTS = [
    "rng.uniform_lanes",
    "rng.binomial_rows",
    "ensemble.merge_rows_in",
    "ensemble.merge_rows_out",
    "ensemble.step_objects",
    "ensemble.step_realizations",
    "engine.spawned_rows",
    "mcwf.kernel_rows",
    "ro.kernel_rows",
    "exact.rk4_steps",
    "cli.output_bytes",
]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = [(f"{layer}_s", "s", "lower") for layer in SELF_TIME_LAYERS]
    out += [(name, "count", "lower") for name in CALL_COUNTS]
    out += [(name, "count", "lower") for name in ARG_COUNTS if not name.startswith("ensemble.step_")]
    out += [
        ("ensemble.objects_per_step", "count", "lower"),
        ("ensemble.realizations_per_step", "count", "lower"),
        ("ensemble.merge_removed_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class _Buffer:
    """Spans and counts of one thread; parents index into the same buffer."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(ARG_COUNTS, 0)


class Tracer:
    def __init__(self):
        self._layers = SELF_TIME_LAYERS + ["ro.jump_target"]
        self._layer_id = {name: i for i, name in enumerate(self._layers)}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, layer, fn, before=None, after=None):
        layer_id = self._layer_id[layer]
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            buf = tracer._buffer()
            idx = len(buf.layer)
            buf.layer.append(layer_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            state = before(buf.counts, args, kwargs) if before is not None else None
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if after is not None:
                after(buf.counts, args, kwargs, result, state)
            return result

        return functools.wraps(fn)(traced)

    def _patch(self, owner, attr, layer, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        setattr(owner, attr, self._wrap(layer, original, before, after))
        self._patched.append((owner, attr, original))

    # -- installation -------------------------------------------------------

    def install(self, tnpmc_modules) -> None:
        """Wrap every traced function at each site it is called through."""
        m = tnpmc_modules
        engine, ensemble, mcwf, ro, model = m.engine, m.ensemble, m.mcwf, m.ro, m.model
        exact, divisibility, experiments, linops, cli = (
            m.exact, m.divisibility, m.experiments, m.linops, m.cli,
        )

        def add(key, n):
            def hook(counts, args, kwargs, *rest):
                counts[key] += n(args, kwargs)
            return hook

        self._patch(engine, "batched_uniform_words", "rng.uniform",
                    before=add("rng.uniform_lanes", lambda a, k: len(a[0])))
        self._patch(engine, "binomial_inverse", "rng.binomial",
                    before=add("rng.binomial_rows", lambda a, k: len(a[0])))
        self._patch(engine, "make_generator", "rng.generator")
        for mod in (engine, ensemble, experiments):
            self._patch(mod, "stream_key", "rng.stream_key")

        def merge_before(counts, args, kwargs):
            counts["ensemble.merge_rows_in"] += args[0].size

        def merge_after(counts, args, kwargs, result, state):
            counts["ensemble.merge_rows_out"] += args[0].size

        self._patch(ensemble.Ensemble, "_merge_in_place", "ensemble.merge",
                    before=merge_before, after=merge_after)
        for mod in (engine, ensemble):
            self._patch(mod, "canonical_key_rows", "ensemble.keys")
        self._patch(ensemble, "phase_fix_rows", "linops.phase_fix")
        for attr in ("average_state", "trace_estimate", "total_count", "group_counts",
                     "group_observable_sums"):
            self._patch(ensemble.Ensemble, attr, "ensemble.record")
        self._patch(ensemble.Ensemble, "distinct_state_count", "ensemble.distinct")
        self._patch(ensemble.Ensemble, "_append_members", "ensemble.append")

        def step_before(counts, args, kwargs):
            ens = args[1]
            counts["ensemble.step_objects"] += ens.size
            counts["ensemble.step_realizations"] += int(ens.mult.sum())
            return ens.next_id

        def step_after(counts, args, kwargs, result, next_id):
            counts["engine.spawned_rows"] += args[1].next_id - next_id

        self._patch(engine, "_advance_step", "engine.step", before=step_before, after=step_after)
        self._patch(engine, "_apply_source", "engine.source")
        self._patch(engine, "_build_snapshot", "engine.snapshot")
        self._patch(engine, "_match_keys", "engine.snapshot")
        self._patch(engine, "run", "engine.loop")
        for mod in (engine, experiments, linops, mcwf):
            self._patch(mod, "hermitian_eig", "linops.eig")

        rows = lambda key: add(key, lambda a, k: a[2].shape[0])  # noqa: E731
        for cls, prefix in ((mcwf.McwfScheme, "mcwf"), (ro.RoScheme, "ro")):
            self._patch(cls, "prepare", f"{prefix}.prepare")
            self._patch(cls, "jump_bins", f"{prefix}.jump_bins", before=rows(f"{prefix}.kernel_rows"))
            self._patch(cls, "det_states", f"{prefix}.det_states")
            self._patch(cls, "jump_target", f"{prefix}.jump_target")
        self._patch(mcwf.McwfScheme, "x_values", "mcwf.x_values")
        self._patch(mcwf.McwfScheme, "reverse_entries", "mcwf.reverse_entries")

        for attr in ("hamiltonian_at", "gamma_L", "gamma_at", "effective_hamiltonian",
                     "source_at", "apply_liouvillian"):
            self._patch(model.TnpModel, attr, "model.eval")
        self._patch(model.JumpChannel, "rate_at", "model.eval")

        def rk4_steps(args, kwargs):
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            return grid.n_steps

        self._patch(exact, "integrate", "exact.integrate", before=add("exact.rk4_steps", rk4_steps))
        self._patch(exact, "solve_hierarchy", "exact.hierarchy")
        self._patch(divisibility, "propagate_map", "exact.propagate_map")
        self._patch(divisibility, "divisibility_report", "divisibility.report")
        for attr in ("run_photon_counting", "run_tilted_trace", "run_heisenberg"):
            self._patch(experiments, attr, "experiments.study")
        for attr in ("bootstrap_se_sums", "bootstrap_se_combined"):
            self._patch(experiments, attr, "experiments.bootstrap")

        def output_bytes(counts, args, kwargs, result, state):
            argv = list(args[0] if args else kwargs["argv"])
            out = Path(argv[argv.index("--out") + 1])
            counts["cli.output_bytes"] += sum(p.stat().st_size for p in out.iterdir() if p.is_file())

        self._patch(cli, "main", "cli.main", after=output_bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def spans(self):
        """All spans as arrays; ``parent`` indexes the concatenated arrays."""
        parts = {"layer": [], "parent": [], "start": [], "end": [], "thread": []}
        offset = 0
        for t, buf in enumerate(self._buffers):
            n = len(buf.layer)
            parent = np.frombuffer(buf.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts["layer"].append(np.frombuffer(buf.layer, dtype=np.int32))
            parts["parent"].append(parent)
            parts["start"].append(np.frombuffer(buf.start, dtype=np.int64))
            parts["end"].append(np.frombuffer(buf.end, dtype=np.int64))
            parts["thread"].append(np.full(n, t, dtype=np.int32))
            offset += n
        out = {k: np.concatenate(v) if v else np.zeros(0, dtype=np.int64) for k, v in parts.items()}
        out["layer_names"] = np.array(self._layers)
        return out

    def collect(self) -> dict:
        """Per-layer self times (s) and counts of everything recorded so far."""
        sp = self.spans()
        dur = (sp["end"] - sp["start"]).astype(np.float64) * 1e-9
        child = np.zeros_like(dur)
        has_parent = sp["parent"] >= 0
        np.add.at(child, sp["parent"][has_parent], dur[has_parent])
        self_time = np.bincount(sp["layer"], weights=dur - child, minlength=len(self._layers))
        n_spans = np.bincount(sp["layer"], minlength=len(self._layers))
        metrics = {f"{layer}_s": float(self_time[self._layer_id[layer]]) for layer in SELF_TIME_LAYERS}
        for name, layer in CALL_COUNTS.items():
            metrics[name] = int(n_spans[self._layer_id[layer]])
        counts = dict.fromkeys(ARG_COUNTS, 0)
        for buf in self._buffers:
            for key, value in buf.counts.items():
                counts[key] += value
        steps = metrics["engine.steps"]
        for key in ARG_COUNTS:
            if not key.startswith("ensemble.step_"):
                metrics[key] = int(counts[key])
        metrics["ensemble.objects_per_step"] = counts["ensemble.step_objects"] / steps if steps else 0.0
        metrics["ensemble.realizations_per_step"] = (
            counts["ensemble.step_realizations"] / steps if steps else 0.0
        )
        rows_in = counts["ensemble.merge_rows_in"]
        metrics["ensemble.merge_removed_ratio"] = (
            (rows_in - counts["ensemble.merge_rows_out"]) / rows_in if rows_in else 0.0
        )
        return metrics

    def reset(self) -> None:
        """Drop recorded spans; wrappers stay as they are."""
        with self._lock:
            self._buffers = []
            self._local = threading.local()
