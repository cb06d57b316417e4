"""The benchmark's tracer wraps package functions by module and attribute name.

A renamed or deleted function that ``bench/tracer.py`` patches makes every
traced benchmark run die in ``Tracer.install``, before any operation runs, so
the names are checked here with the rest of the suite.
"""

from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls_over_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import workloads

    tn = workloads.import_tnpmc()
    t = tracer.Tracer()
    try:
        t.install(tn)
        patched = list(t._patched)
        assert patched
        # one short traced run per scheme passes through the wrappers' argument hooks
        p = tn.model.pauli_ops()
        model = tn.model.TnpModel(dim=2, hamiltonian=0.5 * p.x, channels=(tn.model.JumpChannel(1.0, p.minus),),
                                  gamma=np.eye(2, dtype=complex))
        ket1 = np.array([0.0, 1.0], dtype=complex)
        grid = tn.exact.TimeGrid(0.0, 0.05, 1e-2)
        for runner in (tn.mcwf.run, tn.ro.run):
            runner(model, tn.ensemble.Ensemble.sample_initial([(1.0, ket1)], 50, seed=1), grid)
        metrics = t.collect()
        assert metrics["engine.steps"] == 2 * grid.n_steps
        assert metrics["mcwf.kernel_rows"] > 0 and metrics["ro.kernel_rows"] > 0
        # one step stream per step: every object's uniforms come from one batched draw
        objects = metrics["ensemble.objects_per_step"] * metrics["engine.steps"]
        assert metrics["rng.uniform_lanes"] == round(objects) > 0
        assert metrics["rng.generator_calls"] == metrics["engine.steps"]  # the model has no source
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner!r}.{attr} still wrapped"
