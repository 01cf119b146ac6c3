"""Every name the benchmark's tracer wraps still exists where it looks.

``perfbench/tracing.py`` reports the metrics of a vanished wrap point as
null instead of failing, so a rename or a move in ``src/`` would otherwise
pass unnoticed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from rmoamp import ExperimentConfig, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()
WRAP_POINTS = sorted({point for points in TRACING_MODULE.WRAP_POINTS.values()
                      for point in points})


@pytest.mark.parametrize("module,path", WRAP_POINTS,
                         ids=[f"{m}:{p}" for m, p in WRAP_POINTS])
def test_wrap_point_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path} is not defined on its owner"



def test_trial_log_sees_every_trial_of_a_bridge_run():
    # TrialLog replaces rmoamp.experiment.run_trial with logged(cfg, trial);
    # run_experiment must keep calling that name with those two arguments,
    # or every benchmark trial fails
    cfg = ExperimentConfig(
        source={"kind": "gaussian", "n": 32, "seed": 9}, sigma=0.05,
        max_iters=2, num_trials=2,
        prior={"kind": "external-bridge",
               "argv": [sys.executable, "-m", "rmoamp.echo_bridge"]})
    patches = TRACING_MODULE.Patches()
    log = TRACING_MODULE.TrialLog(patches)
    try:
        report = run_experiment(cfg)
    finally:
        patches.restore()
    assert [t.error for t in report.trials] == ["", ""]
    assert all(log.get(t) is not None for t in report.trials)
