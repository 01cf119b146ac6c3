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

from rmoamp import ExperimentConfig, channel, run_experiment, sweep

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


def test_sigma_only_repeat_is_one_build_under_the_tracer(monkeypatch):
    # the benchmark's sweep-grid pairs two noise levels per channel; the
    # tracer must still see one channel.build span per trial, while the
    # factors are drawn once
    points = [ExperimentConfig(
        source={"kind": "gaussian", "n": 64, "seed": 9}, beta=0.5,
        sigma=sigma, max_iters=3,
        channel={"kind": "conditioned", "kappa": 10.0,
                 "factor_method": "haar"}) for sigma in (0.5, 0.05)]
    monkeypatch.setattr(channel, "_last_built", None)
    draws = []
    draw = channel._haar_orthogonal

    def counted(dim, rng):
        draws.append(dim)
        return draw(dim, rng)

    monkeypatch.setattr(channel, "_haar_orthogonal", counted)
    patches = TRACING_MODULE.Patches()
    tracer = TRACING_MODULE.Tracer(patches)
    tracer.install()
    try:
        text, _ = sweep(points)
    finally:
        patches.restore()
    builds = [s for s in tracer.spans if s.name == "channel.build"]
    assert len(builds) == 2 and all(s.ok for s in builds)
    assert builds[0].extra["key"] == builds[1].extra["key"]
    assert draws == [32]  # v of the first point only

    # the same rows when every point draws its own factors
    fresh = []
    for point in sorted(points, key=lambda p: p.sigma):
        monkeypatch.setattr(channel, "_last_built", None)
        fresh.append(sweep([point])[0].splitlines()[1])
    assert text.splitlines()[1:] == fresh
    assert len(draws) == 3


def test_rotated_haar_run_still_traces_one_apply_per_iteration():
    # the one channel apply of each iteration must go through
    # ChannelInstance.apply, or the tracer's channel.apply spans would vanish
    cfg = ExperimentConfig(
        source={"kind": "gaussian", "n": 64, "seed": 9}, beta=0.5,
        sigma=0.05, max_iters=4, tolerance=1e-12,
        channel={"kind": "conditioned", "kappa": 10.0,
                 "factor_method": "haar"})
    patches = TRACING_MODULE.Patches()
    tracer = TRACING_MODULE.Tracer(patches)
    tracer.install()
    try:
        report = run_experiment(cfg)
    finally:
        patches.restore()
    assert not tracer.missing

    def inside_loop(span):
        while span.parent is not None:
            span = tracer.spans[span.parent]
            if span.name == "receiver.loop":
                return True
        return False

    applies = [s for s in tracer.spans
               if s.name == "channel.apply" and inside_loop(s)]
    assert report.trials[0].error == ""
    assert report.trials[0].iterations == 4
    assert len(applies) == 4 and all(s.ok for s in applies)


def test_compressed_trial_traces_every_operator_apply():
    # the receiver must keep applying the operator through rm_forward and
    # rm_inverse: an inline op @ x would zero rm_operator.apply_calls
    cfg = ExperimentConfig(
        source={"kind": "gaussian", "n": 64, "seed": 9}, beta=0.5,
        sigma=0.05, max_iters=4, tolerance=1e-12,
        channel={"kind": "conditioned", "kappa": 10.0,
                 "factor_method": "fast"})
    patches = TRACING_MODULE.Patches()
    tracer = TRACING_MODULE.Tracer(patches)
    tracer.install()
    try:
        report = run_experiment(cfg)
    finally:
        patches.restore()
    assert not tracer.missing
    iterations = report.trials[0].iterations
    assert report.trials[0].error == "" and iterations == 4

    def count(name):
        return sum(1 for s in tracer.spans if s.name == name and s.ok)

    assert count("rm_operator.build") == 1
    # transmit, then s_in, x~ and the PSNR per iteration, then the estimate
    assert count("rm_operator.apply") == 1 + 3 * iterations + 1
    # the receiver's stages stay on the names the tracer wraps: one LMMSE
    # step, one probe and one correction per iteration, and two denoiser
    # calls (the output and the probe's)
    for name in ("receiver.lmmse", "sure.divergence", "receiver.correction"):
        assert count(name) == iterations
    assert count("priors.denoise") == 2 * iterations
