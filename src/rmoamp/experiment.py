"""Experiment orchestration: single runs, trials, and parameter sweeps.

An experiment fixes a source, a compression ratio beta = M/N, a channel
noise level sigma, a channel family, and a prior, then repeats the
transmit/receive cycle over seeded trials.  Each trial derives its own
seeds by offsetting the base seeds with the trial index, so reruns with the
same config are bit-identical and trials are independent.

Emitted artifacts (all optional, controlled by output_dir):

* per-trial iteration traces, ``trace_trial<k>.csv``;
* reconstructions (PGM for image-shaped sources, raw matrix otherwise);
* ``trials.csv`` per-trial metrics and ``aggregate.csv`` summary;
* for sweeps, one consolidated ``sweep.csv`` row per grid point.

Wall-clock time is tracked in memory but never written to CSV, keeping the
emitted bytes deterministic for fixed seeds.
"""

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel as channel_mod
from .bridge import BridgeClient, BridgePrior
from .channel import build_channel
from .diffusion import (DdimPrior, DdimSchedule, FlowMatchingPrior,
                        default_ddim_schedule, gaussian_eps_predictor,
                        gaussian_velocity_predictor)
from .errors import InvalidParameterError, RmOampError
from .fileio import write_matrix, write_pgm
from .metrics import psnr, ssim
from .priors import (AnalyticGaussianPrior, DctSoftThresholdPrior,
                     GaussianMixturePrior)
from .receiver import ReceiverConfig, lmmse_baseline, run_receiver
from .rm_operator import build_rm_operator, rm_forward
from .sources import load_source

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "MetricReport",
    "build_prior",
    "run_experiment",
    "baseline_psnr",
    "sweep",
    "OUTPUT_ROOT_ENV",
    "TRIAL_COLUMNS",
    "SWEEP_COLUMNS",
]

OUTPUT_ROOT_ENV = "RMOAMP_OUTPUT_ROOT"

TRIAL_COLUMNS = ("trial", "psnr", "ssim", "iterations", "nfe", "faults",
                 "error")
SWEEP_COLUMNS = ("beta", "sigma", "prior", "channel", "mean_psnr", "std_psnr",
                 "mean_ssim", "std_ssim", "mean_iterations", "mean_nfe",
                 "num_trials", "num_errors")


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid point: source, compression, channel, prior, loop knobs, seeds."""

    source: object
    beta: float = 1.0
    sigma: float = 0.0
    channel: dict = field(default_factory=lambda: {"kind": "identity"})
    prior: dict = field(default_factory=lambda: {"kind": "analytic-gaussian"})
    max_iters: int = 12
    tolerance: float = 1e-4
    operator_seed: int = 1
    channel_seed: int = 2
    noise_seed: int = 3
    divergence_seed: int = 4
    num_trials: int = 1
    output_dir: str = None

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameterError(f"beta must be in (0, 1], got {self.beta}")
        if self.sigma < 0:
            raise InvalidParameterError("sigma must be >= 0")
        if self.num_trials < 1:
            raise InvalidParameterError("num_trials must be >= 1")

    def receiver_config(self, trial=0):
        return ReceiverConfig(
            max_iters=self.max_iters, tolerance=self.tolerance,
            divergence_seed=self.divergence_seed + trial)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    psnr: float
    ssim: float
    iterations: int
    nfe: int
    wall_time: float
    error: str = ""
    faults: int = 0


@dataclass
class MetricReport:
    """Per-trial metrics plus aggregates for one experiment."""

    config: ExperimentConfig
    trials: list = field(default_factory=list)

    @property
    def num_errors(self):
        return sum(1 for t in self.trials if t.error)

    def _agg(self, attr, reducer):
        # aggregate over trials that produced a finite value; a trial with a
        # terminal annotation still counts if it delivered an estimate
        vals = np.array([getattr(t, attr) for t in self.trials],
                        dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        return float(reducer(vals)) if vals.size else float("nan")

    @property
    def mean_psnr(self):
        return self._agg("psnr", np.mean)

    @property
    def std_psnr(self):
        return self._agg("psnr", np.std)

    @property
    def mean_ssim(self):
        return self._agg("ssim", np.mean)

    @property
    def std_ssim(self):
        return self._agg("ssim", np.std)

    @property
    def mean_iterations(self):
        return self._agg("iterations", np.mean)

    @property
    def mean_nfe(self):
        return self._agg("nfe", np.mean)

    def trials_csv(self):
        lines = [",".join(TRIAL_COLUMNS)]
        for t in self.trials:
            lines.append(",".join([
                str(t.trial), repr(float(t.psnr)), repr(float(t.ssim)),
                str(t.iterations), str(t.nfe), str(t.faults),
                t.error.replace(",", ";")]))
        return "\n".join(lines) + "\n"

    def aggregate_csv(self):
        header = SWEEP_COLUMNS
        return (",".join(header) + "\n" + ",".join(self.sweep_row()) + "\n")

    def sweep_row(self):
        cfg = self.config
        return [repr(float(cfg.beta)), repr(float(cfg.sigma)),
                str(cfg.prior.get("kind", "?")),
                str(cfg.channel.get("kind", "?")),
                repr(self.mean_psnr), repr(self.std_psnr),
                repr(self.mean_ssim), repr(self.std_ssim),
                repr(self.mean_iterations), repr(self.mean_nfe),
                str(len(self.trials)), str(self.num_errors)]


def build_prior(spec):
    """Instantiate a denoiser prior from a flat spec dict.

    Kinds: analytic-gaussian, analytic-gauss-mixture, dct-soft-threshold,
    ddim, flow-matching, external-bridge.  Sampler kinds take a nested
    ``predictor`` spec (kind "gaussian" with mean/var0) standing in for a
    trained network; external-bridge takes ``argv`` (spawn) or
    ``host``/``port`` (connect) plus optional ``timeout`` and ``snr_kind``.
    """
    kind = spec.get("kind", "analytic-gaussian")
    if kind == "analytic-gaussian":
        return AnalyticGaussianPrior(mean=spec.get("mean", 0.0),
                                     var0=spec.get("var0", 1.0))
    if kind == "analytic-gauss-mixture":
        return GaussianMixturePrior(weights=spec["weights"],
                                    means=spec["means"],
                                    variances=spec["variances"])
    if kind == "dct-soft-threshold":
        return DctSoftThresholdPrior()
    if kind == "ddim":
        predictor = _build_predictor(spec.get("predictor", {}), "ddim")
        if "alpha_bar" in spec:
            schedule = DdimSchedule(np.asarray(spec["alpha_bar"]))
        else:
            schedule = default_ddim_schedule(
                num_steps=spec.get("num_steps", 50),
                alpha_start=spec.get("alpha_start", 0.999),
                alpha_end=spec.get("alpha_end", 0.005))
        return DdimPrior(predictor, schedule=schedule,
                         mode=spec.get("mode", "trajectory"))
    if kind == "flow-matching":
        predictor = _build_predictor(spec.get("predictor", {}), "flow-matching")
        return FlowMatchingPrior(predictor,
                                 num_steps=spec.get("num_steps", 20))
    if kind == "external-bridge":
        timeout = spec.get("timeout", 5.0)
        if "argv" in spec:
            client = BridgeClient.spawn(spec["argv"], timeout=timeout)
        else:
            client = BridgeClient.connect(spec["host"], int(spec["port"]),
                                          timeout=timeout)
        return BridgePrior(client, snr_kind=spec.get("snr_kind",
                                                     "flow-matching"))
    raise InvalidParameterError(f"unknown prior kind {kind!r}")


def _build_predictor(spec, sampler_kind):
    kind = spec.get("kind", "gaussian")
    if kind != "gaussian":
        raise InvalidParameterError(f"unknown predictor kind {kind!r}")
    mean = spec.get("mean", 0.0)
    var0 = spec.get("var0", 1.0)
    if sampler_kind == "ddim":
        return gaussian_eps_predictor(mean=mean, var0=var0)
    return gaussian_velocity_predictor(mean=mean, var0=var0)


def _resolve_output_dir(path):
    if path is None:
        return None
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _save_reconstruction(out_dir, trial, estimate):
    if estimate.shape is not None and len(estimate.shape) == 2:
        path = os.path.join(out_dir, f"recon_trial{trial}.pgm")
        write_pgm(path, np.clip(estimate.image(), 0.0, 1.0))
    else:
        path = os.path.join(out_dir, f"recon_trial{trial}.mat")
        write_matrix(path, estimate.values[np.newaxis, :])


def _transmission(cfg, trial):
    """Source, operator, channel and observation of one seeded trial."""
    source = load_source(cfg.source)
    m = max(1, int(round(cfg.beta * source.n)))
    op = build_rm_operator(source.n, m, cfg.operator_seed + trial)
    ch = build_channel(cfg.channel, m, cfg.sigma ** 2,
                       cfg.channel_seed + trial)
    y = channel_mod.transmit(ch, rm_forward(op, source.values),
                             cfg.noise_seed + trial)
    return source, op, ch, y


def _close_prior(prior):
    client = getattr(prior, "client", None)
    if client is not None:
        client.close()


def _needs_build(prior):
    """True before the first trial and after a fault closed a bridge."""
    client = getattr(prior, "client", None)
    return prior is None or (client is not None and client.closed)


def run_trial(cfg, trial):
    """One seeded transmit/receive cycle; returns (TrialResult, trace,
    estimate).

    ``cfg.prior`` is either a spec, built for this trial and closed after
    it, or a prior that :func:`run_experiment` built, used as it is and
    left open for the next trial.
    """
    t0 = time.perf_counter()
    source, op, ch, y = _transmission(cfg, trial)
    owned = not hasattr(cfg.prior, "denoise")
    prior = build_prior(cfg.prior) if owned else cfg.prior
    nfe_before = getattr(prior, "eval_count", 0)
    try:
        estimate, trace = run_receiver(y, ch, op, prior,
                                       cfg.receiver_config(trial),
                                       truth=source)
    finally:
        if owned:
            _close_prior(prior)

    trial_psnr = psnr(source.values, estimate.values)
    trial_ssim = float("nan")
    if source.shape is not None and len(source.shape) == 2:
        trial_ssim = ssim(source.image(),
                          np.clip(estimate.image(), 0.0, 1.0))
    result = TrialResult(
        trial=trial, psnr=trial_psnr, ssim=trial_ssim,
        iterations=len(trace),
        nfe=getattr(prior, "eval_count", 0) - nfe_before,
        wall_time=time.perf_counter() - t0,
        error=trace.error or "",
        faults=sum(1 for r in trace.records if r.fault))
    return result, trace, estimate


def run_experiment(cfg):
    """Run all trials of one experiment config; returns a MetricReport.

    The prior is built once and shared by the trials, so an external
    denoiser starts once per experiment.  A bridge fault closes its client;
    the prior is then built again before the next trial, so a fault never
    reaches past its own trial.  The prior is closed on the way out, also
    when an error propagates.  Per-trial failures are recorded on the
    report and do not stop the remaining trials.
    """
    out_dir = _resolve_output_dir(cfg.output_dir)
    report = MetricReport(config=cfg)
    prior = None
    try:
        for trial in range(cfg.num_trials):
            t0 = time.perf_counter()
            try:
                if _needs_build(prior):
                    prior = build_prior(cfg.prior)
                result, trace, estimate = run_trial(
                    replace(cfg, prior=prior), trial)
            except RmOampError as exc:
                report.trials.append(TrialResult(
                    trial=trial, psnr=float("nan"), ssim=float("nan"),
                    iterations=0, nfe=0, wall_time=time.perf_counter() - t0,
                    error=str(exc).replace("\n", " ")))
                continue
            report.trials.append(result)
            if out_dir is not None:
                trace_path = os.path.join(out_dir, f"trace_trial{trial}.csv")
                with open(trace_path, "w") as fh:
                    fh.write(trace.to_csv())
                _save_reconstruction(out_dir, trial, estimate)
    finally:
        _close_prior(prior)
    if out_dir is not None:
        with open(os.path.join(out_dir, "trials.csv"), "w") as fh:
            fh.write(report.trials_csv())
        with open(os.path.join(out_dir, "aggregate.csv"), "w") as fh:
            fh.write(report.aggregate_csv())
    return report


def baseline_psnr(cfg, trial=0):
    """PSNR of the one-shot linear reconstruction under the same seeds."""
    source, op, ch, y = _transmission(cfg, trial)
    estimate, _ = lmmse_baseline(y, ch, op, truth=source)
    return psnr(source.values, estimate.values)


def sweep(grid, output_dir=None):
    """Run every grid point and consolidate one CSV row per point.

    Points are ordered by (beta, sigma), ties keeping grid order.  With one
    channel per beta, points that differ only in sigma therefore run back
    to back and share one channel build (see
    :func:`rmoamp.channel.build_channel`).  A failed point contributes a row
    with NaN aggregates rather than aborting the sweep.  Returns (csv_text,
    reports).
    """
    if not grid:
        raise InvalidParameterError("sweep grid is empty")
    order = sorted(range(len(grid)),
                   key=lambda i: (grid[i].beta, grid[i].sigma, i))
    lines = [",".join(SWEEP_COLUMNS)]
    reports = []
    for i in order:
        report = run_experiment(grid[i])
        reports.append(report)
        lines.append(",".join(report.sweep_row()))
    text = "\n".join(lines) + "\n"
    if output_dir is not None:
        out_dir = _resolve_output_dir(output_dir)
        with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
            fh.write(text)
    return text, reports
