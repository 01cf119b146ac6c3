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

import math
import os
import sys
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
from .fileio import csv_cell, csv_text, write_matrix, write_pgm
from .metrics import psnr, ssim
from .priors import (AnalyticGaussianPrior, DctSoftThresholdPrior,
                     GaussianMixturePrior)
from .receiver import ReceiverConfig, lmmse_baseline, run_receiver
from .rm_operator import build_rm_operator, rm_forward
from .sources import load_source
from .specs import (PREDICTOR_KEYS, PRIOR_KEYS, read_spec, spec_integer,
                    spec_numbers, spec_strings)

OUTPUT_ROOT_ENV = "RMOAMP_OUTPUT_ROOT"

# trials.csv's columns, each a TrialResult attribute
TRIAL_COLUMNS = ("trial", "psnr", "ssim", "iterations", "nfe", "faults",
                 "error")
# each aggregate column: the TrialResult attribute it reduces, and how
_AGGREGATES = {"mean_psnr": ("psnr", np.mean), "std_psnr": ("psnr", np.std),
               "mean_ssim": ("ssim", np.mean), "std_ssim": ("ssim", np.std),
               "mean_iterations": ("iterations", np.mean),
               "mean_nfe": ("nfe", np.mean)}
SWEEP_COLUMNS = ("beta", "sigma", "prior", "channel", *_AGGREGATES,
                 "num_trials", "num_errors")


# the largest sigma whose square is a finite float
_SIGMA_MAX = math.sqrt(sys.float_info.max)


def _noise_variance(sigma):
    """``sigma ** 2``; a sigma that is negative, NaN or above
    ``_SIGMA_MAX`` (its square would overflow) raises
    InvalidParameterError."""
    if not 0 <= sigma <= _SIGMA_MAX:
        raise InvalidParameterError(
            f"sigma must be in [0, {_SIGMA_MAX!r}], where its square is "
            f"finite, got {sigma}")
    return sigma ** 2


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid point: source, compression, channel, prior, loop knobs, seeds.

    A number or count of the wrong type, a number that is not finite, a beta
    outside (0, 1], a negative sigma or seed, a sigma whose square overflows,
    a count below 1 and an ``output_dir`` that is neither None nor a string
    raise InvalidParameterError; :class:`ReceiverConfig` checks the loop
    knobs (``max_iters``, ``tolerance``, ``divergence_seed``).
    """

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
        fields = vars(self)
        for key in ("beta", "sigma"):
            spec_numbers(fields[key], key, 0, "config")
        spec_integer(self.num_trials, "num_trials", 1, "config")
        for key in ("operator_seed", "channel_seed", "noise_seed"):
            spec_integer(fields[key], key, 0, "config")
        if self.output_dir is not None:
            spec_strings(self.output_dir, "output_dir", False, "config")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParameterError(f"beta must be in (0, 1], got {self.beta}")
        _noise_variance(self.sigma)
        # ReceiverConfig checks the loop knobs; receiver_config() would check
        # the offset seed, and True + 0 passes as 1
        ReceiverConfig(self.max_iters, self.tolerance, self.divergence_seed)

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

    def aggregate(self, column):
        """The ``SWEEP_COLUMNS`` aggregate ``column`` (``mean_psnr``, ...)
        over the trials with a finite value; NaN when there are none."""
        if column not in _AGGREGATES:
            raise InvalidParameterError(f"unknown aggregate column {column!r}")
        attr, reducer = _AGGREGATES[column]
        # a trial with a terminal annotation still counts if it delivered an
        # estimate
        vals = np.array([getattr(t, attr) for t in self.trials],
                        dtype=np.float64)
        vals = vals[np.isfinite(vals)]
        return float(reducer(vals)) if vals.size else float("nan")

    def trials_csv(self):
        return csv_text(TRIAL_COLUMNS, (
            [getattr(t, column) for column in TRIAL_COLUMNS]
            for t in self.trials))

    def aggregate_csv(self):
        return csv_text(SWEEP_COLUMNS, [self.sweep_row()])

    def sweep_row(self):
        """The report's ``SWEEP_COLUMNS`` cells, as CSV cell strings."""
        cfg = self.config
        return [csv_cell(value) for value in (
            float(cfg.beta), float(cfg.sigma), _kind(cfg.prior),
            _kind(cfg.channel), *map(self.aggregate, _AGGREGATES),
            len(self.trials), self.num_errors)]


def _kind(spec):
    """The ``kind`` of a spec dict, or ``?``."""
    return str(spec.get("kind", "?")) if isinstance(spec, dict) else "?"


def build_prior(spec):
    """Instantiate a denoiser prior from a spec dict, whose keys
    :data:`rmoamp.specs.PRIOR_KEYS` lists.

    A spec or ``predictor`` spec :func:`rmoamp.specs.read_spec` refuses, a
    bridge spec with neither ``argv`` nor ``host`` and ``port``, a negative
    predictor ``var0``, an unknown ``snr_kind`` (each found before a bridge
    is started), and a bridge that cannot be started or reached raise
    InvalidParameterError naming the key or the cause.
    """
    kind, values = read_spec(spec, PRIOR_KEYS, "prior", "analytic-gaussian")
    if kind == "analytic-gaussian":
        return AnalyticGaussianPrior(**values)
    if kind == "analytic-gauss-mixture":
        # the prior checks the shapes
        return GaussianMixturePrior(**values)
    if kind == "dct-soft-threshold":
        return DctSoftThresholdPrior()
    if kind == "ddim":
        predictor = _build_predictor(values["predictor"], kind)
        if "alpha_bar" in values:
            schedule = DdimSchedule(np.asarray(values["alpha_bar"]))
        else:
            schedule = default_ddim_schedule(
                values["num_steps"], values["alpha_start"], values["alpha_end"])
        return DdimPrior(predictor, schedule=schedule, mode=values["mode"])
    if kind == "flow-matching":
        return FlowMatchingPrior(_build_predictor(values["predictor"], kind),
                                 num_steps=values["num_steps"])
    # external-bridge; before a child or connection exists that an error
    # would leave open
    BridgePrior.check_snr_kind(values["snr_kind"])
    try:
        if "argv" in values:
            client = BridgeClient.spawn(values["argv"],
                                        timeout=values["timeout"])
        else:
            client = BridgeClient.connect(values["host"], values["port"],
                                          timeout=values["timeout"])
    except KeyError as exc:  # connect mode without a host or port
        raise InvalidParameterError(
            f"prior spec has no {exc.args[0]!r} key") from None
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot start the prior's bridge: {exc}") from None
    return BridgePrior(client, snr_kind=values["snr_kind"])


def _build_predictor(spec, sampler_kind):
    _, values = read_spec(spec, PREDICTOR_KEYS, "predictor", "gaussian")
    if values["var0"] < 0:
        raise InvalidParameterError(
            f"predictor spec 'var0' must be >= 0, got {values['var0']!r}")
    if sampler_kind == "ddim":
        return gaussian_eps_predictor(**values)
    return gaussian_velocity_predictor(**values)


def _resolve_output_dir(path):
    if path is None:
        return None
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        path = os.path.join(root, path)
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


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

    ``cfg.prior`` is a built prior, such as the one :func:`run_experiment`
    builds and closes; it is used as it is and left open.
    """
    t0 = time.perf_counter()
    source, op, ch, y = _transmission(cfg, trial)
    prior = cfg.prior
    nfe_before = getattr(prior, "eval_count", 0)
    estimate, trace = run_receiver(y, ch, op, prior,
                                   cfg.receiver_config(trial), truth=source)

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
                _write_text(out_dir, f"trace_trial{trial}.csv", trace.to_csv())
                _save_reconstruction(out_dir, trial, estimate)
    finally:
        _close_prior(prior)
    if out_dir is not None:
        _write_text(out_dir, "trials.csv", report.trials_csv())
        _write_text(out_dir, "aggregate.csv", report.aggregate_csv())
    return report


def baseline_psnr(cfg, trial=0):
    """PSNR of the one-shot linear reconstruction under the same seeds."""
    source, op, ch, y = _transmission(cfg, trial)
    estimate, _ = lmmse_baseline(y, ch, op, truth=source)
    return psnr(source.values, estimate.values)


def sweep(grid, output_dir=None):
    """Run every grid point and consolidate one CSV row per point.

    Points are ordered by beta, then channel spec and channel seed, then
    sigma, ties keeping grid order.  Points that differ only in sigma
    therefore run back to back, also in a grid that mixes channel kinds at
    one rate, and share one channel build (see
    :func:`rmoamp.channel.build_channel`).  A failed point contributes a row
    with NaN aggregates rather than aborting the sweep.  Returns (csv_text,
    reports).
    """
    if not grid:
        raise InvalidParameterError("sweep grid is empty")

    def order_key(i):
        cfg = grid[i]
        return (cfg.beta, channel_mod.spec_key(cfg.channel), cfg.channel_seed,
                cfg.sigma, i)

    reports = [run_experiment(grid[i])
               for i in sorted(range(len(grid)), key=order_key)]
    text = csv_text(SWEEP_COLUMNS, (r.sweep_row() for r in reports))
    if output_dir is not None:
        _write_text(_resolve_output_dir(output_dir), "sweep.csv", text)
    return text, reports
