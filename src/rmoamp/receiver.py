"""Iterative receiver: LMMSE estimation, orthogonalization, prior-driven
denoising with divergence correction, and posterior rescaling.

The outer loop alternates two halves.  The linear half computes the LMMSE
posterior of the channel input x given the observation y and a Gaussian
pseudo-prior, then extracts the extrinsic (orthogonalized) message so the
two halves exchange errors that stay decorrelated.  The nonlinear half maps
the extrinsic estimate back to the signal domain, treats it as a pseudo-AWGN
observation of the source, runs the plug-in denoiser at the matched noise
level, removes the input-aligned component of the output, and rescales the
result into a new Gaussian pseudo-prior via a posterior correction.

All messages carry a scalar variance.  Variances are clamped from below at
``VARIANCE_FLOOR`` anywhere they could reach zero, because the
orthogonalization step divides by them.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateNleError, InvalidDimensionError,
                     InvalidMessageError, InvalidParameterError, NleError,
                     NoInformationError, RmOampError, SingularSystemError)
from .diffusion import snr_match
from .fileio import csv_text
# psnr stays a module attribute: perfbench's tracer wraps
# rmoamp.receiver.psnr, although the trace takes its PSNR from the MSE
from .metrics import _psnr_of_mse, psnr  # noqa: F401
from .priors import denoise
from .rm_operator import rm_forward, rm_inverse
from .sources import SourceSignal
from .sure import mc_divergence, sure_orthogonalize

__all__ = [
    "GaussMessage",
    "ReceiverConfig",
    "IterationRecord",
    "IterationTrace",
    "init_state",
    "lmmse_estimate",
    "orthogonalize",
    "mmse_correction",
    "CorrectedMessage",
    "check_convergence",
    "run_receiver",
    "lmmse_baseline",
    "TRACE_COLUMNS",
    "VARIANCE_FLOOR",
]

TRACE_COLUMNS = ("iter", "v_pri", "v_post", "v_orth", "t_star", "psnr",
                 "residual", "fault")

# lower clamp on every variance the loop divides by
VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class GaussMessage:
    """A Gaussian belief: vector mean plus one scalar variance."""

    mean: np.ndarray
    variance: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.ndim != 1:
            raise InvalidMessageError("mean must be a 1-D vector")
        if not np.isfinite(mean).all():
            raise InvalidMessageError("mean must be finite")
        v = float(self.variance)
        if not np.isfinite(v) or v < 0:
            raise InvalidMessageError(f"variance must be finite and >= 0, got {v}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", v)

    @property
    def n(self):
        return self.mean.size


@dataclass(frozen=True)
class ReceiverConfig:
    """Knobs for the outer loop.

    divergence_seed feeds the Monte Carlo probe.  The same probe is reused
    on every iteration (common random numbers), so the outer loop sees a
    fixed map and can settle instead of jittering around its fixed point.
    """

    max_iters: int = 12
    tolerance: float = 1e-4
    divergence_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be >= 1")
        if not self.tolerance > 0:  # NaN too
            raise InvalidParameterError("tolerance must be > 0")


@dataclass(frozen=True)
class IterationRecord:
    """One outer-loop iteration's scalars; fault notes a recovered NLE error."""

    iteration: int
    v_pri: float
    v_post: float
    v_orth: float
    t_star: float
    psnr: float
    residual: float
    fault: str = None


@dataclass
class IterationTrace:
    """Per-iteration history plus an optional terminal error annotation."""

    records: list = field(default_factory=list)
    error: str = None

    def __len__(self):
        return len(self.records)

    def column(self, name):
        if name not in TRACE_COLUMNS:
            raise InvalidParameterError(f"unknown trace column {name!r}")
        attr = "iteration" if name == "iter" else name
        return np.array([getattr(r, attr) for r in self.records])

    def to_csv(self):
        """One row per record; ``fault`` is empty on a clean iteration."""
        return csv_text(TRACE_COLUMNS, (
            [r.iteration, *map(float, (r.v_pri, r.v_post, r.v_orth, r.t_star,
                                       r.psnr, r.residual)), r.fault]
            for r in self.records))


def init_state(y, n=None):
    """Zero-mean starting belief with variance ||y||^2 / M.

    ``n`` sets the mean length when the channel input is not the same length
    as the observation; default is len(y).  An all-zero observation clamps
    the variance to the floor and warns.
    """
    y = np.asarray(y, dtype=np.float64)
    m = y.size
    if m < 1:
        raise InvalidDimensionError("observation must be non-empty")
    variance = float(np.dot(y, y) / m)
    if variance == 0.0:
        warnings.warn("all-zero observation: initial variance clamped",
                      RuntimeWarning, stacklevel=2)
        variance = VARIANCE_FLOOR
    size = n if n is not None else m
    return GaussMessage(mean=np.zeros(size), variance=variance)


def lmmse_estimate(ch, prior, y, r=None):
    """Gaussian posterior of the channel input given y and a Gaussian prior.

    mean = x_pri + v A^T (sigma^2 I + v A A^T)^{-1} (y - A x_pri), where
    ``ch.gain(v, r)`` applies A^T (sigma^2 I + v A A^T)^{-1} to the misfit
    r = y - A x_pri.  A caller that already holds that misfit passes it as
    ``r``, saving a channel apply; by default it is computed.  The scalar
    variance is tr(V_post) / m, taken over the singular spectrum ``ch.s``;
    directions outside the row space keep the prior variance v.
    """
    y = np.asarray(y, dtype=np.float64)
    v = prior.variance
    sigma2 = ch.sigma2
    if sigma2 == 0.0 and v == 0.0:
        raise SingularSystemError("sigma^2 = 0 with zero prior variance")
    if v <= 0.0:
        raise InvalidMessageError(f"prior variance must be > 0, got {v}")
    if y.size != ch.m_rows or prior.n != ch.n_cols:
        raise InvalidDimensionError(
            f"shape mismatch: y has {y.size}, prior has {prior.n}, "
            f"channel is {ch.m_rows}x{ch.n_cols}")

    if r is None:
        r = y - ch.apply(prior.mean)
    mean = prior.mean + v * ch.gain(v, r)

    s = ch.s
    denom = sigma2 + v * s * s
    safe = np.where(denom > 0.0, denom, 1.0)
    per_mode = np.where(denom > 0.0, v - (v * v) * (s * s) / safe, v)
    trace = float(np.sum(per_mode)) + (ch.n_cols - s.size) * v
    variance = max(trace / ch.m_rows, VARIANCE_FLOOR)
    return GaussMessage(mean=mean, variance=variance)


def orthogonalize(post, prior):
    """Extrinsic message: remove the prior's contribution from the posterior.

    v_orth = (1/v_post - 1/v_pri)^{-1} and
    mean = v_orth (x_post/v_post - x_pri/v_pri).  Requires strict variance
    reduction; otherwise raises NoInformationError.
    """
    v_post = max(post.variance, VARIANCE_FLOOR)
    v_pri = prior.variance
    if v_post >= v_pri:
        raise NoInformationError(
            f"posterior variance {v_post} did not improve on prior {v_pri}")
    v_orth = 1.0 / (1.0 / v_post - 1.0 / v_pri)
    mean = v_orth * (post.mean / v_post - prior.mean / v_pri)
    return GaussMessage(mean=mean, variance=v_orth)


@dataclass(frozen=True)
class CorrectedMessage(GaussMessage):
    """A corrected pseudo-prior; ``misfit`` is y - A mean and ``residual``
    its squared norm."""

    residual: float = float("nan")
    misfit: np.ndarray = None


def mmse_correction(x_tilde, x_orth, ch, y):
    """Rescale the denoised estimate into a new Gaussian pseudo-prior.

    The scale beta* = <x_tilde, x_orth> / ||x_tilde||^2 projects x_orth onto
    the denoiser output's direction; the new variance is the mean squared
    channel residual of the rescaled mean, clamped below at VARIANCE_FLOOR.
    """
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    energy = float(np.dot(x_tilde, x_tilde))
    if energy == 0.0:
        raise DegenerateNleError("denoiser output is identically zero")
    beta = float(np.dot(x_tilde, x_orth)) / energy
    return _residual_message(ch, beta * x_tilde, y)


def _residual_message(ch, mean, y):
    # the one channel apply of an iteration: the trace and the next LMMSE
    # step reuse the misfit
    misfit = y - ch.apply(mean)
    residual = float(np.dot(misfit, misfit))
    return CorrectedMessage(mean=mean,
                            variance=max(residual / ch.m_rows, VARIANCE_FLOOR),
                            residual=residual, misfit=misfit)


def check_convergence(prev_mean, new_mean, tolerance):
    """True when ||new - prev|| / max(||prev||, floor) drops below tolerance."""
    prev_mean = np.asarray(prev_mean, dtype=np.float64)
    new_mean = np.asarray(new_mean, dtype=np.float64)
    if prev_mean.shape != new_mean.shape:
        raise InvalidDimensionError("mean length mismatch")
    denom = max(float(np.linalg.norm(prev_mean)), VARIANCE_FLOOR)
    return float(np.linalg.norm(new_mean - prev_mean)) / denom < tolerance


def run_receiver(y, ch, op, prior, cfg=None, truth=None):
    """Full iterative reconstruction; returns (estimate, trace).

    Each iteration: LMMSE posterior -> extrinsic message -> signal-domain
    pseudo-AWGN observation -> matched denoiser with Monte Carlo divergence
    correction -> back-projection -> posterior rescaling -> convergence
    check.  A denoiser fault (any :class:`NleError`: a bridge failure,
    non-finite or zero output, a sampler state gone non-finite) makes the
    extrinsic message the iteration's new mean and is noted on the trace
    record.  Any other stage error ends the loop gracefully; the best
    estimate so far is returned with the error annotated on the trace.  The
    final estimate is the zero-filled back-transform of the last corrected
    mean.

    With ``truth`` given, each record's PSNR is that of the back-transform
    of the iteration's mean, taken in the channel-input domain: ``op`` has
    orthonormal rows, so ``||s - op^T x||^2`` is ``||op s - x||^2`` plus
    the band ``op`` drops, ``||s||^2 - ||op s||^2``, computed once.
    """
    if cfg is None:
        cfg = ReceiverConfig()
    y = np.asarray(y, dtype=np.float64)
    if ch.n_cols != op.shape[0]:
        raise InvalidDimensionError(
            f"channel expects {ch.n_cols} inputs, operator outputs "
            f"{op.shape[0]}")
    trace = IterationTrace()
    state = init_state(y, n=ch.n_cols)
    # y - A mean of the current state; the cold-start mean is zero
    misfit = y
    x_true = None
    if truth is not None:
        s_true = truth.values
        x_true = rm_forward(op, s_true)
        band = max(float(np.dot(s_true, s_true))
                   - float(np.dot(x_true, x_true)), 0.0)
    kind = getattr(prior, "snr_kind", None)

    for it in range(1, cfg.max_iters + 1):
        v_pri = state.variance
        if it > 1 and v_pri <= VARIANCE_FLOOR:
            # residual already at the floor: nothing left to gain
            break
        fault = None
        try:
            post = lmmse_estimate(ch, state, y, r=misfit)
            orth = orthogonalize(post, state)
            s_in = rm_inverse(op, orth.mean)
            v_orth = orth.variance
            t_star = (snr_match(v_orth, kind) if kind is not None
                      else float("nan"))
            phi0 = denoise(prior, s_in, t_star, v_orth)
            div = mc_divergence(prior, s_in, t_star, v_orth,
                                seed=cfg.divergence_seed, phi0=phi0)
            s_est = sure_orthogonalize(phi0, div, s_in).phi_perp
            new_state = mmse_correction(rm_forward(op, s_est), orth.mean,
                                        ch, y)
        except NleError as exc:
            # raised only after orthogonalize: keep the extrinsic estimate
            fault = f"nle fault: {exc}"
            new_state = _residual_message(ch, orth.mean, y)
        except RmOampError as exc:
            trace.error = f"iteration {it}: {exc}"
            break

        iter_psnr = float("nan")
        if x_true is not None:
            err = x_true - new_state.mean
            iter_psnr = _psnr_of_mse(
                (band + float(np.dot(err, err))) / s_true.size)
        trace.records.append(IterationRecord(
            iteration=it, v_pri=v_pri, v_post=post.variance, v_orth=v_orth,
            t_star=t_star, psnr=iter_psnr,
            residual=new_state.residual, fault=fault))

        converged = check_convergence(state.mean, new_state.mean,
                                      cfg.tolerance)
        state, misfit = new_state, new_state.misfit
        if converged:
            break

    s_hat = rm_inverse(op, state.mean)
    shape = truth.shape if truth is not None else None
    return SourceSignal(values=s_hat, shape=shape), trace


def lmmse_baseline(y, ch, op, cfg=None, truth=None):
    """One-shot linear reconstruction: LMMSE from the cold-start belief.

    The denoiser-free reference point: same initialization and linear
    estimator as :func:`run_receiver`, no outer loop.  ``cfg`` keeps the
    two call shapes alike; none of its fields changes the estimate.
    """
    y = np.asarray(y, dtype=np.float64)
    state = init_state(y, n=ch.n_cols)
    # the cold-start mean is zero, so the misfit is y itself
    post = lmmse_estimate(ch, state, y, r=y)
    s_hat = rm_inverse(op, post.mean)
    shape = truth.shape if truth is not None else None
    return SourceSignal(values=s_hat, shape=shape), post
