"""Pluggable denoisers for the nonlinear half of the receiver.

A prior is any object with

* ``snr_kind`` -- ``None`` for analytic denoisers that consume the noise
  variance directly, or ``"ddim"`` / ``"flow-matching"`` for samplers whose
  operating point is selected by :func:`rmoamp.diffusion.snr_match`;
* ``eval_count`` -- running number of predictor-network invocations (stays 0
  for analytic priors);
* ``denoise(s_in, t_star, v)`` -- returns a same-length estimate of the clean
  signal given a pseudo-AWGN observation ``s_in = s + sqrt(v) * eps``.

Analytic priors return the exact posterior mean for their model and are pure
and reentrant.
"""

import numpy as np

from .errors import InvalidParameterError, NleError

__all__ = [
    "denoise",
    "AnalyticGaussianPrior",
    "GaussianMixturePrior",
    "DctSoftThresholdPrior",
]

# variance floor inside mixture responsibilities; only reached for a
# point-mass component observed at zero noise
_VAR_TINY = 1e-30


def denoise(prior, s_in, t_star, v):
    """Evaluate a prior's denoiser and validate the output.

    Raises NleError if the denoiser returns non-finite values or the wrong
    length.  Bridge faults from external priors propagate as BridgeError
    (a subclass of NleError).
    """
    s_in = np.asarray(s_in, dtype=np.float64)
    out = np.asarray(prior.denoise(s_in, t_star, v), dtype=np.float64)
    if out.shape != s_in.shape:
        raise NleError(f"denoiser returned shape {out.shape}, "
                       f"expected {s_in.shape}")
    if not np.all(np.isfinite(out)):
        raise NleError("denoiser returned non-finite values")
    return out


class AnalyticGaussianPrior:
    """Scalar Gaussian prior N(mean, var0); the posterior mean is the Wiener
    estimate ``mean + gain * (s_in - mean)`` with gain var0 / (var0 + v).

    ``var0 = 0`` is the point-mass prior: the output is ``mean`` regardless
    of the observation.
    """

    snr_kind = None
    eval_count = 0

    def __init__(self, mean=0.0, var0=1.0):
        if not var0 >= 0:  # NaN too
            raise InvalidParameterError("prior variance must be >= 0")
        self.mean = float(mean)
        self.var0 = float(var0)

    def gain(self, v):
        total = self.var0 + v
        return self.var0 / total if total > 0 else 0.0

    def denoise(self, s_in, t_star, v):
        return self.mean + self.gain(v) * (np.asarray(s_in) - self.mean)


class GaussianMixturePrior:
    """i.i.d. scalar Gaussian-mixture prior; returns the exact per-coordinate
    posterior mean under ``s_in = s + sqrt(v) * eps``.
    """

    snr_kind = None
    eval_count = 0

    def __init__(self, weights, means, variances):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)
        shape = self.weights.shape
        if (len(shape) != 1 or shape[0] < 1
                or not shape == self.means.shape == self.variances.shape):
            raise InvalidParameterError(
                "mixture parameters must be 1-D vectors of one common "
                "length >= 1")
        if np.any(self.weights < 0) or not np.isclose(self.weights.sum(), 1.0):
            raise InvalidParameterError("mixture weights must be >= 0 and sum to 1")
        if not np.all(self.variances >= 0):  # NaN too
            raise InvalidParameterError("mixture variances must be >= 0")

    def denoise(self, s_in, t_star, v):
        # component-major (K, n): numpy reduces down K rows at full speed,
        # where an axis-1 reduce of (n, K) pays a per-row overhead
        z = np.asarray(s_in, dtype=np.float64)[np.newaxis, :]
        means = self.means[:, np.newaxis]
        total_var = np.maximum(self.variances + v, _VAR_TINY)[:, np.newaxis]
        with np.errstate(divide="ignore"):
            # a zero weight is -inf: that component is never responsible
            log_weights = np.log(self.weights)[:, np.newaxis]
        log_resp = (log_weights - 0.5 * np.log(total_var)
                    - 0.5 * (z - means) ** 2 / total_var)
        # unnormalized responsibilities: one softmax down the components,
        # shifted so each column's largest is exp(0) = 1
        resp = np.exp(log_resp - log_resp.max(axis=0))
        gain = self.variances[:, np.newaxis] / total_var
        comp_mean = means + gain * (z - means)
        return np.sum(resp * comp_mean, axis=0) / np.sum(resp, axis=0)


def universal_threshold(v, n):
    """VisuShrink-style threshold sqrt(2 ln(n) * v)."""
    return np.sqrt(2.0 * np.log(max(n, 2)) * max(v, 0.0))


class DctSoftThresholdPrior:
    """Sparsity prior: soft-threshold the DCT coefficients of the input.

    The DC coefficient is passed through untouched.  The threshold is the
    universal threshold sqrt(2 ln(n) v).  :mod:`rmoamp.rm_operator`, which
    holds the DCT, is imported on first use.
    """

    snr_kind = None
    eval_count = 0

    def denoise(self, s_in, t_star, v):
        from .rm_operator import dct_transform

        c = dct_transform(np.asarray(s_in, dtype=np.float64))
        lam = float(universal_threshold(v, c.size))
        soft = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        soft[0] = c[0]
        return dct_transform(soft, inverse=True)
