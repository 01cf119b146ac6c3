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


def _logsumexp_rows(a):
    """``log(sum(exp(a), axis=0))`` for a 2-D array, kept as a row.

    Component-major: ``a`` is ``(K, n)``, one row per mixture component, and
    the reduction runs down the rows.  The arithmetic is that of
    ``scipy.special.logsumexp(a.T, axis=1, keepdims=True)``: with ``mx`` the
    column maximum and ``count`` how many entries attain it, the result is
    ``log1p(rest / count) + log(count) + mx``, where ``rest`` sums
    ``exp(a - mx)`` over the other entries; a column where that is not
    finite falls back to ``log(sum(exp(a)))``.  numpy adds the rows of a
    C-contiguous array one after another, as it adds up to 7 entries of a
    contiguous row, so for K <= 7 the two agree to the bit; from 8
    components on scipy's pairwise sum groups the entries differently and
    the results differ by a few ulp.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mx = np.max(a, axis=0, keepdims=True)
        is_max = a == mx
        count = np.sum(is_max, axis=0, keepdims=True, dtype=a.dtype)
        rest = np.exp(np.where(is_max, -np.inf, a) - mx)
        rest = np.sum(rest, axis=0, keepdims=True, dtype=rest.dtype)
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + mx
        finite = np.isfinite(out)
        if not finite.all():
            naive = np.log(np.sum(np.exp(a), axis=0, keepdims=True))
            out = np.where(finite, out, naive)
    return out


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
        if var0 < 0:
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
        if np.any(self.variances < 0):
            raise InvalidParameterError("mixture variances must be >= 0")

    def denoise(self, s_in, t_star, v):
        # component-major (K, n): numpy reduces down K rows at full speed,
        # where an axis-1 reduce of (n, K) pays a per-row overhead
        z = np.asarray(s_in, dtype=np.float64)[np.newaxis, :]
        means = self.means[:, np.newaxis]
        total_var = np.maximum(self.variances + v, _VAR_TINY)[:, np.newaxis]
        log_resp = (np.log(np.maximum(self.weights, _VAR_TINY))[:, np.newaxis]
                    - 0.5 * np.log(total_var)
                    - 0.5 * (z - means) ** 2 / total_var)
        log_resp -= _logsumexp_rows(log_resp)
        resp = np.exp(log_resp)
        gain = self.variances[:, np.newaxis] / total_var
        comp_mean = means + gain * (z - means)
        return np.sum(resp * comp_mean, axis=0)


def universal_threshold(v, n):
    """VisuShrink-style threshold sqrt(2 ln(n) * v)."""
    return np.sqrt(2.0 * np.log(max(n, 2)) * max(v, 0.0))


class DctSoftThresholdPrior:
    """Sparsity prior: soft-threshold the DCT coefficients of the input.

    The DC coefficient is passed through untouched.  ``rule(v, n)`` maps the
    noise variance and length to the threshold; the default is the universal
    threshold sqrt(2 ln(n) v).  :mod:`rmoamp.rm_operator`, which holds the
    DCT, is imported on first use.
    """

    snr_kind = None
    eval_count = 0

    def __init__(self, rule=universal_threshold):
        self.rule = rule

    def denoise(self, s_in, t_star, v):
        from .rm_operator import dct_transform

        c = dct_transform(np.asarray(s_in, dtype=np.float64))
        lam = float(self.rule(v, c.size))
        soft = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        soft[0] = c[0]
        return dct_transform(soft, inverse=True)
