"""Divergence correction for plug-in denoisers.

The raw denoiser output phi(s_in) is correlated with the noise in its input,
which breaks the orthogonality the outer loop relies on.  The corrected
estimate

    phi_perp = phi(s_in) - divergence * s_in

removes the component aligned with the input, where ``divergence`` is the
normalized divergence (1/N) sum_i d phi_i / d s_in_i.  For black-box priors
the divergence is estimated with a single Monte Carlo probe.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameterError
from .priors import denoise

__all__ = ["SureResult", "mc_divergence", "sure_orthogonalize", "probe_scale"]


def probe_scale(v):
    """Finite-difference step 1e-3 * sqrt(v), floored at 1e-8."""
    return max(1e-3 * np.sqrt(max(v, 0.0)), 1e-8)


@lru_cache(maxsize=8)
def _probe(seed, n):
    """The common-random-numbers probe w ~ N(0, I_n) for ``seed``, read-only:
    a receiver run draws the same one at every iteration."""
    w = np.random.Generator(np.random.Philox(seed)).standard_normal(n)
    w.flags.writeable = False
    return w


def mc_divergence(prior, s_in, t_star, v, seed=0, phi0=None):
    """One-probe Monte Carlo estimate of the normalized divergence.

    Draws w ~ N(0, I) and returns <w, phi(s_in + eps*w) - phi(s_in)> / (eps*N)
    with eps = ``probe_scale(v)``.  Pass ``phi0`` to reuse an already computed
    phi(s_in) and save one denoiser call.  Deterministic in the integer
    ``seed``; the probe for each ``(seed, N)`` is drawn once and cached.
    """
    s_in = np.asarray(s_in, dtype=np.float64)
    n = s_in.size
    if n == 0:
        raise InvalidParameterError("empty input")
    eps = probe_scale(v)
    w = _probe(seed, n)
    if phi0 is None:
        phi0 = denoise(prior, s_in, t_star, v)
    phi1 = denoise(prior, s_in + eps * w, t_star, v)
    return float(np.dot(w, phi1 - phi0) / (eps * n))


@dataclass(frozen=True)
class SureResult:
    """Denoiser output with its divergence and the corrected estimate."""

    phi_out: np.ndarray
    divergence: float
    phi_perp: np.ndarray


def sure_orthogonalize(phi_out, divergence, s_in):
    """Subtract the input-aligned component: phi_perp = phi_out - div * s_in."""
    phi_out = np.asarray(phi_out, dtype=np.float64)
    s_in = np.asarray(s_in, dtype=np.float64)
    phi_perp = phi_out - float(divergence) * s_in
    return SureResult(phi_out=phi_out, divergence=float(divergence),
                      phi_perp=phi_perp)
