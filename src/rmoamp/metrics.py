"""Reconstruction quality metrics: PSNR and SSIM."""

import numpy as np

from .errors import InvalidDimensionError

__all__ = ["psnr", "ssim", "PSNR_CEILING", "gaussian_window"]

# finite stand-in for infinite PSNR on exact recovery; keeps CSVs numeric
PSNR_CEILING = 99.0


def psnr(truth, estimate):
    """Peak signal-to-noise ratio 10 log10(1 / MSE) in dB at unit peak.

    Zero MSE (and anything above it) reports ``PSNR_CEILING``.
    """
    truth = np.asarray(truth, dtype=np.float64).ravel()
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    if truth.shape != estimate.shape:
        raise InvalidDimensionError(
            f"length mismatch: {truth.size} vs {estimate.size}")
    return _psnr_of_mse(float(np.mean((truth - estimate) ** 2)))


def _psnr_of_mse(mse):
    """``10 log10(1 / mse)`` in dB, capped at ``PSNR_CEILING`` (zero MSE
    included): the one MSE-to-dB map of :func:`psnr` and the receiver's
    trace."""
    if mse == 0.0:
        return PSNR_CEILING
    return float(min(10.0 * np.log10(1.0 / mse), PSNR_CEILING))


def _gaussian_kernel(size, sigma):
    """Normalized 1-D Gaussian of ``size`` taps; its outer product with
    itself is :func:`gaussian_window`."""
    coords = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-coords ** 2 / (2.0 * sigma * sigma))
    return g / g.sum()


def gaussian_window(size=11, sigma=1.5):
    """Normalized 2-D Gaussian kernel used by :func:`ssim`."""
    g = _gaussian_kernel(size, sigma)
    return np.outer(g, g)


def _filter_valid(images, g):
    """Separable "valid" filtering of a stack of images over its last two
    axes: one pass of the 1-D kernel ``g`` along the last axis, then one
    along the axis before it.  ``g`` is symmetric, so this correlation is
    also the convolution."""
    window = np.lib.stride_tricks.sliding_window_view
    rows = window(images, g.size, axis=-1) @ g
    return window(rows, g.size, axis=-2) @ g


def ssim(truth, estimate):
    """Mean structural similarity between two 2-D images in [0, 1].

    Local statistics use an 11x11 Gaussian window (sigma 1.5) over valid
    positions.  The window is separable, so the five local moments are
    filtered together with numpy alone, one 1-D pass along each axis.
    Images smaller than the window fall back to a single SSIM over global
    statistics.
    """
    x = np.asarray(truth, dtype=np.float64)
    y = np.asarray(estimate, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise InvalidDimensionError("ssim expects 2-D images")
    if x.shape != y.shape:
        raise InvalidDimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    # (k1 L)^2 and (k2 L)^2 at k1 = 0.01, k2 = 0.03 and peak L = 1
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    g = _gaussian_kernel(11, 1.5)

    if min(x.shape) < g.size:
        mu_x, mu_y = x.mean(), y.mean()
        var_x, var_y = x.var(), y.var()
        cov = float(np.mean((x - mu_x) * (y - mu_y)))
        return float((2 * mu_x * mu_y + c1) * (2 * cov + c2)
                     / ((mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)))

    mu_x, mu_y, xx, yy, xy = _filter_valid(
        np.stack((x, y, x * x, y * y, x * y)), g)
    var_x = xx - mu_x ** 2
    var_y = yy - mu_y ** 2
    cov = xy - mu_x * mu_y
    ssim_map = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)
                / ((mu_x ** 2 + mu_y ** 2 + c1) * (var_x + var_y + c2)))
    return float(ssim_map.mean())
