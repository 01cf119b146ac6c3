"""Source signals: image loading and seeded synthetic generators.

Images follow a [0, 1] range convention with row-major flattening of
height x width (x channels).  Synthetic sources are deterministic given
their seed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameterError
from .fileio import read_matrix, read_pgm, write_pgm

__all__ = [
    "SourceSignal",
    "load_source",
    "synthetic_gaussian",
    "synthetic_gauss_mixture",
    "synthetic_piecewise_constant",
    "save_source_pgm",
]


@dataclass(frozen=True)
class SourceSignal:
    """Flattened source vector plus its declared geometry (None for 1-D)."""

    values: np.ndarray
    shape: Optional[tuple] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise InvalidParameterError("source values must be a 1-D vector")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("source values must be finite")
        if self.shape is not None and int(np.prod(self.shape)) != vals.size:
            raise InvalidParameterError(
                f"shape {self.shape} does not match {vals.size} values")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return self.values.size

    def image(self):
        if self.shape is None:
            raise InvalidParameterError("source has no image geometry")
        return self.values.reshape(self.shape)


def synthetic_gaussian(n, seed, mean=0.0, std=1.0):
    rng = np.random.Generator(np.random.Philox(seed))
    return SourceSignal(mean + std * rng.standard_normal(n))


def synthetic_gauss_mixture(n, seed, weights, means, stds):
    """i.i.d. draws from a scalar Gaussian mixture."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0) or not np.isclose(weights.sum(), 1.0):
        raise InvalidParameterError(
            "mixture weights must be >= 0 and sum to 1")
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
    for key, values in (("means", means), ("stds", stds)):
        if values.shape != weights.shape:
            raise InvalidParameterError(
                f"mixture {key!r} must have one entry per weight: "
                f"{values.size} for {weights.size}")
    rng = np.random.Generator(np.random.Philox(seed))
    comp = rng.choice(weights.size, size=n, p=weights)
    return SourceSignal(means[comp] + stds[comp] * rng.standard_normal(n))


def synthetic_piecewise_constant(n, seed, num_pieces):
    """1-D piecewise-constant signal with uniform [0,1] levels."""
    if not 1 <= num_pieces <= n:
        raise InvalidParameterError("need 1 <= num_pieces <= n")
    rng = np.random.Generator(np.random.Philox(seed))
    edges = np.sort(rng.permutation(n - 1)[:num_pieces - 1] + 1)
    levels = rng.uniform(0.0, 1.0, size=num_pieces)
    values = np.empty(n)
    bounds = np.concatenate(([0], edges, [n]))
    for k in range(num_pieces):
        values[bounds[k]:bounds[k + 1]] = levels[k]
    return SourceSignal(values)


def load_source(spec):
    """Build a SourceSignal from a path or a spec dict.

    A plain string is treated as a file path; ``.pgm`` files load as 8-bit
    grayscale mapped to [0,1], anything else is read as an OAMPMAT1 tensor.
    A dict selects a synthetic generator by ``kind``:

        {"kind": "gaussian", "n": ..., "seed": ..., "mean": ..., "std": ...}
        {"kind": "gauss-mixture", "n", "seed", "weights", "means", "stds"}
        {"kind": "piecewise-constant", "n", "seed", "num_pieces"}
        {"kind": "pgm" | "matrix", "path": ...}

    A spec without one of its kind's keys, a file that cannot be opened, a
    count or seed that is not a nonnegative integer (``n`` and
    ``num_pieces`` at least 1), a ``mean`` or ``std`` that is not a finite
    number, ``weights``, ``means`` and ``stds`` that are not lists of finite
    numbers of one length, negative ``weights``, and a source that is neither
    a string nor a dict raise InvalidParameterError naming the key or path.
    """
    if isinstance(spec, str):
        spec = {"kind": "pgm" if spec.endswith(".pgm") else "matrix",
                "path": spec}
    if not isinstance(spec, dict):
        raise InvalidParameterError(
            f"source must be a path or a spec dict, got {spec!r}")
    try:
        return _from_spec(spec)
    except KeyError as exc:
        raise InvalidParameterError(
            f"source spec has no {exc.args[0]!r} key") from None
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot read source {spec['path']!r}: {exc.strerror or exc}"
        ) from None


def spec_integer(spec, key, low, default=None, label="source spec"):
    """``spec[key]``, or ``default`` when given and the key is absent, when
    it is an integer >= ``low``; ``label`` names the spec in the error."""
    value = spec[key] if default is None else spec.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise InvalidParameterError(
            f"{label} {key!r} must be an integer >= {low}, got {value!r}")
    return int(value)


def spec_numbers(spec, key, ndim, default=None, label="source spec"):
    """``spec[key]``, or ``default`` when given and the key is absent, when
    it is a finite number (``ndim`` 0), a flat list of finite numbers
    (``ndim`` 1) or finite numbers of any shape (``ndim`` None); ``label``
    names the spec in the error."""
    value = spec[key] if default is None else spec.get(key, default)
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = None
    if (array is None or array.dtype.kind not in "iuf"
            or ndim not in (None, array.ndim)):
        what = {0: "a number", 1: "a list of numbers", None: "numbers"}[ndim]
        raise InvalidParameterError(
            f"{label} {key!r} must be {what}, got {value!r}")
    if not np.all(np.isfinite(array)):
        raise InvalidParameterError(
            f"{label} {key!r} must be finite, got {value!r}")
    return value


def _from_spec(spec):
    kind = spec["kind"]
    if kind == "pgm":
        img, maxval = read_pgm(spec["path"])
        return SourceSignal(img.astype(np.float64).ravel() / maxval,
                            shape=img.shape)
    if kind == "matrix":
        mat = read_matrix(spec["path"])
        return SourceSignal(mat.ravel(), shape=mat.shape)
    if kind == "gaussian":
        return synthetic_gaussian(spec_integer(spec, "n", 1),
                                  spec_integer(spec, "seed", 0),
                                  mean=spec_numbers(spec, "mean", 0, 0.0),
                                  std=spec_numbers(spec, "std", 0, 1.0))
    if kind == "gauss-mixture":
        return synthetic_gauss_mixture(spec_integer(spec, "n", 1),
                                       spec_integer(spec, "seed", 0),
                                       spec_numbers(spec, "weights", 1),
                                       spec_numbers(spec, "means", 1),
                                       spec_numbers(spec, "stds", 1))
    if kind == "piecewise-constant":
        return synthetic_piecewise_constant(
            spec_integer(spec, "n", 1), spec_integer(spec, "seed", 0),
            spec_integer(spec, "num_pieces", 1))
    raise InvalidParameterError(f"unknown source kind {kind!r}")


def save_source_pgm(source, path):
    """Write a source with H x W geometry back to an 8-bit PGM."""
    write_pgm(path, source.image())
