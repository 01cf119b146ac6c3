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
from .specs import SOURCE_KEYS, read_spec


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
    if std < 0:
        raise InvalidParameterError(f"'std' must be >= 0, got {std!r}")
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
    if np.any(stds < 0):
        raise InvalidParameterError(
            f"mixture 'stds' must be >= 0, got {stds.tolist()}")
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


_GENERATORS = {"gaussian": synthetic_gaussian,
               "gauss-mixture": synthetic_gauss_mixture,
               "piecewise-constant": synthetic_piecewise_constant}


def load_source(spec):
    """Build a SourceSignal from a path or a spec dict.

    A plain string is a file path: ``.pgm`` files load as 8-bit grayscale
    mapped to [0,1], anything else as an OAMPMAT1 tensor.  A dict takes the
    keys :data:`rmoamp.specs.SOURCE_KEYS` lists for its ``kind``.  A spec
    :func:`rmoamp.specs.read_spec` refuses, a file that cannot be opened,
    mixture lists of unequal length or negative ``weights``, and a source
    that is neither a string nor a dict raise InvalidParameterError.
    """
    if isinstance(spec, str):
        spec = {"kind": "pgm" if spec.endswith(".pgm") else "matrix",
                "path": spec}
    if not isinstance(spec, dict):
        raise InvalidParameterError(
            f"source must be a path or a spec dict, got {spec!r}")
    kind, values = read_spec(spec, SOURCE_KEYS, "source")
    if kind in _GENERATORS:
        return _GENERATORS[kind](**values)
    try:
        if kind == "pgm":
            img, maxval = read_pgm(values["path"])
            return SourceSignal(img.astype(np.float64).ravel() / maxval,
                                shape=img.shape)
        mat = read_matrix(values["path"])
    except OSError as exc:
        raise InvalidParameterError(
            f"cannot read source {values['path']!r}: {exc.strerror or exc}"
        ) from None
    return SourceSignal(mat.ravel(), shape=mat.shape)


def save_source_pgm(source, path):
    """Write a source with H x W geometry back to an 8-bit PGM."""
    write_pgm(path, source.image())
