"""Linear channel generators and transmission.

Channels are stored by their SVD factors rather than as dense matrices: the
linear estimator in :mod:`rmoamp.receiver` diagonalizes in the singular basis,
so keeping ``(U, sigma, V^T)`` makes every receiver iteration a few factor
applies instead of an O(dim^3) solve.  The identity and ``fast`` conditioned
channels keep their factors as :class:`OrthoFactor` operators, which hold
O(dim) state and apply in O(dim log dim); the Haar and fading channels keep
dense O(dim^2) factors.  Three generators are provided:

* identity (pure-compression AWGN baseline),
* controlled-conditioning with Haar-like factors and a chosen singular
  spectrum,
* a simplified time-selective Rayleigh-fading convolution channel (complex
  taps with an AR(1) Doppler correlation, realified into 2x2 rotation blocks).
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import dct, idct
from scipy.special import j0 as _bessel_j0

from .errors import InvalidDimensionError, InvalidParameterError
from .fileio import write_matrix

__all__ = [
    "ChannelInstance",
    "OrthoFactor",
    "FadingProfile",
    "gen_identity_channel",
    "gen_conditioned_channel",
    "gen_tdl_fading_channel",
    "transmit",
    "sample_fading_taps",
    "rayleigh_fit_statistic",
    "fading_profile",
    "build_channel",
    "channel_from_descriptor",
]


@dataclass(frozen=True, eq=False)
class OrthoFactor:
    """Orthogonal ``dim x dim`` matrix ``P C S`` kept as O(dim) state.

    ``S = diag(signs)``, ``C`` is the orthonormal DCT-II and ``P`` picks rows,
    ``(P z)[i] = z[perm[i]]``.  Without ``signs`` and ``perm`` the factor is
    the identity.  ``@`` applies it to a vector or along axis 0 of a matrix,
    ``.T`` is the transpose and ``np.asarray(factor)`` the dense matrix.
    """

    dim: int
    signs: np.ndarray = None
    perm: np.ndarray = None
    transposed: bool = False

    @property
    def shape(self):
        return (self.dim, self.dim)

    @property
    def T(self):
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise InvalidDimensionError(
                f"expected {self.dim} rows, got shape {x.shape}")
        if self.signs is None:
            return x.copy()
        signs = self.signs.reshape((-1,) + (1,) * (x.ndim - 1))
        if not self.transposed:
            return dct(x * signs, axis=0, norm="ortho")[self.perm]
        z = np.empty_like(x)
        z[self.perm] = x
        return idct(z, axis=0, norm="ortho") * signs

    def __array__(self, dtype=None, copy=None):
        # the dense matrix: desk-scale dims only
        dense = self @ np.eye(self.dim)
        return dense if dtype is None else dense.astype(dtype)


@dataclass(frozen=True)
class ChannelInstance:
    """A channel ``y = A x + n`` stored via ``A = U diag(s) V^T``.

    ``u`` is (m_rows, k), ``s`` is a nonincreasing length-k spectrum, ``vt``
    is (k, n_cols); ``sigma2`` is the AWGN variance.  ``u`` and ``vt`` are
    dense arrays or :class:`OrthoFactor` operators; both support ``@``,
    ``.T`` and ``.shape``.  Instances are immutable, factor arrays included
    (:func:`build_channel` shares them between instances and makes them
    read-only), and safe for concurrent use.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    sigma2: float
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def m_rows(self):
        return self.u.shape[0]

    @property
    def n_cols(self):
        return self.vt.shape[1]

    def apply(self, x):
        """A @ x through the singular factors."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise InvalidDimensionError(
                f"expected length-{self.n_cols} input, got shape {x.shape}")
        return self.u @ (self.s * (self.vt @ x))

    def apply_t(self, y):
        """A^T @ y through the singular factors."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.m_rows,):
            raise InvalidDimensionError(
                f"expected length-{self.m_rows} input, got shape {y.shape}")
        return self.vt.T @ (self.s * (self.u.T @ y))

    def dense(self):
        """Assemble the dense matrix (use only at desk-scale dims)."""
        return (np.asarray(self.u) * self.s) @ np.asarray(self.vt)

    def condition_number(self):
        smin = self.s[-1]
        return np.inf if smin == 0 else self.s[0] / smin

    def export_dense(self, path):
        """Write the dense matrix in the raw OAMPMAT1 format."""
        write_matrix(path, self.dense())

    def descriptor(self):
        """JSON-serializable record sufficient to regenerate the channel."""
        return dict(self.meta, sigma2=self.sigma2, seed=self.seed)

    def descriptor_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)


@dataclass(frozen=True)
class FadingProfile:
    """Tapped-delay-line power profile with a normalized Doppler rate.

    ``tap_powers`` must be nonnegative and sum to one; ``doppler_rate`` is in
    cycles per symbol and controls how fast the taps decorrelate across the
    ``num_symbols`` symbol blocks.
    """

    num_taps: int
    tap_powers: np.ndarray
    doppler_rate: float
    num_symbols: int

    def __post_init__(self):
        powers = np.asarray(self.tap_powers, dtype=np.float64)
        if powers.shape != (self.num_taps,) or np.any(powers < 0):
            raise InvalidParameterError("tap_powers must be nonnegative, one per tap")
        if not np.isclose(powers.sum(), 1.0, atol=1e-9):
            raise InvalidParameterError("tap_powers must sum to 1")
        if self.doppler_rate < 0:
            raise InvalidParameterError("doppler_rate must be >= 0")
        if self.num_symbols < 1:
            raise InvalidParameterError("num_symbols must be >= 1")
        object.__setattr__(self, "tap_powers", powers)


def gen_identity_channel(dim, sigma2):
    """Identity channel: pure AWGN, flat unit spectrum."""
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    return ChannelInstance(u=OrthoFactor(dim), s=np.ones(dim),
                           vt=OrthoFactor(dim),
                           sigma2=float(sigma2), seed=0,
                           meta={"type": "identity", "dim": int(dim)})


def _haar_orthogonal(dim, rng):
    # QR of a Gaussian matrix with the R-diagonal sign fix gives Haar measure
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))[np.newaxis, :]


def _fast_orthogonal(dim, rng):
    # Structured pseudo-random orthogonal factor: sign flips, orthonormal DCT,
    # row permutation.  O(dim) state and O(dim log dim) per apply vs O(dim^3)
    # for QR; not Haar, but mixes globally, which is what the receiver
    # algebra relies on.
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    perm = rng.permutation(dim)
    return OrthoFactor(dim, signs=signs, perm=perm)


def _spectrum(dim, kappa, shape):
    if shape == "linear":
        s = np.linspace(1.0, 1.0 / kappa, dim)
    elif shape == "geometric":
        s = np.geomspace(1.0, 1.0 / kappa, dim)
    else:
        raise InvalidParameterError(f"unknown spectrum shape {shape!r}")
    # unit average power: (1/dim) * sum(s_i^2) = 1
    return s * np.sqrt(dim / np.sum(s ** 2))


def gen_conditioned_channel(dim, kappa, spectrum_shape, sigma2, seed,
                            factor_method="haar"):
    """Right-unitarily-invariant channel with condition number ``kappa``.

    The singular spectrum spans ``[s_max, s_max/kappa]`` with the requested
    shape (``linear`` or ``geometric``) and is normalized to unit average
    power.  ``factor_method`` selects how the orthogonal factors are drawn:
    ``"haar"`` (QR of seeded Gaussian matrices, the default) or ``"fast"``
    (seeded sign/DCT/permutation scrambling kept as :class:`OrthoFactor`
    operators: O(dim) state, O(dim log dim) per apply).
    """
    if kappa < 1:
        raise InvalidParameterError(f"condition number must be >= 1, got {kappa}")
    rng = np.random.Generator(np.random.Philox(seed))
    make = {"haar": _haar_orthogonal, "fast": _fast_orthogonal}.get(factor_method)
    if make is None:
        raise InvalidParameterError(f"unknown factor_method {factor_method!r}")
    u = make(dim, rng)
    v = make(dim, rng)
    return ChannelInstance(u=u, s=_spectrum(dim, kappa, spectrum_shape),
                           vt=v.T, sigma2=float(sigma2), seed=int(seed),
                           meta={"type": "conditioned", "dim": int(dim),
                                 "kappa": float(kappa),
                                 "spectrum_shape": spectrum_shape,
                                 "factor_method": factor_method})


def sample_fading_taps(profile, seed, num_symbols=None):
    """Complex tap trajectories, shape (num_symbols, num_taps).

    Each tap is a stationary complex Gaussian AR(1) process with variance
    ``tap_powers[l]`` and lag-1 autocorrelation matching the Jakes value
    ``J0(2 pi doppler_rate)``.
    """
    if num_symbols is None:
        num_symbols = profile.num_symbols
    rng = np.random.Generator(np.random.Philox(seed))
    a = float(_bessel_j0(2.0 * np.pi * profile.doppler_rate))
    scale = np.sqrt(profile.tap_powers / 2.0)
    innov = np.sqrt(max(1.0 - a * a, 0.0))
    draw = lambda: scale * (rng.standard_normal(profile.num_taps)
                            + 1j * rng.standard_normal(profile.num_taps))
    taps = np.empty((num_symbols, profile.num_taps), dtype=np.complex128)
    taps[0] = draw()
    for b in range(1, num_symbols):
        taps[b] = a * taps[b - 1] + innov * draw()
    return taps


def rayleigh_fit_statistic(profile, num_samples, seed):
    """Kolmogorov-Smirnov fit of pooled tap amplitudes against Rayleigh.

    Amplitudes are normalized per tap by ``sqrt(tap_powers[l])`` so the
    pooled sample targets a single Rayleigh(scale=1/sqrt(2)) law.  Returns
    ``(ks_statistic, p_value)``.
    """
    from scipy import stats

    num_symbols = int(np.ceil(num_samples / profile.num_taps))
    taps = sample_fading_taps(profile, seed, num_symbols=num_symbols)
    amp = (np.abs(taps) / np.sqrt(profile.tap_powers)).ravel()[:num_samples]
    result = stats.kstest(amp, "rayleigh", args=(0, 1.0 / np.sqrt(2.0)))
    return float(result.statistic), float(result.pvalue)


def gen_tdl_fading_channel(dim, profile, sigma2, seed):
    """Simplified time-selective Rayleigh-fading convolution channel.

    ``dim`` must be even: the operator acts on ``dim/2`` complex symbols,
    realified so each complex coefficient ``a + jb`` becomes the rotation
    block ``[[a, -b], [b, a]]`` (this keeps realified AWGN Gaussian).  The
    complex symbols are split into ``profile.num_symbols`` blocks; each block
    sees its own tap vector from :func:`sample_fading_taps`, and the operator
    convolves the input with the block-local taps (edge-truncated at the
    start).  The SVD of the realified matrix is computed and stored.
    """
    if dim % 2 != 0:
        raise InvalidParameterError("dim must be even (pairs of real symbols)")
    n_c = dim // 2
    if profile.num_taps > n_c:
        raise InvalidParameterError(
            f"num_taps={profile.num_taps} exceeds {n_c} complex symbols")
    taps = sample_fading_taps(profile, seed)
    a_c = np.zeros((n_c, n_c), dtype=np.complex128)
    block = np.minimum(np.arange(n_c) * profile.num_symbols // n_c,
                       profile.num_symbols - 1)
    for i in range(n_c):
        lmax = min(profile.num_taps, i + 1)
        a_c[i, i - lmax + 1:i + 1] = taps[block[i], :lmax][::-1]
    a_real = np.empty((dim, dim))
    a_real[0::2, 0::2] = a_c.real
    a_real[0::2, 1::2] = -a_c.imag
    a_real[1::2, 0::2] = a_c.imag
    a_real[1::2, 1::2] = a_c.real
    u, s, vt = np.linalg.svd(a_real)
    return ChannelInstance(u=u, s=s, vt=vt, sigma2=float(sigma2),
                           seed=int(seed),
                           meta={"type": "tdl-fading", "dim": int(dim),
                                 "num_taps": int(profile.num_taps),
                                 "tap_powers": profile.tap_powers.tolist(),
                                 "doppler_rate": float(profile.doppler_rate),
                                 "num_symbols": int(profile.num_symbols)})


def transmit(ch, x, noise_seed):
    """Simulate ``y = A x + n`` with seeded AWGN of variance ``ch.sigma2``."""
    y = ch.apply(x)
    if ch.sigma2 > 0:
        rng = np.random.Generator(np.random.Philox(noise_seed))
        y = y + np.sqrt(ch.sigma2) * rng.standard_normal(ch.m_rows)
    return y


def fading_profile(spec):
    """FadingProfile from a spec dict; missing keys take the 3-tap defaults."""
    return FadingProfile(num_taps=spec.get("num_taps", 3),
                         tap_powers=spec.get("tap_powers", (0.6, 0.3, 0.1)),
                         doppler_rate=spec.get("doppler_rate", 0.01),
                         num_symbols=spec.get("num_symbols", 16))


# (key, channel) of the last build_channel miss, or None
_last_built = None


def _freeze(ch):
    """Make every factor array of ``ch`` read-only."""
    for factor in (ch.u, ch.s, ch.vt):
        if isinstance(factor, OrthoFactor):
            arrays = (factor.signs, factor.perm)
        else:
            arrays = (factor,)
        for array in arrays:
            if array is not None:
                array.setflags(write=False)


def build_channel(spec, dim, sigma2, seed):
    """Instantiate a channel from a spec dict (``kind`` plus its keys).

    A call with the same ``(spec, dim, seed)`` as the previous call reuses
    that channel's factors and only swaps in ``sigma2``, so a sweep over
    noise levels builds each channel once.  The factor arrays are therefore
    shared and read-only.  The last channel built stays referenced until a
    call with a different key; a miss drops it before building the next.
    """
    global _last_built
    # exact: json writes floats at full precision, where numpy's repr would
    # print tap powers that differ in the 12th digit alike
    key = (json.dumps(spec, sort_keys=True,
                      default=lambda o: np.asarray(o).tolist()), dim, seed)
    last = _last_built
    if last is not None and last[0] == key:
        return replace(last[1], sigma2=float(sigma2))
    # drop the old factors before the build allocates the new ones
    _last_built = last = None
    ch = _generate(spec, dim, sigma2, seed)
    _freeze(ch)
    _last_built = (key, ch)
    return ch


def _generate(spec, dim, sigma2, seed):
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return gen_identity_channel(dim, sigma2=sigma2)
    if kind == "conditioned":
        return gen_conditioned_channel(
            dim, kappa=spec.get("kappa", 10.0),
            spectrum_shape=spec.get("spectrum_shape", "geometric"),
            sigma2=sigma2, seed=seed,
            factor_method=spec.get("factor_method", "haar"))
    if kind == "tdl-fading":
        return gen_tdl_fading_channel(dim, fading_profile(spec),
                                      sigma2=sigma2, seed=seed)
    raise InvalidParameterError(f"unknown channel kind {kind!r}")


def channel_from_descriptor(desc):
    """Rebuild a channel from the record emitted by ``descriptor()``."""
    if isinstance(desc, str):
        desc = json.loads(desc)
    return build_channel(dict(desc, kind=desc["type"]), desc.get("dim"),
                         desc.get("sigma2"), desc.get("seed"))
