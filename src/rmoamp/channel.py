"""Linear channel generators and transmission.

No channel is stored as a dense matrix.  The identity and conditioned
channels are stored by their SVD factors ``(U, sigma, V^T)``: the linear
estimator in :mod:`rmoamp.receiver` diagonalizes in the singular basis, so
every receiver iteration is a few factor applies instead of an O(dim^3)
solve.  A conditioned channel draws only V; its U is the identity, which
keeps the law of everything the receiver sees (see
:func:`gen_conditioned_channel`).  The identity and ``fast`` factors are
square :class:`~rmoamp.rm_operator.OrthoFactor` operators, the factor class
of the compression operator, which hold O(dim) state and apply in
O(dim log dim).  A Haar V is kept as panels of 64 Householder reflectors
plus each panel's block T factor (:class:`WyFactor`), about ``dim^2 / 2``
floats in all: the reflectors are drawn straight from Gaussian vectors
(Stewart's construction, O(dim^2), no QR of a dense draw) into the panels,
the orthogonal matrix is never formed, and numpy's matrix-vector products
apply them in O(dim^2), so a Haar channel loads no scipy.  The fading
channel is banded and is stored as the band of its complex matrix
(:class:`BandFactor`), not as SVD factors: O(dim * num_taps) state, applies
by complex banded BLAS and an LMMSE step by banded Cholesky.  Three
generators are provided:

* identity (pure-compression AWGN baseline),
* controlled-conditioning with a Haar-like right factor and a chosen
  singular spectrum,
* a simplified time-selective Rayleigh-fading convolution channel (complex
  taps with an AR(1) Doppler correlation, realified into 2x2 rotation blocks).
"""

import json
from dataclasses import dataclass, field, is_dataclass, replace

import numpy as np

from .errors import (InvalidDimensionError, InvalidParameterError,
                     SingularSystemError)
from .rm_operator import OrthoFactor, _Factor, _draw_scramble
from .sources import spec_integer, spec_numbers

__all__ = [
    "ChannelInstance",
    "BandFactor",
    "WyFactor",
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
class BandFactor(_Factor):
    """Realified ``dim x dim`` matrix of a lower-banded complex matrix ``H``.

    ``H`` is ``dim/2 x dim/2``.  Each complex entry ``a + jb`` is the 2x2
    block ``[[a, -b], [b, a]]`` on interleaved (re, im) pairs, so the
    realified matrix applies as ``H`` on ``x.view(np.complex128)`` and its
    transpose as the conjugate transpose ``H^H``.  ``ab[i - j, j] = H[i, j]``
    holds the diagonal and ``ab.shape[0] - 1`` sub-diagonals in LAPACK
    general-band storage (Fortran order, as BLAS ``zgbmv`` takes it).
    ``gram`` is the lower band of the Hermitian ``H H^H``, stored as
    ``gram[i - j, j] = (H H^H)[i, j]``.  ``.T`` is the transpose.
    ``scipy.linalg`` is imported on first use.
    """

    ab: np.ndarray
    gram: np.ndarray
    transposed: bool = False

    @property
    def shape(self):
        return (2 * self.ab.shape[1],) * 2

    def _apply(self, x):
        from scipy.linalg.blas import zgbmv

        width, n_c = self.ab.shape
        xc = np.ascontiguousarray(x).view(np.complex128)
        # trans=2: the conjugate transpose
        return zgbmv(n_c, n_c, width - 1, 0, 1.0, self.ab, xc,
                     trans=2 * self.transposed).view(np.float64)

    def spectrum(self):
        """Nonincreasing singular values: each square root of eig(H H^H)
        twice, as realifying doubles every singular value of ``H``.

        A singular value near zero carries an absolute error of up to about
        ``sqrt(eps) * s_max``; an SVD of ``H`` would give ``eps * s_max``.
        """
        from scipy.linalg import eigvals_banded

        eig = eigvals_banded(self.gram, lower=True)
        return np.repeat(np.sqrt(np.clip(eig[::-1], 0.0, None)), 2)

    def gain(self, sigma2, v, r):
        """``H^H (sigma2 I + v H H^H)^{-1} r``, realified, by banded
        Cholesky."""
        from scipy.linalg import cho_solve_banded, cholesky_banded

        system = v * self.gram
        system[0] += sigma2
        try:
            factor = cholesky_banded(system, overwrite_ab=True, lower=True)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"sigma^2 I + v H H^H is singular: {exc}") from exc
        rc = np.ascontiguousarray(r, dtype=np.float64).view(np.complex128)
        return self.T @ cho_solve_banded((factor, True), rc).view(np.float64)


@dataclass(frozen=True, eq=False)
class WyFactor(_Factor):
    """Orthogonal ``dim x dim`` matrix ``Q D`` kept as blocked reflectors.

    ``Q = H_1 H_2 ... H_dim`` is the product of Householder reflectors,
    grouped into panels of ``_PANEL`` consecutive ones.  Panel b is a
    Fortran-ordered ``(dim - b _PANEL) x width`` array ``V_b`` holding the
    reflector vectors from row ``b _PANEL`` down, unit-lower (ones on its
    diagonal, zeros above); ``t_blocks[b]`` is its upper-triangular
    ``width x width`` factor ``T_b`` (Schreiber & Van Loan, 1989), so that
    the panel's reflectors multiply to ``I - V_b T_b V_b^T``, and
    ``D = diag(signs)``.  ``@`` applies ``Q D`` (or ``D Q^T`` through
    ``.T``) one panel at a time, by two matrix-vector products each.
    """

    panels: tuple
    t_blocks: tuple
    signs: np.ndarray
    transposed: bool = False

    @property
    def shape(self):
        return (self.signs.size,) * 2

    def _apply(self, x):
        dim = self.signs.size
        if self.transposed:
            # D Q^T: the panels' transposes, first panel first
            y = x.copy()
            for v, t in zip(self.panels, self.t_blocks):
                tail = y[dim - v.shape[0]:]
                tail -= v @ (t.T @ (v.T @ tail))
            return y * self.signs
        y = x * self.signs
        for v, t in zip(self.panels[::-1], self.t_blocks[::-1]):
            tail = y[dim - v.shape[0]:]
            tail -= v @ (t @ (v.T @ tail))
        return y


def _is_identity(factor):
    # OrthoFactor(dim): its apply would only copy
    return isinstance(factor, OrthoFactor) and factor.signs is None


@dataclass(frozen=True)
class ChannelInstance:
    """A channel ``y = A x + n`` stored via ``A = U diag(s) V^T`` or as a band.

    ``u`` is (m_rows, k), ``s`` is a nonincreasing length-k spectrum, ``vt``
    is (k, n_cols); ``sigma2`` is the AWGN variance.  ``u`` and ``vt`` are
    dense arrays, :class:`OrthoFactor` operators (the identity, and the
    ``fast`` V) or :class:`WyFactor` reflectors (the Haar V); all support
    ``@``, ``.T`` and ``.shape``.  A banded channel (tdl-fading) is not
    stored by SVD factors: ``u`` is then a :class:`BandFactor` holding ``A``
    itself, ``vt`` is None and ``s`` is still its singular spectrum.
    Instances are immutable, factor arrays included (:func:`build_channel`
    shares them between instances and makes them read-only), and safe for
    concurrent use.
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
        return (self.u if self.vt is None else self.vt).shape[1]

    def apply(self, x):
        """A @ x through the singular factors or the band.  An identity U
        (``OrthoFactor(dim)``) is not applied."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise InvalidDimensionError(
                f"expected length-{self.n_cols} input, got shape {x.shape}")
        if self.vt is None:
            return self.u @ x
        scaled = self.s * (self.vt @ x)
        return scaled if _is_identity(self.u) else self.u @ scaled

    def gain(self, v, r):
        """``A^T (sigma2 I + v A A^T)^{-1} r``, the LMMSE step's lift of r.

        SVD channels divide elementwise in the singular basis, where modes
        with ``sigma2 + v s^2 = 0`` drop out; a band solves by banded
        Cholesky and raises :class:`SingularSystemError` when the system is
        singular (``sigma2 = 0`` with a singular ``A``).  An identity U is
        not applied.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.m_rows,):
            raise InvalidDimensionError(
                f"expected length-{self.m_rows} misfit, got shape {r.shape}")
        if self.vt is None:
            return self.u.gain(self.sigma2, v, r)
        s = self.s
        denom = self.sigma2 + v * s * s
        safe = np.where(denom > 0.0, denom, 1.0)
        gains = np.where(denom > 0.0, s / safe, 0.0)
        if not _is_identity(self.u):
            r = self.u.T @ r
        return self.vt.T @ (gains * r)

    def dense(self):
        """The dense matrix, one apply per column (desk-scale dims only)."""
        return np.stack([self.apply(e) for e in np.eye(self.n_cols)], axis=1)

    def condition_number(self):
        smin = self.s[-1]
        return np.inf if smin == 0 else self.s[0] / smin

    def descriptor(self):
        """JSON-serializable record sufficient to regenerate the channel."""
        return dict(self.meta, sigma2=self.sigma2, seed=self.seed)

    def descriptor_json(self):
        return json.dumps(self.descriptor(), sort_keys=True)


@dataclass(frozen=True)
class FadingProfile:
    """Tapped-delay-line power profile with a normalized Doppler rate.

    ``tap_powers`` must be nonnegative and sum to one; ``doppler_rate`` is a
    finite number >= 0 in cycles per symbol and controls how fast the taps
    decorrelate across the ``num_symbols`` symbol blocks.
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
        if not self.doppler_rate >= 0:  # NaN too
            raise InvalidParameterError(
                f"doppler_rate must be >= 0, got {self.doppler_rate!r}")
        if self.doppler_rate == np.inf:
            raise InvalidParameterError("doppler_rate must be finite, got inf")
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


# reflectors per WyFactor panel, a power of two (T merges groups pairwise)
_PANEL = 64


def _haar_orthogonal(dim, rng):
    """Haar-distributed orthogonal factor as panels of reflectors.

    Stewart's construction (SIAM J. Numer. Anal. 17, 1980): Householder QR
    of a Gaussian matrix meets, at step k, a column that is again iid
    N(0, I) of length ``dim - k`` and independent of the earlier reflectors,
    so each reflector is built straight from a fresh Gaussian vector and no
    trailing update is run.  The sign fix ``D = sign(diag R)`` (Mezzadri,
    2007) makes ``Q D`` exactly Haar.

    Draw layout (the map from seed to factor): reflector k takes the next
    ``dim - k`` values of the stream, ``x``, so the whole factor reads the
    values of one ``rng.standard_normal(dim * (dim + 1) // 2)`` call; each
    panel draws its share with one call.  The reflector follows
    LAPACK ``dlarfg``: ``beta = -sign(x[0]) ||x||``,
    ``tau = (beta - x[0]) / beta`` and the stored vector is
    ``(1, x[1:] / (x[0] - beta))``; when ``x[1:]`` is zero, ``tau = 0`` and
    ``beta = x[0]``.  ``signs`` is -1 where ``beta < 0`` and +1 elsewhere.
    """
    count = -(-dim // _PANEL)
    panels = []
    signs = np.empty(dim)
    # each panel's V^T V above the diagonal and its taus on it, turned into
    # T below
    t = np.zeros((count, _PANEL, _PANEL))
    for b in range(count):
        rows, width = dim - b * _PANEL, min(_PANEL, dim - b * _PANEL)
        panel = np.zeros((rows, width), order="F")
        # column j from its diagonal down: the panel's lower triangle in
        # Fortran order is the upper triangle of panel.T in C order
        panel.T[~np.tri(width, rows, k=-1, dtype=bool)] = rng.standard_normal(
            width * rows - width * (width - 1) // 2)
        diag = panel.T.reshape(-1)[::rows + 1]
        alpha = diag.copy()
        diag[:] = 0.0
        xnorm = np.sqrt(np.einsum("ij,ij->j", panel, panel))
        reflect = xnorm > 0.0
        beta = np.where(reflect,
                        -np.copysign(np.hypot(alpha, xnorm), alpha), alpha)
        panel *= np.divide(1.0, alpha - beta, out=np.zeros(width),
                           where=reflect)
        diag[:] = 1.0
        t[b, :width, :width] = np.triu(panel.T @ panel, 1)
        np.fill_diagonal(t[b, :width, :width], np.divide(
            beta - alpha, beta, out=np.zeros(width), where=reflect))
        # an exactly-zero beta takes +1: np.sign would zero a column
        signs[b * _PANEL:b * _PANEL + width] = np.where(beta < 0, -1.0, 1.0)
        panels.append(panel)
    # T of each panel, all panels at once, by merging neighbouring groups of
    # reflectors up a binary tree: (I - V_L T_L V_L^T)(I - V_R T_R V_R^T) is
    # I - [V_L V_R] [[T_L, -T_L S T_R], [0, T_R]] [V_L V_R]^T, where
    # S = V_L^T V_R is stored just where its block of T goes
    w = 1
    while w < _PANEL:
        j = np.arange(_PANEL // (2 * w))
        groups = t.reshape(count, j.size, 2 * w, j.size, 2 * w)
        groups[:, j, :w, j, w:] = -(groups[:, j, :w, j, :w]
                                    @ groups[:, j, :w, j, w:]
                                    @ groups[:, j, w:, j, w:])
        w *= 2
    return WyFactor(panels=tuple(panels),
                    t_blocks=tuple(t[b, :p.shape[1], :p.shape[1]]
                                   for b, p in enumerate(panels)),
                    signs=signs)


def _fast_orthogonal(dim, rng):
    # Structured pseudo-random orthogonal factor: sign flips, orthonormal DCT,
    # row permutation, drawn as the compression operator draws its scramble.
    # O(dim) state and O(dim log dim) per apply vs O(dim^2) for Haar
    # reflectors; not Haar, but mixes globally, which is what the receiver
    # algebra relies on.
    return OrthoFactor(dim, *_draw_scramble(dim, rng))


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
    """Right-unitarily-invariant channel ``A = diag(s) V^T``, condition
    number ``kappa``.

    The singular spectrum spans ``[s_max, s_max/kappa]`` with the requested
    shape (``linear`` or ``geometric``) and is normalized to unit average
    power.  Only the right factor V is drawn, as the first draw from the
    seed's Philox stream; U is the identity.  The receiver's estimator needs
    right-unitary invariance only, and for any orthogonal U independent of
    the noise, ``U^T y = diag(s) V^T x + U^T n`` has the same law as this
    channel's output, since ``U^T n`` is again white.  ``factor_method``
    selects how V is drawn: ``"haar"`` (a Haar factor drawn as seeded
    Householder reflectors, see :func:`_haar_orthogonal`, kept as
    :class:`WyFactor`: O(dim^2) to build, to store and per apply, the
    default) or ``"fast"`` (seeded sign/DCT/permutation scrambling kept as
    an :class:`OrthoFactor`: O(dim) state, O(dim log dim) per apply).
    """
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if (np.ndim(kappa) != 0 or np.asarray(kappa).dtype.kind not in "iuf"
            or not kappa >= 1):
        raise InvalidParameterError(
            f"condition number must be a number >= 1, got {kappa!r}")
    if kappa == np.inf:
        raise InvalidParameterError("condition number must be finite, got inf")
    rng = np.random.Generator(np.random.Philox(seed))
    # a list or dict is not a name, and unhashable
    make = {"haar": _haar_orthogonal, "fast": _fast_orthogonal}.get(
        factor_method if isinstance(factor_method, str) else None)
    if make is None:
        raise InvalidParameterError(f"unknown factor_method {factor_method!r}")
    return ChannelInstance(u=OrthoFactor(dim),
                           s=_spectrum(dim, kappa, spectrum_shape),
                           vt=make(dim, rng).T, sigma2=float(sigma2),
                           seed=int(seed),
                           meta={"type": "conditioned", "dim": int(dim),
                                 "kappa": float(kappa),
                                 "spectrum_shape": spectrum_shape,
                                 "factor_method": factor_method})


def sample_fading_taps(profile, seed, num_symbols=None):
    """Complex tap trajectories, shape (num_symbols, num_taps).

    Each tap is a stationary complex Gaussian AR(1) process with variance
    ``tap_powers[l]`` and lag-1 autocorrelation matching the Jakes value
    ``J0(2 pi doppler_rate)``.  ``num_symbols`` defaults to the profile's
    and must be >= 1.  ``scipy.special`` is imported on first use.
    """
    if num_symbols is None:
        num_symbols = profile.num_symbols
    if num_symbols < 1:
        raise InvalidParameterError(
            f"num_symbols must be >= 1, got {num_symbols!r}")
    from scipy.special import j0

    rng = np.random.Generator(np.random.Philox(seed))
    a = float(j0(2.0 * np.pi * profile.doppler_rate))
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
    ``(ks_statistic, p_value)``; ``num_samples`` must be >= 1.
    """
    if num_samples < 1:
        raise InvalidParameterError(
            f"num_samples must be >= 1, got {num_samples!r}")
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
    start).  The complex matrix ``H`` is lower-banded (``num_taps - 1``
    sub-diagonals) and is stored as that band, with the band of its
    Hermitian Gram matrix; no ``dim x dim`` array is formed.
    """
    if dim % 2 != 0:
        raise InvalidParameterError("dim must be even (pairs of real symbols)")
    n_c, num_taps = dim // 2, profile.num_taps
    if num_taps > n_c:
        raise InvalidParameterError(
            f"num_taps={num_taps} exceeds {n_c} complex symbols")
    taps = sample_fading_taps(profile, seed)
    block = np.minimum(np.arange(n_c) * profile.num_symbols // n_c,
                       profile.num_symbols - 1)
    # rows[ell, i] = H[i, i - ell]: tap ell links output i to input i - ell
    rows = np.where(np.arange(n_c) >= np.arange(num_taps)[:, None],
                    taps[block].T, 0.0)
    ab = np.zeros((num_taps, n_c), dtype=np.complex128, order="F")
    gram = np.zeros((num_taps, n_c), dtype=np.complex128)
    for d in range(num_taps):
        ab[d, :n_c - d] = rows[d, d:]
        # (H H^H)[j + d, j] = sum over t of H[j + d, j - t] conj(H[j, j - t])
        gram[d, :n_c - d] = np.sum(rows[d:, d:]
                                   * rows[:num_taps - d, :n_c - d].conj(),
                                   axis=0)
    band = BandFactor(ab=ab, gram=gram)
    return ChannelInstance(u=band, s=band.spectrum(), vt=None,
                           sigma2=float(sigma2), seed=int(seed),
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
    """FadingProfile from a spec dict; missing keys take the 3-tap defaults.

    A count or number of the wrong type, or a number that is not finite,
    raises InvalidParameterError naming the key.
    """
    label = "channel spec"
    return FadingProfile(
        num_taps=spec_integer(spec, "num_taps", 1, 3, label),
        tap_powers=spec_numbers(spec, "tap_powers", 1, (0.6, 0.3, 0.1), label),
        doppler_rate=spec_numbers(spec, "doppler_rate", 0, 0.01, label),
        num_symbols=spec_integer(spec, "num_symbols", 1, 16, label))


# (key, channel) of the last build_channel miss, or None
_last_built = None


def _freeze(ch):
    """Make ``s`` and every array of ``ch``'s factors read-only, those in
    tuple fields included."""
    for factor in (ch.u, ch.s, ch.vt):
        for value in (vars(factor).values() if is_dataclass(factor)
                      else (factor,)):
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)


def spec_key(spec):
    """Exact text of a channel spec: equal specs give equal keys.

    json writes floats at full precision, where numpy's repr would print tap
    powers that differ in the 12th digit alike.
    """
    return json.dumps(spec, sort_keys=True,
                      default=lambda o: np.asarray(o).tolist())


def build_channel(spec, dim, sigma2, seed):
    """Instantiate a channel from a spec dict (``kind`` plus its keys).

    A call with the same ``(spec, dim, seed)`` as the previous call reuses
    that channel's factors and only swaps in ``sigma2``, so a sweep over
    noise levels builds each channel once.  The factor arrays are therefore
    shared and read-only.  The last channel built stays referenced until a
    call with a different key; a miss drops it before building the next.
    A spec that is not a dict raises InvalidParameterError.
    """
    global _last_built
    if not isinstance(spec, dict):
        raise InvalidParameterError(
            f"channel must be a spec dict, got {spec!r}")
    key = (spec_key(spec), dim, seed)
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
