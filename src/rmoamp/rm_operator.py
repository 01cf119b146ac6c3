"""Joint random-multiplexing-and-compression operator.

The operator chains four stages: a diagonal random sign flip, an orthonormal
DCT, a random permutation, and a row selection.  The first three stages form
an orthogonal scrambling transform; the selection keeps ``m`` of the ``n``
scrambled coefficients, giving compression ratio ``m / n``.  Permutation and
selection together pick ``m`` rows of the DCT output, so the operator is an
``m x n`` :class:`OrthoFactor`, the same factor that holds the identity and
``fast`` channel factors of :mod:`rmoamp.channel`.  ``op @ s`` is the
forward map and ``op.T @ x`` the zero-filled inverse (scatter the ``m``
received coefficients back to their slots, then undo the scrambling).
Because the scrambling is orthogonal, that inverse is the Moore-Penrose
pseudo-inverse of the forward map, and i.i.d. Gaussian noise stays i.i.d.
Gaussian through it.
"""

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidDimensionError


class _Factor:
    """The apply protocol of the linear factors.

    A factor is a frozen dataclass with a ``shape``, a ``transposed`` flag
    and ``_apply(x)`` for a float64 vector of length ``shape[1]``.  ``@``
    takes one such vector (anything else raises InvalidDimensionError),
    ``.T`` flips ``transposed`` and ``np.asarray(factor)`` is the dense
    matrix, one apply per column.

    ``.T`` is built on first use and kept by the factor.  The transpose
    keeps no reference back (its own ``.T`` is a third object), so a
    dropped factor is freed by reference counting, transpose included.
    """

    @cached_property
    def T(self):
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=np.float64)
        cols = self.shape[1]
        if x.shape != (cols,):
            raise InvalidDimensionError(
                f"expected length-{cols} vector, got shape {x.shape}")
        return self._apply(x)

    def __array__(self, dtype=None, copy=None):
        # the dense matrix, one column per apply: desk-scale dims only
        dense = np.stack([self @ e for e in np.eye(self.shape[1])], axis=1)
        return dense if dtype is None else dense.astype(dtype)


@dataclass(frozen=True, eq=False)
class OrthoFactor(_Factor):
    """``m x dim`` matrix ``P C S`` with orthonormal rows, kept as O(dim) state.

    ``S = diag(signs)``, ``C`` is the orthonormal DCT-II and ``P`` picks
    ``m = perm.size <= dim`` rows, ``(P z)[i] = z[perm[i]]``; at ``m == dim``
    the factor is orthogonal.  Without ``signs`` and ``perm`` the factor is
    the ``dim x dim`` identity.  ``.T`` is the transpose (it scatters into
    zeros, so a wide factor's transpose is its zero-filled pseudo-inverse).
    """

    dim: int
    signs: np.ndarray = None
    perm: np.ndarray = None
    transposed: bool = False

    @property
    def shape(self):
        rows = self.dim if self.perm is None else self.perm.size
        return (self.dim, rows) if self.transposed else (rows, self.dim)

    def _apply(self, x):
        if self.signs is None:
            return x.copy()
        if not self.transposed:
            return dct_transform(x * self.signs)[self.perm]
        z = np.zeros(self.dim)
        z[self.perm] = x
        return dct_transform(z, inverse=True) * self.signs


def _draw_scramble(dim, rng):
    """Signs, then a permutation (Fisher-Yates shuffle), of one scramble."""
    return rng.integers(0, 2, size=dim) * 2 - 1, rng.permutation(dim)


def build_rm_operator(n, m, seed):
    """Draw the ``m x n`` operator from one seeded counter-based generator.

    Draw order is fixed and documented: signs first, then the permutation
    (Fisher-Yates shuffle), then the selection (full shuffle truncated to
    ``m`` entries, sorted); the factor keeps ``perm[selection]``.  Philox is
    counter-based, so identical seeds give bit-identical operators on every
    platform.

    Raises:
        InvalidDimensionError: if not ``1 <= m <= n``.
    """
    if m < 1 or m > n:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.Generator(np.random.Philox(seed))
    signs, perm = _draw_scramble(n, rng)
    selection = np.sort(rng.permutation(n)[:m])
    return OrthoFactor(int(n), signs=signs, perm=perm[selection])


def rm_forward(op, s):
    """Apply the compression map ``op @ s``: signs, DCT, row pick.

    O(n log n) via the fast DCT.  Raises InvalidDimensionError on a length
    mismatch.
    """
    return op @ s


def rm_inverse(op, x):
    """Apply the zero-filled inverse ``op.T @ x``: scatter, inverse DCT, signs.

    For the orthonormal-row forward map this equals the Moore-Penrose
    pseudo-inverse; at ``m == n`` it is the exact inverse.
    """
    return op.T @ x


@lru_cache(maxsize=8)
def _dct_twiddles(n):
    """Orthonormal twiddles for length ``n``: ``scale_k * exp(-i pi k / 2n)``
    and ``conj(exp(-i pi k / 2n)) / scale_k`` for ``k <= n // 2``, with
    ``scale_0 = sqrt(1/n)`` and ``scale_k = sqrt(2/n)``.
    """
    shift = np.exp(-0.5j * np.pi / n * np.arange(n // 2 + 1))
    scale = np.full(n // 2 + 1, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    forward, inverse = shift * scale, shift.conj() / scale
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def dct_transform(v, inverse=False):
    """Orthonormal DCT-II (forward) / DCT-III (inverse) along axis 0.

    Normalization is ``norm='ortho'``: the first basis vector is weighted
    1/sqrt(n) and the rest sqrt(2/n), so the transform matrix is exactly
    orthogonal and forward followed by inverse is the identity.  ``v`` is a
    vector or a matrix whose columns are transformed.

    One real FFT of length n (Makhoul, IEEE TASSP 1980): with ``w`` the
    even samples followed by the reversed odd ones and ``W = rfft(w)``,
    ``X[k] = Re(t_k W[k])`` and ``X[n-k] = -Im(t_k W[k])`` for the twiddle
    ``t_k``; the inverse rebuilds ``W`` from ``X[k] - i X[n-k]`` and reads
    the samples back out of ``irfft(W)``.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] < 1:
        raise InvalidDimensionError(
            "dct_transform expects a nonempty vector or matrix")
    n = v.shape[0]
    half, evens = n // 2, (n + 1) // 2
    twiddle, inv_twiddle = _dct_twiddles(n)
    col = (-1,) + (1,) * (v.ndim - 1)
    if inverse:
        spec = np.empty((half + 1,) + v.shape[1:], dtype=np.complex128)
        spec.real = v[:half + 1]
        spec.imag[0] = 0.0
        spec.imag[1:] = -v[n - 1:n - half - 1:-1]
        spec *= inv_twiddle.reshape(col)
        w = np.fft.irfft(spec, n=n, axis=0)
        out = np.empty_like(w)
        out[0::2] = w[:evens]
        out[1::2] = w[:evens - 1:-1]
        return out
    spec = np.fft.rfft(np.concatenate((v[0::2], v[1::2][::-1])), axis=0)
    spec *= twiddle.reshape(col)
    out = np.empty_like(v)
    out[:half + 1] = spec.real
    out[half + 1:] = -spec.imag[n - half - 1:0:-1]
    return out
