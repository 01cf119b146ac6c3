"""Joint random-multiplexing-and-compression operator.

The operator chains four stages: a diagonal random sign flip, an orthonormal
DCT, a random permutation, and a row selection.  The first three stages form
an orthogonal scrambling transform; the selection keeps ``m`` of the ``n``
scrambled coefficients, giving compression ratio ``m / n``.  Because the
scrambling is orthogonal, the zero-filled inverse (scatter the ``m`` received
coefficients back to their slots, then undo the scrambling) is the
Moore-Penrose pseudo-inverse of the forward map, and i.i.d. Gaussian noise
stays i.i.d. Gaussian through it.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError

__all__ = [
    "RmOperator",
    "build_rm_operator",
    "rm_forward",
    "rm_inverse",
    "dct_transform",
]


@dataclass(frozen=True)
class RmOperator:
    """Seeded factorization of the multiplexing-and-compression map.

    The forward map applied to a length-``n`` vector ``s`` is

        select( permute( dct( signs * s ) ) )

    and is fully determined by ``(n, m, seed)``: the factors are regenerated
    bit-identically from the seed.  Instances are immutable and safe to share
    across workers.

    Attributes:
        n: source dimension.
        m: compressed dimension, ``1 <= m <= n``.
        seed: 64-bit seed the factors were drawn from.
        signs: length-``n`` vector of +-1 (the diagonal sign stage).
        perm: length-``n`` permutation; stage output ``i`` reads scrambled
            coefficient ``perm[i]``.
        selection: strictly increasing length-``m`` index list of the kept
            coefficients.
    """

    n: int
    m: int
    seed: int
    signs: np.ndarray
    perm: np.ndarray
    selection: np.ndarray
    # composite index: position of kept coefficient j in the DCT output
    _gather: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_gather", self.perm[self.selection])


def build_rm_operator(n, m, seed):
    """Draw the operator factors from one seeded counter-based generator.

    Draw order is fixed and documented: signs first, then the permutation
    (Fisher-Yates shuffle), then the selection (full shuffle truncated to
    ``m`` entries, sorted).  Philox is counter-based, so identical seeds give
    bit-identical operators on every platform.

    Raises:
        InvalidDimensionError: if not ``1 <= m <= n``.
    """
    if m < 1 or m > n:
        raise InvalidDimensionError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.Generator(np.random.Philox(seed))
    signs = rng.integers(0, 2, size=n) * 2 - 1
    perm = rng.permutation(n)
    selection = np.sort(rng.permutation(n)[:m])
    return RmOperator(n=int(n), m=int(m), seed=int(seed),
                      signs=signs.astype(np.float64), perm=perm,
                      selection=selection)


def rm_forward(op, s):
    """Apply the compression map: signs, DCT, permutation, selection.

    O(n log n) via the fast DCT.  Raises InvalidDimensionError on a length
    mismatch.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (op.n,):
        raise InvalidDimensionError(
            f"expected length-{op.n} source vector, got shape {s.shape}")
    u = dct_transform(op.signs * s)
    return u[op._gather]


def rm_inverse(op, x):
    """Apply the zero-filled inverse: scatter, unpermute, inverse DCT, signs.

    For the orthonormal-row forward map this equals the Moore-Penrose
    pseudo-inverse; at ``m == n`` it is the exact inverse.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise InvalidDimensionError(
            f"expected length-{op.m} compressed vector, got shape {x.shape}")
    u = np.zeros(op.n)
    u[op._gather] = x
    return op.signs * dct_transform(u, inverse=True)


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
