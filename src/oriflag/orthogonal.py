"""Haar-distributed sampling of SO(n) and the bi-invariant geodesic distance.

A Haar rotation is a product of Householder reflections of uniform unit
vectors, sign-fixed to determinant +1 (Stewart 1980; Mezzadri 2007), built
in an (n, n, count) buffer with the sample index innermost and returned as
one (count, n, n) copy. A uniform unit vector is a Gaussian vector over its
norm (Muller 1959); the squares are summed in coordinate order, which for
vectors shorter than 8 is numpy's own, and callers that read only a
coordinate or two of each vector take the raw Gaussians with their norms and
divide just those. The
geodesic distance between rotations A and B is ``sqrt(0.5 * sum |log mu_k|^2)``
over the eigenvalues ``mu_k`` of ``B^T A``, the root-sum-square of its
rotation angles. The symmetric part of a rotation has eigenvalues
cos(theta_k), so one batched symmetric eigenvalue solve gives the distance:
``d^2 = 0.5 * sum arccos(c_k / 2)^2`` over the eigenvalues ``c_k`` of
``m + m^T``. Where arccos is ill-conditioned, an angle near pi or a distance
near 0, the angles are ``|arg mu_k|`` of the general eigenvalues instead. A
rotation is normal, so its eigenvalues are perfectly conditioned (Bauer-Fike;
Golub & Van Loan, Matrix Computations, 7.2) and their arguments are accurate
at 0, at pi and where planes crowd together. ``rotation_angles``, which
returns each angle, always takes that route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flagspec import FiniteIsotropy

ORTHOGONALITY_TOL = 1e-12
DETERMINANT_TOL = 1e-10

# Gaussian draws shorter than this are redrawn before normalization.
_MIN_NORM = 1e-8
# eigvalsh gives each c = 2 cos(theta) to within dc = 2e-15 (the largest error
# measured up to n = 12), and arccos(c / 2) turns that into an angle error of
# dc / (2 sin theta). Above c = -2 + _NEAR_PI, sin theta > sqrt(_NEAR_PI) =
# 0.02, so the distance is good to 5e-14. An angle near 0 puts at most dc / 2
# into d^2, and d takes that as n dc / (4 d): 6e-14 at n = 12 for d above
# _SHORT. Samples with an angle nearer pi, or a shorter distance, take the
# arguments of the general eigenvalues, which stay well-conditioned there.
_NEAR_PI = 4e-4
_SHORT = 0.1


class Rotation:
    """An n x n real special orthogonal matrix, validated at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"rotation matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        defect = np.abs(m.T @ m - np.eye(n)).max()
        if not defect <= ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: max |Q^T Q - I| = {defect:.3e}")
        det = float(np.linalg.det(m))
        if not abs(det - 1.0) <= DETERMINANT_TOL:
            raise ValueError(f"matrix has determinant {det!r}, expected +1")
        m.setflags(write=False)
        self.matrix = m

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Rotation":
        return cls(np.eye(n))

    def transpose(self) -> "Rotation":
        return Rotation(self.matrix.T)

    inverse = transpose

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if not isinstance(other, Rotation):
            return NotImplemented
        return Rotation(self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"Rotation({self.matrix.tolist()})"


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    The same (seed, stream) pair always produces the same sample sequence;
    distinct stream ids give statistically independent sequences. Wraps
    numpy's SeedSequence spawn-key mechanism.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream id must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def random_special_orthogonal(n: int, rng) -> Rotation:
    """Draw a Haar-distributed rotation in SO(n).

    A batch of one from :func:`sample_rotation_matrices`, so it consumes
    ``rng`` exactly as that function does.
    """
    return Rotation(sample_rotation_matrices(n, 1, rng)[0])


def _unit_vectors(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` uniform points on the unit sphere in R^dim, one per row."""
    v, norms = _gaussian_columns(gen, gen.standard_normal((count, dim)).T)
    return (v / norms).T


def _gaussian_columns(gen: np.random.Generator, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian columns of a (dim, count) ``v`` and their norms, redrawing (in place) those under ``_MIN_NORM``.

    ``v`` may be the transpose of (count, dim) rows; a redrawn vector takes
    ``dim`` consecutive draws either way.
    """
    norms = _column_norms(v)
    while (bad := norms < _MIN_NORM).any():
        v[:, bad] = gen.standard_normal((int(bad.sum()), len(v))).T
        norms[bad] = _column_norms(v[:, bad])
    return v, norms


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a (d, count) array, squares summed row by row.

    Summed in coordinate order, numpy's own order for vectors shorter than 8,
    so this matches ``np.linalg.norm`` of those bit for bit, without its
    temporary (d, count) array of squares.
    """
    sq = v[0] * v[0]
    for row in v[1:]:
        sq += row * row
    return np.sqrt(sq)


def sample_rotation_matrices(n: int, count: int, rng) -> np.ndarray:
    """Vectorized Haar sampling: a C-contiguous (count, n, n) stack of SO(n) matrices.

    The sign-fixed Q of Householder QR on a Gaussian matrix, built directly:
    the reflection of a uniform unit vector v_k in R^(n-k) maps it to
    -sign(v_k[0]) e_0, so folding in that sign makes v_k column k of the
    trailing block, and the last column's sign makes det = +1. Each sample's
    vectors come from one row of Gaussians, so splitting a batch changes no
    draw; degenerate draws are redrawn, never accepted.

    The stack is built as (n, n, count), the sample index innermost, so each
    step is a few numpy calls over rows of ``count`` values. Alive during a
    draw: the (count, (n-1)(n+2)/2) Gaussians and their transposed copy, then
    that copy and the (n, n, count) buffer, then the buffer and the returned
    copy; a traced peak of 2.1 (n = 20) to 2.7 (n = 2) stacks of count n^2
    doubles.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    gen = _as_generator(rng)
    g = gen.standard_normal((count, (n - 1) * (n + 2) // 2)).T.copy()
    q = np.empty((n, n, count))
    # det = (-1)^(n-1) (reflections) * prod(-sign(v_k[0])) (folded signs) * this
    # last sign, so det = +1 takes prod(sign(v_k[0])); SO(1) draws nothing.
    q[-1, -1] = 1.0
    # v_k is column k from the diagonal down; the steps before it, j > k, reach
    # only row j and the block right of and below (j, j).
    start = 0
    for k in range(n - 1):
        np.divide(*_gaussian_columns(gen, g[start:start + n - k]), out=q[k:, k])
        q[-1, -1] *= np.copysign(1.0, q[k, k])
        start += n - k
    del g
    for k in range(n - 2, -1, -1):
        v0, tail, block = q[k, k], q[k + 1:, k], q[k + 1:, k + 1:]
        # H_k = I - u u^T / (1 + |v[0]|), u = v + sign(v[0]) e_0, applied to
        # [0; B], B the block built so far, in two rank-1 steps. w = tail^T B
        # is summed row by row from +0.0, the order that fixes this version's bits.
        w = np.zeros((n - k - 1, count))
        for t, row in zip(tail, block):
            w += t * row
        np.multiply(-np.copysign(1.0, v0), w, out=q[k, k + 1:])
        for s, row in zip(tail / (1.0 + np.abs(v0)), block):
            row -= s * w
    return np.ascontiguousarray(q.transpose(2, 0, 1))


def _matrix_of(a) -> np.ndarray:
    """A Rotation's matrix, or an outside array checked to be one orthogonal n x n matrix (NaN fails)."""
    if isinstance(a, Rotation):
        return a.matrix
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {m.shape}")
    if not (defect := np.abs(m.T @ m - np.eye(len(m))).max()) <= ORTHOGONALITY_TOL:
        raise ArithmeticError(f"max |Q^T Q - I| = {defect:.3e}; input is not in SO(n)")
    return m


def _require_rotations(m: np.ndarray) -> None:
    """Raise ArithmeticError unless the matrix, or each of a stack, has determinant +1."""
    if not (np.abs(np.linalg.det(m) - 1.0) <= DETERMINANT_TOL).all():
        raise ArithmeticError("determinant is not +1; input is not in SO(n)")


def _angles(m: np.ndarray) -> np.ndarray:
    """Rotation angles in [0, pi] of an SO(n) matrix or stack of them, one per eigenvalue."""
    return np.abs(np.angle(np.linalg.eigvals(m)))


def _distances_to_identity(m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Geodesic distances to the identity of a (k, n, n) SO(n) stack, minimized over m diag(s).

    ``signs`` are (|SG|, n) det +1 rows; the trivial group is one row of ones.
    Column sign flips leave the LU determinant bit-identical, so m is checked once.
    Each distance comes from the eigenvalues of the symmetric part alone,
    except in the zones set by ``_NEAR_PI`` and ``_SHORT``, whose samples are
    measured again from the arguments of the general eigenvalues.
    """
    _require_rotations(m)
    best = np.inf
    for s in signs:
        ms = m * s
        cos2 = np.linalg.eigvalsh(ms + np.swapaxes(ms, -1, -2))
        theta = np.arccos(np.clip(0.5 * cos2, -1.0, 1.0))
        d = np.sqrt(0.5 * (theta * theta).sum(axis=-1))
        # eigvalsh sorts ascending, so column 0 holds the angle nearest pi.
        redo = (cos2[:, 0] < _NEAR_PI - 2.0) | (d < _SHORT)
        if redo.any():
            theta = _angles(ms[redo])
            d[redo] = np.sqrt(0.5 * (theta * theta).sum(axis=-1))
        best = np.minimum(best, d)
    return best


def rotation_angles(a) -> np.ndarray:
    """Principal rotation angles of ``a`` (Rotation or matrix).

    Returns the floor(n/2) angles in [0, pi], sorted descending. Each angle
    of a rotation plane belongs to two eigenvalues exp(+-i psi), and a lone
    +1 gives angle 0 when n is odd, so every other entry of the sorted angles
    is one angle per plane.
    """
    m = _matrix_of(a)
    _require_rotations(m)
    theta = np.sort(_angles(m))[::-1]
    return theta[: 2 * (m.shape[0] // 2) : 2]


def _coset_distance(ma: np.ndarray, mb: np.ndarray, signs: np.ndarray) -> float:
    """The orbit minimum of b^T a over the (|SG|, n) ``signs``; exactly 0 when b = a diag(s) for a row s."""
    if ma.shape != mb.shape or ma.shape[0] != signs.shape[1]:
        raise ValueError(f"dimension mismatch: a {ma.shape}, b {mb.shape}, isotropy n={signs.shape[1]}")
    d = float(_distances_to_identity((mb.T @ ma)[None], signs)[0])
    s = np.where((ma == mb).all(axis=0), 1.0, -1.0)
    return 0.0 if np.array_equal(ma * s, mb) and (signs == s).all(axis=1).any() else d


def geodesic_distance(a, b) -> float:
    """Riemannian geodesic distance on SO(n) between rotations ``a`` and ``b``.

    Depends only on the eigenvalues mu_k of ``B^T A``: the distance is
    sqrt(0.5 * sum |log mu_k|^2), i.e. sqrt(sum psi_j^2) over its principal
    angles psi_j. It is the quotient distance by the trivial group, so equal
    matrices are exactly 0 apart.
    """
    ma = _matrix_of(a)
    return _coset_distance(ma, _matrix_of(b), np.ones((1, len(ma))))


def quotient_distance(a, b, h: FiniteIsotropy) -> float:
    """Distance between the cosets of ``a`` and ``b`` modulo the isotropy ``h``.

    The minimum of geodesic_distance(a hj, b) over the group elements hj;
    symmetric and well-defined on cosets because the metric is bi-invariant
    and the group is closed under products and inverses. a hj b^T is similar
    to b^T a hj, so this is the orbit minimum of b^T a. It is exactly 0 when
    b = a diag(s) for a row s of ``h``, though b^T a only rounds to diag(s).
    """
    return _coset_distance(_matrix_of(a), _matrix_of(b), h.signs)
