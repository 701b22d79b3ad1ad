"""Haar-distributed sampling of SO(n) and the bi-invariant geodesic distance.

A random Gaussian matrix is orthogonalized (Householder QR with the sign of
the R diagonal folded into Q) and the determinant is fixed to +1 by swapping
the first two rows. The geodesic distance between rotations A and B is
``sqrt(0.5 * sum |log mu_k|^2)`` over the eigenvalues ``mu_k`` of ``A B^T``,
equivalently the root-sum-square of the principal rotation angles of
``A B^T``; both come from one batched eigenvalue computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-12
DETERMINANT_TOL = 1e-10

# Householder QR on an n x n standard Gaussian is rank deficient only if the
# draw is degenerate; diagonal entries of R below this trigger a resample.
_RANK_TOL = 1e-12

_MAX_RESAMPLE = 100


class Rotation:
    """An n x n real special orthogonal matrix, validated at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"rotation matrix must be square, got shape {m.shape}")
        n = m.shape[0]
        defect = np.abs(m.T @ m - np.eye(n)).max()
        if defect > ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: max |Q^T Q - I| = {defect:.3e}")
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > DETERMINANT_TOL:
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

    Orthogonalizes a standard Gaussian n x n matrix; if the result has
    determinant -1 its first two rows are swapped, which preserves the Haar
    property. A batch of one from :func:`sample_rotation_matrices`, so it
    consumes ``rng`` exactly as that function does.
    """
    return Rotation(sample_rotation_matrices(n, 1, rng)[0])


def sample_rotation_matrices(n: int, count: int, rng) -> np.ndarray:
    """Vectorized Haar sampling: a (count, n, n) stack of SO(n) matrices.

    Degenerate Gaussian draws are resampled, never silently accepted.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    gen = _as_generator(rng)
    if n == 1:
        return np.ones((count, 1, 1))
    q = np.empty((count, n, n))
    todo = np.arange(count)
    tries = 0
    while todo.size:
        tries += 1
        if tries > _MAX_RESAMPLE:
            raise RuntimeError("persistent rank-deficient Gaussian draws; rng is broken")
        a = gen.standard_normal((todo.size, n, n))
        qi, ri = np.linalg.qr(a)
        d = np.diagonal(ri, axis1=1, axis2=2)
        qi = qi * np.sign(d)[:, None, :]
        flip = _batch_det(qi) < 0
        qi[flip] = qi[flip][:, _swap_first_two(n), :]
        ok = np.abs(d).min(axis=1) >= _RANK_TOL
        q[todo[ok]] = qi[ok]
        todo = todo[~ok]
    return q


def _swap_first_two(n: int) -> np.ndarray:
    idx = np.arange(n)
    idx[0], idx[1] = 1, 0
    return idx


def _batch_det(q: np.ndarray) -> np.ndarray:
    n = q.shape[-1]
    if n == 2:
        return q[:, 0, 0] * q[:, 1, 1] - q[:, 0, 1] * q[:, 1, 0]
    if n == 3:
        return np.einsum("ni,ni->n", q[:, 0], np.cross(q[:, 1], q[:, 2]))
    return np.linalg.det(q)


def _matrix_of(a) -> np.ndarray:
    if isinstance(a, Rotation):
        return a.matrix
    return np.asarray(a, dtype=float)


def _eigen_angles(m: np.ndarray) -> np.ndarray:
    """Arguments of the eigenvalues of a (k, n, n) stack of SO(n) matrices.

    Raises ArithmeticError when a determinant (the product of the
    eigenvalues) is not +1, i.e. the input is not in SO(n).
    """
    mu = np.linalg.eigvals(m)
    det = np.prod(mu, axis=-1).real
    if np.abs(det - 1.0).max() > DETERMINANT_TOL:
        raise ArithmeticError("determinant is not +1; input is not in SO(n)")
    return np.angle(mu)


def _distances_to_identity(m: np.ndarray) -> np.ndarray:
    """Geodesic distances to the identity of a (k, n, n) stack of SO(n) matrices."""
    theta = _eigen_angles(m)
    return np.sqrt(0.5 * (theta * theta).sum(axis=-1))


def rotation_angles(a) -> np.ndarray:
    """Principal rotation angles of ``a`` (Rotation or matrix).

    Returns the floor(n/2) angles in [0, pi], sorted descending. The
    eigenvalues come in conjugate pairs exp(+-i psi), plus a lone +1 when n is
    odd, so every other entry of the sorted |arguments| is one angle per pair.
    """
    m = _matrix_of(a)
    theta = np.sort(np.abs(_eigen_angles(m[None])[0]))[::-1]
    return theta[: 2 * (m.shape[0] // 2) : 2]


def geodesic_distance(a, b) -> float:
    """Riemannian geodesic distance on SO(n) between rotations ``a`` and ``b``.

    Depends only on the eigenvalues mu_k of ``A B^T``: the distance is
    sqrt(0.5 * sum |log mu_k|^2), i.e. sqrt(sum psi_j^2) over its principal
    angles psi_j.
    """
    ma, mb = _matrix_of(a), _matrix_of(b)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(_distances_to_identity((ma @ mb.T)[None])[0])
