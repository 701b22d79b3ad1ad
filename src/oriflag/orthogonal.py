"""Haar-distributed sampling of SO(n) and the bi-invariant geodesic distance.

A Haar rotation is a product of Householder reflections of uniform unit
vectors, sign-fixed to determinant +1 (Stewart 1980; Mezzadri 2007), built
in an (n, n, count) buffer with the sample index innermost and returned as
one (count, n, n) copy. A uniform unit vector is a Gaussian vector over its
norm (Muller 1959); the squares are summed in coordinate order, which for
vectors shorter than 8 is numpy's own. The geodesic distance between
rotations A and B is ``sqrt(0.5 * sum |log mu_k|^2)`` over the eigenvalues
``mu_k`` of ``B^T A``, the root-sum-square of its rotation angles. The
symmetric part of a rotation has eigenvalues cos(theta_k), so one batched
symmetric eigenvalue solve gives the distance:
``d^2 = 0.5 * sum arccos(c_k / 2)^2`` over the eigenvalues ``c_k`` of
``m + m^T``. Where arccos is ill-conditioned, an angle near pi or a distance
near 0, the angles are ``|arg mu_k|`` of the general eigenvalues instead. A
rotation is normal, so its eigenvalues are perfectly conditioned (Bauer-Fike;
Golub & Van Loan, Matrix Computations, 7.2) and their arguments are accurate
at 0, at pi and where planes crowd together. ``rotation_angles``, which
returns each angle, always takes that route. For n = 5, which turns exactly
two planes about one fixed axis, the distances skip the symmetric solve: tr m
and tr m^2 give the two planes' cosines in closed form. The samples whose
rounding bound exceeds the symmetric route's error, or whose planes crowd
together (about 16% of Haar draws, nearly all with the far angle near pi),
take the far angle from det(m + I) = 2 (2 + c_far)(2 + c_near), which stays
well-conditioned at pi, and the near one from the traces. Only the samples
that route's own bound hands on (about 0.07%) take the general eigenvalues.
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
# The trace route's rounding, u = 2^-53. numpy does not fix the order in which
# np.einsum sums, so each bound holds for any summation tree: a tree of n terms
# makes n - 1 roundings, each at most u times its partial sum, and a partial
# sum is at most the sum of the sizes of its terms. t1 sums 5 diagonal
# entries of size at most 1, and the partial sums of a tree of 5 terms add up
# to at most 2 + 3 + 4 + 5: 14u. sigma = (t1 - 1) / 2 adds 4u before halving,
# and forming c = (sigma +- sqrt D) / 2 rounds by u, which counts as 2u on
# sigma: dsigma = 9u + 2u. t2 = sum m_ij m_ji sums 25 products whose sizes
# add up to at most |M|_F^2 = 5, so rounding the products costs 5u and the 24
# additions at most 24 u 5 = 120u; q = (t2 + 3) / 4 adds 8u: dq = 133u / 4
# (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
# D = 2q - sigma^2 then has 2 dq + 2 |sigma| 9u (|sigma| <= 2) + 4u + 4u, and
# sqrt D rounding by u relative counts as 2 u D <= 8u on D: dD = 119u. arccos
# and the last sqrt add a few ulp of d, well inside the budget, which is the
# eigvalsh route's bound n dc / (4 d) at n = 5 and d = _SHORT. Where the
# planes' cosines are closer than _CROWDED the difference quotient in the
# bound is not resolved (sqrt D itself carries sqrt(dD) = 1e-7), so those
# samples are handed on too.
_TRACE_DSIGMA = 11 * 2.0**-53
_TRACE_DD = 119 * 2.0**-53
_TRACE_BUDGET = 2.5e-14
_CROWDED = 1e-6
# The determinant route's rounding. LU with partial pivoting gives det(M + I
# + E) with |E| <= gamma_5 |L||U| (Higham, Accuracy and Stability of Numerical
# Algorithms, Thm 9.3): with no pivot growth, the 2u of forming M + I and the
# 4u of the pivots' product, ||E|| <= 16u. M + I is normal with singular
# values 2 and 2 cos(theta / 2), twice for each plane, so E moves det(M + I)
# by ||E|| (1/2 + 1/cos(theta_far / 2) + 1/cos(theta_near / 2)) relative; the
# largest ratio measured on handed-on Haar and planted near-pi draws was 0.8u.
_DET_E = 16 * 2.0**-53
# Bytes of the stack of one chunk of sign rows when an orbit is measured; the
# chunk's symmetric part and eigvalsh's copy of it, or the trace route's eight
# rows (two einsum traces, five work rows and d: a third of the stack) and the
# copies of its handed-on samples (n = 5), are alive beside it, so a call
# holds about three such stacks at most. A full Monte Carlo batch is
# larger than this, so it takes one sign row per call. The trivial group
# measures the stack it is given, with no copy.
_ORBIT_BYTES = 1 << 22


def _require_special_orthogonal(m: np.ndarray, error: type[Exception]) -> np.ndarray:
    """``m`` after the package's one SO(n) membership test, applied where a matrix enters.

    ValueError unless ``m`` is one square matrix; else ``error`` unless it is
    orthogonal to ``ORTHOGONALITY_TOL`` and its determinant is within
    ``DETERMINANT_TOL`` of +1 (a NaN fails both).
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {m.shape}")
    if not (defect := np.abs(m.T @ m - np.eye(len(m))).max()) <= ORTHOGONALITY_TOL:
        raise error(f"max |Q^T Q - I| = {defect:.3e}; matrix is not in SO(n)")
    if not abs((det := float(np.linalg.det(m))) - 1.0) <= DETERMINANT_TOL:
        raise error(f"determinant {det!r}, expected +1; matrix is not in SO(n)")
    return m


class Rotation:
    """An n x n real special orthogonal matrix, validated at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = _require_special_orthogonal(np.array(matrix, dtype=float), ValueError)
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
    distinct stream ids give statistically independent sequences. The
    generator is numpy's SFC64 seeded by ``SeedSequence(seed,
    spawn_key=(stream,))``; a change of generator changes every draw, so it
    is a change of package version.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream id must be nonnegative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.SFC64(ss))


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
    """``count`` uniform points on the unit sphere in R^dim, one per row, divided in place."""
    v = gen.standard_normal((count, dim))
    np.divide(*_gaussian_columns(gen, v.T), out=v.T)
    return v


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
    square = np.empty_like(sq)
    for row in v[1:]:
        sq += np.multiply(row, row, out=square)
    return np.sqrt(sq, out=sq)


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
    """A Rotation's matrix, or an outside array checked to be in SO(n), raising ArithmeticError if it is not."""
    if isinstance(a, Rotation):
        return a.matrix
    return _require_special_orthogonal(np.asarray(a, dtype=float), ArithmeticError)


def _angles(m: np.ndarray) -> np.ndarray:
    """Rotation angles in [0, pi] of an SO(n) matrix or stack of them, one per eigenvalue."""
    return np.abs(np.angle(np.linalg.eigvals(m)))


def _angle_distances(ms: np.ndarray) -> np.ndarray:
    """Geodesic distances to the identity of a (k, n, n) SO(n) stack from the arguments of its general eigenvalues."""
    theta = _angles(ms)
    return np.sqrt(0.5 * (theta * theta).sum(axis=-1))


def _symmetric_distances(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic distances to the identity of a (k, n, n) SO(n) stack from its symmetric part, and its zone samples.

    The zone samples, set by ``_NEAR_PI`` and ``_SHORT``, are the ones whose
    distance must be measured again by ``_angle_distances``.
    """
    cos2 = np.linalg.eigvalsh(ms + np.swapaxes(ms, -1, -2))
    theta = np.arccos(np.clip(0.5 * cos2, -1.0, 1.0))
    d = np.sqrt(0.5 * (theta * theta).sum(axis=-1))
    # eigvalsh sorts ascending, so column 0 holds the angle nearest pi.
    return d, (cos2[:, 0] < _NEAR_PI - 2.0) | (d < _SHORT)


def _trace_distances(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distances to the identity of a (k, 5, 5) SO(5) stack from two traces: (d, the near 2 cos, sqrt D, hand on).

    M turns two planes by angles with cosines c1, c2 about one fixed axis (e
    = 1), so t1 = tr M and t2 = tr M^2 give sigma = (t1 - 1) / 2 = c1 + c2,
    q = (t2 + 3) / 4 = c1^2 + c2^2 and D = 2q - sigma^2 = (c1 - c2)^2, and c
    = (sigma +- sqrt D) / 2. ``np.einsum`` takes t1 = sum m_ii and t2 = sum
    m_ij m_ji, each sample's from its own entries, and the rest is worked in
    place in their rows and five more. Samples whose first-order error bound
    exceeds ``_TRACE_BUDGET``, or whose planes crowd together, are handed
    on, almost all with the far angle near pi.
    """
    sigma, q = np.einsum("kii->k", ms), np.einsum("kij,kji->k", ms, ms)
    work = np.empty((5, len(ms)))
    spare, cos2, theta = work[0], work[1:3], work[3:5]
    np.multiply(np.subtract(sigma, 1.0, out=sigma), 0.5, out=sigma)
    np.multiply(np.add(q, 3.0, out=q), 0.25, out=q)
    r = np.subtract(np.multiply(q, 2.0, out=q), np.multiply(sigma, sigma, out=spare), out=q)
    np.sqrt(np.maximum(r, 0.0, out=r), out=r)
    # 2 cos of the far (nearer pi) and the near angle, then the angles.
    far, near = np.subtract(sigma, r, out=cos2[0]), np.add(sigma, r, out=cos2[1])
    np.arccos(np.clip(np.multiply(cos2, 0.5, out=theta), -1.0, 1.0, out=theta), out=theta)
    # d gets a row of its own, so that the work rows go once the call returns.
    d = theta[0] * theta[0]
    np.sqrt(np.add(d, np.multiply(theta[1], theta[1], out=spare), out=d), out=d)
    # With h = theta / sin theta, d^2 = arccos(c+)^2 + arccos(c-)^2 moves by
    # (h_far + h_near) dsigma + (h_far - h_near) / (2 sqrt D) dD to first
    # order, and d by that over 2d; the test is multiplied through by 2r, so
    # that r = 0 divides nothing.
    h_far, h_near = np.divide(1.0, np.sinc(np.divide(theta, np.pi, out=theta)), out=theta)
    bound = np.multiply(np.multiply(r, 2.0, out=spare), _TRACE_DSIGMA, out=spare)
    np.multiply(np.add(h_far, h_near, out=far), bound, out=bound)
    np.add(bound, np.multiply(np.subtract(h_far, h_near, out=h_far), _TRACE_DD, out=h_far), out=bound)
    redo = (bound > np.multiply(np.multiply(d, 4.0 * _TRACE_BUDGET, out=h_near), r, out=h_near)) | (r < _CROWDED)
    return d, near, r, redo


def _det_distances(ms: np.ndarray, near: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances to the identity of a (k, 5, 5) SO(5) stack from det(M + I) and the near 2 cos: (d, hand on).

    ``near`` and ``r`` (sqrt D) come from ``_trace_distances``. det(M + I) =
    2 (2 + c_far)(2 + c_near), c = 2 cos theta, so cos^2(theta_far / 2) =
    det(M + I) / (8 (2 + c_near)): near pi, arccos of a small number, which
    stays well-conditioned however close to pi. Samples whose first-order
    bound exceeds ``_TRACE_BUDGET`` (both planes near pi, crowded planes, a
    short distance) or is inf or nan (2 + c_near at 0) are handed on.
    """
    det = np.linalg.det(ms + np.eye(5))
    w = near + 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # cos and sin of half the far angle, then both angles.
        x = np.clip(det / (8.0 * w), 0.0, 1.0)
        s, t = np.sqrt(x), np.sqrt(1.0 - x)
        far, theta = 2.0 * np.arccos(s), np.arccos(np.clip(0.5 * near, -1.0, 1.0))
        d = np.sqrt(far * far + theta * theta)
        # To first order, c_near's error dc = dsigma + dD / (2 sqrt D) moves
        # theta_near by -dc / (2 sin theta_near) and theta_far by
        # cot(theta_far / 2) dc / (2 + c_near), and the determinant's relative
        # error, _DET_E (1/2 + 1/cos(theta_far / 2) + 2 / sqrt(2 + c_near)),
        # moves theta_far by cot(theta_far / 2) times it; d moves by
        # theta_near dtheta_near + theta_far dtheta_far over d. The two dc
        # terms cancel for equal angles, so crowded planes, where dc is not
        # resolved, are handed on by _CROWDED.
        cot = s / t
        dc = _TRACE_DSIGMA + _TRACE_DD / (2.0 * r)
        bound = np.abs(far * cot / w - 0.5 / np.sinc(theta / np.pi)) * dc
        bound += far * _DET_E * (cot * (0.5 + 2.0 / np.sqrt(w)) + 1.0 / t)
        return d, ~(bound <= _TRACE_BUDGET * d) | (r < _CROWDED)


def _distances_to_identity(m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Geodesic distances to the identity of a (k, n, n) SO(n) stack, minimized over m diag(s).

    ``signs`` are (|SG|, n) det +1 rows; the trivial group is one row of ones.
    Nothing here checks membership: the stack must already be in SO(n).
    For n = 5 each distance comes from two traces, or from det(M + I) for
    the samples that route hands on; every sample of any other n is measured
    by the eigenvalues of the symmetric part. The samples the determinant
    route hands on, and those in the symmetric route's zones (``_NEAR_PI``
    and ``_SHORT``), are measured again from the arguments of the general
    eigenvalues. The trivial group measures m itself. A larger orbit is
    measured in stacks of as many sign rows as ``_ORBIT_BYTES`` holds, at
    least one, one call each, since a sample's distance does not depend on
    the other samples of its call.
    """
    if len(signs) == 1:
        return _stack_distances(m)
    n = m.shape[-1]
    rows = max(1, _ORBIT_BYTES // m.nbytes)
    best = np.full(len(m), np.inf)
    for i in range(0, len(signs), rows):
        d = _stack_distances((m * signs[i : i + rows, None, None, :]).reshape(-1, n, n))
        np.minimum(best, d.reshape(-1, len(m)).min(axis=0), out=best)
    return best


def _stack_distances(ms: np.ndarray) -> np.ndarray:
    """Geodesic distances to the identity of a (k, n, n) SO(n) stack: two traces for n = 5, else eigvalsh.

    The samples the trace route hands on take the determinant route; the
    samples that route hands on, or that lie in the eigvalsh route's zones,
    take the arguments of the general eigenvalues.
    """
    if ms.shape[-1] == 5:
        d, near, r, zone = _trace_distances(ms)
        if zone.any():
            d[zone], zone[zone] = _det_distances(ms[zone], near[zone], r[zone])
    else:
        d, zone = _symmetric_distances(ms)
    if zone.any():
        d[zone] = _angle_distances(ms[zone])
    return d


def rotation_angles(a) -> np.ndarray:
    """Principal rotation angles of ``a`` (Rotation or matrix).

    Returns the floor(n/2) angles in [0, pi], sorted descending. Each angle
    of a rotation plane belongs to two eigenvalues exp(+-i psi), and a lone
    +1 gives angle 0 when n is odd, so every other entry of the sorted angles
    is one angle per plane.
    """
    m = _matrix_of(a)
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
