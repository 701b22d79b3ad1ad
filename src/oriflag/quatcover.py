"""The double cover of SO(3) by unit quaternions.

Quaternions are written q = x + y i + z j + w k with real part x, matching
the Cartesian coordinates (x, y, z, w) on the unit 3-sphere. Conjugation
q u q^-1 rotates the purely imaginary quaternion u, and q, -q induce the same
rotation, so the covering map scales distances by exactly 2. The lift table
of the diagonal sign matrices of SO(3) and SO(4), signed units in {1, i, j, k},
is defined here for the lifted isotropy orbits and the spin-cover kernels.
Two coordinate systems on the 3-sphere are provided: hyperspherical angles and
join coordinates (the 3-sphere as a join of two circles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flagspec import FlagSpec, isotropy_group
from .orthogonal import Rotation, _column_norms

UNIT_TOL = 1e-12


@dataclass(frozen=True)
class UnitQuaternion:
    """A point of the unit 3-sphere: x + y i + z j + w k with real part x."""

    x: float
    y: float
    z: float
    w: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "w", float(self.w))
        norm2 = self.x**2 + self.y**2 + self.z**2 + self.w**2
        if not abs(norm2 - 1.0) <= 2 * UNIT_TOL:
            raise ValueError(f"not a unit quaternion: |q|^2 = {norm2!r}")

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "UnitQuaternion":
        """The lift cos(angle/2) + sin(angle/2) n of rotation by ``angle`` about ``n``."""
        n = np.asarray(axis, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"expected a 3-vector axis, got shape {n.shape}")
        norm = np.linalg.norm(n)
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise ValueError("axis must be a unit 3-vector")
        h = 0.5 * angle
        s = math.sin(h)
        return cls(math.cos(h), s * n[0], s * n[1], s * n[2])

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.w])

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(self.x, -self.y, -self.z, -self.w)

    def __neg__(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.x, -self.y, -self.z, -self.w)

    def __mul__(self, other: "UnitQuaternion") -> "UnitQuaternion":
        if not isinstance(other, UnitQuaternion):
            return NotImplemented
        return UnitQuaternion(*_mul_raw(
            (self.x, self.y, self.z, self.w), (other.x, other.y, other.z, other.w)
        ))


ONE = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
I = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
J = UnitQuaternion(0.0, 0.0, 1.0, 0.0)
K = UnitQuaternion(0.0, 0.0, 0.0, 1.0)


# Coordinate c of the Hamilton product p q sums the terms p_k q_(k xor c), k =
# 0, 1, 2, 3 in that order, with these signs: the order and signs that both
# _mul_raw and _conj_mul_coords round in.
_HAMILTON_SIGNS = ((1, -1, -1, -1), (1, 1, 1, -1), (1, -1, 1, 1), (1, 1, -1, 1))


def _mul_raw(p: tuple, q: tuple) -> tuple:
    """Hamilton product on raw 4-tuples (or (4, count) rows), no unit-norm validation."""
    out = []
    for c, signs in enumerate(_HAMILTON_SIGNS):
        x = p[0] * q[c]
        for k in (1, 2, 3):
            x = x + p[k] * q[k ^ c] if signs[k] > 0 else x - p[k] * q[k ^ c]
        out.append(x)
    return tuple(out)


def _conj_mul_coords(b: np.ndarray, a: np.ndarray, coords, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Coordinates ``coords`` of conj(b) a for (4, count) rows b and a, written to the (len(coords), count) ``out``.

    The terms of ``_mul_raw(conj(b), a)`` in its order; conj(b)_k = -b_k for
    k > 0, so those terms are added where _mul_raw subtracts them, which
    rounds the same. Every step writes into ``out`` or the (count,) row
    ``term``, neither of which may overlap b or a.
    """
    for row, c in zip(out, coords):
        np.multiply(b[0], a[c], out=row)
        for k in (1, 2, 3):
            op = np.subtract if _HAMILTON_SIGNS[c][k] > 0 else np.add
            op(row, np.multiply(b[k], a[k ^ c], out=term), out=row)
    return out


def rotate_vector(q: UnitQuaternion, u) -> np.ndarray:
    """Rotate the unit 3-vector ``u`` by the rotation covered by ``q``.

    Computed as the quaternion conjugation q u q^-1; for q = cos t + sin t n
    this is rotation of u about the axis n by angle 2t.
    """
    v = np.asarray(u, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not abs(v @ v - 1.0) <= 2 * UNIT_TOL:
        raise ValueError("vector must have unit norm")
    p = (q.x, q.y, q.z, q.w)
    out = _mul_raw(_mul_raw(p, (0.0, v[0], v[1], v[2])), (q.x, -q.y, -q.z, -q.w))
    return np.array(out[1:])


def quaternion_to_rotation(q: UnitQuaternion) -> Rotation:
    """The 3x3 rotation covered by ``q``; columns are the rotated basis vectors.

    Exactly even in q: the matrix for -q is computed identically.
    """
    cols = [rotate_vector(q, e) for e in np.eye(3)]
    return Rotation(np.column_stack(cols))


def _lifts(m: np.ndarray) -> np.ndarray:
    """Lifts (x, y, z, w) of a (k, 3, 3) rotation stack, first nonzero coordinate positive.

    Shepperd's method: the symmetric matrix below is 4 q q^T, so each row is q
    scaled by 4 q_b. The row of the largest of t, m00, m11, m22 has the largest
    q_b and so avoids cancellation near rotation angle pi; only its diagonal
    entry is square-rooted. The sign rule picks x > 0, or at angle exactly pi
    (x = 0) the lift whose first nonzero imaginary coordinate is positive.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = np.moveaxis(m, 0, -1)
    t = m00 + m11 + m22
    a, b, c = m21 - m12, m02 - m20, m10 - m01
    d, e, f = m01 + m10, m02 + m20, m12 + m21
    shepperd = np.stack([
        1.0 + t, a, b, c,
        a, 1.0 + m00 - m11 - m22, d, e,
        b, d, 1.0 + m11 - m00 - m22, f,
        c, e, f, 1.0 + m22 - m00 - m11,
    ], axis=-1).reshape(-1, 4, 4)
    rows = np.arange(len(t))
    branch = np.argmax(np.stack([t, m00, m11, m22], axis=-1), axis=-1)
    s = 2.0 * np.sqrt(shepperd[rows, branch, branch])
    q = shepperd[rows, branch] / s[:, None]
    q[rows, branch] = 0.25 * s
    q /= _column_norms(q.T)[:, None]
    first = q[rows, np.argmax(q != 0.0, axis=-1)]
    q[first < 0.0] *= -1.0
    return q


def rotation_to_quaternion(r: Rotation) -> UnitQuaternion:
    """The lift of ``r`` with x >= 0; at angle pi (x = 0), first nonzero coordinate positive."""
    if not isinstance(r, Rotation) or r.n != 3:
        raise ValueError("expected a 3x3 Rotation")
    return UnitQuaternion(*_lifts(r.matrix[None])[0])


def sphere_distance(p: UnitQuaternion, q: UnitQuaternion) -> float:
    """Great-circle distance on the unit 3-sphere, in [0, pi]."""
    dot = p.x * q.x + p.y * q.y + p.z * q.z + p.w * q.w
    return math.acos(min(1.0, max(-1.0, dot)))


# H: row c is the diagonal of x -> e_c x conj(e_c) on the quaternions for
# e_c = 1, i, j, k; it fixes 1 and e_c and negates the other two axes. H is
# symmetric with H H = 4 I.
_CONJUGATIONS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def _spin_lifts(signs: np.ndarray) -> np.ndarray:
    """The spin-cover lifts of (|SG|, n) det +1 sign rows: (|SG|, 4) units u for n = 3, (|SG|, 2, 4) pairs (u, v) for n = 4.

    Every such row is a row of H = ``_CONJUGATIONS`` up to sign. For n = 3 it
    is H[c] on the imaginary axes, so (1, s) H / 4 = e_c. For n = 4 it is
    s = s0 H[c], so u = s H / 4 = s0 e_c and v = |u| = e_c.
    """
    if signs.shape[1] == 3:
        return (1.0 + signs @ _CONJUGATIONS[1:]) / 4.0
    u = signs @ _CONJUGATIONS / 4.0
    return np.stack([u, np.abs(u)], axis=1)


# Re(q u) = q . (u * _CONJ) for quaternions q and u, as 4-vectors.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _lift_columns(lifts: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per column of a lift table (one at n = 3, two at n = 4): the coordinates of q that Re(q u) reads, and the rows of u * _CONJ there.

    Each u is a signed unit, so each row has one nonzero entry, and ``rows @
    q[coords]`` gives Re(q u) for (4, count) quaternions q without rounding.
    """
    columns = [lifts] if lifts.ndim == 2 else [lifts[:, 0], lifts[:, 1]]
    coords = [np.flatnonzero(units.any(axis=0)) for units in columns]
    return tuple((c, (units * _CONJ)[:, c]) for c, units in zip(coords, columns))


def _lifted_orbits(q: np.ndarray, lifts: np.ndarray) -> np.ndarray:
    """The lifted orbits +-(q u) of (k, 4) quaternions q and (|SG|, 4) units u, as (k, 2|SG|, 4)."""
    qu = np.stack(_mul_raw(q.T[:, :, None], lifts.T[:, None, :]), axis=-1)
    return np.concatenate([qu, -qu], axis=1)


def lifted_orbit(spec: FlagSpec, q: UnitQuaternion) -> frozenset[UnitQuaternion]:
    """Preimage on the 3-sphere of the isotropy coset through ``q``'s rotation.

    For lambda = (1,1,1) the isotropy group SG is finite and the coset of
    A = quaternion_to_rotation(q) is {A h : h in SG}; its full preimage under
    the double cover is {+-(q u) : u the lift of h}. The trivial partition
    (full flag) yields the eight vertices of a rotated regular 16-cell.
    """
    if spec.lam.parts != (1, 1, 1):
        raise ValueError(f"lifted orbits require lambda = (1,1,1), got ({spec.lam})")
    lifts = _spin_lifts(isotropy_group(spec).signs)
    return frozenset(UnitQuaternion(*u) for u in _lifted_orbits(q.vector[None], lifts)[0])


@dataclass(frozen=True)
class Hyperspherical:
    """Hyperspherical angles (phi1, phi2, phi3) on the unit 3-sphere.

    Cartesian coordinates are x = cos phi1, y = sin phi1 cos phi2,
    z = sin phi1 sin phi2 cos phi3, w = sin phi1 sin phi2 sin phi3, with the
    volume element sin^2 phi1 sin phi2. The x >= 0 half (phi1 <= pi/2)
    parametrizes SO(3), where the induced volume element is 8 sin^2 phi1 sin phi2.
    """

    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.phi1 <= math.pi and 0.0 <= self.phi2 <= math.pi):
            raise ValueError(f"phi1, phi2 must lie in [0, pi]: {self}")
        if not (0.0 <= self.phi3 < 2.0 * math.pi):
            raise ValueError(f"phi3 must lie in [0, 2*pi): {self}")


@dataclass(frozen=True)
class JoinCoords:
    """Join coordinates (alpha, theta1, theta2) on the unit 3-sphere.

    Cartesian coordinates are x = cos alpha cos theta1, y = cos alpha sin theta1,
    z = sin alpha cos theta2, w = sin alpha sin theta2; the volume element is
    cos alpha sin alpha. Level sets of alpha are tori collapsing to circles at
    alpha = 0 and alpha = pi/2. Angles are normalized to (-pi, pi], which makes
    the region x >= |y| the contiguous band |theta1| <= pi/4.
    """

    alpha: float
    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 0.5 * math.pi:
            raise ValueError(f"alpha must lie in [0, pi/2]: {self}")
        if not (-math.pi < self.theta1 <= math.pi and -math.pi < self.theta2 <= math.pi):
            raise ValueError(f"theta1, theta2 must lie in (-pi, pi]: {self}")


def hyperspherical_to_cartesian(h: Hyperspherical) -> UnitQuaternion:
    s1, s2 = math.sin(h.phi1), math.sin(h.phi2)
    return UnitQuaternion(
        math.cos(h.phi1),
        s1 * math.cos(h.phi2),
        s1 * s2 * math.cos(h.phi3),
        s1 * s2 * math.sin(h.phi3),
    )


def cartesian_to_hyperspherical(q: UnitQuaternion) -> Hyperspherical:
    phi1 = math.acos(min(1.0, max(-1.0, q.x)))
    r = math.hypot(q.z, q.w)
    phi2 = math.atan2(r, q.y)
    phi3 = math.atan2(q.w, q.z) % (2.0 * math.pi)
    if phi3 >= 2.0 * math.pi:  # float mod can round a tiny negative up to 2*pi
        phi3 = 0.0
    return Hyperspherical(phi1, phi2, phi3)


def join_to_cartesian(j: JoinCoords) -> UnitQuaternion:
    ca, sa = math.cos(j.alpha), math.sin(j.alpha)
    return UnitQuaternion(
        ca * math.cos(j.theta1),
        ca * math.sin(j.theta1),
        sa * math.cos(j.theta2),
        sa * math.sin(j.theta2),
    )


def cartesian_to_join(q: UnitQuaternion) -> JoinCoords:
    alpha = math.atan2(math.hypot(q.z, q.w), math.hypot(q.x, q.y))
    theta1 = math.atan2(q.y, q.x)
    theta2 = math.atan2(q.w, q.z)
    if theta1 <= -math.pi:
        theta1 = math.pi
    if theta2 <= -math.pi:
        theta2 = math.pi
    return JoinCoords(alpha, theta1, theta2)
