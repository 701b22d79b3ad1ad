import itertools
import math

import numpy as np
import pytest

from oriflag.flagspec import FlagSpec, OrderedPartition, SetPartition, isotropy_group
from oriflag.orthogonal import (
    RngStream,
    Rotation,
    _distances_to_identity,
    geodesic_distance,
    random_special_orthogonal,
    sample_rotation_matrices,
)
from oriflag.quatcover import (
    I,
    J,
    K,
    ONE,
    Hyperspherical,
    JoinCoords,
    UnitQuaternion,
    _lifted_orbits,
    _lifts,
    _spin_lifts,
    cartesian_to_hyperspherical,
    cartesian_to_join,
    hyperspherical_to_cartesian,
    join_to_cartesian,
    lifted_orbit,
    quaternion_to_rotation,
    rotate_vector,
    rotation_to_quaternion,
    sphere_distance,
)

E1, E2, E3 = np.eye(3)
SQ2 = math.sqrt(0.5)
PARTITIONS_111 = {
    "complete": ((1,), (2,), (3,)),
    "p1": ((1,), (2, 3)),
    "p2": ((2,), (1, 3)),
    "p3": ((3,), (1, 2)),
    "trivial": ((1, 2, 3),),
}


def spec_111(blocks):
    return FlagSpec(OrderedPartition((1, 1, 1)), SetPartition(blocks))


def random_unit_quaternion(gen):
    v = gen.standard_normal(4)
    v /= np.linalg.norm(v)
    return UnitQuaternion(*v)


# ------------------------------------------------------------------- algebra

def test_unit_norm_enforced():
    with pytest.raises(ValueError):
        UnitQuaternion(1.0, 1.0, 0.0, 0.0)


def test_quaternion_units_multiply_like_ijk():
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K


# ------------------------------------------------------------- rotate_vector

def test_rotate_vector_identity():
    for u in (E1, E2, E3):
        assert np.array_equal(rotate_vector(ONE, u), u)


def test_rotate_vector_by_i_flips_e2():
    assert np.array_equal(rotate_vector(I, E2), -E2)


def test_rotate_vector_quarter_turn():
    # rotation formula at half-angle pi/4 about e1: cos(pi/2) u + sin(pi/2)(e1 x e2)
    q = UnitQuaternion(SQ2, SQ2, 0.0, 0.0)
    assert np.allclose(rotate_vector(q, E2), E3, atol=1e-15)


def test_rotate_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        rotate_vector(ONE, [1.0, 1.0, 0.0])


def test_rotate_vector_matches_axis_angle_formula():
    gen = RngStream(41).generator()
    for _ in range(300):
        n = gen.standard_normal(3)
        n /= np.linalg.norm(n)
        theta = gen.uniform(0, math.pi)
        u = gen.standard_normal(3)
        u /= np.linalg.norm(u)
        q = UnitQuaternion(math.cos(theta), *(math.sin(theta) * n))
        expected = (
            math.cos(2 * theta) * u
            + math.sin(2 * theta) * np.cross(n, u)
            + (1 - math.cos(2 * theta)) * (u @ n) * n
        )
        assert np.allclose(rotate_vector(q, u), expected, atol=1e-12)


# ----------------------------------------------------------- matrix <-> quat

def test_quaternion_to_rotation_basis_cases():
    assert np.array_equal(quaternion_to_rotation(ONE).matrix, np.eye(3))
    assert np.array_equal(quaternion_to_rotation(I).matrix, np.diag([1.0, -1.0, -1.0]))
    assert np.array_equal(quaternion_to_rotation(J).matrix, np.diag([-1.0, 1.0, -1.0]))
    assert np.array_equal(quaternion_to_rotation(K).matrix, np.diag([-1.0, -1.0, 1.0]))


def test_sign_invariance_is_exact():
    gen = RngStream(42).generator()
    for _ in range(200):
        q = random_unit_quaternion(gen)
        assert np.array_equal(
            quaternion_to_rotation(q).matrix, quaternion_to_rotation(-q).matrix
        )


def test_homomorphism():
    gen = RngStream(43).generator()
    for _ in range(1000):
        p = random_unit_quaternion(gen)
        q = random_unit_quaternion(gen)
        lhs = quaternion_to_rotation(p * q).matrix
        rhs = quaternion_to_rotation(p).matrix @ quaternion_to_rotation(q).matrix
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_rotation_to_quaternion_examples():
    assert rotation_to_quaternion(Rotation.identity(3)) == ONE
    assert rotation_to_quaternion(Rotation(np.diag([1.0, -1.0, -1.0]))) == I
    q = rotation_to_quaternion(quaternion_to_rotation(UnitQuaternion(SQ2, SQ2, 0, 0)))
    assert np.allclose(q.vector, [SQ2, SQ2, 0, 0], atol=1e-15)


def test_rotation_to_quaternion_hemisphere_and_roundtrip():
    gen = RngStream(44).generator()
    for _ in range(1000):
        r = random_special_orthogonal(3, gen)
        q = rotation_to_quaternion(r)
        assert q.x >= 0.0
        assert np.abs(quaternion_to_rotation(q).matrix - r.matrix).max() <= 1e-10


def test_rotation_to_quaternion_pi_rotation_tie_break():
    # angle-pi rotations have x = 0; the first nonzero imaginary part is positive
    gen = RngStream(45).generator()
    for _ in range(100):
        n = gen.standard_normal(3)
        n /= np.linalg.norm(n)
        q_in = UnitQuaternion(0.0, *n)
        q = rotation_to_quaternion(quaternion_to_rotation(q_in))
        assert q.x == 0.0
        imag = [q.y, q.z, q.w]
        first = next(c for c in imag if c != 0.0)
        assert first > 0.0
        assert min(np.abs(q.vector - q_in.vector).max(),
                   np.abs(q.vector + q_in.vector).max()) <= 1e-12


def _half_turn(axis):
    """Rotation by pi about ``axis``: 2 n n^T - I, exactly symmetric."""
    n = np.asarray(axis, dtype=float)
    n /= np.linalg.norm(n)
    return 2.0 * np.outer(n, n) - np.eye(3)


def test_lifts_of_a_stack_cover_every_branch_and_sign_rule():
    gen = RngStream(49).generator()
    half_turns = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -3, 4), (0, 0, -1),
                  (-3, 0, 4), (0, 4, -3), (1, 2, 2), (-2, 1, 2)]
    near_pi = [quaternion_to_rotation(UnitQuaternion.from_axis_angle(e, math.pi - 1e-3)).matrix
               for e in (E1, E2, E3)]
    stack = np.concatenate([
        sample_rotation_matrices(3, 200, gen),
        np.array(near_pi + [_half_turn(a) for a in half_turns] + [np.eye(3)]),
    ])
    diag = np.diagonal(stack, axis1=1, axis2=2)
    branches = np.argmax(np.column_stack([diag.sum(axis=1), diag]), axis=1)
    assert set(branches.tolist()) == {0, 1, 2, 3}

    lifts = _lifts(stack)
    assert lifts.shape == (len(stack), 4)
    for m, q in zip(stack, lifts):
        # independent inverse map: conjugation by the lift reproduces the matrix
        assert np.abs(quaternion_to_rotation(UnitQuaternion(*q)).matrix - m).max() <= 1e-12
        assert q[0] >= 0.0
        assert q[q != 0.0][0] > 0.0
    x_zero = lifts[-len(half_turns) - 1:-1]
    assert np.all(x_zero[:, 0] == 0.0)
    expected = np.array([[0.0, *a] for a in half_turns])
    expected /= np.linalg.norm(expected, axis=1)[:, None]
    expected *= np.sign([row[row != 0.0][0] for row in expected])[:, None]
    assert np.abs(x_zero - expected).max() <= 1e-15
    assert np.array_equal(lifts[-1], [1.0, 0.0, 0.0, 0.0])


def test_lift_real_part_has_haar_mean():
    # Haar angle density (1 - cos t)/pi on [0, pi] gives E cos(t/2) = 4/(3 pi).
    x = _lifts(sample_rotation_matrices(3, 40_000, RngStream(50).generator()))[:, 0]
    stderr = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - 4.0 / (3.0 * math.pi)) <= 5.0 * stderr


# ------------------------------------------------------------ sphere distance

def test_sphere_distance_cases():
    assert sphere_distance(ONE, ONE) == 0.0
    assert sphere_distance(ONE, I) == pytest.approx(math.pi / 2, abs=1e-15)
    assert sphere_distance(ONE, UnitQuaternion(SQ2, SQ2, 0, 0)) == pytest.approx(
        math.pi / 4, abs=1e-15
    )
    assert sphere_distance(ONE, -ONE) == pytest.approx(math.pi, abs=1e-15)


def test_double_cover_scales_distance_by_two():
    gen = RngStream(46).generator()
    eye = Rotation.identity(3)
    for _ in range(1000):
        q = random_unit_quaternion(gen)
        d_sphere = sphere_distance(ONE, q)
        d_rot = geodesic_distance(quaternion_to_rotation(q), eye)
        assert abs(d_rot - 2.0 * min(d_sphere, math.pi - d_sphere)) <= 1e-10


# -------------------------------------------------------------- lifted orbits

def test_lifted_orbit_of_identity():
    full = lifted_orbit(spec_111(PARTITIONS_111["trivial"]), ONE)
    assert full == frozenset({ONE, -ONE, I, -I, J, -J, K, -K})
    assert lifted_orbit(spec_111(PARTITIONS_111["complete"]), ONE) == frozenset({ONE, -ONE})
    assert lifted_orbit(spec_111(PARTITIONS_111["p1"]), ONE) == frozenset({ONE, -ONE, I, -I})
    assert lifted_orbit(spec_111(PARTITIONS_111["p2"]), ONE) == frozenset({ONE, -ONE, J, -J})
    assert lifted_orbit(spec_111(PARTITIONS_111["p3"]), ONE) == frozenset({ONE, -ONE, K, -K})


def test_lifted_orbit_rejects_other_lambdas():
    with pytest.raises(ValueError):
        lifted_orbit(FlagSpec(OrderedPartition((1, 2)), SetPartition(((1, 2),))), ONE)


def test_full_flag_orbit_is_a_sixteen_cell():
    gen = RngStream(47).generator()
    trivial = spec_111(PARTITIONS_111["trivial"])
    for _ in range(50):
        q = random_unit_quaternion(gen)
        orbit = sorted(lifted_orbit(trivial, q), key=lambda u: tuple(u.vector))
        assert len(orbit) == 8
        for a, b in itertools.combinations(orbit, 2):
            dot = float(a.vector @ b.vector)
            assert min(abs(dot), abs(dot + 1.0)) <= 1e-14
            d = sphere_distance(a, b)
            # arccos near -1 amplifies roundoff by sqrt(2/eps), hence 1e-7 there
            tol = 1e-12 if abs(dot) < 0.5 else 1e-7
            assert min(abs(d - math.pi / 2), abs(d - math.pi)) <= tol
        # antipodal pairing: every element's negation is in the orbit
        vectors = {tuple(u.vector) for u in orbit}
        assert all(tuple(-u.vector) in vectors for u in orbit)


def test_quotient_distance_equals_twice_min_orbit_distance():
    # 250 pairs per partition, the draws of 500 alternating random_special_orthogonal calls
    gen = RngStream(48).generator()
    for blocks in PARTITIONS_111.values():
        signs = isotropy_group(spec_111(blocks)).signs
        mats = sample_rotation_matrices(3, 500, gen)
        a, b = mats[0::2], mats[1::2]
        lifts = _spin_lifts(signs)
        dots = np.einsum("kiq,kjq->kij", _lifted_orbits(_lifts(a), lifts), _lifted_orbits(_lifts(b), lifts))
        upstairs = 2.0 * np.arccos(np.clip(dots, -1.0, 1.0)).min(axis=(1, 2))
        downstairs = _distances_to_identity(np.swapaxes(b, 1, 2) @ a, signs)
        assert np.abs(upstairs - downstairs).max() <= 1e-9


# ---------------------------------------------------------------- coordinates

def test_hyperspherical_specific_points():
    assert hyperspherical_to_cartesian(Hyperspherical(0.0, 1.0, 2.0)) == UnitQuaternion(1, 0, 0, 0)
    q = hyperspherical_to_cartesian(Hyperspherical(math.pi / 2, math.pi / 2, 0.0))
    assert np.allclose(q.vector, [0, 0, 1, 0], atol=1e-15)  # the unit j


def test_hyperspherical_roundtrip():
    gen = RngStream(49).generator()
    for _ in range(1000):
        h = Hyperspherical(
            gen.uniform(1e-3, math.pi - 1e-3),
            gen.uniform(1e-3, math.pi - 1e-3),
            gen.uniform(1e-3, 2 * math.pi - 1e-3),
        )
        back = cartesian_to_hyperspherical(hyperspherical_to_cartesian(h))
        assert abs(back.phi1 - h.phi1) <= 1e-12
        assert abs(back.phi2 - h.phi2) <= 1e-12
        assert abs(back.phi3 - h.phi3) <= 1e-12


def test_hyperspherical_range_validation():
    with pytest.raises(ValueError):
        Hyperspherical(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        Hyperspherical(0.0, 3.5, 0.0)
    with pytest.raises(ValueError):
        Hyperspherical(0.0, 0.0, 2 * math.pi)


def test_join_specific_points():
    assert join_to_cartesian(JoinCoords(0.0, 0.0, 1.0)) == UnitQuaternion(1, 0, 0, 0)
    q = join_to_cartesian(JoinCoords(math.pi / 2, 0.0, 0.0))
    assert np.allclose(q.vector, [0, 0, 1, 0], atol=1e-15)


def test_join_roundtrip():
    gen = RngStream(50).generator()
    for _ in range(1000):
        j = JoinCoords(
            gen.uniform(1e-3, math.pi / 2 - 1e-3),
            gen.uniform(-math.pi + 1e-3, math.pi - 1e-3),
            gen.uniform(-math.pi + 1e-3, math.pi - 1e-3),
        )
        back = cartesian_to_join(join_to_cartesian(j))
        assert abs(back.alpha - j.alpha) <= 1e-12
        assert abs(back.theta1 - j.theta1) <= 1e-12
        assert abs(back.theta2 - j.theta2) <= 1e-12


def test_join_range_validation():
    with pytest.raises(ValueError):
        JoinCoords(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        JoinCoords(2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        JoinCoords(0.3, -math.pi, 0.0)


def test_join_band_matches_halfplane_condition():
    # x >= |y| is exactly |theta1| <= pi/4
    gen = RngStream(51).generator()
    for _ in range(500):
        q = random_unit_quaternion(gen)
        j = cartesian_to_join(q)
        assert (q.x >= abs(q.y)) == (abs(j.theta1) <= math.pi / 4 + 1e-15)


def test_hyperspherical_volume_element_integrates_to_sphere_volume():
    # integral of sin^2(phi1) sin(phi2) over the full box is the 3-sphere volume 2 pi^2
    from oriflag.quadrature import nested_integral
    vol = nested_integral(
        lambda _p3, p2, p1: np.sin(p1) ** 2 * math.sin(p2),
        ((0.0, 2 * math.pi), lambda _p3: (0.0, math.pi), lambda _p3, _p2: (0.0, math.pi)),
        1e-9,
    ).value
    assert vol == pytest.approx(2 * math.pi**2, abs=1e-8)


def test_join_volume_element_integrates_to_sphere_volume():
    from oriflag.quadrature import nested_integral
    vol = nested_integral(
        lambda _t2, _t1, alpha: np.cos(alpha) * np.sin(alpha),
        ((-math.pi, math.pi), lambda _t2: (-math.pi, math.pi), lambda _t2, _t1: (0.0, math.pi / 2)),
        1e-9,
    ).value
    assert vol == pytest.approx(2 * math.pi**2, abs=1e-8)
