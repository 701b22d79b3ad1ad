import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oriflag.flagspec import FlagSpec, OrderedPartition, SetPartition, isotropy_group
from oriflag.montecarlo import (
    Estimate,
    _real_parts,
    _unit_vectors,
    estimate_expected_distance,
    sample_distances,
    sphere_point,
)
from oriflag.orthogonal import (
    RngStream,
    Rotation,
    _distances_to_identity,
    quotient_distance,
    random_special_orthogonal,
)
from oriflag.quatcover import UnitQuaternion, _lifts, _mul_raw, quaternion_to_rotation
from oriflag.spaces import SPACE_ALIASES, UnsupportedSpaceError, classify, parse_space, space_label
from oriflag.analytic import analytic_expected_distance
from weyl import expected_distance as weyl_expected_distance


def spec(parts, blocks):
    return FlagSpec(OrderedPartition(tuple(parts)), SetPartition(tuple(tuple(b) for b in blocks)))


KLEIN = isotropy_group(SPACE_ALIASES["full-flag"])
P1_GROUP = isotropy_group(SPACE_ALIASES["partial-flag-1"])


def rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return Rotation([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# ---------------------------------------------------------- quotient distance

def test_quotient_distance_trivial_cases():
    eye = Rotation.identity(3)
    assert quotient_distance(eye, eye, KLEIN) == 0.0
    member = Rotation(np.diag([-1.0, -1.0, 1.0]))
    assert quotient_distance(member, eye, KLEIN) <= 1e-12
    gen = RngStream(35).generator()
    for _ in range(50):
        a = random_special_orthogonal(3, gen)
        assert quotient_distance(a, a, KLEIN) == 0.0


def test_quotient_distance_is_exactly_zero_on_one_coset():
    # b = a diag(s) names the coset of a, though b^T a only rounds to diag(s)
    group = isotropy_group(spec((1,) * 5, [(1, 2), (3, 4, 5)]))
    so5 = isotropy_group(spec((1,) * 5, [(i,) for i in range(1, 6)]))
    gen = RngStream(1).generator()
    for _ in range(200):
        a = random_special_orthogonal(5, gen)
        for s in group.signs:
            assert quotient_distance(a, a.matrix * s, group) == 0.0
        # on SO(5) itself each of those flips is a half-turn in one or two planes
        for s in group.signs[1:]:
            assert quotient_distance(a, a.matrix * s, so5) >= math.pi - 1e-12
    # the distance is still taken first, so a matrix outside SO(n) raises
    with pytest.raises(ArithmeticError):
        quotient_distance(2.0 * np.eye(5), 2.0 * np.eye(5), group)


def test_quotient_distance_quarter_turn():
    # both orbit representatives of the quarter turn about e1 are a quarter
    # turn away from the identity, checked by brute force over the orbit
    eye = Rotation.identity(3)
    a = rot_x(math.pi / 2)
    orbit = [a.matrix * s for s in P1_GROUP.signs]
    brute = [math.acos(np.clip((np.trace(m) - 1) / 2, -1, 1)) for m in orbit]
    assert brute == pytest.approx([math.pi / 2, math.pi / 2], abs=1e-12)
    assert abs(quotient_distance(a, eye, P1_GROUP) - math.pi / 2) <= 1e-10


def test_quotient_distance_symmetry():
    gen = RngStream(61).generator()
    for group in (P1_GROUP, KLEIN):
        for _ in range(500):
            a = random_special_orthogonal(3, gen)
            b = random_special_orthogonal(3, gen)
            assert abs(
                quotient_distance(a, b, group) - quotient_distance(b, a, group)
            ) <= 1e-10


def test_quotient_distance_invariant_on_cosets():
    gen = RngStream(62).generator()
    for group in (P1_GROUP, KLEIN):
        for _ in range(100):
            a = random_special_orthogonal(3, gen)
            b = random_special_orthogonal(3, gen)
            base = quotient_distance(a, b, group)
            for s in group.signs:
                shifted = Rotation(a.matrix * s)
                assert abs(quotient_distance(shifted, b, group) - base) <= 1e-10


def test_quotient_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        quotient_distance(Rotation.identity(4), Rotation.identity(4), KLEIN)


# -------------------------------------------------------------- sphere points

def test_sphere_point_is_unit_and_deterministic():
    a = sphere_point(RngStream(7).generator())
    b = sphere_point(RngStream(7).generator())
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12


def test_short_draws_are_redrawn_in_their_own_dimension(monkeypatch):
    # raise the threshold the helper reads, so about 1% of 4-D draws are redrawn
    whole = _unit_vectors(RngStream(8).generator(), 1000, 4)
    monkeypatch.setitem(_unit_vectors.__globals__, "_MIN_NORM", 0.5)
    redrawn = _unit_vectors(RngStream(8).generator(), 1000, 4)
    assert redrawn.shape == (1000, 4)
    assert np.abs(np.linalg.norm(redrawn, axis=1) - 1.0).max() <= 1e-12
    changed = (redrawn != whole).any(axis=1)
    assert 0 < changed.sum() < 50


def test_sphere_and_projective_distances_from_base_point():
    # distance semantics at the three reference directions
    for v, d_sphere, d_proj in [
        (np.array([0.0, 0.0, 1.0]), 0.0, 0.0),
        (np.array([1.0, 0.0, 0.0]), math.pi / 2, math.pi / 2),
        (np.array([0.0, 0.0, -1.0]), math.pi, 0.0),
    ]:
        assert math.acos(np.clip(v[2], -1, 1)) == pytest.approx(d_sphere, abs=1e-15)
        assert math.acos(np.clip(abs(v[2]), -1, 1)) == pytest.approx(d_proj, abs=1e-15)


# ------------------------------------------------------------------ estimates

def test_estimate_matches_analytic_at_1e5():
    for name in ("so3", "partial-flag-1", "full-flag", "s2", "rp2"):
        space = SPACE_ALIASES[name]
        est = estimate_expected_distance(space, 100_000, seed=101)
        ref = analytic_expected_distance(space).value
        assert abs(est.mean - ref) <= 5 * est.stderr, name


def test_two_point_equivalence_on_so3():
    space = SPACE_ALIASES["so3"]
    one = estimate_expected_distance(space, 100_000, seed=5)
    two = estimate_expected_distance(space, 100_000, seed=6, two_point=True)
    combined = math.hypot(one.stderr, two.stderr)
    assert abs(one.mean - two.mean) <= 5 * combined


def test_two_point_equivalence_on_quotients_and_sphere():
    for name in ("partial-flag-1", "s2", "rp2"):
        space = SPACE_ALIASES[name]
        one = estimate_expected_distance(space, 60_000, seed=15)
        two = estimate_expected_distance(space, 60_000, seed=16, two_point=True)
        combined = math.hypot(one.stderr, two.stderr)
        assert abs(one.mean - two.mean) <= 5 * combined, name


def test_refinement_monotonicity_per_sample():
    n = 100_000
    d_so3 = sample_distances(SPACE_ALIASES["so3"], n, RngStream(77).generator())
    d_p1 = sample_distances(SPACE_ALIASES["partial-flag-1"], n, RngStream(77).generator())
    d_full = sample_distances(SPACE_ALIASES["full-flag"], n, RngStream(77).generator())
    # identical rotation stream, minima over nested orbits: exact ordering
    assert np.all(d_full <= d_p1)
    assert np.all(d_p1 <= d_so3)
    assert d_full.mean() <= d_p1.mean() <= d_so3.mean()


def test_bit_for_bit_determinism():
    space = SPACE_ALIASES["partial-flag-1"]
    for workers in (1, 3):
        a = estimate_expected_distance(space, 30_000, seed=9, workers=workers)
        b = estimate_expected_distance(space, 30_000, seed=9, workers=workers)
        assert a == b
    arr1 = sample_distances(space, 10_000, RngStream(9).generator())
    arr2 = sample_distances(space, 10_000, RngStream(9).generator())
    assert np.array_equal(arr1, arr2)


@pytest.mark.parametrize("text", ["so5", "lambda=1,1,1,1,1 P={1,2}{3,4,5}"])
def test_bit_for_bit_determinism_on_the_matrix_path(text):
    space = parse_space(text)
    for workers in (1, 3):
        for two_point in (False, True):
            a = estimate_expected_distance(space, 2_000, seed=9, workers=workers, two_point=two_point)
            b = estimate_expected_distance(space, 2_000, seed=9, workers=workers, two_point=two_point)
            assert a == b


def test_one_chunk_does_not_ask_for_the_cpu_count(monkeypatch):
    def unexpected():
        raise AssertionError("os.cpu_count called for a single chunk")

    monkeypatch.setattr(os, "cpu_count", unexpected)
    for space, workers, n in (("so5", 1, 100), ("so4", 1, 100), ("s2", 4, 1)):
        estimate_expected_distance(parse_space(space), n, seed=2, workers=workers)


def test_threads_capped_at_cpu_count(monkeypatch):
    import oriflag.montecarlo as mc

    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    space = SPACE_ALIASES["full-flag"]
    results = []
    for cpus, threads in ((8, [4]), (2, [2]), (None, [])):
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        results.append(estimate_expected_distance(space, 5_000, seed=6, workers=4))
        assert pools == threads
    assert results[0] == results[1] == results[2]


def test_only_nonempty_chunks_run(monkeypatch):
    import oriflag.montecarlo as mc

    chunks = []
    real = mc._chunk_stats

    def counting(kern, seed, chunk, size, two_point):
        chunks.append(chunk)
        return real(kern, seed, chunk, size, two_point)

    monkeypatch.setattr(mc, "_chunk_stats", counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    space = SPACE_ALIASES["s2"]
    many = estimate_expected_distance(space, 5, seed=9, workers=1000)
    assert sorted(chunks) == [0, 1, 2, 3, 4]
    assert many == estimate_expected_distance(space, 5, seed=9, workers=5)


def test_workers_split_covers_all_samples():
    est = estimate_expected_distance(SPACE_ALIASES["s2"], 10_001, seed=3, workers=7)
    assert est.n_samples == 10_001


def test_estimate_statistics_match_numpy():
    space = SPACE_ALIASES["so3"]
    est = estimate_expected_distance(space, 50_000, seed=42)
    d = sample_distances(space, 50_000, RngStream(42, 0).generator())
    assert est.mean == pytest.approx(float(d.mean()), rel=1e-12)
    assert est.stderr == pytest.approx(float(d.std(ddof=1) / math.sqrt(len(d))), rel=1e-12)


def test_point_space_and_single_sample():
    est = estimate_expected_distance(SPACE_ALIASES["trivial-flag"], 1000, seed=1)
    assert est.mean == 0.0 and est.stderr == 0.0
    single = estimate_expected_distance(SPACE_ALIASES["so3"], 1, seed=1)
    assert single.stderr == 0.0 and single.n_samples == 1


def _left(p):
    """The 4x4 matrix of x -> p x on R^4 = H."""
    return np.column_stack([_mul_raw(tuple(p), tuple(e)) for e in np.eye(4)])


def _right(q):
    """The 4x4 matrix of x -> x q on R^4 = H."""
    return np.column_stack([_mul_raw(tuple(e), tuple(q)) for e in np.eye(4)])


def _cover_rotation(p, q):
    """x -> p x conj(q), the rotation of SO(4) covered by (p, q)."""
    return _left(p) @ _right(q * np.array([1.0, -1.0, -1.0, -1.0]))


FLAGS_4 = ("so4", "lambda=1,1,1,1 P={1,2}{3,4}", "lambda=1,1,1,1 P={1,2,3,4}")


def test_cover_kernel_matches_eigenvalue_orbit_minimum():
    # common draws: the points the kernel drew, rebuilt as matrices and
    # measured by eigenvalues against explicit orbit minimization
    eye3 = Rotation.identity(3)
    for name in ("so3", "partial-flag-1", "full-flag"):
        space = SPACE_ALIASES[name]
        iso = isotropy_group(space)
        d = sample_distances(space, 64, RngStream(88).generator())
        d2 = sample_distances(space, 64, RngStream(89).generator(), two_point=True)
        q = _unit_vectors(RngStream(88).generator(), 64, 4)
        gen = RngStream(89).generator()
        qa, qb = _unit_vectors(gen, 64, 4), _unit_vectors(gen, 64, 4)
        for i in range(64):
            explicit = quotient_distance(quaternion_to_rotation(UnitQuaternion(*q[i])), eye3, iso)
            assert abs(d[i] - explicit) <= 1e-12, name
            a = quaternion_to_rotation(UnitQuaternion(*qa[i]))
            b = quaternion_to_rotation(UnitQuaternion(*qb[i]))
            assert abs(d2[i] - quotient_distance(a, b, iso)) <= 1e-12, name
    for text in FLAGS_4:
        space = parse_space(text)
        iso = isotropy_group(space)
        signs = iso.signs
        d = sample_distances(space, 64, RngStream(88).generator())
        d2 = sample_distances(space, 64, RngStream(89).generator(), two_point=True)
        gen = RngStream(88).generator()
        p, q = _unit_vectors(gen, 64, 4), _unit_vectors(gen, 64, 4)
        gen = RngStream(89).generator()
        pa, pb, qa, qb = (_unit_vectors(gen, 64, 4) for _ in range(4))
        for i in range(64):
            m = _cover_rotation(p[i], q[i])
            explicit = _distances_to_identity(m * signs[:, None, :], np.ones((1, 4))).min()
            assert abs(d[i] - explicit) <= 1e-12, text
            a, b = _cover_rotation(pa[i], qa[i]), _cover_rotation(pb[i], qb[i])
            assert abs(d2[i] - quotient_distance(a, b, iso)) <= 1e-12, text


def normalize_first_distances(kern, gen, count):
    """One-point distances as drawn by whole unit rows, the reference for the raw-row kernels."""
    if kern.family in ("s2", "rp2"):
        cos = _unit_vectors(gen, count, 3)[:, 2]
        if len(kern.signs) > 1:
            cos = np.abs(cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))
    if kern.lifts.ndim == 2:
        cos = np.abs(_real_parts(kern.lifts, _unit_vectors(gen, count, 4).T)).max(axis=0)
        return 2.0 * np.arccos(np.minimum(cos, 1.0))
    p, q = _unit_vectors(gen, count, 4).T, _unit_vectors(gen, count, 4).T
    a = np.arccos(np.clip(_real_parts(kern.lifts[:, 0], p), -1.0, 1.0))
    b = np.arccos(np.clip(_real_parts(kern.lifts[:, 1], q), -1.0, 1.0))
    plus = a + b
    plus = np.minimum(plus, 2.0 * np.pi - plus)
    return np.sqrt((plus * plus + (a - b) ** 2).min(axis=0))


def set_partitions(k):
    """Every set partition of {1, ..., k} as a list of blocks."""
    if k == 0:
        yield []
        return
    for p in set_partitions(k - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + (k,)] + p[i + 1:]
        yield p + [(k,)]


def test_one_point_kernels_match_normalize_first_draws(monkeypatch):
    # every n = 3 and n = 4 lift table, and the sphere and projective plane;
    # the second pass raises the threshold so that about 1-3% of rows are redrawn
    spaces = [SPACE_ALIASES["s2"], SPACE_ALIASES["rp2"]]
    spaces += [spec((1,) * k, blocks) for k in (3, 4) for blocks in set_partitions(k)]
    assert sum(classify(s).lifts is not None for s in spaces) == 5 + 15
    plain = {}
    for min_norm in (None, 0.5):
        if min_norm is not None:
            monkeypatch.setitem(_unit_vectors.__globals__, "_MIN_NORM", min_norm)
        for space in spaces:
            label = space_label(space)
            got = sample_distances(space, 4000, RngStream(61).generator())
            want = normalize_first_distances(classify(space), RngStream(61).generator(), 4000)
            assert np.array_equal(got, want), label
            if min_norm is None:
                plain[label] = got
            else:
                assert (got != plain[label]).any(), label


def test_lift_table_reproduces_every_sign_row():
    # the full flags list every det +1 diagonal sign matrix of SO(3) and SO(4)
    kern3 = classify(SPACE_ALIASES["full-flag"])
    assert kern3.signs.shape == (4, 3)
    for s, u in zip(kern3.signs, kern3.lifts):
        lift = _lifts(np.diag(s)[None])[0]
        assert np.array_equal(np.abs(lift), np.abs(u))
        assert np.array_equal(quaternion_to_rotation(UnitQuaternion(*u)).matrix, np.diag(s))
    kern4 = classify(parse_space("lambda=1,1,1,1 P={1,2,3,4}"))
    assert kern4.signs.shape == (8, 4)
    for s, (u, v) in zip(kern4.signs, kern4.lifts):
        assert np.array_equal(_cover_rotation(u, v), np.diag(s))
    # the smaller groups keep each row's own lift
    for text in ("so4", "lambda=1,1,1,1 P={1,2}{3,4}", "lambda=1,1,1,1 P={1}{2,3,4}"):
        kern = classify(parse_space(text))
        for s, (u, v) in zip(kern.signs, kern.lifts):
            assert np.array_equal(_cover_rotation(u, v), np.diag(s)), text
    assert classify(parse_space("so5")).lifts is None
    assert classify(parse_space("so2")).lifts is None


# E d(I, A) on SO(n) from an earlier, independent product-rule computation.
WEYL_TABLE = {
    4: 2.612856192197842,
    5: 2.936539496206314,
    6: 3.218057438212068,
    7: 3.472448306723624,
    8: 3.707154574528919,
    9: 3.926549194501219,
}


def test_weyl_values_match_the_table():
    for n, value in WEYL_TABLE.items():
        mean, bound = weyl_expected_distance(n)
        assert abs(mean - value) <= bound < 1e-13, n


def test_so4_cover_estimate_matches_weyl_value():
    so4 = parse_space("so4")
    one = estimate_expected_distance(so4, 200_000, seed=31)
    two = estimate_expected_distance(so4, 200_000, seed=32, two_point=True)
    for est in (one, two):
        assert abs(est.mean - weyl_expected_distance(4)[0]) <= 5 * est.stderr


def test_so5_estimate_matches_weyl_value():
    so5 = parse_space("so5")
    one = estimate_expected_distance(so5, 200_000, seed=34)
    two = estimate_expected_distance(so5, 100_000, seed=35, two_point=True)
    for est in (one, two):
        assert abs(est.mean - weyl_expected_distance(5)[0]) <= 5 * est.stderr


@pytest.mark.parametrize("n", range(6, 10))
def test_son_estimate_matches_weyl_value(n):
    est = estimate_expected_distance(parse_space(f"so{n}"), 10_000, seed=36 + n)
    assert abs(est.mean - weyl_expected_distance(n)[0]) <= 5 * est.stderr


def test_full_flag_two_point_cover_estimate():
    space = SPACE_ALIASES["full-flag"]
    est = estimate_expected_distance(space, 200_000, seed=33, two_point=True)
    assert abs(est.mean - analytic_expected_distance(space).value) <= 5 * est.stderr


def test_qr_batches_sized_by_memory(monkeypatch):
    import oriflag.montecarlo as mc

    sizes = []
    real = mc._kernel_distances

    def recording(kern, gen, count, two_point):
        sizes.append(count)
        return real(kern, gen, count, two_point)

    so5 = parse_space("so5")
    whole = sample_distances(so5, 500, RngStream(5).generator())
    monkeypatch.setattr(mc, "_kernel_distances", recording)
    monkeypatch.setattr(mc, "_BATCH_BYTES", 8 * 25 * mc._STACKS * 120)
    split = sample_distances(so5, 500, RngStream(5).generator())
    assert sizes == [120, 120, 120, 120, 20]
    # one-point draws are consumed in order, so smaller batches give the same samples
    assert np.array_equal(split, whole)
    # never below one sample, and the cover kernels keep the full batch
    monkeypatch.setattr(mc, "_BATCH_BYTES", 1)
    assert mc._batch_size(classify(so5)) == 1
    assert mc._batch_size(classify(parse_space("so4"))) == mc._BATCH
    assert mc._batch_size(classify(SPACE_ALIASES["s2"])) == mc._BATCH


def test_general_dimension_slow_paths():
    # SO(4) and a rank-4 sign quotient on the spin-cover kernel; the matrix
    # route is so5's, in test_so5_estimate_matches_weyl_value
    est = estimate_expected_distance(parse_space("so4"), 64, seed=2)
    assert est.mean > 0.0
    s = spec((1, 1, 1, 1), [(1, 2, 3, 4)])
    est_q = estimate_expected_distance(s, 64, seed=2)
    assert 0.0 < est_q.mean < est.mean
    # two-point slow path
    est_2p = estimate_expected_distance(parse_space("so4"), 64, seed=2, two_point=True)
    assert est_2p.mean > 0.0


def test_so2_by_alias_of_ones():
    # lambda = (1,1): complete partition is SO(2), trivial is its half quotient
    so2 = spec((1, 1), [(1,), (2,)])
    half = spec((1, 1), [(1, 2)])
    d_full = sample_distances(so2, 20_000, RngStream(4).generator())
    d_half = sample_distances(half, 20_000, RngStream(4).generator())
    assert np.all(d_half <= d_full)
    assert d_full.max() <= math.pi
    assert d_half.max() <= math.pi / 2 + 1e-12
    # uniform angle on [0, pi] has mean pi/2; folded version has mean pi/4
    assert d_full.mean() == pytest.approx(math.pi / 2, abs=0.02)
    assert d_half.mean() == pytest.approx(math.pi / 4, abs=0.01)


def test_unsupported_spaces_rejected():
    with pytest.raises(UnsupportedSpaceError):
        estimate_expected_distance(spec((2, 2), [(1, 2)]), 10, seed=0)
    with pytest.raises(UnsupportedSpaceError):
        estimate_expected_distance(spec((1, 3), [(1,), (2,)]), 10, seed=0)


def test_builtin_sphere_spaces_match_flag_aliases():
    est_sphere = estimate_expected_distance(SPACE_ALIASES["s2"], 5_000, seed=12)
    est_proj = estimate_expected_distance(SPACE_ALIASES["rp2"], 5_000, seed=12)
    # the transposed two-part lambda names the same spaces
    assert estimate_expected_distance(spec((2, 1), [(1,), (2,)]), 5_000, seed=12) == est_sphere
    assert estimate_expected_distance(spec((2, 1), [(1, 2)]), 5_000, seed=12) == est_proj


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_expected_distance(SPACE_ALIASES["s2"], 0, seed=0)
    with pytest.raises(ValueError):
        estimate_expected_distance(SPACE_ALIASES["s2"], 10, seed=0, workers=0)
    with pytest.raises(ValueError):
        Estimate(mean=1.0, stderr=-1.0, n_samples=10, seed=0)
