import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import oriflag.montecarlo as mc
from oriflag.flagspec import FlagSpec, OrderedPartition, SetPartition, isotropy_group
from oriflag.montecarlo import (
    Estimate,
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
    sample_rotation_matrices,
)
from oriflag.quatcover import _CONJ, UnitQuaternion, _lifts, _mul_raw, _spin_lifts, quaternion_to_rotation
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
    # 300 001 draws are three chunks of _BATCH, so threads run them at workers > 1
    results = [estimate_expected_distance(space, n, seed=9, workers=w) for n in (30_000, 300_001) for w in (1, 2, 3)]
    assert results[0] == results[1] == results[2] and results[3] == results[4] == results[5]
    assert results[0] == estimate_expected_distance(space, 30_000, seed=9)
    arr1 = sample_distances(space, 10_000, RngStream(9).generator())
    arr2 = sample_distances(space, 10_000, RngStream(9).generator())
    assert np.array_equal(arr1, arr2)


@pytest.mark.parametrize("text", ["so5", "lambda=1,1,1,1,1 P={1,2}{3,4,5}"])
def test_bit_for_bit_determinism_on_the_matrix_path(text, monkeypatch):
    import oriflag.montecarlo as mc

    space = parse_space(text)
    for patched in (False, True):
        if patched:  # 300 samples a batch, so 2 000 draws are seven chunks
            monkeypatch.setattr(mc, "_BATCH_BYTES", 8 * 25 * mc._STACKS * 300)
        for two_point in (False, True):
            a = estimate_expected_distance(space, 2_000, seed=9, two_point=two_point)
            for workers in (1, 2, 3, 8):
                assert a == estimate_expected_distance(space, 2_000, seed=9, workers=workers, two_point=two_point)


def test_sampled_rotations_are_not_checked_again(monkeypatch):
    """The sampler's draws are in SO(n) by construction, so no Monte Carlo path takes a determinant."""
    spaces = [parse_space(t) for t in ("so2", "so5", "so6", "lambda=1,1,1,1,1 P={1,2}{3,4,5}")]
    runs = [(space, two_point) for space in spaces for two_point in (False, True)]

    def run(space, two_point):
        d = sample_distances(space, 300, RngStream(5).generator(), two_point=two_point)
        return d, estimate_expected_distance(space, 300, seed=5, two_point=two_point)

    plain = [run(*r) for r in runs]

    def no_det(m):
        raise AssertionError("a determinant was taken")

    monkeypatch.setattr(np.linalg, "det", no_det)
    for (space, two_point), (d, est) in zip(runs, plain):
        got_d, got_est = run(space, two_point)
        assert np.array_equal(got_d, d) and got_est == est, (space.to_text(), two_point)


def test_so5_estimate_does_not_depend_on_workers():
    """Four chunks of the real batch: before the split was fixed, workers 1 and 2 gave different bits."""
    space = parse_space("so5")
    assert estimate_expected_distance(space, 100_000, seed=3) == estimate_expected_distance(
        space, 100_000, seed=3, workers=2
    )


def _set_affinity(monkeypatch, cpus):
    """Make this process appear to run on ``cpus`` CPUs, or on a platform without affinity when None."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_one_chunk_does_not_ask_for_the_cpu_count(monkeypatch):
    def unexpected(*args):
        raise AssertionError("CPU count asked for a single chunk")

    monkeypatch.setattr(os, "cpu_count", unexpected)
    monkeypatch.setattr(os, "sched_getaffinity", unexpected, raising=False)
    # workers = 1 runs every chunk on this thread, however many there are
    for space, workers, n in (("so5", 1, 100), ("so4", 1, 100), ("s2", 4, 1), ("s2", 1, 300_001)):
        estimate_expected_distance(parse_space(space), n, seed=2, workers=workers)


def _record_pools(monkeypatch, mc):
    """The ``max_workers`` of every thread pool the estimator opens, in order."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
    return pools


def test_threads_capped_at_cpu_count(monkeypatch):
    """Threads are capped by the CPUs this process may use; the host's count only where affinity is unknown."""
    import oriflag.montecarlo as mc

    pools = _record_pools(monkeypatch, mc)
    monkeypatch.setattr(mc, "_BATCH_BYTES", 8 * 25 * mc._STACKS * 100)  # so5: five chunks of 450 draws
    space = parse_space("so5")
    results = [estimate_expected_distance(space, 450, seed=6)]
    cases = [(8, 64, [4]), (2, 64, [2]), (1, 64, []), (None, 8, [4]), (None, 2, [2]), (None, None, [])]
    for affinity, host, threads in cases:
        pools.clear()
        _set_affinity(monkeypatch, affinity)
        monkeypatch.setattr(os, "cpu_count", lambda host=host: host)
        results.append(estimate_expected_distance(space, 450, seed=6, workers=4))
        assert pools == threads, (affinity, host)
    assert all(r == results[0] for r in results)


def test_only_nonempty_chunks_run(monkeypatch):
    """Chunks are the batches of N, whatever ``workers`` asks for, and never get more threads than there are."""
    import oriflag.montecarlo as mc

    chunks = []
    real = mc._chunk_stats

    def counting(kern, seed, two_point, chunk, size):
        chunks.append((chunk, size))
        return real(kern, seed, two_point, chunk, size)

    monkeypatch.setattr(mc, "_chunk_stats", counting)
    pools = _record_pools(monkeypatch, mc)
    monkeypatch.setattr(mc, "_BATCH_BYTES", 8 * 25 * mc._STACKS * 100)
    _set_affinity(monkeypatch, 64)
    space = parse_space("so5")
    many = estimate_expected_distance(space, 450, seed=9, workers=1000)
    assert sorted(chunks) == [(0, 100), (1, 100), (2, 100), (3, 100), (4, 50)]
    assert pools == [5]
    assert many == estimate_expected_distance(space, 450, seed=9, workers=5)
    assert many == estimate_expected_distance(space, 450, seed=9)


def test_workers_split_covers_all_samples():
    est = estimate_expected_distance(SPACE_ALIASES["s2"], 300_001, seed=3, workers=7)
    assert est.n_samples == 300_001


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
        q = marsaglia_quaternions(RngStream(88).generator(), 64, disks_read(_spin_lifts(iso.signs))).T
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
        lifts = _spin_lifts(signs)
        p, q = (x.T for x in marsaglia_pairs(RngStream(88).generator(), 64, disks_read(lifts[:, 0])))
        gen = RngStream(89).generator()
        pa, pb, qa, qb = (_unit_vectors(gen, 64, 4) for _ in range(4))
        for i in range(64):
            m = _cover_rotation(p[i], q[i])
            explicit = _distances_to_identity(m * signs[:, None, :], np.ones((1, 4))).min()
            assert abs(d[i] - explicit) <= 1e-12, text
            a, b = _cover_rotation(pa[i], qa[i]), _cover_rotation(pb[i], qb[i])
            assert abs(d2[i] - quotient_distance(a, b, iso)) <= 1e-12, text


def disk_points(gen, count):
    """``count`` uniform points (x0, x1) of the open unit disk and their s = x0^2 + x1^2, drawn as the kernels draw them.

    Rejection from 2u - 1 in blocks of _DISK_OVERSAMPLE per point still
    needed plus 64 (at most _DISK_BLOCK), first coordinates then second,
    keeping 0 < s < 1.
    """
    xs, ss, done = [], [], 0
    while done < count:
        need = count - done
        x = 2.0 * gen.random((2, min(math.ceil(need * mc._DISK_OVERSAMPLE) + 64, mc._DISK_BLOCK))) - 1.0
        s = x[0] * x[0] + x[1] * x[1]
        keep = np.flatnonzero((0.0 < s) & (s < 1.0))[:need]
        xs.append(x[:, keep])
        ss.append(s[keep])
        done += len(keep)
    return np.concatenate(xs, axis=1), np.concatenate(ss)


def marsaglia_quaternions(gen, count, disks):
    """(4, count) unit quaternions q = (x0, x1, x2 t, x3 t), t = sqrt(1 - s1) / sqrt(s2), from one or two disks.

    With one disk (``disks`` = 1) only x0 and x1 are drawn, and the
    coordinates that the kernel does not read are completed as
    (sqrt(1 - s1), 0).
    """
    (x0, x1), s1 = disk_points(gen, count)
    w = np.sqrt(1.0 - s1)
    if disks == 1:
        return np.array([x0, x1, w, np.zeros(count)])
    (x2, x3), s2 = disk_points(gen, count)
    return np.array([x0, x1, x2 / np.sqrt(s2) * w, x3 / np.sqrt(s2) * w])


def marsaglia_pairs(gen, count, disks):
    """The (p, q) of one-point SO(4) draws: two draws of ``count``, or with two disks one draw of 2 ``count`` split in half."""
    if disks == 1:
        return marsaglia_quaternions(gen, count, 1), marsaglia_quaternions(gen, count, 1)
    pq = marsaglia_quaternions(gen, 2 * count, 2)
    return pq[:, :count], pq[:, count:]


def disks_read(units):
    """How many disks a one-point draw takes for the (k, 4) lift units: two if any reads coordinate 2 or 3."""
    return 2 if units[:, 2:].any() else 1


def normalize_first_distances(kern, gen, count):
    """One-point distances from whole Marsaglia quaternions and uniform heights, the reference for the in-place kernels."""
    if kern.family in ("s2", "rp2"):
        return sphere_reference(kern, 1.0 - 2.0 * gen.random(count))
    lifts = _spin_lifts(kern.signs)
    if lifts.ndim == 2:
        return spin3_reference(lifts, marsaglia_quaternions(gen, count, disks_read(lifts)))
    return spin4_reference(lifts, *marsaglia_pairs(gen, count, disks_read(lifts[:, 0])))


def full_product_distances(kern, gen, count):
    """Two-point distances from whole unit rows and whole Hamilton products, the reference for the in-place kernels."""
    if kern.family in ("s2", "rp2"):
        # each point is (height 1 - 2u, longitude 2 pi w), with r^2 = 1 - z^2 = 4 u (1 - u)
        ua, wa, ub, wb = gen.random((4, count))
        ra2, rb2 = 4.0 * ua * (1.0 - ua), 4.0 * ub * (1.0 - ub)
        cos = (1.0 - 2.0 * ua) * (1.0 - 2.0 * ub) + np.sqrt(ra2 * rb2) * np.cos(2.0 * np.pi * (wa - wb))
        return sphere_reference(kern, cos)

    def relative():
        qa = _unit_vectors(gen, count, 4).T
        return np.array(_mul_raw(_CONJ[:, None] * _unit_vectors(gen, count, 4).T, qa))

    lifts = _spin_lifts(kern.signs)
    if lifts.ndim == 2:
        return spin3_reference(lifts, relative())
    p, q = relative(), relative()
    return spin4_reference(lifts, p, q)


def _real_parts(units, q):
    """Re(q u) for (k, 4) units u and (4, count) quaternions q, as a (k, count) array."""
    return (units * _CONJ) @ q


def sphere_reference(kern, cos):
    if len(kern.signs) > 1:
        cos = np.abs(cos)
    return np.arccos(np.clip(cos, -1.0, 1.0))


def spin3_reference(lifts, q):
    cos = np.abs(_real_parts(lifts, q)).max(axis=0)
    return 2.0 * np.arccos(np.minimum(cos, 1.0))


def spin4_reference(lifts, p, q):
    a = np.arccos(np.clip(_real_parts(lifts[:, 0], p), -1.0, 1.0))
    b = np.arccos(np.clip(_real_parts(lifts[:, 1], q), -1.0, 1.0))
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


def assert_kernels_match(monkeypatch, reference, two_point):
    # every n = 3 and n = 4 lift table, and the sphere and projective plane;
    # the second pass raises the threshold so that about 1-3% of Gaussian rows
    # are redrawn, which leaves the uniform draws (the sphere's, and the
    # one-point covers' disk points) as they were
    spaces = [SPACE_ALIASES["s2"], SPACE_ALIASES["rp2"]]
    spaces += [spec((1,) * k, blocks) for k in (3, 4) for blocks in set_partitions(k)]
    assert sum(bool(classify(s).lift_columns) for s in spaces) == 5 + 15
    plain = {}
    for min_norm in (None, 0.5):
        if min_norm is not None:
            monkeypatch.setitem(_unit_vectors.__globals__, "_MIN_NORM", min_norm)
        for space in spaces:
            label = space_label(space)
            got = sample_distances(space, 4000, RngStream(61).generator(), two_point=two_point)
            want = reference(classify(space), RngStream(61).generator(), 4000)
            assert np.array_equal(got, want), label
            if min_norm is None:
                plain[label] = got
            elif not classify(space).lift_columns or not two_point:
                assert np.array_equal(got, plain[label]), label
            else:
                assert (got != plain[label]).any(), label


def test_one_point_kernels_match_normalize_first_draws(monkeypatch):
    assert_kernels_match(monkeypatch, normalize_first_distances, two_point=False)


def test_two_point_kernels_match_full_product_draws(monkeypatch):
    assert_kernels_match(monkeypatch, full_product_distances, two_point=True)


def test_lift_table_reproduces_every_sign_row():
    # the full flags list every det +1 diagonal sign matrix of SO(3) and SO(4)
    kern3 = classify(SPACE_ALIASES["full-flag"])
    assert kern3.signs.shape == (4, 3)
    for s, u in zip(kern3.signs, _spin_lifts(kern3.signs)):
        lift = _lifts(np.diag(s)[None])[0]
        assert np.array_equal(np.abs(lift), np.abs(u))
        assert np.array_equal(quaternion_to_rotation(UnitQuaternion(*u)).matrix, np.diag(s))
    kern4 = classify(parse_space("lambda=1,1,1,1 P={1,2,3,4}"))
    assert kern4.signs.shape == (8, 4)
    for s, (u, v) in zip(kern4.signs, _spin_lifts(kern4.signs)):
        assert np.array_equal(_cover_rotation(u, v), np.diag(s))
    # the smaller groups keep each row's own lift
    for text in ("so4", "lambda=1,1,1,1 P={1,2}{3,4}", "lambda=1,1,1,1 P={1}{2,3,4}"):
        kern = classify(parse_space(text))
        for s, (u, v) in zip(kern.signs, _spin_lifts(kern.signs)):
            assert np.array_equal(_cover_rotation(u, v), np.diag(s)), text
    assert classify(parse_space("so5")).lift_columns == ()
    assert classify(parse_space("so2")).lift_columns == ()


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


# 1% critical value of the limiting Kolmogorov-Smirnov distribution: one
# sample of N fails at 1.628 / sqrt(N), two samples of N at 1.628 sqrt(2 / N).
KS_1PCT = 1.628
KS_COUNT = 20_000


def ks_one_sample(x, cdf):
    """sup |F_N - F| of the samples ``x`` against the continuous CDF ``cdf``."""
    f = cdf(np.sort(x))
    n = len(f)
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


def ks_two_sample(a, b):
    """sup |F_a - F_b| of two samples."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    gap = np.searchsorted(a, grid, side="right") / len(a) - np.searchsorted(b, grid, side="right") / len(b)
    return np.abs(gap).max()


@pytest.mark.parametrize("two_point", [False, True])
@pytest.mark.parametrize("text, cdf", [
    ("so3", lambda d: (d - np.sin(d)) / math.pi),
    ("s2", lambda d: (1.0 - np.cos(d)) / 2.0),
    ("rp2", lambda d: 1.0 - np.cos(d)),
])
def test_distances_follow_their_law(text, cdf, two_point):
    """SO(3) spin-cover, S^2 and RP^2 distances against their closed-form CDFs (Haar angle law; cap area)."""
    d = sample_distances(parse_space(text), KS_COUNT, RngStream(71, int(two_point)), two_point=two_point)
    assert ks_one_sample(d, cdf) < KS_1PCT / math.sqrt(KS_COUNT)


@pytest.mark.parametrize("two_point", [False, True])
def test_so4_cover_distances_match_the_matrix_path(two_point):
    """Two-sample test: the spin cover of SO(4) against Householder matrices measured by eigenvalues."""
    cover = sample_distances(parse_space("so4"), KS_COUNT, RngStream(72, int(two_point)), two_point=two_point)
    matrices = sample_rotation_matrices(4, KS_COUNT, RngStream(72, 2))
    matrix = _distances_to_identity(matrices, np.ones((1, 4)))
    assert ks_two_sample(cover, matrix) < KS_1PCT * math.sqrt(2 / KS_COUNT)


ONE_POINT_COVER_FLAGS = (
    "partial-flag-1", "partial-flag-2", "partial-flag-3", "full-flag",
    "lambda=1,1,1,1 P={1,2}{3,4}", "lambda=1,1,1,1 P={1,2,3,4}",
)


@pytest.mark.parametrize("text", ONE_POINT_COVER_FLAGS)
def test_one_point_cover_distances_match_the_matrix_path(text):
    """Two-sample test: one-point disk-pair draws on the spin cover against Householder matrices over the sign rows.

    Between them the spaces read every shape of lift column: coordinates
    {0, 1} (one disk), {0, 2}, {0, 3} and {0, 1, 2, 3} (two disks).
    """
    space = parse_space(text)
    kern = classify(space)
    cover = sample_distances(space, KS_COUNT, RngStream(73, 0))
    matrices = sample_rotation_matrices(kern.shape[0], KS_COUNT, RngStream(73, 1))
    matrix = _distances_to_identity(matrices, kern.signs)
    assert ks_two_sample(cover, matrix) < KS_1PCT * math.sqrt(2 / KS_COUNT)


class UniformStub:
    """Stands in for a Generator: ``random`` returns ``gen``'s uniforms and counts its calls.

    The k-th block of disk candidates, (2, m) uniforms, gets ``firsts[k]``
    as its first candidate's two uniforms when that is given.
    """

    def __init__(self, gen, firsts=()):
        self.gen, self.firsts, self.calls = gen, list(firsts), 0

    def random(self, size):
        u = self.gen.random(size)
        if self.calls < len(self.firsts):
            u[:, 0] = self.firsts[self.calls]
        self.calls += 1
        return u


DISK_SPACES = ("so3", "full-flag", "so4", "lambda=1,1,1,1 P={1,2,3,4}")


@pytest.mark.parametrize("name, value", [("_DISK_OVERSAMPLE", 0.25), ("_DISK_BLOCK", 1000)])
@pytest.mark.parametrize("text", DISK_SPACES)
def test_short_disk_blocks_are_topped_up(text, name, value, monkeypatch):
    # a quarter of a candidate per point still needed, or blocks of at most
    # 1000 candidates: every block but the last few comes up short, and the
    # draws go on in order
    monkeypatch.setattr(mc, name, value)
    kern, count = classify(parse_space(text)), 5000
    gen = UniformStub(RngStream(74).generator())
    d = mc._kernel_distances(kern, gen, count, False)
    assert gen.calls > 2  # a batch draws at most two disks, one block each, when none comes up short
    assert d.shape == (count,) and np.isfinite(d).all()
    assert np.array_equal(d, mc._kernel_distances(kern, RngStream(74).generator(), count, False))
    assert np.array_equal(d, normalize_first_distances(kern, RngStream(74).generator(), count))


@pytest.mark.parametrize("text", DISK_SPACES)
def test_disk_origin_is_redrawn(text):
    # u = 1/2 gives 2u - 1 = 0: the first candidate of every block is the
    # origin, which must be passed over, never divided by
    count, origins = 1000, [(0.5, 0.5)] * 4
    kern = classify(parse_space(text))
    with np.errstate(all="raise"):
        d = mc._kernel_distances(kern, UniformStub(RngStream(75).generator(), origins), count, False)
    assert d.shape == (count,) and np.isfinite(d).all()
    want = normalize_first_distances(kern, UniformStub(RngStream(75).generator(), origins), count)
    assert np.array_equal(d, want)


def _rim_uniforms():
    """(u0, u1) whose disk point x = 2u - 1 has s = x0^2 + x1^2 = 1 - 2^-40 in floating point, with x0 near 0.6."""
    target = 1.0 - 2.0**-40
    for j in range(64):
        x0 = (round(0.6 * 2**52) + j) / 2**52
        k = round(math.sqrt(target - x0 * x0) * 2**52)
        for x1 in ((k + step) / 2**52 for step in range(-8, 9)):
            if x0 * x0 + x1 * x1 == target:
                return (x0 + 1.0) / 2.0, (x1 + 1.0) / 2.0
    raise AssertionError("no rim point found")


def test_disk_rim_gives_a_unit_quaternion():
    # s1 = 1 - 2^-40: x2 t and x3 t are about 2^-20, carrying the rounding of
    # s1 through 1 - s1, and q must still be a unit vector
    count, rim = 100, [_rim_uniforms()]
    q = mc._cover_coords(UniformStub(RngStream(76).generator(), rim), count, (0, 1, 2, 3))
    assert q[0, 0] ** 2 + q[1, 0] ** 2 == 1.0 - 2.0**-40
    assert 0.0 < np.abs(q[2:, 0]).max() <= 2.0**-20
    assert np.abs(np.linalg.norm(q, axis=0) - 1.0).max() <= 1e-15
    space = SPACE_ALIASES["full-flag"]
    d = mc._kernel_distances(classify(space), UniformStub(RngStream(76).generator(), rim), count, False)
    rotation = quaternion_to_rotation(UnitQuaternion(*q[:, 0]))
    assert abs(d[0] - quotient_distance(rotation, Rotation.identity(3), isotropy_group(space))) <= 1e-12


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


# The most that one 2^14-sample batch and its statistics may hold at once, in
# doubles per sample, counting the thread's two-point buffer when the batch
# makes it. A one-point spin-cover batch holds a block of disk candidates
# (two rows and s, 4/3 of a double per sample each) and its distances, and
# the row of sqrt(1 - s1) when it draws a second disk; a one-point sphere
# batch holds its one row of heights. The one-point traced peaks over seeds
# 0 to 4 are 5.0 (so3, partial-flag-1), 6.0 (partial-flag-2 and -3,
# full-flag, so4), 1.0 (s2, rp2), 13.0 (P={1,2}{3,4}) and 25.0
# (P={1,2,3,4}). Two points with the buffer made in the batch: 5.0 (s2,
# rp2: four rows of uniforms and the cosines), 10.5 to 13.5 (so3 to
# full-flag), 11.5 (so4), 15.5 (P={1,2}{3,4}) and 25.5 (P={1,2,3,4}); half a
# double of that is numpy's iteration buffer for the in-place division of q_b.
# A one-point n = 5 batch holds its 25 doubles of rotations through the orbit.
# The trivial group measures them in place, so so5's peak is the draw's: 58.0
# (seeds 0 to 4). A flag's orbit copies them per sign row, and the trace route
# gathers 30 rows and sums them into 3: 85.0 (P={1,2}{3,4,5}, seeds 0 to 4).
WORKING_SET = {
    ("so3", False): 7, ("partial-flag-1", False): 7, ("partial-flag-2", False): 7,
    ("partial-flag-3", False): 7, ("full-flag", False): 7,
    ("so3", True): 14, ("partial-flag-1", True): 14, ("full-flag", True): 14,
    ("s2", False): 1.1, ("rp2", False): 1.1, ("s2", True): 6, ("rp2", True): 6,
    ("so4", False): 8, ("so4", True): 14,
    ("lambda=1,1,1,1 P={1,2}{3,4}", False): 14, ("lambda=1,1,1,1 P={1,2}{3,4}", True): 17,
    ("lambda=1,1,1,1 P={1,2,3,4}", False): 26, ("lambda=1,1,1,1 P={1,2,3,4}", True): 26,
    ("so5", False): 59, ("lambda=1,1,1,1,1 P={1,2}{3,4,5}", False): 86,
}


def _drop_two_point_buffer():
    """Let this thread's two-point buffer go, so the next two-point batch makes it again."""
    import oriflag.montecarlo as mc

    vars(mc._two_point).clear()


def test_batch_working_set_in_doubles_per_sample():
    import tracemalloc

    import oriflag.montecarlo as mc

    count = 1 << 14
    tracemalloc.start()
    try:
        for (text, two_point), limit in WORKING_SET.items():
            kern = classify(parse_space(text))
            _drop_two_point_buffer()
            peaks = []
            for seed in (9, 10):
                gen = RngStream(seed).generator()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                mc._batch_stats(mc._kernel_distances(kern, gen, count, two_point))
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / (8 * count))
            assert peaks[0] <= limit, (text, two_point, peaks[0])
            # a repeated two-point batch reuses the buffer: its distances and the redraw mask
            assert peaks[1] <= (2 if two_point else limit), (text, two_point, peaks[1])
    finally:
        tracemalloc.stop()


TWO_POINT_BUFFER_SPACES = ("so3", "full-flag", "so4", "s2")


@pytest.mark.parametrize("text", TWO_POINT_BUFFER_SPACES)
def test_two_point_estimates_do_not_depend_on_workers(text):
    """300 001 draws are three chunks: each pool thread draws into its own buffer."""
    space = parse_space(text)
    one = estimate_expected_distance(space, 300_001, seed=4, two_point=True)
    for workers in (2, 3):
        assert estimate_expected_distance(space, 300_001, seed=4, workers=workers, two_point=True) == one


def test_concurrent_two_point_batches_keep_their_own_buffers():
    """More threads than cores, switching often: a buffer shared between threads would mix their batches."""
    import sys

    import oriflag.montecarlo as mc

    kerns = [classify(parse_space(text)) for text in TWO_POINT_BUFFER_SPACES]
    jobs = [(kern, seed) for seed in range(4) for kern in kerns]

    def run(job):
        kern, seed = job
        return mc._kernel_distances(kern, RngStream(seed).generator(), 20_000, True)

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=min(16, (os.cpu_count() or 1) + 2)) as pool:
            threaded = [f.result(timeout=60) for f in [pool.submit(run, job) for job in jobs * 3]]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got, want in zip(threaded, serial * 3))


@pytest.mark.parametrize("text", TWO_POINT_BUFFER_SPACES + ("lambda=1,1,1,1 P={1,2,3,4}",))
def test_two_point_batches_reuse_the_buffer(text, monkeypatch):
    """Batches after the first reuse the buffer's stale rows, a shorter last batch at a different row length."""
    import oriflag.montecarlo as mc

    kern = classify(parse_space(text))
    monkeypatch.setattr(mc, "_BATCH", 1000)
    _drop_two_point_buffer()
    whole = sample_distances(parse_space(text), 2500, RngStream(6).generator(), two_point=True)
    gen, batches = RngStream(6).generator(), []
    for count in (1000, 1000, 500):
        _drop_two_point_buffer()
        batches.append(mc._kernel_distances(kern, gen, count, True))
    assert np.array_equal(whole, np.concatenate(batches))


@pytest.mark.parametrize("text", TWO_POINT_BUFFER_SPACES + ("rp2", "lambda=1,1,1,1 P={1,2,3,4}"))
def test_two_point_distances_are_not_views_of_the_buffer(text):
    import oriflag.montecarlo as mc

    kern = classify(parse_space(text))
    d = mc._kernel_distances(kern, RngStream(7).generator(), 3000, True)
    assert not np.shares_memory(d, mc._two_point.doubles)


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
