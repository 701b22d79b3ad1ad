import itertools
import math

import numpy as np
import pytest

from oriflag import orthogonal
from oriflag.flagspec import isotropy_group, parse_flagspec
from oriflag.orthogonal import (
    _NEAR_PI,
    _SHORT,
    RngStream,
    Rotation,
    _column_norms,
    _distances_to_identity,
    _trace_distances,
    geodesic_distance,
    quotient_distance,
    random_special_orthogonal,
    rotation_angles,
    sample_rotation_matrices,
)
from oriflag.quadrature import adaptive_gauss_kronrod
from oriflag.quatcover import UnitQuaternion, rotate_vector
from oriflag.spaces import parse_space
from weyl import largest_angle_cdf


def axis_angle_matrix(axis, angle):
    """Independent axis-angle rotation matrix (direct Rodrigues expansion)."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    C = 1.0 - c
    return np.array([
        [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
    ])


def random_axis(gen):
    v = gen.standard_normal(3)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------ rotation

def test_rotation_validation():
    Rotation(np.eye(4))
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, -1.0]))  # determinant -1
    with pytest.raises(ValueError):
        Rotation(np.eye(3) * 1.001)  # not orthogonal
    with pytest.raises(ValueError):
        Rotation(np.ones((2, 3)))


def test_rotation_compose_and_transpose():
    gen = RngStream(1).generator()
    a = random_special_orthogonal(4, gen)
    b = random_special_orthogonal(4, gen)
    ab = a @ b
    assert np.allclose(ab.matrix, a.matrix @ b.matrix)
    assert np.allclose((a @ a.transpose()).matrix, np.eye(4), atol=1e-12)


# ------------------------------------------------------------------ sampling

def test_so1_is_trivial():
    r = random_special_orthogonal(1, RngStream(0).generator())
    assert np.array_equal(r.matrix, [[1.0]])
    batch = sample_rotation_matrices(1, 5, RngStream(0).generator())
    assert np.array_equal(batch, np.ones((5, 1, 1)))


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        random_special_orthogonal(0, RngStream(0).generator())


def test_construction_invariants_hold_on_1000_draws():
    gen = RngStream(11).generator()
    eye = np.eye(5)
    for _ in range(1000):
        q = random_special_orthogonal(5, gen).matrix
        assert np.abs(q.T @ q - eye).max() <= 1e-12
        assert abs(np.linalg.det(q) - 1.0) <= 1e-10


def test_batch_sampler_invariants():
    q = sample_rotation_matrices(5, 500, RngStream(13).generator())
    defect = np.abs(np.einsum("nji,njk->nik", q, q) - np.eye(5)).max()
    assert defect <= 1e-12
    assert np.abs(np.linalg.det(q) - 1.0).max() <= 1e-10


def sample_outer_householder(n, count, gen):
    """The Householder construction with the sample index outermost, as an independent copy.

    One (count, dim) slice of the Gaussian block per vector, redrawn and
    normalized row by row, then einsum products and (count, n, n) rank-1
    updates; reads the module's ``_MIN_NORM`` when called.
    """
    def norms_of(rows):
        sq = rows[:, 0] * rows[:, 0]
        for j in range(1, rows.shape[1]):
            sq += rows[:, j] * rows[:, j]
        return np.sqrt(sq)

    g = gen.standard_normal((count, (n - 1) * (n + 2) // 2))
    vs, start = [], 0
    for dim in range(n, 1, -1):
        v = g[:, start:start + dim]
        norms = norms_of(v)
        while (bad := norms < orthogonal._MIN_NORM).any():
            v[bad] = gen.standard_normal((int(bad.sum()), dim))
            norms[bad] = norms_of(v[bad])
        vs.append(v / norms[:, None])
        start += dim
    signs = [np.copysign(1.0, v[:, 0]) for v in vs]
    q = np.empty((count, n, n))
    q[:, -1, -1] = np.prod(signs, axis=0)
    for k in range(n - 2, -1, -1):
        v, tail = vs[k], vs[k][:, 1:]
        block = q[:, k + 1:, k + 1:]
        w = np.einsum("ci,cij->cj", tail, block)
        q[:, k, k + 1:] = -signs[k][:, None] * w
        block -= (tail / (1.0 + np.abs(v[:, :1])))[:, :, None] * w[:, None, :]
        q[:, k:, k] = v
    return q


@pytest.mark.parametrize("n", range(1, 17))
def test_sampler_bytes_match_the_sample_outer_construction(n, monkeypatch):
    # the sample-innermost layout reorders no arithmetic, including redraws:
    # at _MIN_NORM = 0.5 about 12% of 2-D and 3% of 3-D vectors are redrawn,
    # at 2.5 most low-dimensional ones and a few in every dimension up to 16
    plain = {}
    for min_norm in (None, 0.5, 2.5):
        if min_norm is not None:
            monkeypatch.setattr(orthogonal, "_MIN_NORM", min_norm)
        for count in (0, 1, 7, 500, 3000):
            got = sample_rotation_matrices(n, count, RngStream(n, count))
            want = sample_outer_householder(n, count, RngStream(n, count).generator())
            assert got.shape == (count, n, n) and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes(), (min_norm, count)
            if min_norm is None:
                plain[count] = got
            elif n > 1 and count >= 500:
                assert not np.array_equal(got, plain[count]), (min_norm, count)


def test_rng_stream_determinism_and_independence():
    a = RngStream(99, 0).generator().standard_normal(16)
    b = RngStream(99, 0).generator().standard_normal(16)
    c = RngStream(99, 1).generator().standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        RngStream(-1)


def test_trace_mean_is_zero_for_haar_so3(so3_haar_million):
    # oracle: the trace of a Haar rotation is 1 + 2 cos(psi) with angle
    # density (1 - cos psi)/pi on [0, pi]; that integral is exactly zero
    oracle = adaptive_gauss_kronrod(
        lambda psi: (1.0 + 2.0 * np.cos(psi)) * (1.0 - np.cos(psi)) / math.pi,
        0.0, math.pi, 1e-13,
    ).value
    assert abs(oracle) <= 1e-12
    traces = so3_haar_million["traces"]
    stderr = traces.std(ddof=1) / math.sqrt(len(traces))
    assert abs(traces.mean() - oracle) <= 5 * stderr


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_trace_moments_haar_son(n):
    # Diaconis-Shahshahani: for Haar SO(n), n >= 3, E tr A = 0 and E (tr A)^2 = 1;
    # on SO(2), tr A = 2 cos(theta) with theta uniform, so E (tr A)^2 = 2
    traces = np.einsum("kii->k", sample_rotation_matrices(n, 100_000, RngStream(40 + n).generator()))
    for moment, expected in ((traces, 0.0), (traces * traces, 2.0 if n == 2 else 1.0)):
        stderr = moment.std(ddof=1) / math.sqrt(len(moment))
        assert abs(moment.mean() - expected) <= 5 * stderr


def qr_haar_traces(n, count, gen):
    """Traces of Haar SO(n) draws by LAPACK QR of a Gaussian matrix, sign-fixed."""
    q, r = np.linalg.qr(gen.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return np.einsum("kii->k", q)


def test_householder_sampler_matches_qr_distribution():
    # two-sample Kolmogorov-Smirnov on the trace; 2.69 is the critical value
    # of the limiting distribution at alpha = 1e-6
    count = 20_000
    ours = np.sort(np.einsum("kii->k", sample_rotation_matrices(5, count, RngStream(46).generator())))
    theirs = np.sort(qr_haar_traces(5, count, RngStream(47).generator()))
    grid = np.concatenate([ours, theirs])
    gap = np.abs(np.searchsorted(ours, grid, side="right") - np.searchsorted(theirs, grid, side="right"))
    assert gap.max() / count < 2.69 * math.sqrt(2 / count)


def largest_angle_gap(n, q):
    """Largest |F(x_p) - p| over the quantiles x_p, p = 0.01..0.99, of the largest angles of a stack.

    F is the Weyl CDF; the largest angle is arccos of half the smallest
    eigenvalue of q + q^T.
    """
    c = np.linalg.eigvalsh(q + np.swapaxes(q, 1, 2))[:, 0]
    p = np.arange(1, 100) / 100
    x = np.quantile(np.arccos(np.clip(0.5 * c, -1.0, 1.0)), p)
    return np.abs(largest_angle_cdf(n, x) - p).max()


@pytest.mark.parametrize("n", range(5, 10))
def test_largest_angle_follows_the_weyl_law(n):
    # 1.628 / sqrt(20000) = 0.0115 is the 1% Kolmogorov-Smirnov value; LAPACK
    # QR without the sign fix (det fixed by one column) misses it by far
    count = 20_000
    assert largest_angle_gap(n, sample_rotation_matrices(n, count, RngStream(90 + n))) < 0.0115
    q, _ = np.linalg.qr(RngStream(90 + n).generator().standard_normal((count, n, n)))
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    assert largest_angle_gap(n, q) > 0.0115


def test_first_column_uniform_on_sphere(so3_haar_million):
    cols = so3_haar_million["first_columns"]
    n = len(cols)
    octant = (cols[:, 0] > 0) * 4 + (cols[:, 1] > 0) * 2 + (cols[:, 2] > 0)
    counts = np.bincount(octant, minlength=8)
    bound = 5 * math.sqrt(n * (1 / 8) * (7 / 8))
    assert np.abs(counts - n / 8).max() <= bound


def test_angle_distribution_kolmogorov_smirnov(so3_haar_million):
    angles = np.sort(so3_haar_million["angles"])
    n = len(angles)
    cdf = (angles - np.sin(angles)) / math.pi
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - cdf).max(), np.abs(empirical_lo - cdf).max())
    assert ks < 0.002


# ----------------------------------------------------------------- distances

def test_distance_trivial_cases():
    eye = Rotation.identity(3)
    assert geodesic_distance(eye, eye) == 0.0
    flip = Rotation(np.diag([1.0, -1.0, -1.0]))
    assert abs(geodesic_distance(flip, eye) - math.pi) <= 1e-12


def test_distance_equals_rotation_angle():
    gen = RngStream(21).generator()
    eye = Rotation.identity(3)
    for _ in range(1000):
        psi = gen.uniform(0.0, math.pi)
        r = Rotation(axis_angle_matrix(random_axis(gen), psi))
        assert abs(geodesic_distance(r, eye) - psi) <= 1e-10


def test_distance_matches_quaternion_construction():
    from oriflag.quatcover import UnitQuaternion, quaternion_to_rotation
    gen = RngStream(22).generator()
    eye = Rotation.identity(3)
    for _ in range(200):
        psi = gen.uniform(0.0, math.pi)
        r = quaternion_to_rotation(UnitQuaternion.from_axis_angle(random_axis(gen), psi))
        assert abs(geodesic_distance(r, eye) - psi) <= 1e-10


def test_distance_against_eigenvalue_log_oracle():
    def eig_oracle(m):
        mu = np.linalg.eigvals(m)
        return math.sqrt(0.5 * float(np.sum(np.angle(mu) ** 2)))

    gen = RngStream(23).generator()
    for n in (2, 3, 4, 5, 6):
        for _ in range(50):
            a = random_special_orthogonal(n, gen)
            b = random_special_orthogonal(n, gen)
            d = geodesic_distance(a, b)
            assert abs(d - eig_oracle(a.matrix @ b.matrix.T)) <= 1e-8
    # eigenvalue -1 pairs
    assert abs(geodesic_distance(np.diag([-1.0, -1, -1, -1]), np.eye(4))
               - math.sqrt(2) * math.pi) <= 1e-12
    assert abs(geodesic_distance(np.diag([-1.0, -1, 1]), np.eye(3)) - math.pi) <= 1e-12


def eigvals_distances(m):
    """Oracle: distances from the arguments of the eigenvalues of the nonsymmetric solver."""
    return np.sqrt(0.5 * (np.angle(np.linalg.eigvals(m)) ** 2).sum(axis=-1))


def in_fallback_zone(m):
    """Samples whose distance the symmetric route hands to the general eigenvalues."""
    cos2 = np.linalg.eigvalsh(m + np.swapaxes(m, -1, -2))
    theta = np.arccos(np.clip(0.5 * cos2, -1.0, 1.0))
    d = np.sqrt(0.5 * (theta * theta).sum(axis=-1))
    return (cos2[:, 0] < _NEAR_PI - 2.0) | (d < _SHORT)


@pytest.mark.parametrize("n", range(2, 13))
def test_distances_match_eigenvalue_arguments_on_haar_draws(n):
    m = sample_rotation_matrices(n, 10_000, RngStream(60 + n).generator())
    assert np.abs(_distances_to_identity(m, np.ones((1, n))) - eigvals_distances(m)).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 5, 6])
def test_orbit_distances_match_oracle_on_full_flag_rows(n):
    full_flag = f"lambda={','.join(['1'] * n)} P={{{','.join(map(str, range(1, n + 1)))}}}"
    signs = isotropy_group(parse_flagspec(full_flag)).signs
    assert len(signs) == 2 ** (n - 1)
    m = sample_rotation_matrices(n, 1_000, RngStream(70 + n).generator())
    oracle = np.full(len(m), np.inf)
    for s in signs:
        each = eigvals_distances(m * s)
        assert np.abs(_distances_to_identity(m * s, np.ones((1, n))) - each).max() <= 1e-13
        oracle = np.minimum(oracle, each)
    assert np.abs(_distances_to_identity(m, signs) - oracle).max() <= 1e-13


def test_row_norms_within_two_ulp_of_numpy():
    # bit-identical to numpy 2.x up to d = 7; its summation order may differ elsewhere
    gen = RngStream(70).generator()
    for d in range(1, 17):
        v = gen.standard_normal((4096, 2 * d))
        for rows in (v[:, :d], v[:, ::2]):
            ref = np.linalg.norm(rows, axis=1)
            assert (np.abs(_column_norms(rows.T) - ref) <= 2 * np.spacing(ref)).all(), d


def exact_route_samples(m):
    """Samples whose distance is measured by the general eigenvalues: at n = 5 those the determinant route hands on."""
    if m.shape[-1] != 5:
        return in_fallback_zone(m)
    _, near, r, zone = _trace_distances(m)
    zone[zone] = orthogonal._det_distances(m[zone], near[zone], r[zone])[1]
    return zone


@pytest.mark.parametrize("n", range(2, 13))
def test_zone_samples_are_bit_identical_to_eigvals(n):
    # zone samples are measured by the same eigvals solve as the oracle; at
    # n = 5 about 1 Haar draw in 2000 is one, so rotations with both planes
    # near pi join the draws
    gen = RngStream(80 + n).generator()
    m = sample_rotation_matrices(n, 4_000, gen)
    if n == 5:
        m = np.concatenate([m, planted_stack(gen, ([math.pi - 1e-3, math.pi - 2e-3] for _ in range(20)), n)[0]])
    zone = exact_route_samples(m)
    assert zone.any() and not zone.all()
    assert np.array_equal(_distances_to_identity(m, np.ones((1, n)))[zone], eigvals_distances(m)[zone])


def planted_rotation(gen, angles, n):
    """Q blockdiag(R(theta_1), ..., R(theta_k)[, 1]) Q^T for a Haar Q: known angles."""
    block = np.eye(n)
    for j, theta in enumerate(angles):
        c, s = math.cos(theta), math.sin(theta)
        block[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c, -s], [s, c]]
    q = sample_rotation_matrices(n, 1, gen)[0]
    return q @ block @ q.T


def planted_stack(gen, angle_rows, n):
    """Planted rotations, one per row of angles, and their exact distances sqrt(sum theta^2).

    A lazy ``angle_rows`` that draws from ``gen`` draws each row just before its Q.
    """
    pairs = [(planted_rotation(gen, row, n), math.sqrt(sum(t * t for t in row))) for row in angle_rows]
    return np.array([m for m, _ in pairs]), np.array([d for _, d in pairs])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_angles_and_distance_against_planted_blocks(n):
    gen = RngStream(25).generator()
    edges = (None, 0.0, math.pi, math.pi - 1e-9)
    for first, second in itertools.product(edges, repeat=2):
        angles = gen.uniform(0.0, math.pi, n // 2)
        for j, edge in enumerate((first, second)):
            if edge is not None:
                angles[j] = edge
        m = planted_rotation(gen, angles, n)
        expected = np.sort(angles)[::-1]
        assert np.abs(rotation_angles(m) - expected).max() <= 1e-10
        assert abs(geodesic_distance(m, np.eye(n)) - math.sqrt(np.sum(angles ** 2))) <= 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_planted_angle_on_both_sides_of_the_near_pi_boundary(n):
    # the eigvalsh route's boundary sits at pi - sqrt(_NEAR_PI) = pi - 0.02; at
    # n = 5 the trace route hands on every row and the det route hands on some
    gen = RngStream(27).generator()
    offsets = (5e-2, 3e-2, 2.2e-2, 1.8e-2, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
    m, exact = planted_stack(gen, ([math.pi - off] + list(gen.uniform(0.0, math.pi, n // 2 - 1))
                                   for off in offsets for _ in range(20)), n)
    zone = exact_route_samples(m)
    assert zone.any() and not zone.all()
    assert np.abs(_distances_to_identity(m, np.ones((1, n))) - exact).max() <= 1e-13


@pytest.mark.parametrize("n", range(2, 13))
def test_planted_small_angles_on_both_sides_of_the_short_boundary(n):
    # equal angles a with d = a sqrt(n // 2) from well below _SHORT to above it;
    # at n = 5 the trace and det routes hand equal angles on as crowded planes,
    # so angles a, 2a, 3a, ... with the same d show their short boundary there
    gen = RngStream(28).generator()
    scales = (1e-7, 1e-5, 1e-3, 0.5, 0.9, 1.1, 2.0)
    m, exact = planted_stack(gen, ([scale * _SHORT / math.sqrt(n // 2)] * (n // 2)
                                   for scale in scales for _ in range(20)), n)
    zone = exact_route_samples(m)
    assert zone.all() if n == 5 else zone.any() and not zone.all()
    assert np.abs(_distances_to_identity(m, np.ones((1, n))) - exact).max() <= 1e-13
    small, exact = planted_stack(gen, (gen.uniform(0.0, 1e-3, n // 2) for _ in range(100)), n)
    assert exact_route_samples(small).all()
    assert np.abs(_distances_to_identity(small, np.ones((1, n))) - exact).max() <= 1e-13
    spread = np.arange(1.0, n // 2 + 1)
    spread /= np.linalg.norm(spread)
    m, exact = planted_stack(gen, (scale * _SHORT * spread for scale in scales for _ in range(20)), n)
    zone = exact_route_samples(m)
    assert zone.any() and not zone.all()
    assert np.abs(_distances_to_identity(m, np.ones((1, n))) - exact).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_angles_of_planes_crowding_zero_or_pi(n):
    # cos is flat at 0 and pi: two planes there, or a plane near 0 and the
    # lone axis of odd n, must still come out with their own angles
    gen = RngStream(26).generator()
    offsets = (0.0, 1e-8, 1e-6, 1e-4, 1e-2)
    for end, (d1, d2) in itertools.product((0.0, math.pi), itertools.product(offsets, repeat=2)):
        angles = np.array([abs(end - d1), abs(end - d2)] + [1.0] * (n // 2 - 2))
        m = planted_rotation(gen, angles, n)
        expected = np.sort(angles)[::-1]
        assert np.abs(rotation_angles(m) - expected).max() <= 1e-13
        assert abs(geodesic_distance(m, np.eye(n)) - math.sqrt(np.sum(angles ** 2))) <= 1e-13


@pytest.mark.parametrize("n", [4, 5])
def test_trace_route_against_planted_angles(n):
    # Just outside the near-pi zone, arccos of the trace route's cosines is
    # ill-conditioned, most of all where the two planes crowd together; its
    # error bound must hand those samples on (without it they miss by 1e-12..1e-11).
    gen = RngStream(29).generator()
    rows = []
    for off in (0.021, 0.025, 0.03, 0.05, 0.1, 0.2, 0.3):
        far = math.pi - off
        rows += [(far, far - gap) for gap in (0.0, 1e-7, 1e-6, 1e-5, 1e-3, 0.3 * off)]
        rows += [(far, 1.0), (far, 0.3), (far, 1e-3)]
    rows += [(a, a + gap) for a in (1e-4, 1e-2, 0.05) for gap in (0.0, 1e-8, 1e-4, 1e-2)]
    m, exact = planted_stack(gen, (row for row in rows for _ in range(10)), n)
    assert np.abs(_distances_to_identity(m, np.ones((1, n))) - exact).max() <= 1e-13


def per_row_trace_distances(ms):
    """Test-only copy of the trace route on a (k, 5, 5) stack: the same two einsum traces, no work in place.

    Returns the distances, the near 2 cos, sqrt D and the samples to hand on
    to the determinant route.
    """
    sigma = 0.5 * (np.einsum("kii->k", ms) - 1.0)
    q = 0.25 * (np.einsum("kij,kji->k", ms, ms) + 3.0)
    r = np.sqrt(np.maximum(2.0 * q - sigma * sigma, 0.0))
    cos2 = np.stack((sigma - r, sigma + r))
    theta = np.arccos(np.clip(0.5 * cos2, -1.0, 1.0))
    far, near = theta
    d = np.sqrt(far * far + near * near)
    h_far, h_near = 1.0 / np.sinc(theta / np.pi)
    bound = (h_far + h_near) * (2.0 * r * orthogonal._TRACE_DSIGMA) + (h_far - h_near) * orthogonal._TRACE_DD
    redo = (bound > 4.0 * orthogonal._TRACE_BUDGET * d * r) | (r < orthogonal._CROWDED)
    return d, cos2[1], r, redo


def per_sign_row_distances(m, signs):
    """Test-only oracle of the bits of an n = 5 orbit: one sign row at a time, handed-on samples by determinant.

    Each sign row s makes the whole stack m diag(s) and takes the trace route;
    every sample it hands on takes the determinant route, and every sample
    that route hands on gets the eigvals distance.
    """
    best = np.full(len(m), np.inf)
    for s in signs:
        ms = m * s
        d, near, r, redo = per_row_trace_distances(ms)
        d[redo], zone = orthogonal._det_distances(ms[redo], near[redo], r[redo])
        d[np.flatnonzero(redo)[zone]] = eigvals_distances(ms[redo][zone])
        best = np.minimum(best, d)
    return best


def set_partition_texts(n):
    """Every flag specification lambda = 1^n: one per set partition of {1, ..., n} (15 at n = 4, 52 at n = 5)."""
    def partitions(items):
        if not items:
            yield []
            return
        for rest in partitions(items[1:]):
            for k in range(len(rest)):
                yield rest[:k] + [[items[0]] + rest[k]] + rest[k + 1:]
            yield [[items[0]]] + rest
    return [f"lambda={','.join('1' * n)} P=" + "".join("{" + ",".join(map(str, b)) + "}" for b in sorted(p))
            for p in partitions(list(range(1, n + 1)))]


def planted_edge_cases(gen, n):
    """Planted rotations at the trace route's edges: near pi, crowded planes, and d below _SHORT."""
    rows = [(math.pi - off, math.pi - off - gap) for off in (0.005, 0.015, 0.0199, 0.0201, 0.021, 0.03)
            for gap in (0.0, 1e-8, 1e-5, 0.3)]
    rows += [(a, a + gap) for a in (0.3, 1.0, 2.0, 3.0) for gap in (0.0, 1e-9, 1e-7, 1e-6, 1e-4)]
    rows += [(a, b) for a in (1e-6, 1e-3, 0.05, 0.07) for b in (0.0, 1e-4, 0.03, 0.07)]
    m, _ = planted_stack(gen, (row for row in rows for _ in range(3)), n)
    return m


@pytest.mark.parametrize("n", [5])
def test_orbit_kernel_is_bit_identical_to_the_per_sign_row_loop(n):
    # every sign group at n = 5, on Haar draws and on planted samples at
    # the route's edges, each planted one also as m diag(s) for a row s
    gen = RngStream(32 + n).generator()
    planted = planted_edge_cases(gen, n)
    checked = set()
    for text in set_partition_texts(n):
        signs = isotropy_group(parse_flagspec(text)).signs
        if signs.tobytes() in checked:
            continue
        checked.add(signs.tobytes())
        turned = planted * signs[gen.integers(len(signs), size=len(planted)), None, :]
        m = np.concatenate([sample_rotation_matrices(n, 600, gen), planted, turned])
        assert np.array_equal(_distances_to_identity(m, signs), per_sign_row_distances(m, signs)), text
    assert len(checked) == 52


def trace_route_rows(ms):
    """The einsum traces t1 and t2 of a (k, 5, 5) stack and the four outputs of ``_trace_distances``, as (6, k) floats."""
    return np.array([np.einsum("kii->k", ms), np.einsum("kij,kji->k", ms, ms), *_trace_distances(ms)], dtype=float)


def test_trace_route_of_a_sample_does_not_depend_on_its_stack():
    # The orbit chunks of _ORBIT_BYTES and the trivial group, which measures
    # the stack it is given, both rely on this: a sample's traces and trace
    # route come out the same alone, in a subset, in the full stack and in
    # an m diag(s) orbit stack of every sign row at once.
    signs = isotropy_group(parse_flagspec("lambda=1,1,1,1,1 P={1,2}{3,4,5}")).signs
    gen = RngStream(38).generator()
    for m in (sample_rotation_matrices(5, 400, gen), planted_edge_cases(gen, 5)):
        whole = trace_route_rows(m)
        alone = np.array([trace_route_rows(sample[None])[:, 0] for sample in m]).T
        assert np.array_equal(alone, whole)
        subset = np.sort(gen.choice(len(m), len(m) // 3, replace=False))
        assert np.array_equal(trace_route_rows(m[subset]), whole[:, subset])
        orbit = trace_route_rows((m * signs[:, None, None, :]).reshape(-1, 5, 5)).reshape(6, len(signs), len(m))
        for s, rows in zip(signs, orbit.transpose(1, 0, 2)):
            assert np.array_equal(rows, trace_route_rows(m * s))
            each = np.array([trace_route_rows((m[i] * s)[None])[:, 0] for i in subset[:10]]).T
            assert np.array_equal(rows[:, subset[:10]], each)


@pytest.mark.parametrize("n", [5])
def test_handed_on_samples_take_the_det_route(n):
    gen = RngStream(30).generator()
    haar = sample_rotation_matrices(n, 4_000, gen)
    near_pi, _ = planted_stack(gen, ([math.pi - 0.03, math.pi - gen.uniform(0.0, 0.5)] for _ in range(200)), n)
    m = np.concatenate([haar, near_pi])
    _, near, r, handed_on = _trace_distances(m)
    assert handed_on[:len(haar)].any() and not handed_on[:len(haar)].all() and handed_on[len(haar):].all()
    d, zone = orthogonal._det_distances(m[handed_on], near[handed_on], r[handed_on])
    assert zone.any() and not zone.all()
    d[zone] = eigvals_distances(m[handed_on][zone])
    assert np.array_equal(_distances_to_identity(m, np.ones((1, n)))[handed_on], d)


@pytest.mark.parametrize("n", [5])
def test_handed_on_orbit_minimum_is_measured_exactly(n):
    # m diag(s) turns two planes by equal angles a, which both routes hand on
    # as crowded, or by small angles (d < _SHORT), and that row is the orbit
    # minimum, at its eigvals value
    signs = isotropy_group(parse_flagspec("lambda=1,1,1,1,1 P={1,2}{3,4,5}")).signs
    gen = RngStream(33).generator()
    angles = [(a, a) for a in (1.2, 1.3, 1.4, 1.5)] + [(0.02, 0.03), (0.04, 0.05)]
    ms, exact = [], []
    for a, b in angles:
        block = np.eye(n)
        for k, t in enumerate((a, b)):
            block[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        assert exact_route_samples(block[None])[0]
        for s in signs[gen.choice(len(signs), 3, replace=False)]:
            ms.append(block * s)
            exact.append(math.hypot(a, b))
    m = np.array(ms)
    d = _distances_to_identity(m, signs)
    assert np.array_equal(d, per_sign_row_distances(m, signs))
    assert np.abs(d - exact).max() <= 1e-13
    # the same orbits off SO(n) by as much as a matrix from outside may be
    # (ORTHOGONALITY_TOL)
    sym = gen.standard_normal((len(m), n, n)) * 5e-14
    off = m @ (np.eye(n) + sym + np.swapaxes(sym, 1, 2))
    defect = np.abs(np.swapaxes(off, 1, 2) @ off - np.eye(n)).max(axis=(1, 2))
    assert defect.max() > 1e-13 and (defect <= orthogonal.ORTHOGONALITY_TOL).all()
    assert np.array_equal(_distances_to_identity(off, signs), per_sign_row_distances(off, signs))
    # on every orbit element, each route is as far from the eigvals distance
    # on the samples it keeps as the matrices are from SO(n)
    orbit = (off[:, None] * signs[:, None, :]).reshape(-1, n, n)
    d, near, r, handed_on = _trace_distances(orbit)
    det_d, zone = orthogonal._det_distances(orbit[handed_on], near[handed_on], r[handed_on])
    exact = eigvals_distances(orbit)
    assert (~handed_on).any() and (~zone).any()
    assert np.abs(d - exact)[~handed_on].max() <= orthogonal.ORTHOGONALITY_TOL
    assert np.abs(det_d - exact[handed_on])[~zone].max() <= orthogonal.ORTHOGONALITY_TOL


def test_so5_distances_within_1e14_of_eigvals_on_haar_draws():
    m = sample_rotation_matrices(5, 100_000, RngStream(35).generator())
    assert np.abs(_distances_to_identity(m, np.ones((1, 5))) - eigvals_distances(m)).max() <= 1e-14


def test_det_route_against_planted_far_angles():
    # a far angle pi - off with the near one anywhere in [0, 2.5]: the trace
    # route hands these on, and the determinant route measures them however
    # close to pi; with both planes near pi, or crowded, it hands them on in
    # turn. The same rows turned by a sign row are other rotations.
    gen = RngStream(36).generator()
    far = [(math.pi - off, b) for off in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.01, 0.02, 0.05, 0.1)
           for b in np.linspace(0.0, 2.5, 11)]
    both = [(math.pi - a, math.pi - b) for a in (1e-9, 1e-5, 1e-3, 0.01) for b in (1e-9, 1e-5, 1e-3, 0.01, 0.1)
            if b >= a]
    crowded = [(a, a + gap) for a in (1.0, 2.0, 3.0, math.pi - 0.05) for gap in (0.0, 1e-9, 1e-7, 1e-6, 1e-4)]
    m, _ = planted_stack(gen, (row for row in far + both + crowded for _ in range(4)), 5)
    signs = isotropy_group(parse_flagspec("lambda=1,1,1,1,1 P={1,2}{3,4,5}")).signs
    m = np.concatenate([m, m * signs[gen.integers(1, len(signs), size=len(m)), None, :]])
    _, _, _, handed_on = _trace_distances(m)
    zone = exact_route_samples(m)
    planted_far = slice(0, 4 * len(far))
    assert (handed_on & ~zone)[planted_far].mean() > 0.9 and zone.any()
    assert np.abs(_distances_to_identity(m, np.ones((1, 5))) - eigvals_distances(m)).max() <= 1e-14


def test_5x5_stacks_never_take_the_symmetric_route(monkeypatch):
    symmetric_distances = orthogonal._symmetric_distances

    def not_five(ms):
        if ms.shape[-1] == 5:
            raise AssertionError(f"a stack of shape {ms.shape} reached the symmetric route")
        return symmetric_distances(ms)

    monkeypatch.setattr(orthogonal, "_symmetric_distances", not_five)
    gen = RngStream(37).generator()
    planted = planted_edge_cases(gen, 5)
    a, b = sample_rotation_matrices(5, 2, gen)
    h = isotropy_group(parse_flagspec("lambda=1,1,1,1,1 P={1,2}{3,4,5}"))
    assert 0.0 < quotient_distance(a, b, h) <= geodesic_distance(a, b)
    for m in (sample_rotation_matrices(5, 20_000, gen), planted):
        assert (_distances_to_identity(m, h.signs) <= _distances_to_identity(m, np.ones((1, 5)))).all()


def test_only_5x5_stacks_take_the_trace_route(monkeypatch):
    # 4 x 4 distances, one pair or a flag's orbit, take the eigenvalue route
    trace_distances, seen = _trace_distances, []

    def five_only(ms):
        if ms.shape[-1] != 5:
            raise AssertionError(f"a stack of shape {ms.shape} reached the trace route")
        seen.append(len(ms))
        return trace_distances(ms)

    monkeypatch.setattr(orthogonal, "_trace_distances", five_only)
    gen = RngStream(34).generator()
    a, b = sample_rotation_matrices(4, 2, gen)
    h = isotropy_group(parse_flagspec("lambda=1,1,1,1 P={1,2}{3,4}"))
    assert 0.0 < quotient_distance(a, b, h) <= geodesic_distance(a, b)
    m = sample_rotation_matrices(4, 100, gen)
    assert (_distances_to_identity(m, h.signs) <= _distances_to_identity(m, np.ones((1, 4)))).all()
    assert seen == []
    geodesic_distance(*sample_rotation_matrices(5, 2, gen))
    assert seen == [1]


@pytest.mark.parametrize("text", ["lambda=1,1,1,1,1 P={1,2,3,4,5}", "lambda=1,1,1,1,1 P={1,2}{3,4,5}"])
def test_orbit_distance_is_the_minimum_of_one_row_calls(text):
    signs = isotropy_group(parse_flagspec(text)).signs
    m = sample_rotation_matrices(5, 2_000, RngStream(31).generator())
    one_row = np.min([_distances_to_identity(m * s, np.ones((1, 5))) for s in signs], axis=0)
    assert np.array_equal(_distances_to_identity(m, signs), one_row)


@pytest.mark.parametrize("chunk_rows", [3, 1])
def test_batch_orbit_in_chunks_of_sign_rows(monkeypatch, chunk_rows):
    # a batch's orbit takes 10 sign rows a call by default (above); 3 and 1
    # rows a call, with a short last chunk at 3, give the same minimum
    signs = isotropy_group(parse_flagspec("lambda=1,1,1,1,1 P={1,2,3,4,5}")).signs
    m = sample_rotation_matrices(5, 2_000, RngStream(31).generator())
    whole = _distances_to_identity(m, signs)
    monkeypatch.setattr(orthogonal, "_ORBIT_BYTES", chunk_rows * m.nbytes)
    assert np.array_equal(_distances_to_identity(m, signs), whole)


def full_flag_isotropy(n):
    return isotropy_group(parse_flagspec(f"lambda={','.join('1' * n)} P={{{','.join(map(str, range(1, n + 1)))}}}"))


@pytest.mark.parametrize("chunk_rows", [None, 3, 1])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_quotient_distance_is_the_minimum_of_one_row_calls(monkeypatch, n, chunk_rows):
    # the full flag's orbit in stacked chunks (all |SG| rows at once by
    # default, or 3 and 1 rows a chunk) against a loop of one call per sign row
    if chunk_rows is not None:
        monkeypatch.setattr(orthogonal, "_ORBIT_BYTES", chunk_rows * 8 * n * n)
    h = full_flag_isotropy(n)
    m = sample_rotation_matrices(n, 400, RngStream(60 + n).generator())
    for a, b in zip(m[::2], m[1::2]):
        one_row = min(float(_distances_to_identity((b.T @ a)[None] * s, np.ones((1, n)))[0]) for s in h.signs)
        assert quotient_distance(a, b, h) == one_row


def test_quotient_distance_holds_a_bounded_share_of_the_orbit():
    # the n = 15 full flag's orbit stack is 29.5 MB; the chunked call holds
    # a chunk's stack, its symmetric part and eigvalsh's copy at most
    import tracemalloc

    n = 15
    h = full_flag_isotropy(n)
    assert h.signs.shape[0] * 8 * n * n > 6 * orthogonal._ORBIT_BYTES
    a, b = sample_rotation_matrices(n, 2, RngStream(64).generator())
    tracemalloc.start()
    try:
        d = quotient_distance(a, b, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < d and peak <= 3 * orthogonal._ORBIT_BYTES


def test_reflection_is_rejected():
    for n in (2, 3, 4, 5):
        reflection = np.diag([-1.0] + [1.0] * (n - 1))
        with pytest.raises(ArithmeticError):
            geodesic_distance(reflection, np.eye(n))
        with pytest.raises(ArithmeticError):
            rotation_angles(reflection)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        geodesic_distance(Rotation.identity(3), Rotation.identity(4))


@pytest.mark.parametrize("n", range(2, 9))
def test_geodesic_distance_is_the_trivial_group_quotient_distance(n):
    trivial = isotropy_group(parse_space(f"so{n}"))
    m = sample_rotation_matrices(n, 400, RngStream(36 + n).generator())
    for a, b in zip(m[::2], m[1::2]):
        assert geodesic_distance(a, b) == quotient_distance(a, b, trivial)


SHEAR = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
NAN = float("nan")
# Two reflections: each is orthogonal with det -1, and their product is in SO(3).
FLIP_X, FLIP_Y = np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0])


@pytest.mark.parametrize("call, error", [
    (lambda: geodesic_distance(SHEAR, np.eye(3)), ArithmeticError),
    (lambda: quotient_distance(SHEAR, np.eye(3), isotropy_group(parse_space("full-flag"))), ArithmeticError),
    (lambda: geodesic_distance(FLIP_X, FLIP_Y), ArithmeticError),
    (lambda: quotient_distance(FLIP_X, FLIP_Y, isotropy_group(parse_space("full-flag"))), ArithmeticError),
    (lambda: rotation_angles(SHEAR), ArithmeticError),
    (lambda: rotation_angles(np.stack([np.eye(3)] * 4)), ValueError),
    (lambda: Rotation(np.full((3, 3), NAN)), ValueError),
    (lambda: UnitQuaternion(NAN, 0.0, 0.0, 0.0), ValueError),
    (lambda: rotate_vector(UnitQuaternion.identity(), [NAN, 0.0, 0.0]), ValueError),
    (lambda: UnitQuaternion.from_axis_angle([NAN, 0.0, 0.0], 1.0), ValueError),
    (lambda: UnitQuaternion.from_axis_angle((0.6, 0.8, 0.0, 0.0), 1.0), ValueError),
    (lambda: UnitQuaternion.from_axis_angle([[1.0, 0.0, 0.0]], 1.0), ValueError),
    (lambda: UnitQuaternion.from_axis_angle((0.0, 0.0, 0.0, 1.0), 1.0), ValueError),
], ids=["geodesic-shear", "quotient-shear", "geodesic-reflections", "quotient-reflections", "angles-shear",
        "angles-stack", "rotation-nan", "quaternion-nan", "rotate-nan", "axis-nan", "axis-4-vector", "axis-row",
        "axis-4-unit"])
def test_outside_input_is_rejected(call, error):
    with pytest.raises(error):
        call()


def test_angles_reduced_to_principal_range():
    # a rotation by 3*pi/2 is distance pi/2 from the identity
    r = Rotation(axis_angle_matrix((0.0, 0.0, 1.0), 1.5 * math.pi))
    assert abs(geodesic_distance(r, Rotation.identity(3)) - 0.5 * math.pi) <= 1e-12


# -------------------------------------------------------------------- angles

def test_rotation_angles_identity():
    for n in (1, 2, 3, 4, 5, 7):
        assert np.array_equal(rotation_angles(Rotation.identity(n)), np.zeros(n // 2))


def test_rotation_angles_so4_blocks():
    block = np.zeros((4, 4))
    for offset, angle in ((0, math.pi / 3), (2, math.pi / 2)):
        c, s = math.cos(angle), math.sin(angle)
        block[offset:offset + 2, offset:offset + 2] = [[c, -s], [s, c]]
    angles = rotation_angles(Rotation(block))
    assert np.allclose(np.sort(angles), [math.pi / 3, math.pi / 2], atol=1e-12)


def test_rotation_angles_match_distance_on_so3():
    gen = RngStream(24).generator()
    eye = Rotation.identity(3)
    for _ in range(100):
        a = random_special_orthogonal(3, gen)
        angles = rotation_angles(a)
        assert angles.shape == (1,)
        assert 0.0 <= angles[0] <= math.pi
        assert abs(angles[0] - geodesic_distance(a, eye)) <= 1e-12


# ---------------------------------------------------------------- metric axioms

def test_left_invariance():
    gen = RngStream(31).generator()
    for n in (3, 5):
        for _ in range(1000 if n == 3 else 300):
            g = sample_rotation_matrices(n, 3, gen)
            d1 = geodesic_distance(g[0] @ g[1], g[0] @ g[2])
            d2 = geodesic_distance(g[1], g[2])
            assert abs(d1 - d2) <= 1e-10


@pytest.mark.parametrize("n", range(1, 13))
def test_distance_to_itself(n):
    assert geodesic_distance(np.eye(n), np.eye(n)) == 0.0
    for a in sample_rotation_matrices(n, 50, RngStream(34).generator()):
        assert geodesic_distance(a, a) == 0.0


def test_symmetry_and_identity_of_indiscernibles():
    gen = RngStream(32).generator()
    for _ in range(1000):
        m = sample_rotation_matrices(3, 2, gen)
        assert abs(geodesic_distance(m[0], m[1]) - geodesic_distance(m[1], m[0])) <= 1e-10
        assert geodesic_distance(m[0], m[0]) <= 1e-10


def test_triangle_inequality():
    gen = RngStream(33).generator()
    for _ in range(1000):
        m = sample_rotation_matrices(3, 3, gen)
        dac = geodesic_distance(m[0], m[2])
        dab = geodesic_distance(m[0], m[1])
        dbc = geodesic_distance(m[1], m[2])
        assert dac <= dab + dbc + 1e-9


def test_so3_distance_range(so3_haar_million):
    angles = so3_haar_million["angles"]
    assert angles.min() >= 0.0
    assert angles.max() <= math.pi
