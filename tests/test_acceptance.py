"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The optional ten-million-sample reproduction runs only when the
environment variable ORIFLAG_ACCEPTANCE_N10M is set.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from oriflag.analytic import (
    analytic_expected_distance,
    expected_distance_full_flag,
    numeric_volume,
)
from oriflag.flagspec import (
    FlagSpec,
    OrderedPartition,
    SetPartition,
    conjugate_partition,
    covering_multiplicity,
    flag_volume,
    isotropy_group,
)
from oriflag.montecarlo import estimate_expected_distance, sample_distances
from oriflag.orthogonal import (
    RngStream,
    Rotation,
    _distances_to_identity,
    geodesic_distance,
    quotient_distance,
    sample_rotation_matrices,
)
from oriflag.quatcover import (
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
    rotation_to_quaternion,
    sphere_distance,
)
from oriflag.spaces import SPACE_ALIASES
from oriflag.symbolic import PiExpression

FULL_FLAG_REFERENCE = 1.3117250347224445929
SEED = 20240815

FIVE_PARTITIONS = {
    "P_C": ((1,), (2,), (3,)),
    "P_1": ((1,), (2, 3)),
    "P_2": ((2,), (1, 3)),
    "P_3": ((3,), (1, 2)),
    "P_T": ((1, 2, 3),),
}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_full_flag_quadrature():
    t0 = time.perf_counter()
    res = expected_distance_full_flag(1e-12)
    elapsed = time.perf_counter() - t0
    err = abs(res.value - FULL_FLAG_REFERENCE)
    report(
        1, "quadrature 20-digit value",
        err <= 1e-10 and elapsed < 1.0,
        f"|err|={err:.2e}, {elapsed*1e3:.1f} ms",
    )


def test_criterion_2_closed_forms_symbolic():
    expected = {
        "so3": PiExpression(((-1, Fraction(2)), (1, Fraction(1, 2)))),
        "s2": PiExpression(((1, Fraction(1, 2)),)),
        "rp2": PiExpression.rational(1),
        "partial-flag-1": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "partial-flag-2": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "partial-flag-3": PiExpression(((0, Fraction(1)), (1, Fraction(1, 4)))),
        "trivial-flag": PiExpression.zero(),
    }
    ok = all(
        analytic_expected_distance(SPACE_ALIASES[name]).exact == expr
        for name, expr in expected.items()
    )
    report(2, "closed forms exactly symbolic", ok)


def _monte_carlo_versus_analytic(n_samples: int) -> tuple[bool, str, float]:
    spaces = ["so3", "s2", "rp2", "partial-flag-1", "full-flag"]
    t0 = time.perf_counter()
    worst_sigma = 0.0
    worst_stderr = 0.0
    ok = True
    for name in spaces:
        space = SPACE_ALIASES[name]
        ref = analytic_expected_distance(space).value
        est = estimate_expected_distance(space, n_samples, seed=SEED)
        sigmas = abs(est.mean - ref) / est.stderr
        worst_sigma = max(worst_sigma, sigmas)
        worst_stderr = max(worst_stderr, est.stderr)
        ok = ok and sigmas <= 5.0 and est.stderr <= 2e-3
    elapsed = time.perf_counter() - t0
    detail = f"max |err|/stderr={worst_sigma:.2f}, max stderr={worst_stderr:.1e}, {elapsed:.1f} s"
    return ok and elapsed <= 60.0, detail, elapsed


def test_criterion_3_monte_carlo_vs_analytic_1e6():
    ok, detail, _ = _monte_carlo_versus_analytic(1_000_000)
    report(3, "Monte Carlo within 5 stderr at N=1e6", ok, detail)


@pytest.mark.skipif(
    not os.environ.get("ORIFLAG_ACCEPTANCE_N10M"),
    reason="set ORIFLAG_ACCEPTANCE_N10M=1 for the ten-million-sample reproduction",
)
def test_criterion_3_optional_reproduction_1e7():
    ok, detail, _ = _monte_carlo_versus_analytic(10_000_000)
    report(3, "Monte Carlo within 5 stderr at N=1e7", ok, detail)


def test_criterion_4_volumes():
    symbolic_ok = (
        flag_volume(SPACE_ALIASES["so3"]) == PiExpression.pi_power(2, 8)
        and flag_volume(SPACE_ALIASES["partial-flag-1"]) == PiExpression.pi_power(2, 4)
        and flag_volume(SPACE_ALIASES["full-flag"]) == PiExpression.pi_power(2, 2)
        and flag_volume(SPACE_ALIASES["s2"]) == PiExpression.pi_power(1, 4)
        and flag_volume(SPACE_ALIASES["rp2"]) == PiExpression.pi_power(1, 2)
        and flag_volume(SPACE_ALIASES["trivial-flag"]) == PiExpression.rational(1)
    )
    worst_rel = 0.0
    for name in ("so3", "partial-flag-1", "full-flag"):
        space = SPACE_ALIASES[name]
        exact = float(flag_volume(space))
        rel = abs(numeric_volume(space, 1e-7).value - exact) / exact
        worst_rel = max(worst_rel, rel)
    report(
        4, "volumes symbolic and numeric",
        symbolic_ok and worst_rel <= 1e-6,
        f"max numeric rel err={worst_rel:.1e}",
    )


def test_criterion_5_quotient_distance_oracle():
    gen = RngStream(SEED, 1).generator()
    worst = worst_scalar = 0.0
    for blocks in FIVE_PARTITIONS.values():
        spec = FlagSpec(OrderedPartition((1, 1, 1)), SetPartition(blocks))
        iso = isotropy_group(spec)
        mats = sample_rotation_matrices(3, 2000, gen)
        a, b = mats[0::2], mats[1::2]
        # downstairs: eigenvalue distances of b^T a h, minimized over h in SG
        downstairs = _distances_to_identity(np.swapaxes(b, 1, 2) @ a, iso.signs)
        # upstairs: twice the least great-circle distance between the lifted orbits
        lifts = _spin_lifts(iso.signs)
        dots = np.einsum("kiq,kjq->kij", _lifted_orbits(_lifts(a), lifts), _lifted_orbits(_lifts(b), lifts))
        upstairs = 2.0 * np.arccos(np.clip(dots, -1.0, 1.0)).min(axis=(1, 2))
        worst = max(worst, float(np.abs(upstairs - downstairs).max()))
        # the public scalar functions agree with the batches
        for i in range(20):
            ra, rb = Rotation(a[i]), Rotation(b[i])
            orbit_a = lifted_orbit(spec, rotation_to_quaternion(ra))
            orbit_b = lifted_orbit(spec, rotation_to_quaternion(rb))
            scalar_up = 2.0 * min(sphere_distance(p, r) for p in orbit_a for r in orbit_b)
            scalar_down = quotient_distance(ra, rb, iso)
            worst_scalar = max(worst_scalar, abs(scalar_up - upstairs[i]), abs(scalar_down - downstairs[i]))
    report(
        5, "eigenvalue vs lifted-orbit distance",
        worst <= 1e-9 and worst_scalar <= 1e-12,
        f"max |diff|={worst:.2e}, scalar vs batched {worst_scalar:.1e}",
    )


def _check_metric_axioms() -> bool:
    gen = RngStream(SEED, 2).generator()
    for n in (3, 5):
        for _ in range(1000 if n == 3 else 200):
            g, a, b, c = sample_rotation_matrices(n, 4, gen)
            if abs(geodesic_distance(g @ a, g @ b) - geodesic_distance(a, b)) > 1e-10:
                return False
            if abs(geodesic_distance(a, b) - geodesic_distance(b, a)) > 1e-10:
                return False
            if geodesic_distance(a, a) > 1e-10:
                return False
            if geodesic_distance(a, c) > geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-9:
                return False
    return True


def _check_angle_distribution(angles: np.ndarray) -> bool:
    s = np.sort(angles)
    n = len(s)
    cdf = (s - np.sin(s)) / math.pi
    ks = max(
        np.abs(np.arange(1, n + 1) / n - cdf).max(),
        np.abs(np.arange(0, n) / n - cdf).max(),
    )
    return ks < 0.002


def _check_involution() -> bool:
    def descending(n, cap=None):
        cap = n if cap is None else cap
        if n == 0:
            yield ()
            return
        for first in range(min(n, cap), 0, -1):
            for rest in descending(n - first, first):
                yield (first,) + rest

    return all(
        conjugate_partition(conjugate_partition(parts)) == parts
        for n in range(1, 13)
        for parts in descending(n)
    )


def _check_covering_multiplicities() -> bool:
    trivial3 = SetPartition.trivial(3)
    complete3 = SetPartition.complete(3)
    p1 = SetPartition(((1,), (2, 3)))
    big = SetPartition(((1, 2, 3), (4, 5)))
    fine = SetPartition(((1,), (2, 3), (4,), (5,)))
    return (
        covering_multiplicity(trivial3, complete3) == 4
        and covering_multiplicity(trivial3, p1) == 2
        and covering_multiplicity(p1, p1) == 1
        and covering_multiplicity(big, fine) == 2 ** (fine.size - big.size)
    )


def _check_roundtrips(gen) -> bool:
    for _ in range(1000):
        h = Hyperspherical(
            gen.uniform(1e-3, math.pi - 1e-3),
            gen.uniform(1e-3, math.pi - 1e-3),
            gen.uniform(1e-3, 2 * math.pi - 1e-3),
        )
        back = cartesian_to_hyperspherical(hyperspherical_to_cartesian(h))
        if max(abs(back.phi1 - h.phi1), abs(back.phi2 - h.phi2), abs(back.phi3 - h.phi3)) > 1e-12:
            return False
        j = JoinCoords(
            gen.uniform(1e-3, math.pi / 2 - 1e-3),
            gen.uniform(-math.pi + 1e-3, math.pi - 1e-3),
            gen.uniform(-math.pi + 1e-3, math.pi - 1e-3),
        )
        jback = cartesian_to_join(join_to_cartesian(j))
        if max(abs(jback.alpha - j.alpha), abs(jback.theta1 - j.theta1), abs(jback.theta2 - j.theta2)) > 1e-12:
            return False
    return True


def _check_double_cover_scaling(gen) -> bool:
    eye = Rotation.identity(3)
    for _ in range(1000):
        v = gen.standard_normal(4)
        q = UnitQuaternion(*(v / np.linalg.norm(v)))
        d_sphere = sphere_distance(UnitQuaternion(1, 0, 0, 0), q)
        d_rot = geodesic_distance(quaternion_to_rotation(q), eye)
        if abs(d_rot - 2.0 * min(d_sphere, math.pi - d_sphere)) > 1e-10:
            return False
    return True


def _check_reproducibility() -> bool:
    space = SPACE_ALIASES["partial-flag-1"]
    # 150 000 draws are two chunks, so workers 4 runs them on threads
    for n in (40_000, 150_000):
        runs = [estimate_expected_distance(space, n, seed=SEED, workers=workers) for workers in (1, 1, 4, 4)]
        if any(r != runs[0] for r in runs):
            return False
    x = sample_distances(space, 10_000, RngStream(SEED).generator())
    y = sample_distances(space, 10_000, RngStream(SEED).generator())
    return bool(np.array_equal(x, y))


def test_criterion_6_property_suites(so3_haar_million):
    gen = RngStream(SEED, 3).generator()
    checks = {
        "metric axioms": _check_metric_axioms(),
        "angle distribution KS": _check_angle_distribution(so3_haar_million["angles"]),
        "conjugation involution": _check_involution(),
        "covering multiplicities": _check_covering_multiplicities(),
        "coordinate roundtrips": _check_roundtrips(gen),
        "double-cover scaling": _check_double_cover_scaling(gen),
        "bit-exact reproducibility": _check_reproducibility(),
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(6, "property suites", not failed, "all checks" if not failed else f"failed: {failed}")


def test_criterion_7_refinement_monotonicity():
    n = 100_000
    d_so3 = sample_distances(SPACE_ALIASES["so3"], n, RngStream(SEED).generator())
    d_p1 = sample_distances(SPACE_ALIASES["partial-flag-1"], n, RngStream(SEED).generator())
    d_full = sample_distances(SPACE_ALIASES["full-flag"], n, RngStream(SEED).generator())
    per_sample = bool(np.all(d_full <= d_p1) and np.all(d_p1 <= d_so3))
    in_means = d_full.mean() <= d_p1.mean() <= d_so3.mean()
    report(
        7, "refinement monotonicity",
        per_sample and in_means,
        f"means {d_full.mean():.4f} <= {d_p1.mean():.4f} <= {d_so3.mean():.4f}",
    )
