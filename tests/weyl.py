"""Weyl integration over the rotation angles of Haar SO(n), a test oracle that uses numpy only.

A Haar rotation of SO(n) has r = n // 2 rotation angles in [0, pi], with
joint density proportional to prod_{i<j} (cos t_i - cos t_j)^2, times
prod_i sin^2(t_i / 2) when n is odd (Weyl; Bump, Lie Groups), and its
geodesic distance to the identity is sqrt(sum_i t_i^2). Both functions here
use a Gauss-Legendre product rule over the r angles.
"""

from __future__ import annotations

import math

import numpy as np

# Gauss-Legendre nodes per angle of the two rules behind expected_distance;
# both already agree to rounding for n <= 9.
RULES = (24, 32)
# Nodes of the one-angle rule behind largest_angle_cdf: its integrands are
# trigonometric polynomials of degree at most 2r - 1 = 7, integrated to rounding.
CDF_NODES = 40


def _rule(n: int, nodes: int, top) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, top] (top may be an array, one rule per entry) and weights with the odd-n factor."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.asarray(top, dtype=float)[..., None]
    theta = half * (x + 1.0)
    w = half * w
    if n % 2:
        w = w * np.sin(0.5 * theta) ** 2
    return theta, w


def _mean_distance(n: int, nodes: int) -> float:
    """E sqrt(sum t_i^2) by one product rule, summed one node of the first angle at a time."""
    r = n // 2
    theta, w = _rule(n, nodes, math.pi)
    c = np.cos(theta)
    # the last r - 1 angles on a flat grid, with their weights and Vandermonde factor
    rest = [i.ravel() for i in np.indices((nodes,) * (r - 1))]
    weight, square = np.ones(nodes ** (r - 1)), np.zeros(nodes ** (r - 1))
    for a, ia in enumerate(rest):
        weight *= w[ia]
        square += theta[ia] ** 2
        for ib in rest[a + 1:]:
            weight *= (c[ia] - c[ib]) ** 2
    num = den = 0.0
    for t, ct, wt in zip(theta, c, w):
        full = weight * wt
        for ia in rest:
            full *= (ct - c[ia]) ** 2
        num += (full * np.sqrt(square + t * t)).sum()
        den += full.sum()
    return num / den


def expected_distance(n: int) -> tuple[float, float]:
    """E d(I, A) for Haar A in SO(n), 2 <= n <= 9, and a bound on its error.

    The bound is the difference of the two rules in ``RULES`` plus 32 ulp for
    the rounding of sums over up to 32^3 points.
    """
    if not 2 <= n <= 9:
        raise ValueError(f"n must be 2..9, got {n}")
    coarse, fine = (_mean_distance(n, nodes) for nodes in RULES)
    return fine, abs(fine - coarse) + 32 * math.ulp(fine)


def largest_angle_cdf(n: int, x) -> np.ndarray:
    """P(largest rotation angle <= x) for Haar SO(n), at each x in [0, pi].

    The product rule over [0, x]^r, divided by the one over [0, pi]^r. The
    squared Vandermonde is det[c_i^j]^2, so by Cauchy-Binet the product-rule
    sum equals r! det G with G_jk = sum_m w_m c_m^(j+k) over the nodes of one
    angle: one r x r determinant per x instead of CDF_NODES^r points.
    """
    r = n // 2
    tops = np.append(np.asarray(x, dtype=float), math.pi)
    theta, w = _rule(n, CDF_NODES, tops)
    powers = np.cos(theta)[..., None] ** np.arange(2 * r - 1)
    moments = np.einsum("xm,xmp->xp", w, powers)
    gram = moments[:, np.add.outer(np.arange(r), np.arange(r))]
    dets = np.linalg.det(gram)
    return dets[:-1] / dets[-1]
