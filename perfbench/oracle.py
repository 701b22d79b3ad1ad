"""Reference expected distances on SO(4) and SO(5) by Weyl integration.

A Haar rotation of SO(4) or SO(5) has two rotation angles t1, t2 in [0, pi],
and its geodesic distance to the identity is sqrt(t1^2 + t2^2). By Weyl's
integration formula their joint density is proportional to
(cos t1 - cos t2)^2, times sin^2(t1/2) sin^2(t2/2) for SO(5). The expectation
is the ratio of two smooth integrals over [0, pi]^2, evaluated with a
Gauss-Legendre product rule. Uses numpy only, nothing from oriflag.
"""

from __future__ import annotations

import math

import numpy as np


def weyl_expected_distance(n: int, nodes: int = 128) -> float:
    """E d(I, A) for Haar A in SO(n), n = 4 or 5."""
    if n not in (4, 5):
        raise ValueError(f"rank-2 groups only (n = 4 or 5), got n={n}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    weight = np.outer(w, w) * (np.cos(t1) - np.cos(t2)) ** 2
    if n == 5:
        weight *= np.sin(0.5 * t1) ** 2 * np.sin(0.5 * t2) ** 2
    return float((np.hypot(t1, t2) * weight).sum() / weight.sum())


def converged(n: int, tol: float = 1e-9) -> bool:
    """Whether two rule sizes agree, so the reference is not a quadrature artefact."""
    return abs(weyl_expected_distance(n, 64) - weyl_expected_distance(n, 128)) <= tol
