"""Monte Carlo estimation of expected distances between random points.

Every supported space is homogeneous, so the expected distance between two
random points equals the expected distance from one random point to a fixed
base point (the identity coset, or the north pole on the sphere); that single
random point is what gets sampled, one rotation or unit vector per trial. On
quotients by a finite isotropy group the distance is the minimum over the
orbit of the sample. Estimates carry a standard error from a streaming
(count, mean, M2) aggregation, and work is split into per-worker substreams
whose merge is independent of execution order, so a fixed (seed, workers, N)
reproduces the estimate bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flagspec import FiniteIsotropy, FlagSpec
from .orthogonal import (
    RngStream,
    _as_generator,
    _distances_to_identity,
    _matrix_of,
    sample_rotation_matrices,
)
from .spaces import Kernel, classify

_BATCH = 1 << 17
_MIN_NORM = 1e-8


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("an estimate needs at least one sample")
        if self.stderr < 0.0 or math.isnan(self.stderr):
            raise ValueError(f"invalid standard error {self.stderr!r}")


def quotient_distance(a, b, h: FiniteIsotropy) -> float:
    """Distance between the cosets of ``a`` and ``b`` modulo the isotropy ``h``.

    The minimum of geodesic_distance(a hj, b) over the group elements hj;
    symmetric and well-defined on cosets because the metric is bi-invariant
    and the group is closed under products and inverses.
    """
    ma, mb = _matrix_of(a), _matrix_of(b)
    if ma.shape != mb.shape or ma.shape[0] != h.n:
        raise ValueError(
            f"dimension mismatch: a {ma.shape}, b {mb.shape}, isotropy n={h.n}"
        )
    orbit = ma @ np.stack([e.matrix for e in h.elements]) @ mb.T
    return float(_distances_to_identity(orbit).min())


def _unit_vectors(gen: np.random.Generator, count: int) -> np.ndarray:
    v = gen.standard_normal((count, 3))
    norms = np.linalg.norm(v, axis=1)
    while True:
        bad = norms < _MIN_NORM
        if not bad.any():
            break
        v[bad] = gen.standard_normal((int(bad.sum()), 3))
        norms[bad] = np.linalg.norm(v[bad], axis=1)
    return v / norms[:, None]


def sphere_point(rng) -> np.ndarray:
    """A uniform random point on the unit 2-sphere (normalized Gaussian draw)."""
    return _unit_vectors(_as_generator(rng), 1)[0]


def _principal_angle_from_traces(traces: np.ndarray, n: int) -> np.ndarray:
    """Rotation angle of SO(2)/SO(3) matrices given their traces."""
    if n == 3:
        cos = (traces - 1.0) / 2.0
    else:
        cos = traces / 2.0
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _kernel_distances(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """One batch of distance samples for a kernel; consumes ``gen`` sequentially."""
    if kern.family == "point":
        return np.zeros(count)
    if kern.family in ("s2", "rp2"):
        v = _unit_vectors(gen, count)
        cos = (_unit_vectors(gen, count) * v).sum(axis=1) if two_point else v[:, 2]
        # Nearest point of the orbit {s v}: the largest cosine, |cos| under signs {1, -1}.
        if len(kern.signs) > 1:
            cos = np.abs(cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))
    n = kern.signs.shape[1]
    a = sample_rotation_matrices(n, count, gen)
    b = sample_rotation_matrices(n, count, gen) if two_point else None
    if n in (2, 3):
        if b is None:
            diag = np.diagonal(a, axis1=1, axis2=2)
        else:
            diag = np.einsum("mik,mik->mk", a, b)
        return _principal_angle_from_traces(diag @ kern.signs.T, n).min(axis=1)
    # General n: one batched eigenvalue call per isotropy element. A diag(s) B^T
    # is similar to B^T A diag(s), so the product with B is taken once; only
    # one (count, n, n) stack is alive at a time.
    rel = a if b is None else np.swapaxes(b, 1, 2) @ a
    best = np.inf
    for s in kern.signs:
        best = np.minimum(best, _distances_to_identity(rel * s))
    return best


def _distance_batches(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool):
    """``count`` distance samples in batches of at most ``_BATCH``, drawn in order from ``gen``."""
    done = 0
    while done < count:
        m = min(_BATCH, count - done)
        yield _kernel_distances(kern, gen, m, two_point)
        done += m


def sample_distances(space: FlagSpec, count: int, rng, *, two_point: bool = False) -> np.ndarray:
    """Raw distance samples for a space, one random draw (or pair) per entry."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    chunks = list(_distance_batches(classify(space), _as_generator(rng), count, two_point))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def _batch_stats(x: np.ndarray) -> tuple[int, float, float]:
    mean = float(x.mean())
    return len(x), mean, float(((x - mean) ** 2).sum())


def _merge_stats(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    na, ma, m2a = a
    nb, mb, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * (nb / n))


def _chunk_stats(kern: Kernel, seed: int, chunk: int, size: int, two_point: bool) -> tuple[int, float, float]:
    stats = (0, 0.0, 0.0)
    for x in _distance_batches(kern, RngStream(seed, chunk).generator(), size, two_point):
        stats = _merge_stats(stats, _batch_stats(x))
    return stats


def _chunk_sizes(n: int, workers: int) -> list[int]:
    """Sizes of the non-empty chunks; when ``workers`` > ``n`` the rest would be empty."""
    base, extra = divmod(n, workers)
    return [base + (1 if i < extra else 0) for i in range(min(workers, n))]


def estimate_expected_distance(
    space: FlagSpec,
    n_samples: int,
    *,
    seed: int = 0,
    workers: int = 1,
    two_point: bool = False,
) -> Estimate:
    """Estimate the expected distance between two random points of ``space``.

    By default each trial draws a single random point and measures its
    distance to the base point, which homogeneity makes equivalent to the
    two-point expectation; ``two_point=True`` draws both points (twice the
    work, same mean). ``n_samples`` is split into ``workers`` contiguous
    chunks, each on its own substream of ``seed``, and merged in chunk order,
    so the result is a pure function of (space, n_samples, seed, workers).
    Only the non-empty chunks run, on at most ``os.cpu_count()`` threads.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    kern = classify(space)
    sizes = _chunk_sizes(n_samples, workers)
    # Chunks fix the result; threads only run them, so never more than cores.
    threads = min(len(sizes), os.cpu_count() or 1)
    if threads == 1:
        parts = [_chunk_stats(kern, seed, i, size, two_point) for i, size in enumerate(sizes)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_chunk_stats, kern, seed, i, size, two_point)
                for i, size in enumerate(sizes)
            ]
            parts = [f.result() for f in futures]
    count, mean, m2 = (0, 0.0, 0.0)
    for part in parts:
        count, mean, m2 = _merge_stats((count, mean, m2), part)
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_samples=count, seed=seed)
