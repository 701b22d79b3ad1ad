"""Monte Carlo estimation of expected distances between random points.

Every supported space is homogeneous, so the expected distance between two
random points equals the expected distance from one random point to a fixed
base point (the identity coset, or the north pole on the sphere); that single
random point is what gets sampled. A trial draws a unit 3-vector on the
sphere and projective plane, and otherwise a rotation: for n = 3 and n = 4 a
point of the spin cover (a unit quaternion q covering x -> q x conj(q), or a
pair (p, q) covering x -> p x conj(q); Shoemake, Graphics Gems III, 1992;
Conway & Smith, On Quaternions and Octonions, 2003, ch. 4), for any other n a
product of Householder reflections, whose distance comes from the eigenvalues
of its symmetric part. On quotients by a finite isotropy group the distance
is the minimum over the orbit of the sample. Estimates carry a standard error
from a streaming (count, mean, M2) aggregation, and work is split into
per-worker substreams whose merge is independent of execution order, so a
fixed (seed, workers, N) reproduces the estimate bit for bit within one
package version.
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
    _unit_vectors,
    sample_rotation_matrices,
)
from .quatcover import _mul_raw
from .spaces import Kernel, classify

_BATCH = 1 << 17
# Memory for the (count, n, n) float stacks of one matrix batch. At most three
# are alive at once (the rotations, one orbit product and its symmetric part;
# or two draws and their product), plus the copy of the few zone samples that
# the general eigenvalue solve measures. _STACKS stays at six, so the batch
# layout does not change.
_BATCH_BYTES = 1 << 25
_STACKS = 6
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


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
    and the group is closed under products and inverses. a hj b^T is similar
    to b^T a hj, so this is the orbit minimum of b^T a that the Monte Carlo
    kernel takes.
    """
    ma, mb = _matrix_of(a), _matrix_of(b)
    if ma.shape != mb.shape or ma.shape[0] != h.n:
        raise ValueError(
            f"dimension mismatch: a {ma.shape}, b {mb.shape}, isotropy n={h.n}"
        )
    return float(_distances_to_identity((mb.T @ ma)[None], h.signs)[0])


def sphere_point(rng) -> np.ndarray:
    """A uniform random point on the unit 2-sphere (normalized Gaussian draw)."""
    return _unit_vectors(_as_generator(rng), 1, 3)[0]


def _cover_points(gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """Uniform unit quaternions q, or conj(q_b) q_a drawn in that order, as (4, count) rows."""
    q = _unit_vectors(gen, count, 4).T
    if not two_point:
        return q
    return np.array(_mul_raw(_CONJ[:, None] * _unit_vectors(gen, count, 4).T, q))


def _real_parts(units: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re(q u) for (k, 4) units u and (4, count) quaternions q, as a (k, count) array."""
    return (units * _CONJ) @ q


def _spin3_distances(lifts: np.ndarray, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 3: q covers A, q u covers A diag(s), and d(R(q), I) = 2 arccos |Re q|."""
    cos = np.abs(_real_parts(lifts, _cover_points(gen, count, two_point))).max(axis=0)
    return 2.0 * np.arccos(np.minimum(cos, 1.0))


def _spin4_distances(lifts: np.ndarray, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 4: (p, q) covers A x = p x conj(q), and (p u, q v) covers A diag(s).

    With cos a = Re p and cos b = Re q, the rotation angles of A are a + b,
    reflected into [0, pi], and |a - b|.
    """
    p = _cover_points(gen, count, two_point)
    q = _cover_points(gen, count, two_point)
    a = np.arccos(np.clip(_real_parts(lifts[:, 0], p), -1.0, 1.0))
    b = np.arccos(np.clip(_real_parts(lifts[:, 1], q), -1.0, 1.0))
    plus = a + b
    plus = np.minimum(plus, 2.0 * np.pi - plus)
    return np.sqrt((plus * plus + (a - b) ** 2).min(axis=0))


def _kernel_distances(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """One batch of distance samples for a kernel; consumes ``gen`` sequentially."""
    if kern.family == "point":
        return np.zeros(count)
    if kern.family in ("s2", "rp2"):
        v = _unit_vectors(gen, count, 3)
        cos = (_unit_vectors(gen, count, 3) * v).sum(axis=1) if two_point else v[:, 2]
        # Nearest point of the orbit {s v}: the largest cosine, |cos| under signs {1, -1}.
        if len(kern.signs) > 1:
            cos = np.abs(cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))
    if kern.lifts is not None:
        cover = _spin3_distances if kern.lifts.ndim == 2 else _spin4_distances
        return cover(kern.lifts, gen, count, two_point)
    n = kern.signs.shape[1]
    # A diag(s) B^T is similar to B^T A diag(s), so the product with B is
    # taken once, and A and B are dropped before the orbit minimum; one
    # batched symmetric eigenvalue solve per isotropy element.
    rel = sample_rotation_matrices(n, count, gen)
    if two_point:
        rel = np.swapaxes(sample_rotation_matrices(n, count, gen), 1, 2) @ rel
    return _distances_to_identity(rel, kern.signs)


def _batch_size(kern: Kernel) -> int:
    """``_BATCH`` samples, or on the matrix path as many as ``_BATCH_BYTES`` holds."""
    if kern.lifts is not None or kern.family in ("point", "s2", "rp2"):
        return _BATCH
    n = kern.signs.shape[1]
    return max(1, min(_BATCH, _BATCH_BYTES // (8 * n * n * _STACKS)))


def _distance_batches(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool):
    """``count`` distance samples in batches of at most ``_batch_size``, drawn in order from ``gen``."""
    step = _batch_size(kern)
    done = 0
    while done < count:
        m = min(step, count - done)
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
    threads = 1 if len(sizes) == 1 else min(len(sizes), os.cpu_count() or 1)
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
