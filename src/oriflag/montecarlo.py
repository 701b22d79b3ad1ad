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
is the minimum over the orbit of the sample. A one-point trial on the sphere,
the projective plane or a spin cover reads only one coordinate of its unit
vector per orbit element, so it keeps the Gaussian row undivided and divides
just those coordinates by the row's norm: the same bits as normalizing
first, since each lifted sign picks a coordinate exactly and division by a
positive norm commutes with the maximum. Estimates carry a standard error
from a streaming (count, mean, M2) aggregation, and work is split into
per-worker substreams whose merge is independent of execution order, so a
fixed (seed, workers, N) reproduces the estimate bit for bit within one
package version.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flagspec import FlagSpec
from .orthogonal import (
    RngStream,
    _as_generator,
    _distances_to_identity,
    _gaussian_columns,
    _unit_vectors,
    sample_rotation_matrices,
)
from .quatcover import _mul_raw
from .spaces import Kernel, classify

_BATCH = 1 << 17
# Memory for the (count, n, n) float stacks of one matrix batch. A draw builds
# its stack with the sample index innermost and returns a copy: the buffer and
# the copy, at most 2.7 stacks with the Gaussians, are alive only inside it. At
# most three are alive after (the rotations, one orbit product and its
# symmetric part; or two draws and their product), and a two-point batch's
# second draw runs beside the first. The few zone samples that the general
# eigenvalue solve measures are copied as well. _STACKS stays at six: it sets
# the batch split, and so the bits of the merged statistics.
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


def sphere_point(rng) -> np.ndarray:
    """A uniform random point on the unit 2-sphere (normalized Gaussian draw)."""
    return _unit_vectors(_as_generator(rng), 1, 3)[0]


def _cover_points(
    gen: np.random.Generator, count: int, two_point: bool
) -> tuple[np.ndarray, np.ndarray | float]:
    """Quaternions as (4, count) rows, and the norms that scale them to uniform unit quaternions.

    One point: Gaussian rows and their norms, left undivided, because a
    kernel reads one signed coordinate per lift and divides only that. Two
    points: conj(q_b) q_a of unit draws taken in that order, with norm 1.
    """
    if not two_point:
        return _gaussian_columns(gen, gen.standard_normal((count, 4)).T)
    q = _unit_vectors(gen, count, 4).T
    return np.array(_mul_raw(_CONJ[:, None] * _unit_vectors(gen, count, 4).T, q)), 1.0


def _real_parts(units: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Re(q u) for (k, 4) units u and (4, count) quaternions q, as a (k, count) array.

    Each lift u is a signed unit, so each entry is a signed coordinate of q,
    without rounding.
    """
    return (units * _CONJ) @ q


def _spin3_distances(lifts: np.ndarray, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 3: q covers A, q u covers A diag(s), and d(R(q), I) = 2 arccos |Re q|.

    Dividing by the positive norm is monotone, so it is taken after the maximum.
    """
    q, norms = _cover_points(gen, count, two_point)
    cos = np.abs(_real_parts(lifts, q)).max(axis=0) / norms
    return 2.0 * np.arccos(np.minimum(cos, 1.0))


def _spin4_distances(lifts: np.ndarray, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 4: (p, q) covers A x = p x conj(q), and (p u, q v) covers A diag(s).

    With cos a = Re p and cos b = Re q, the rotation angles of A are a + b,
    reflected into [0, pi], and |a - b|.
    """
    p, p_norms = _cover_points(gen, count, two_point)
    q, q_norms = _cover_points(gen, count, two_point)
    a = np.arccos(np.clip(_real_parts(lifts[:, 0], p) / p_norms, -1.0, 1.0))
    b = np.arccos(np.clip(_real_parts(lifts[:, 1], q) / q_norms, -1.0, 1.0))
    plus = a + b
    plus = np.minimum(plus, 2.0 * np.pi - plus)
    return np.sqrt((plus * plus + (a - b) ** 2).min(axis=0))


def _kernel_distances(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """One batch of distance samples for a kernel; consumes ``gen`` sequentially."""
    if kern.family == "point":
        return np.zeros(count)
    if len(kern.shape) == 1:
        if two_point:
            v = _unit_vectors(gen, count, 3)
            cos = (_unit_vectors(gen, count, 3) * v).sum(axis=1)
        else:
            g, norms = _gaussian_columns(gen, gen.standard_normal((count, 3)).T)
            cos = g[2] / norms
        # Nearest point of the orbit {s v}: the largest cosine, |cos| under signs {1, -1}.
        if len(kern.signs) > 1:
            cos = np.abs(cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))
    if kern.lifts is not None:
        cover = _spin3_distances if kern.lifts.ndim == 2 else _spin4_distances
        return cover(kern.lifts, gen, count, two_point)
    n = kern.shape[0]
    # A diag(s) B^T is similar to B^T A diag(s), so the product with B is
    # taken once, and A and B are dropped before the orbit minimum; one
    # batched symmetric eigenvalue solve per isotropy element.
    rel = sample_rotation_matrices(n, count, gen)
    if two_point:
        rel = np.swapaxes(sample_rotation_matrices(n, count, gen), 1, 2) @ rel
    return _distances_to_identity(rel, kern.signs)


def _batch_size(kern: Kernel) -> int:
    """``_BATCH`` samples, or on the matrix path as many as ``_BATCH_BYTES`` holds."""
    if kern.lifts is not None or len(kern.shape) < 2:
        return _BATCH
    return max(1, min(_BATCH, _BATCH_BYTES // (8 * math.prod(kern.shape) * _STACKS)))


def _batches(kern: Kernel, count: int):
    """The one split of ``count`` draws: lazy batch sizes of at most ``_batch_size``."""
    step = _batch_size(kern)
    return (min(step, count - done) for done in range(0, count, step))


def _point_batches(kern: Kernel, gen: np.random.Generator, count: int):
    """``count`` points of ``kern.shape`` (unit 3-vectors or rotations), drawn in order from ``gen``."""
    n = kern.shape[0]
    for m in _batches(kern, count):
        yield _unit_vectors(gen, m, n) if len(kern.shape) == 1 else sample_rotation_matrices(n, m, gen)


def sample_distances(space: FlagSpec, count: int, rng, *, two_point: bool = False) -> np.ndarray:
    """Raw distance samples for a space, one random draw (or pair) per entry."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    kern, gen = classify(space), _as_generator(rng)
    chunks = [_kernel_distances(kern, gen, m, two_point) for m in _batches(kern, count)]
    return np.concatenate(chunks) if chunks else np.zeros(0)


def _batch_stats(x: np.ndarray) -> tuple[int, float, float]:
    mean = float(x.mean())
    return len(x), mean, float(((x - mean) ** 2).sum())


def _merge_stats(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * (nb / n))


def _chunk_stats(kern: Kernel, seed: int, chunk: int, size: int, two_point: bool) -> tuple[int, float, float]:
    gen = RngStream(seed, chunk).generator()
    batches = (_batch_stats(_kernel_distances(kern, gen, m, two_point)) for m in _batches(kern, size))
    return functools.reduce(_merge_stats, batches)


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
    chunk_stats = functools.partial(_chunk_stats, kern, seed, two_point=two_point)
    if threads == 1:
        parts = list(map(chunk_stats, range(len(sizes)), sizes))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk_stats, range(len(sizes)), sizes))
    count, mean, m2 = functools.reduce(_merge_stats, parts)
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_samples=count, seed=seed)
