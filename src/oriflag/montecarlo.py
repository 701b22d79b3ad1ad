"""Monte Carlo estimation of expected distances between random points.

Every supported space is homogeneous, so the expected distance between two
random points equals the expected distance from one random point to a fixed
base point (the identity coset, or the north pole on the sphere); that single
random point is what gets sampled. On the sphere and projective plane a trial
draws uniforms: by Archimedes' hat-box theorem the height of a uniform point
of S^2 is uniform on [-1, 1], so one point is one uniform u at height
z = 1 - 2u, whose arccos is its distance to the pole, and two points are a
(height, longitude) pair each. Otherwise a trial draws a rotation: for n = 3
and n = 4 a point of the spin cover (a unit quaternion q covering
x -> q x conj(q), or a pair (p, q) covering x -> p x conj(q); Shoemake,
Graphics Gems III, 1992; Conway & Smith, On Quaternions and Octonions, 2003,
ch. 4), for any other n a product of Householder reflections, whose distance
comes from two traces at n = 5 and otherwise, or where the traces cannot
vouch for it, from the eigenvalues of its symmetric part. On quotients by a
finite isotropy group the distance is the minimum over the orbit of the
sample. A one-point trial on a spin cover reads only one coordinate of its
unit vector per orbit element, so it keeps the Gaussian row undivided and
divides just those coordinates by the row's norm: the same bits as
normalizing first, since each lifted sign picks a coordinate exactly and
division by a positive norm commutes with the maximum. The spin-cover and
sphere kernels write every step into the batch's own arrays with ``out=``,
and a batch's statistics overwrite its distances, so a one-point batch
holds 6.1 doubles per sample on SO(3)/SG (its Gaussian block and two rows,
traced, the redraw mask included), one on the sphere, and 7 to 25 on
SO(4)/SG, growing with |SG|. A two-point trial instead works in one float64
buffer per thread, kept across batches and calls so that repeated estimates
do not fault its pages in again; only the returned distances are fresh. It
holds at most one two-point batch, the largest the thread has run: 4
doubles per sample on the sphere, 8 + c on SO(3)/SG and k + max(2k, 8 + c)
on SO(4)/SG, for the c coordinates of a quaternion that the k lifts read. It
is freed with its thread, a pool thread's when the pool exits. A two-point
batch that makes the buffer peaks at 5 (sphere) to 13.5 (full flag) and
11.5 to 25.5 (SO(4)/SG) doubles per sample; one that reuses it adds 1 on
the sphere and 1.5 elsewhere. Estimates carry a standard error from a
streaming (count, mean, M2) aggregation. N is split into fixed chunks, one
batch each: chunk k holds draws [kC, (k + 1)C) on substream k and the
chunks merge in k order, so a fixed (seed, N) reproduces the estimate bit
for bit within one package version, whatever the number of threads that
run the chunks. Substream k of a seed is numpy's SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(k,))`` (``orthogonal.RngStream``).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flagspec import FlagSpec
from .orthogonal import (
    RngStream,
    _as_generator,
    _distances_to_identity,
    _gaussian_columns,
    _unit_columns,
    _unit_vectors,
    sample_rotation_matrices,
)
from .quatcover import _conj_mul_coords
from .spaces import Kernel, classify

_BATCH = 1 << 17
# Memory for the (count, n, n) float stacks of one matrix batch. A draw builds
# its stack with the sample index innermost and returns a copy: the buffer and
# the copy, at most 2.7 stacks with the Gaussians, are alive only inside it. At
# most three are alive after (the rotations, one orbit product and its
# symmetric part; or two draws and their product), and a two-point batch's
# second draw runs beside the first. The samples that the trace route (n = 5)
# hands on and the few zone samples that the general eigenvalue solve
# measures are copied as well. _STACKS stays at six: it sets
# the batch split, and so the bits of the merged statistics.
_BATCH_BYTES = 1 << 25
_STACKS = 6
# This thread's two-point buffer, ``doubles``: kept across batches and calls,
# so repeated estimates do not fault its pages in again, and made larger only
# when a batch needs more. A pool thread's buffer goes with the thread.
_two_point = threading.local()


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


def _raw_gaussians(gen: np.random.Generator, count: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaussian (dim, count) rows viewing (count, dim) draws, their norms, and the spare (count,) row that summed them.

    A one-point kernel reads one coordinate of each unit vector per orbit
    element, so it keeps the rows undivided and divides only what it reads.
    """
    spare = np.empty(count)
    g, norms = _gaussian_columns(gen, gen.standard_normal((count, dim)).T, np.empty(count), spare)
    return g, norms, spare


def _scratch(rows: int, count: int) -> np.ndarray:
    """(rows, count) doubles of this thread's two-point buffer."""
    size = rows * count
    buf = getattr(_two_point, "doubles", None)
    if buf is None or len(buf) < size:
        _two_point.doubles = None  # the old buffer goes before the larger one is made
        buf = _two_point.doubles = np.empty(size)
    return buf[:size].reshape(rows, count)


def _relative_points(gen: np.random.Generator, coords: np.ndarray, rows: np.ndarray, term: np.ndarray) -> np.ndarray:
    """Coordinates ``coords`` of conj(q_b) q_a, for unit draws q_a then q_b, in the last len(coords) rows of ``rows``.

    ``rows`` is (8 + len(coords), count). Each draw fills the Gaussian block
    in rows[4:8]: q_a is divided into rows[:4] as it leaves the block, q_b
    in place. The norms take the first product row, and the squares and
    the product's terms take the (count,) row ``term``.
    """
    a, raw, parts = rows[:4], rows[4:8].reshape(-1, 4), rows[8:]
    b = raw.T
    for q in (a, b):
        _unit_columns(gen, raw, q, parts[0], term)
    return _conj_mul_coords(b, a, coords, parts, term)


def _spin3_distances(columns: tuple, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 3: q covers A, q u covers A diag(s), and d(R(q), I) = 2 arccos |Re q|.

    Each lift u is a unit e_c, so |Re(q u)| = |q_c| and the orbit's largest
    is the largest |q_c| over the lifts' coordinates (``columns``, the
    kernel's one lift column). One point divides it by the norm after the
    maximum, which the positive norm leaves in place.
    """
    coords, _ = columns[0]
    if two_point:
        cos = np.empty(count)
        parts = _relative_points(gen, coords, _scratch(8 + len(coords), count), cos)
        np.abs(parts, out=parts).max(axis=0, out=cos)
    else:
        q, norms, cos = _raw_gaussians(gen, count, 4)
        np.abs(q[coords[0]], out=cos)
        for c in coords[1:]:
            np.maximum(cos, np.abs(q[c], out=q[c]), out=cos)
        np.divide(cos, norms, out=cos)
    np.arccos(np.minimum(cos, 1.0, out=cos), out=cos)
    return np.multiply(cos, 2.0, out=cos)


def _sphere_heights(gen: np.random.Generator, count: int) -> np.ndarray:
    """The heights z = 1 - 2u of ``count`` uniform points of S^2, one uniform u each, as a fresh row.

    By Archimedes' hat-box theorem the height of a uniform point of S^2 is
    uniform on [-1, 1]. ``gen.random`` gives u = k 2^-53, so both steps are
    exact and z lies in (-1, 1], with no clip needed before arccos.
    """
    z = gen.random(count)
    np.multiply(z, 2.0, out=z)
    return np.subtract(1.0, z, out=z)


def _sphere_cosines(gen: np.random.Generator, count: int) -> np.ndarray:
    """<a, b> of two uniform points of S^2 per sample, clipped to [-1, 1], as a fresh row.

    Each point takes two uniforms of its own, (u, w): height z = 1 - 2u and
    longitude 2 pi w. The four rows u_a, w_a, u_b, w_b are drawn in that
    order into this thread's two-point buffer, and <a, b> = z_a z_b +
    r_a r_b cos 2 pi (w_a - w_b). The squared radius r^2 = 1 - z^2 is
    formed as (1 - z)(1 + z) = 2u (2 - 2u), whose factors are exact, so it
    keeps its precision near the poles; r_a r_b = sqrt(r_a^2 r_b^2).
    """
    cos, rows = np.empty(count), _scratch(4, count)
    gen.random(out=rows)
    h, w = rows[0::2], rows[1::2]
    np.subtract(w[0], w[1], out=cos)
    np.cos(np.multiply(cos, 2.0 * np.pi, out=cos), out=cos)
    np.multiply(h, 2.0, out=h)
    np.multiply(np.subtract(2.0, h, out=w), h, out=w)
    np.subtract(1.0, h, out=h)
    r = np.sqrt(np.multiply(w[0], w[1], out=w[0]), out=w[0])
    np.add(np.multiply(cos, r, out=cos), np.multiply(h[0], h[1], out=h[0]), out=cos)
    return np.clip(cos, -1.0, 1.0, out=cos)


def _arccos(x: np.ndarray) -> np.ndarray:
    """arccos of ``x`` clipped to [-1, 1], in place."""
    return np.arccos(np.clip(x, -1.0, 1.0, out=x), out=x)


def _lift_angles(column: tuple, gen: np.random.Generator, count: int) -> np.ndarray:
    """arccos(Re(q u) / |q|) for a lift column's k signed units u and ``count`` Gaussian rows q, divided after the pick, as (k, count).

    The column's coordinates of q are copied out of the Gaussian block,
    which goes before the product is made.
    """
    coords, rows = column
    q, norms = _raw_gaussians(gen, count, 4)[:2]
    q = q[coords]
    x = rows @ q
    return _arccos(np.divide(x, norms, out=x))


def _spin4_distances(columns: tuple, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 4: (p, q) covers A x = p x conj(q), and (p u, q v) covers A diag(s).

    With cos a = Re p and cos b = Re q, the rotation angles of A are a + b,
    reflected into [0, pi], and |a - b|. Two points: p = conj(p_b) p_a and
    q = conj(q_b) q_a, formed only at the coordinates the lifts read.
    """
    d = None
    if two_point:
        k, widest = len(columns[0][1]), max(len(coords) for coords, _ in columns)
        # a stays put while q's relative points run in rows[k:]; b and a + b
        # then take the rows those points are done with. |SG| <= 8 at n = 4,
        # so b is clear of the product rows it is computed from.
        rows = _scratch(k + max(2 * k, 8 + widest), count)
        a, b, plus, d = rows[:k], rows[k:2 * k], rows[2 * k:3 * k], np.empty(count)
        for x, (coords, picks) in zip((a, b), columns):
            rel = _relative_points(gen, coords, rows[k:k + 8 + len(coords)], d)
            _arccos(np.matmul(picks, rel, out=x))
        np.add(a, b, out=plus)
    else:
        a = _lift_angles(columns[0], gen, count)
        b = _lift_angles(columns[1], gen, count)
        plus = a + b
    diff = np.subtract(a, b, out=a)
    np.minimum(plus, np.subtract(2.0 * np.pi, plus, out=b), out=plus)
    np.multiply(plus, plus, out=plus)
    d = np.add(plus, np.multiply(diff, diff, out=diff), out=plus).min(axis=0, out=d)
    return np.sqrt(d, out=d)


def _kernel_distances(kern: Kernel, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """One batch of distance samples for a kernel; consumes ``gen`` sequentially."""
    if kern.family == "point":
        return np.zeros(count)
    if len(kern.shape) == 1:
        cos = _sphere_cosines(gen, count) if two_point else _sphere_heights(gen, count)
        # Nearest point of the orbit {s v}: the largest cosine, |cos| under signs {1, -1}.
        if len(kern.signs) > 1:
            np.abs(cos, out=cos)
        return np.arccos(cos, out=cos)
    if kern.lift_columns:
        cover = _spin3_distances if len(kern.lift_columns) == 1 else _spin4_distances
        return cover(kern.lift_columns, gen, count, two_point)
    n = kern.shape[0]
    # A diag(s) B^T is similar to B^T A diag(s), so the product with B is
    # taken once, and A and B are dropped before the orbit minimum; two traces
    # (n = 5) or one batched symmetric eigenvalue solve per isotropy element.
    rel = sample_rotation_matrices(n, count, gen)
    if two_point:
        rel = np.swapaxes(sample_rotation_matrices(n, count, gen), 1, 2) @ rel
    return _distances_to_identity(rel, kern.signs)


def _batch_size(kern: Kernel) -> int:
    """``_BATCH`` samples, or on the matrix path as many as ``_BATCH_BYTES`` holds."""
    if kern.lift_columns or len(kern.shape) < 2:
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
    """(count, mean, M2) of a batch; the squared deviations overwrite ``x``."""
    mean = float(x.mean())
    np.subtract(x, mean, out=x)
    return len(x), mean, float(np.multiply(x, x, out=x).sum())


def _merge_stats(a: tuple[int, float, float], b: tuple[int, float, float]) -> tuple[int, float, float]:
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * (nb / n))


def _chunk_stats(kern: Kernel, seed: int, two_point: bool, chunk: int, size: int) -> tuple[int, float, float]:
    """(count, mean, M2) of chunk ``chunk``: one batch of ``size`` draws on substream ``chunk`` of ``seed``."""
    return _batch_stats(_kernel_distances(kern, RngStream(seed, chunk).generator(), size, two_point))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    work, same mean). ``n_samples`` is split into chunks of one batch
    (``_batches``), chunk k on substream k of ``seed``, and merged in chunk
    order, so the result is a pure function of (space, n_samples, seed).
    ``workers`` only sets how many threads run the chunks: at most one per
    chunk and per CPU this process may run on.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    kern = classify(space)
    sizes = list(_batches(kern, n_samples))
    # Chunks fix the result; threads only run them, so never more than CPUs.
    threads = 1 if workers == 1 or len(sizes) == 1 else min(workers, len(sizes), _usable_cpus())
    chunk_stats = functools.partial(_chunk_stats, kern, seed, two_point)
    if threads == 1:
        parts = map(chunk_stats, range(len(sizes)), sizes)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(chunk_stats, range(len(sizes)), sizes))
    count, mean, m2 = functools.reduce(_merge_stats, parts)
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n_samples=count, seed=seed)
