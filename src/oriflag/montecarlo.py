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
sample, and each lifted sign picks a coordinate of the unit quaternion. A
one-point trial on a spin cover draws its quaternion from a pair of uniform
points of the unit disk (Marsaglia; see ``_DISK_OVERSAMPLE``), the second
only when a lift reads coordinate 2 or 3; a two-point trial draws
normalized Gaussians. The spin-cover and sphere kernels write their steps
into the batch's own arrays, and a batch's statistics overwrite its
distances, so a one-point batch holds, traced, 5.0 doubles per sample on
so3 and partial-flag-1 (a block of disk candidates, two rows and their s
at 4/3 of a double each, and the distances), 6.0 on the other SO(3)/SG
spaces (and the row of sqrt(1 - s1)), one on the sphere, and 6 to 25 on
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
    _unit_columns,
    _unit_vectors,
    sample_rotation_matrices,
)
from .quatcover import _conj_mul_coords
from .spaces import _STACKS, Kernel, classify

_BATCH = 1 << 17
# Memory for the (count, n, n) float stacks of one matrix batch. A draw builds
# its stack with the sample index innermost and returns a copy: the buffer and
# the copy, at most 2.7 stacks with the Gaussians, are alive only inside it. At
# most three are alive after (the rotations, one orbit product and its
# symmetric part; or two draws and their product), and a two-point batch's
# second draw runs beside the first. The samples that the trace route (n = 5)
# hands on are copied twice more (M and M + I for the determinant, about a
# sixth of the stack each), and the few that the general eigenvalue solve
# measures once. _STACKS (``spaces``) stays at six: it sets the batch split,
# and so the bits of the merged statistics.
_BATCH_BYTES = 1 << 25
# This thread's two-point buffer, ``doubles``: kept across batches and calls,
# so repeated estimates do not fault its pages in again, and made larger only
# when a batch needs more. A pool thread's buffer goes with the thread.
_two_point = threading.local()
# One-point spin-cover trials draw q by Marsaglia's method (Choosing a point
# from the surface of a sphere, Ann. Math. Statist. 43, 1972): for (x_0, x_1)
# and (x_2, x_3) uniform in the open unit disk, with squared radii s1 and s2,
# q = (x_0, x_1, x_2 t, x_3 t) with t = sqrt((1 - s1) / s2) is uniform on
# S^3. Disk points are drawn by rejection from [-1, 1)^2: pi/4 of a block's
# candidates are kept, so its _DISK_OVERSAMPLE per point plus 64 come up short
# of the points needed 13.6 standard deviations out at 2^14 points (6.7 at
# 500), and then a further block is drawn for the rest. A block holds at most
# _DISK_BLOCK candidates, so a larger batch takes several, whose temporaries
# (about 1 MB) stay in cache and are reused from the heap: at 2^17 points a
# disk in one block ran slower and faulted more pages. The first disk is
# drawn first, so one stream gives the SO(3)/SG spaces the same x_0 and x_1,
# and the second only when a lift reads coordinate 2 or 3.
# Precision: x_0 and x_1 are exact, and x_c t is formed as (x_c / sqrt(s2))
# sqrt(1 - s1). The rounding of s1 (at most u = 2^-53) reaches it through
# 1 - s1: an absolute error of about u / sqrt(1 - s1), largest where x_c t
# itself is smallest, while |q|^2 = s1 + (1 - s1) stays within a few u of 1.
_DISK_OVERSAMPLE = 4 / 3
_DISK_BLOCK = 1 << 15


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


def _disk_blocks(gen: np.random.Generator, count: int, read: tuple, signed: bool):
    """Blocks of candidate points of the open unit disk, drawn until ``count`` are accepted.

    A block draws (2, m) uniforms u, a row of first coordinates and a row of
    second ones, for m = _DISK_OVERSAMPLE per point still needed plus 64 (at
    most _DISK_BLOCK), and makes them x = 2u - 1, which is exact. It yields
    (rows, s, kept, seg): ``kept`` indexes in draw order the candidates with
    0 < s < 1, s = x_0^2 + x_1^2 (the second disk is divided by s), that
    fill positions ``seg`` of the batch. ``rows`` holds the coordinates in
    ``read`` as drawn when ``signed``, and otherwise one row, their largest
    |x_c|; s takes the block's other row when that is not read.
    """
    done = 0
    while done < count:
        need = count - done
        x = gen.random((2, min(math.ceil(need * _DISK_OVERSAMPLE) + 64, _DISK_BLOCK)))
        np.subtract(np.multiply(x, 2.0, out=x), 1.0, out=x)
        a, b = x[read[0]], x[1 - read[0]]
        s = np.multiply(a, a)
        if signed and len(read) == 2:
            rows = (a, b)
            np.add(s, b * b, out=s)
        else:
            rows = (a,)
            if not signed:
                np.abs(a, out=a)
                if len(read) == 2:
                    np.maximum(a, np.abs(b, out=b), out=a)
            s = np.add(s, np.multiply(b, b, out=b), out=b)
        kept = np.flatnonzero((s < 1.0) & (s > 0.0))[:need]
        yield rows, s, kept, slice(done, done + len(kept))
        done += len(kept)


def _first_disk(gen: np.random.Generator, count: int, read: tuple, signed: bool, out, w: np.ndarray | None) -> None:
    """The first disk of ``count`` quaternions: its rows for ``read`` into ``out``, and sqrt(1 - s1) into ``w`` if given.

    ``take`` in clip mode writes into its ``out`` directly, where the
    default mode would write a copy first; ``kept`` is always in range.
    """
    for rows, s, kept, seg in _disk_blocks(gen, count, read, signed):
        for row, x in zip(out, rows):
            np.take(x, kept, out=row[seg], mode="clip")
        if w is not None:
            part = np.take(s, kept, out=w[seg], mode="clip")
            np.sqrt(np.subtract(1.0, part, out=part), out=part)


def _second_disk(gen: np.random.Generator, count: int, read: tuple, w: np.ndarray, out=None) -> None:
    """The second disk of ``count`` quaternions, given w = sqrt(1 - s1) of the first: x_c t = (x_c / sqrt(s2)) w.

    With ``out``, each coordinate in ``read`` gets its row of x_c t.
    Without it, w becomes the largest |x_c| t, formed over the whole block
    and then gathered into the row s that it has done with.
    """
    for rows, s, kept, seg in _disk_blocks(gen, count, read, signed=out is not None):
        if out is None:
            a = rows[0]
            with np.errstate(invalid="ignore"):  # a rejected origin is 0 / 0
                np.divide(a, np.sqrt(s, out=s), out=a)
            np.multiply(w[seg], np.take(a, kept, out=s[:len(kept)], mode="clip"), out=w[seg])
            continue
        root = np.sqrt(s[kept])
        for row, x in zip(out, rows):
            part = np.take(x, kept, out=row[seg], mode="clip")
            np.multiply(np.divide(part, root, out=part), w[seg], out=part)


def _cover_cosines(gen: np.random.Generator, count: int, coords: tuple) -> np.ndarray:
    """max |q_c| over ``coords`` for ``count`` Marsaglia quaternions q, as a fresh row.

    The largest |q_c| over coordinates 2 and 3 is t times their largest
    |x_c|, so the second disk folds into the row of w.
    """
    near, far = tuple(c for c in coords if c < 2), tuple(c - 2 for c in coords if c > 1)
    cos, w = np.empty(count), np.empty(count) if far else None
    _first_disk(gen, count, near, False, (cos,), w)
    if far:
        _second_disk(gen, count, far, w)
        np.maximum(cos, w, out=cos)
    return cos


def _cover_coords(gen: np.random.Generator, count: int, coords: tuple) -> np.ndarray:
    """Coordinates ``coords`` (ascending from 0) of ``count`` Marsaglia quaternions, as fresh (len(coords), count) rows."""
    near, far = tuple(c for c in coords if c < 2), tuple(c - 2 for c in coords if c > 1)
    q, w = np.empty((len(coords), count)), np.empty(count) if far else None
    _first_disk(gen, count, near, True, q[:len(near)], w)
    if far:
        _second_disk(gen, count, far, w, q[len(near):])
    return q


def _spin3_distances(columns: tuple, gen: np.random.Generator, count: int, two_point: bool) -> np.ndarray:
    """n = 3: q covers A, q u covers A diag(s), and d(R(q), I) = 2 arccos |Re q|.

    Each lift u is a unit e_c, so |Re(q u)| = |q_c| and the orbit's largest
    is the largest |q_c| over the lifts' coordinates (``columns``, the
    kernel's one lift column).
    """
    coords, _ = columns[0]
    if two_point:
        cos = np.empty(count)
        parts = _relative_points(gen, coords, _scratch(8 + len(coords), count), cos)
        np.abs(parts, out=parts).max(axis=0, out=cos)
    else:
        cos = _cover_cosines(gen, count, tuple(coords))
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


def _lift_angles(columns: tuple, gen: np.random.Generator, count: int) -> list:
    """arccos Re(p u) and arccos Re(q v) for the lift columns' k units and ``count`` Marsaglia pairs (p, q), as two (k, count).

    Both columns read the same coordinates (v = |u|). With two disks p and q
    are one draw of 2 count quaternions, which halves the blocks a batch
    draws; with one disk each is its own draw, which holds half the memory.
    """
    coords = tuple(columns[0][0])
    if coords[-1] < 2:
        return [_arccos(rows @ _cover_coords(gen, count, coords)) for _, rows in columns]
    q = _cover_coords(gen, 2 * count, coords)
    return [_arccos(rows @ q[:, k * count:(k + 1) * count]) for k, (_, rows) in enumerate(columns)]


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
        a, b = _lift_angles(columns, gen, count)
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
    """Raw distance samples for a space, one random draw (or pair) per entry.

    The batches are drawn in order from the one generator ``rng``, whereas an
    estimate draws chunk k on ``RngStream(seed, k)``; so the samples from
    ``RngStream(seed)`` are the estimate's draws only up to one batch.
    """
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
