"""Naming spaces: which manifold an expectation or volume refers to.

Every space is a flag specification Fl(lambda; P) = SO(n)/SG. SO(n) itself is
lambda = 1,...,1 with every block a singleton (the ``soN`` names), and the unit
2-sphere and the real projective plane are lambda = 1,2 with P = {1}{2} and
P = {1,2}. Specifications whose isotropy group is finite (all parts of lambda
equal to 1) are handled directly; the two-part lambdas of 3 reduce to the
sphere and projective plane; any other single-part lambda is a point. Anything
else has a continuous isotropy group with no distance machinery here and is
rejected as unsupported.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .flagspec import (
    FlagSpec,
    FlagSpecParseError,
    OrderedPartition,
    SetPartition,
    UnsupportedSpaceError,
    isotropy_group,
    parse_flagspec,
)
from .quatcover import _lift_columns, _spin_lifts


# In the order of the ``expected --all`` comparison table.
SPACE_ALIASES: dict[str, FlagSpec] = {
    name: parse_flagspec(text)
    for name, text in {
        "so3": "lambda=1,1,1 P={1}{2}{3}",
        "partial-flag-1": "lambda=1,1,1 P={1}{2,3}",
        "partial-flag-2": "lambda=1,1,1 P={2}{1,3}",
        "partial-flag-3": "lambda=1,1,1 P={3}{1,2}",
        "full-flag": "lambda=1,1,1 P={1,2,3}",
        "s2": "lambda=1,2 P={1}{2}",
        "rp2": "lambda=1,2 P={1,2}",
        "trivial-flag": "lambda=3 P={1}",
    }.items()
}

_SON_RE = re.compile(r"^so(\d+)$")


def parse_space(text: str) -> FlagSpec:
    """Resolve a CLI space argument: alias, soN, or flag spec text.

    ``soN`` is SO(n) itself: lambda = 1,...,1 with every block a singleton.
    """
    key = text.strip().lower()
    if key in SPACE_ALIASES:
        return SPACE_ALIASES[key]
    m = _SON_RE.match(key)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise FlagSpecParseError(f"SO(n) needs n >= 1, got {text!r}")
        return FlagSpec(OrderedPartition((1,) * n), SetPartition.complete(n))
    return parse_flagspec(text)


def space_label(space: FlagSpec) -> str:
    """Short human-readable name: the CLI alias when one exists, else the spec text."""
    for name, value in SPACE_ALIASES.items():
        if value == space:
            return name
    return space.to_text()


@dataclass(frozen=True, eq=False)
class Kernel:
    """How to sample and measure a space, decided once by :func:`classify`.

    ``signs`` lists the finite isotropy group as rows of diagonal signs. For a
    rotation space (lambda all ones) it is the (|SG|, n) array acting on
    sampled n x n rotations, a single row of ones for SO(n) (every block of P a
    singleton); the distance is the minimum over the orbit
    ``a diag(s)``. For the sphere and projective plane it is the (|G|, 1)
    scalar action on sampled unit 3-vectors, [[1]] or [[1], [-1]]. A point
    quotient by a continuous group has ``signs`` None. ``family`` names the
    SO(3)-derived cases with a closed form or quadrature ("point", "so3",
    "partial-flag", "full-flag", "s2", "rp2") and is None for every other space.

    ``lift_columns`` describes the sign rows on the spin cover, where the
    rotation spaces with n = 3 or 4 draw their samples, and is empty for
    every other space. Each sign row lifts to signed unit quaternions
    (``quatcover._spin_lifts``): for n = 3 one u, one of {1, i, j, k}, with
    diag(s) the rotation x -> u x conj(u); for n = 4 a pair (u, v) with
    diag(s) x = u x conj(v), where A x = p x conj(q) covers SO(4) by S^3 x
    S^3. Per lift column (one at n = 3, two at n = 4) it holds the
    coordinates of q that Re(q u) reads and the (|SG|, c) rows that pick
    them (``quatcover._lift_columns``), fixed here so that the cover kernels
    do not rebuild them per batch.
    ``shape`` is the shape of one drawn point: (3,) for the unit 3-vectors of
    the sphere and projective plane, (n, n) for the rotations of every
    rotation space (SO(1) included), and () for a point quotient, which draws
    nothing. Kernels are shared between callers, so their arrays are read-only.
    """

    family: str | None
    signs: np.ndarray | None = None
    shape: tuple[int, ...] = ()
    lift_columns: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        for array in (self.signs, *(a for column in self.lift_columns for a in column)):
            if array is not None:
                array.setflags(write=False)


# (|SG|, n) of a rotation space -> its SO(3)-derived family.
_ROTATION_FAMILIES = {(1, 1): "point", (1, 3): "so3", (2, 3): "partial-flag", (4, 3): "full-flag"}


def classify(space: FlagSpec) -> Kernel:
    """Map a space to its sampling/distance kernel, or raise if unsupported.

    The only place that decides what a space is: callers read the returned
    ``family``, ``signs``, ``shape`` and ``lift_columns`` instead of inspecting the
    space themselves. Each space's Kernel is built once and cached.
    """
    if not isinstance(space, FlagSpec):
        raise UnsupportedSpaceError(f"not a space: {space!r}")
    return _classify(space)


@functools.lru_cache(maxsize=16)
def _classify(space: FlagSpec) -> Kernel:
    parts = space.lam.parts
    # All ones first, so lambda = (1,) is SO(1): a rotation kernel of family "point".
    if all(p == 1 for p in parts):
        signs = isotropy_group(space).signs
        n = signs.shape[1]
        columns = _lift_columns(_spin_lifts(signs)) if n in (3, 4) else ()
        return Kernel(_ROTATION_FAMILIES.get(signs.shape), signs, (n, n), columns)
    if len(parts) == 1:
        return Kernel("point")
    if sorted(parts) == [1, 2]:
        if space.p.is_complete:
            return Kernel("s2", np.ones((1, 1)), shape=(3,))
        return Kernel("rp2", np.array([[1.0], [-1.0]]), shape=(3,))
    raise UnsupportedSpaceError(
        f"no distance machinery for lambda = ({space.lam}) with partition {space.p}; "
        "supported: lambda all ones, a single part, or the 3 = 1+2 sphere cases"
    )


__all__ = [
    "FlagSpecParseError",
    "Kernel",
    "SPACE_ALIASES",
    "UnsupportedSpaceError",
    "classify",
    "parse_space",
    "space_label",
]
