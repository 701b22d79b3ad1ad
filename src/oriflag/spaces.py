"""Space identifiers: which manifold an expectation or volume refers to.

A space is one of SO(n), a flag specification, the unit 2-sphere, or the real
projective plane. Flag specifications whose isotropy group is finite (all
parts of lambda equal to 1) are handled directly; the two-part lambdas of 3
reduce to the sphere and projective plane; a single-part lambda is a point.
Anything else has a continuous isotropy group with no distance machinery here
and is rejected as unsupported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .flagspec import (
    FlagSpec,
    FlagSpecParseError,
    OrderedPartition,
    SetPartition,
    isotropy_group,
    parse_flagspec,
)


class UnsupportedSpaceError(ValueError):
    """The requested computation is not defined for this space."""


@dataclass(frozen=True)
class SpecialOrthogonal:
    """The rotation group SO(n) itself."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Sphere2:
    """The unit 2-sphere with great-circle distance."""


@dataclass(frozen=True)
class ProjectivePlane2:
    """The real projective plane, antipodal quotient of the unit 2-sphere."""


Space = SpecialOrthogonal | FlagSpec | Sphere2 | ProjectivePlane2

SPHERE2 = Sphere2()
PROJECTIVE_PLANE2 = ProjectivePlane2()


def _flag(parts, blocks) -> FlagSpec:
    return FlagSpec(OrderedPartition(tuple(parts)), SetPartition(tuple(tuple(b) for b in blocks)))


# In the order of the ``expected --all`` comparison table.
SPACE_ALIASES: dict[str, Space] = {
    "so3": _flag((1, 1, 1), ((1,), (2,), (3,))),
    "partial-flag-1": _flag((1, 1, 1), ((1,), (2, 3))),
    "partial-flag-2": _flag((1, 1, 1), ((2,), (1, 3))),
    "partial-flag-3": _flag((1, 1, 1), ((3,), (1, 2))),
    "full-flag": _flag((1, 1, 1), ((1, 2, 3),)),
    "s2": _flag((1, 2), ((1,), (2,))),
    "rp2": _flag((1, 2), ((1, 2),)),
    "trivial-flag": _flag((3,), ((1,),)),
}

_SON_RE = re.compile(r"^so(\d+)$")


def parse_space(text: str) -> Space:
    """Resolve a CLI space argument: alias, soN, or flag spec text."""
    key = text.strip().lower()
    if key in SPACE_ALIASES:
        return SPACE_ALIASES[key]
    m = _SON_RE.match(key)
    if m:
        return SpecialOrthogonal(int(m.group(1)))
    return parse_flagspec(text)


def space_label(space: Space) -> str:
    """Short human-readable name, preferring the CLI alias when one exists."""
    for name, value in SPACE_ALIASES.items():
        if value == space:
            return name
    if isinstance(space, SpecialOrthogonal):
        return f"so{space.n}"
    if isinstance(space, Sphere2):
        return "s2"
    if isinstance(space, ProjectivePlane2):
        return "rp2"
    return space.to_text()


def space_json(space: Space):
    """JSON-serializable description of a space."""
    if isinstance(space, FlagSpec):
        return space.to_json_dict()
    return space_label(space)


@dataclass(frozen=True, eq=False)
class Kernel:
    """How to sample and measure a space, decided once by :func:`classify`.

    ``signs`` lists the finite isotropy group as rows of diagonal signs. For a
    rotation space it is the (|SG|, n) array acting on sampled n x n rotations,
    one row of ones for SO(n); the distance is the minimum over the orbit
    ``a diag(s)``. For the sphere and projective plane it is the (|G|, 1)
    scalar action on sampled unit 3-vectors, [[1]] or [[1], [-1]]. A point
    quotient by a continuous group has ``signs`` None. ``family`` names the
    SO(3)-derived cases with a closed form or quadrature ("point", "so3",
    "partial-flag", "full-flag", "s2", "rp2") and is None for every other space.
    """

    family: str | None
    signs: np.ndarray | None = None


# (|SG|, n) of a rotation space -> its SO(3)-derived family.
_ROTATION_FAMILIES = {(1, 1): "point", (1, 3): "so3", (2, 3): "partial-flag", (4, 3): "full-flag"}
_SPHERE_KERNEL = Kernel("s2", np.ones((1, 1)))
_PROJECTIVE_KERNEL = Kernel("rp2", np.array([[1.0], [-1.0]]))


def _rotation_kernel(signs: np.ndarray) -> Kernel:
    return Kernel(_ROTATION_FAMILIES.get(signs.shape), signs)


def classify(space: Space) -> Kernel:
    """Map a space to its sampling/distance kernel, or raise if unsupported.

    The only place that decides what a space is: callers read the returned
    ``family`` and ``signs`` instead of inspecting the space themselves.
    """
    if isinstance(space, SpecialOrthogonal):
        return _rotation_kernel(np.ones((1, space.n)))
    if isinstance(space, Sphere2):
        return _SPHERE_KERNEL
    if isinstance(space, ProjectivePlane2):
        return _PROJECTIVE_KERNEL
    if isinstance(space, FlagSpec):
        parts = space.lam.parts
        if len(parts) == 1:
            return Kernel("point")
        if all(p == 1 for p in parts):
            return _rotation_kernel(isotropy_group(space).diagonal_signs())
        if sorted(parts) == [1, 2]:
            return _SPHERE_KERNEL if space.p.is_complete else _PROJECTIVE_KERNEL
        raise UnsupportedSpaceError(
            f"no distance machinery for lambda = ({space.lam}) with partition {space.p}; "
            "supported: lambda all ones, a single part, or the 3 = 1+2 sphere cases"
        )
    raise UnsupportedSpaceError(f"not a space: {space!r}")


__all__ = [
    "FlagSpecParseError",
    "Kernel",
    "PROJECTIVE_PLANE2",
    "ProjectivePlane2",
    "SPACE_ALIASES",
    "SPHERE2",
    "Space",
    "SpecialOrthogonal",
    "Sphere2",
    "UnsupportedSpaceError",
    "classify",
    "parse_space",
    "space_json",
    "space_label",
]
