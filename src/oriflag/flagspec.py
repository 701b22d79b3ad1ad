"""Ordered partitions, set partitions, and partially oriented flag manifolds.

A flag manifold specification pairs an ordered integer partition lambda of n
with a set partition P of lambda's index set, naming the homogeneous space
SO(n)/SG where SG is the block-diagonal subgroup whose blocks, grouped by P,
each have determinant +1. This module computes exact volumes of these spaces,
covering multiplicities between them, and (when lambda = (1,...,1)) the finite
isotropy subgroup as rows of diagonal signs.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .symbolic import PiExpression

# The memory that one isotropy sign table here, or the matrix stacks of one
# drawn sample (``spaces``), may take; a space over it is unsupported.
_BUDGET_BYTES = 1 << 27


class FlagSpecParseError(ValueError):
    """Raised when a textual or JSON flag specification cannot be parsed."""


class UnsupportedSpaceError(ValueError):
    """The requested computation is not defined for this space."""


@dataclass(frozen=True)
class OrderedPartition:
    """An ordered tuple of positive integers summing to n; order is semantic."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise ValueError("ordered partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"all parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def signature(self) -> tuple[int, ...]:
        """Partial sums d_m = lambda_1 + ... + lambda_m (dimensions of the flag)."""
        return tuple(itertools.accumulate(self.parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering {1, ..., k}, stored canonically.

    Blocks are sorted internally and ordered by their smallest element, so two
    partitions are equal iff they partition the same way.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(sorted(tuple(sorted(int(i) for i in b)) for b in self.blocks))
        if not blocks or any(not b for b in blocks):
            raise ValueError("set partition blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        k = len(flat)
        if sorted(flat) != list(range(1, k + 1)):
            raise ValueError(
                f"blocks must disjointly cover {{1,...,{k}}}, got {blocks}"
            )
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def trivial(cls, k: int) -> "SetPartition":
        return cls((tuple(range(1, k + 1)),))

    @classmethod
    def complete(cls, k: int) -> "SetPartition":
        return cls(tuple((i,) for i in range(1, k + 1)))

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def size(self) -> int:
        """Number of blocks, |P|."""
        return len(self.blocks)

    @property
    def is_trivial(self) -> bool:
        return self.size == 1

    @property
    def is_complete(self) -> bool:
        return self.size == self.ground_size

    @property
    def is_proper(self) -> bool:
        return not (self.is_trivial or self.is_complete)

    def refines(self, other: "SetPartition") -> bool:
        """True when every block of self lies inside a block of ``other``."""
        if self.ground_size != other.ground_size:
            return False
        coarse = {i: idx for idx, b in enumerate(other.blocks) for i in b}
        return all(len({coarse[i] for i in b}) == 1 for b in self.blocks)

    def __str__(self) -> str:
        return "".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


@dataclass(frozen=True)
class FlagSpec:
    """A partially oriented flag manifold: ordered partition plus set partition."""

    lam: OrderedPartition
    p: SetPartition

    def __post_init__(self) -> None:
        lam = self.lam if isinstance(self.lam, OrderedPartition) else OrderedPartition(tuple(self.lam))
        p = self.p if isinstance(self.p, SetPartition) else SetPartition(tuple(self.p))
        if p.ground_size != lam.k:
            raise ValueError(
                f"set partition covers {{1,...,{p.ground_size}}} but lambda has {lam.k} parts"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.lam.n

    def to_text(self) -> str:
        return f"lambda={self.lam} P={self.p}"

    def to_json_dict(self) -> dict:
        return {"lambda": list(self.lam.parts), "P": [list(b) for b in self.p.blocks]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FlagSpec":
        try:
            return cls(OrderedPartition(tuple(data["lambda"])), SetPartition(tuple(tuple(b) for b in data["P"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise FlagSpecParseError(f"bad flag spec JSON: {exc}") from exc

    def __str__(self) -> str:
        return self.to_text()


_SPEC_RE = re.compile(
    r"^lambda\s*=\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s+"
    r"P\s*=\s*((?:\{[0-9]+(?:\s*,\s*[0-9]+)*\}\s*)+)$"
)
_BLOCK_RE = re.compile(r"\{([0-9]+(?:\s*,\s*[0-9]+)*)\}")


def parse_flagspec(text: str) -> FlagSpec:
    """Parse the textual syntax ``lambda=1,1,1 P={1}{2,3}``."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise FlagSpecParseError(
            f"cannot parse flag spec {text!r}; expected e.g. 'lambda=1,1,1 P={{1}}{{2,3}}'"
        )
    parts = tuple(int(s) for s in m.group(1).replace(" ", "").split(","))
    blocks = tuple(
        tuple(int(s) for s in b.replace(" ", "").split(","))
        for b in _BLOCK_RE.findall(m.group(2))
    )
    try:
        return FlagSpec(parts, blocks)
    except ValueError as exc:
        raise FlagSpecParseError(str(exc)) from exc


def conjugate_partition(parts) -> tuple[int, ...]:
    """Conjugate a partition by transposing its Young diagram.

    Input order does not matter; parts are sorted into decreasing order before
    the diagram is built. Conjugation is an involution on decreasing partitions.
    """
    parts = tuple(int(p) for p in parts)
    if not parts:
        raise ValueError("cannot conjugate an empty partition")
    if any(p < 1 for p in parts):
        raise ValueError(f"all parts must be >= 1, got {parts}")
    desc = sorted(parts, reverse=True)
    return tuple(sum(1 for p in desc if p >= i) for i in range(1, desc[0] + 1))


def sphere_volume_exact(i: int) -> PiExpression:
    """Vol(S^{i-1}) = 2 pi^{i/2} / Gamma(i/2) as an exact rational times pi^m."""
    if i < 1:
        raise ValueError(f"sphere index must be >= 1, got {i}")
    m = i // 2
    if i % 2 == 0:
        coeff = Fraction(2, math.factorial(m - 1))
    else:
        coeff = Fraction(2 * 4**m * math.factorial(m), math.factorial(2 * m))
    return PiExpression.pi_power(m, coeff)


def sphere_volume(i: int) -> float:
    """Vol(S^{i-1}); for example 2, 2*pi, 4*pi for i = 1, 2, 3."""
    return float(sphere_volume_exact(i))


def flag_volume(spec: FlagSpec) -> PiExpression:
    """Exact volume of the partially oriented flag manifold named by ``spec``.

    Vol = 2^(|P|-1) * prod_i V_i^(1 - conj_i), where V_i = Vol(S^{i-1}) and
    conj is the conjugate of lambda sorted decreasing, zero-padded to length n.
    """
    conj = conjugate_partition(spec.lam.parts)
    n = spec.n
    exponents = [1 - (conj[i - 1] if i <= len(conj) else 0) for i in range(1, n + 1)]
    vol = PiExpression.rational(Fraction(2) ** (spec.p.size - 1))
    for i, e in enumerate(exponents, start=1):
        vol = vol * sphere_volume_exact(i) ** e
    return vol


def covering_multiplicity(p: SetPartition, p_refined: SetPartition) -> int:
    """Sheet count 2^m of the cover induced by refining ``p`` into ``p_refined``.

    ``m`` is the number of extra blocks. Raises if ``p_refined`` does not
    refine ``p``.
    """
    if not p_refined.refines(p):
        raise ValueError(f"{p_refined} does not refine {p}")
    return 2 ** (p_refined.size - p.size)


@dataclass(frozen=True, eq=False)
class FiniteIsotropy:
    """A finite group of diagonal sign matrices as a read-only (order, n) array of +-1 rows.

    Each row multiplies to +1, the identity row is present, and the rows are
    closed under products. Instances compare and hash by identity.
    """

    signs: np.ndarray

    def __post_init__(self) -> None:
        signs = np.array(self.signs, dtype=float)
        if signs.ndim != 2 or signs.size == 0:
            raise ValueError(f"isotropy signs must be a nonempty 2-D array, got shape {signs.shape}")
        if not np.isin(signs, (1.0, -1.0)).all():
            raise ValueError("isotropy signs must all be +1 or -1")
        if not (signs.prod(axis=1) == 1.0).all():
            raise ValueError("every isotropy sign row must multiply to +1")
        if not (signs == 1.0).all(axis=1).any():
            raise ValueError("isotropy group must contain the identity")
        if not _is_sign_group(signs < 0.0):
            raise ValueError("isotropy sign rows must be distinct and closed under products")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)

    @property
    def order(self) -> int:
        return self.signs.shape[0]

    @property
    def n(self) -> int:
        return self.signs.shape[1]


def _is_sign_group(neg: np.ndarray) -> bool:
    """Whether the rows of ``neg`` (True where a sign is -1) form a group.

    A sign product is a sum over GF(2), so the rows lie in their GF(2) span,
    a group of 2^rank elements; they are all of it, and hence a group,
    exactly when they are distinct and that many. The rank is taken over the
    columns, each packed into one integer with a bit per row.
    """
    rows = np.packbits(neg, axis=1)
    # Sorted with lexsort: np.unique(axis=0) is slower and imports numpy.ma.
    rows = rows[np.lexsort(rows.T)]
    if not (rows[1:] != rows[:-1]).any(axis=1).all():
        return False
    pivots: dict[int, int] = {}
    for col in np.packbits(neg, axis=0).T:
        x = int.from_bytes(col.tobytes(), "big")
        while x:
            top = x.bit_length()
            if top not in pivots:
                pivots[top] = x
                break
            x ^= pivots[top]
    return len(neg) == 1 << len(pivots)


def isotropy_group(spec: FlagSpec) -> FiniteIsotropy:
    """The finite isotropy subgroup SG for lambda = (1,...,1).

    These are the diagonal +-1 matrices whose signs multiply to +1 within each
    block of P; there are 2^(k - |P|) of them, listed identity first in
    descending order of their diagonals. Every sign but the last of each block
    is free, taken from the bits of the row number, and the last is their
    parity. A table over ``_BUDGET_BYTES`` (the n = 20 full flag fits, n = 21
    does not) raises UnsupportedSpaceError before it is allocated. Any lambda
    with a part larger than 1 has a continuous isotropy group and is rejected.
    """
    if any(p != 1 for p in spec.lam.parts):
        raise ValueError(
            f"isotropy group is finite only for lambda = (1,...,1), got lambda = ({spec.lam})"
        )
    free = sorted(i - 1 for b in spec.p.blocks for i in b[:-1])
    if (8 * spec.lam.k << len(free)) > _BUDGET_BYTES:
        raise UnsupportedSpaceError(f"the 2^{len(free)} isotropy sign rows of {spec} exceed the table budget")
    # Row r's free signs are its bits, the lowest free index on top, set for -1.
    # A block's last index is its largest, so two rows first differ in a free
    # column, and counting r upward lists the rows in descending order.
    neg = np.zeros((1 << len(free), spec.lam.k), dtype=bool)
    neg[:, free] = (np.arange(len(neg))[:, None] >> np.arange(len(free) - 1, -1, -1)) & 1
    for b in spec.p.blocks:
        neg[:, b[-1] - 1] = np.logical_xor.reduce(neg[:, [i - 1 for i in b[:-1]]], axis=1)
    return FiniteIsotropy(np.where(neg, np.int8(-1), np.int8(1)))
