import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oriflag.flagspec import (
    FiniteIsotropy,
    FlagSpec,
    FlagSpecParseError,
    OrderedPartition,
    SetPartition,
    conjugate_partition,
    covering_multiplicity,
    flag_volume,
    isotropy_group,
    parse_flagspec,
    sphere_volume,
    sphere_volume_exact,
)
from oriflag.symbolic import PiExpression


def spec(parts, blocks):
    return FlagSpec(OrderedPartition(tuple(parts)), SetPartition(tuple(tuple(b) for b in blocks)))


# ---------------------------------------------------------------- partitions

def brute_force_conjugate(parts):
    """Transpose the Young diagram as an explicit set of boxes."""
    desc = sorted(parts, reverse=True)
    boxes = {(r, c) for r, row in enumerate(desc) for c in range(row)}
    transposed = {(c, r) for r, c in boxes}
    n_rows = max(r for r, _ in transposed) + 1
    return tuple(sum(1 for rr, _ in transposed if rr == r) for r in range(n_rows))


def descending_partitions(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in descending_partitions(n - first, first):
            yield (first,) + rest


def test_conjugate_examples():
    assert conjugate_partition((4, 3, 2, 2, 1)) == (5, 4, 2, 1)
    assert conjugate_partition((1, 1, 1)) == (3,)
    # self-conjugate, checked against the diagram-transpose oracle
    assert conjugate_partition((2, 1)) == brute_force_conjugate((2, 1)) == (2, 1)


def test_conjugate_sorts_before_transposing():
    assert conjugate_partition((1, 2, 2, 3, 4)) == (5, 4, 2, 1)


def test_conjugate_involution_and_oracle_up_to_12():
    for n in range(1, 13):
        for parts in descending_partitions(n):
            conj = conjugate_partition(parts)
            assert conj == brute_force_conjugate(parts)
            assert conjugate_partition(conj) == parts


def test_conjugate_rejects_bad_input():
    with pytest.raises(ValueError):
        conjugate_partition(())
    with pytest.raises(ValueError):
        conjugate_partition((2, 0))


def test_ordered_partition_validation():
    p = OrderedPartition((1, 2))
    assert p.n == 3 and p.k == 2 and p.signature == (1, 3)
    assert OrderedPartition((2, 1)) != p  # order is semantic
    with pytest.raises(ValueError):
        OrderedPartition(())
    with pytest.raises(ValueError):
        OrderedPartition((1, -1))


def test_set_partition_classification():
    k3 = SetPartition.trivial(3)
    assert k3.is_trivial and not k3.is_complete and not k3.is_proper
    c3 = SetPartition.complete(3)
    assert c3.is_complete and not c3.is_trivial
    p1 = SetPartition(((1,), (2, 3)))
    assert p1.is_proper
    with pytest.raises(ValueError):
        SetPartition(((1,), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1,), (3,)))  # gap


def test_set_partition_refinement():
    trivial = SetPartition.trivial(3)
    complete = SetPartition.complete(3)
    p1 = SetPartition(((1,), (2, 3)))
    assert complete.refines(trivial) and complete.refines(p1) and p1.refines(trivial)
    assert not trivial.refines(p1)
    assert p1.refines(p1)


def test_flagspec_validation_and_text_roundtrip():
    s = spec((1, 1, 1), [(1,), (2, 3)])
    assert s.to_text() == "lambda=1,1,1 P={1}{2,3}"
    assert parse_flagspec(s.to_text()) == s
    assert FlagSpec.from_json_dict(s.to_json_dict()) == s
    assert s.to_json_dict() == {"lambda": [1, 1, 1], "P": [[1], [2, 3]]}
    with pytest.raises(ValueError):
        spec((1, 2), [(1,), (2, 3)])  # partition of the wrong index set
    with pytest.raises(FlagSpecParseError):
        parse_flagspec("lambda=1,x P={1}")
    with pytest.raises(FlagSpecParseError):
        parse_flagspec("nothing")


# ------------------------------------------------------------------- volumes

def test_sphere_volume_small_cases():
    assert sphere_volume(1) == 2.0
    assert sphere_volume(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_volume_exact(4) == PiExpression.pi_power(2, 2)
    assert sphere_volume_exact(5) == PiExpression.pi_power(2, Fraction(8, 3))
    with pytest.raises(ValueError):
        sphere_volume(0)


def test_sphere_volume_matches_gamma_formula():
    from math import gamma, pi
    for i in range(1, 15):
        assert sphere_volume(i) == pytest.approx(2 * pi ** (i / 2) / gamma(i / 2), rel=1e-13)


def test_flag_volume_headline_spaces():
    assert flag_volume(spec((1, 1, 1), [(1,), (2,), (3,)])) == PiExpression.pi_power(2, 8)
    assert flag_volume(spec((1, 1, 1), [(1, 2, 3)])) == PiExpression.pi_power(2, 2)
    assert flag_volume(spec((1, 1, 1), [(1,), (2, 3)])) == PiExpression.pi_power(2, 4)
    assert flag_volume(spec((1, 2), [(1,), (2,)])) == PiExpression.pi_power(1, 4)
    assert flag_volume(spec((1, 2), [(1, 2)])) == PiExpression.pi_power(1, 2)
    assert flag_volume(spec((3,), [(1,)])) == PiExpression.rational(1)


def _permuted(parts, blocks, perm):
    """Apply a position permutation to lambda and relabel P to match."""
    new_parts = tuple(parts[perm[i]] for i in range(len(parts)))
    inv = {perm[i] + 1: i + 1 for i in range(len(perm))}
    new_blocks = tuple(tuple(sorted(inv[j] for j in b)) for b in blocks)
    return spec(new_parts, new_blocks)


def test_flag_volume_permutation_invariance():
    cases = [
        ((1, 2, 3), [(1, 2), (3,)]),
        ((2, 1, 1), [(1,), (2, 3)]),
        ((1, 1, 2, 2), [(1, 3), (2, 4)]),
        ((3, 1), [(1, 2)]),
    ]
    for parts, blocks in cases:
        base = flag_volume(spec(parts, blocks))
        for perm in itertools.permutations(range(len(parts))):
            assert flag_volume(_permuted(parts, blocks, perm)) == base


def test_flag_volume_refinement_multiplicativity():
    cases = [
        ((1, 1, 1), [(1, 2, 3)], [(1,), (2,), (3,)]),
        ((1, 1, 1), [(1, 2, 3)], [(1,), (2, 3)]),
        ((1, 2), [(1, 2)], [(1,), (2,)]),
        ((2, 1, 3, 1), [(1, 2, 3, 4)], [(1, 3), (2,), (4,)]),
    ]
    for parts, coarse, fine in cases:
        p, pr = SetPartition(tuple(coarse)), SetPartition(tuple(fine))
        mult = covering_multiplicity(p, pr)
        assert flag_volume(spec(parts, fine)) == flag_volume(spec(parts, coarse)) * Fraction(mult)


def test_grassmannian_volumes():
    # the two-part lambdas of 3: unoriented quotient 2*pi, oriented 4*pi
    for parts in [(1, 2), (2, 1)]:
        assert float(flag_volume(spec(parts, [(1, 2)]))) == pytest.approx(2 * math.pi)
        assert float(flag_volume(spec(parts, [(1,), (2,)]))) == pytest.approx(4 * math.pi)


# ------------------------------------------------------------------ covering

def test_covering_multiplicity():
    trivial = SetPartition.trivial(3)
    complete = SetPartition.complete(3)
    p1 = SetPartition(((1,), (2, 3)))
    assert covering_multiplicity(trivial, complete) == 4
    assert covering_multiplicity(trivial, p1) == 2
    assert covering_multiplicity(p1, p1) == 1
    with pytest.raises(ValueError):
        covering_multiplicity(complete, trivial)


# ------------------------------------------------------------------ isotropy

def test_klein_four_group():
    iso = isotropy_group(spec((1, 1, 1), [(1, 2, 3)]))
    assert iso.order == 4
    expected = {
        (1.0, 1.0, 1.0),
        (-1.0, -1.0, 1.0),
        (1.0, -1.0, -1.0),
        (-1.0, 1.0, -1.0),
    }
    assert {tuple(r) for r in iso.signs.tolist()} == expected


def test_partial_flag_isotropy_groups():
    got1 = isotropy_group(spec((1, 1, 1), [(1,), (2, 3)]))
    assert {tuple(r) for r in got1.signs.tolist()} == {(1, 1, 1), (1, -1, -1)}
    got2 = isotropy_group(spec((1, 1, 1), [(2,), (1, 3)]))
    assert {tuple(r) for r in got2.signs.tolist()} == {(1, 1, 1), (-1, 1, -1)}
    got3 = isotropy_group(spec((1, 1, 1), [(3,), (1, 2)]))
    assert {tuple(r) for r in got3.signs.tolist()} == {(1, 1, 1), (-1, -1, 1)}
    complete = isotropy_group(spec((1, 1, 1), [(1,), (2,), (3,)]))
    assert complete.order == 1
    assert np.array_equal(complete.signs[0], np.ones(3))


def test_isotropy_order_and_closure():
    cases = [
        ((1,) * 4, [(1, 2), (3, 4)]),
        ((1,) * 5, [(1, 2, 3), (4,), (5,)]),
        ((1,) * 6, [(1, 2, 3, 4, 5, 6)]),
    ]
    for parts, blocks in cases:
        s = spec(parts, blocks)
        iso = isotropy_group(s)
        assert iso.order == 2 ** (s.lam.k - s.p.size)
        # a diagonal sign matrix's determinant is its row product, exactly
        assert (iso.signs.prod(axis=1) == 1.0).all()
        # exhaustive multiplication table stays inside the group; each
        # element is its own inverse
        keys = {tuple(r) for r in iso.signs.tolist()}
        for a in iso.signs:
            assert (a * a == 1.0).all()
            for b in iso.signs:
                assert tuple((a * b).tolist()) in keys


def set_partitions(k):
    """Every set partition of {1, ..., k} as a list of blocks."""
    if k == 0:
        yield []
        return
    for p in set_partitions(k - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + (k,)] + p[i + 1:]
        yield p + [(k,)]


def test_isotropy_group_matches_sign_enumeration_for_small_k():
    # oracle: all 2^k sign vectors in descending order, kept when each block multiplies to +1
    count = 0
    for k in range(1, 8):
        for blocks in set_partitions(k):
            expected = [
                list(signs) for signs in itertools.product((1.0, -1.0), repeat=k)
                if all(math.prod(signs[i - 1] for i in b) > 0 for b in blocks)
            ]
            got = isotropy_group(spec((1,) * k, blocks)).signs
            assert got.tolist() == expected, blocks
            count += 1
    assert count == 1 + 2 + 5 + 15 + 52 + 203 + 877


@pytest.mark.parametrize("parts, blocks", [
    ((1,), [(1,)]),
    ((1, 1, 1), [(1, 2, 3)]),
    ((1,) * 5, [(1, 3, 5), (2, 4)]),
    ((1,) * 6, [(1, 6), (2,), (3, 4, 5)]),
    ((1,) * 40, [(i,) for i in range(1, 41)]),
    ((1,) * 12, [tuple(range(1, 7)), tuple(range(7, 13))]),
], ids=["so1", "full-flag", "interleaved", "mixed", "so40", "two-blocks-of-six"])
def test_isotropy_group_lists_each_element_once_in_descending_order(parts, blocks):
    s = spec(parts, blocks)
    signs = isotropy_group(s).signs
    assert signs.shape == (2 ** (s.lam.k - s.p.size), s.lam.k)
    rows = [tuple(r) for r in signs.tolist()]
    assert len(set(rows)) == len(rows)
    for b in s.p.blocks:
        assert (signs[:, [i - 1 for i in b]].prod(axis=1) == 1.0).all()
    assert rows[0] == (1.0,) * s.lam.k
    assert rows == sorted(rows, reverse=True)


def test_isotropy_rejects_continuous_case():
    with pytest.raises(ValueError):
        isotropy_group(spec((1, 2), [(1, 2)]))


def test_finite_isotropy_requires_identity():
    with pytest.raises(ValueError, match="identity"):
        FiniteIsotropy(np.array([[1.0, -1.0, -1.0]]))
    with pytest.raises(ValueError, match="identity"):
        FiniteIsotropy(np.array([[-1.0, -1.0, 1.0], [1.0, -1.0, -1.0]]))
    assert FiniteIsotropy(np.array([[1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])).order == 2


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]],  # row product -1: determinant -1
    [[1.0, 1.0, 1.0], [2.0, 0.5, 1.0]],  # product +1 but not a sign
    [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
    [1.0, 1.0, 1.0],  # 1-D
    np.ones((0, 3)),  # empty
    np.ones((1, 0)),
], ids=["det-minus-one", "not-a-sign", "zero", "one-dimensional", "no-rows", "no-columns"])
def test_finite_isotropy_rejects_bad_sign_rows(rows):
    with pytest.raises(ValueError):
        FiniteIsotropy(np.array(rows))


@pytest.mark.parametrize("rows", [
    [[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [1.0, -1.0, -1.0]],  # the product of the last two is missing
    [[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]],  # a repeated row
    [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
], ids=["not-closed", "repeated-row", "repeated-identity"])
def test_finite_isotropy_rejects_rows_that_are_not_a_group(rows):
    with pytest.raises(ValueError, match="closed under products"):
        FiniteIsotropy(np.array(rows))


def test_finite_isotropy_accepts_exactly_the_subgroups():
    # oracle: the multiplication table of every identity-led subset of the
    # eight det +1 sign rows of n = 4
    even = [r for r in itertools.product((1.0, -1.0), repeat=4) if math.prod(r) == 1.0]
    accepted = 0
    for mask in range(1 << 7):
        rows = [even[0]] + [r for i, r in enumerate(even[1:]) if mask >> i & 1]
        keys = set(rows)
        closed = all(tuple(x * y for x, y in zip(a, b)) in keys for a in rows for b in rows)
        if closed:
            assert FiniteIsotropy(np.array(rows)).order == len(rows)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="closed under products"):
                FiniteIsotropy(np.array(rows))
    # subgroups of (Z/2)^3: 1 + 7 + 7 + 1
    assert accepted == 16


def test_finite_isotropy_is_read_only_and_hashable():
    rows = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    iso = FiniteIsotropy(rows)
    assert (iso.order, iso.n) == (2, 3)
    assert not iso.signs.flags.writeable
    with pytest.raises(ValueError):
        iso.signs[0, 0] = -1.0
    rows[1, 1] = 1.0  # the group holds its own copy
    assert iso.signs[1].tolist() == [-1.0, -1.0, 1.0]
    assert {iso: "kept"}[iso] == "kept"
    assert iso != FiniteIsotropy(iso.signs)  # compared by identity
