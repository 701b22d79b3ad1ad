"""``classify`` is the one place that decides what a space is.

Each case pins the kernel family, the shape of one drawn point, and everything
that callers derive from them: the closed form, the quadrature route and the
numeric volume integral.
"""

import json
import math

import pytest

from oriflag.analytic import (
    FULL_FLAG_TAG,
    _quadrature,
    analytic_expected_distance,
    expected_distance_full_flag,
    expected_distance_partial_flag_integral,
    numeric_volume,
)
from oriflag import cli
from oriflag.spaces import SPACE_ALIASES, UnsupportedSpaceError, classify, parse_space

FULL_FLAG_REFERENCE = 1.3117250347224445929
PI = math.pi

# (space text, family, shape of one drawn point, (tag, value) of the closed form or None,
#  accepted by quadrature mode, exact volume when numeric_volume accepts it)
CASES = {
    "so3": ("so3", "so3", (3, 3), ("2/pi + pi/2", 2 / PI + PI / 2), False, 8 * PI**2),
    "partial-flag-1": ("partial-flag-1", "partial-flag", (3, 3), ("1 + pi/4", 1 + PI / 4), True, 4 * PI**2),
    "partial-flag-2": ("partial-flag-2", "partial-flag", (3, 3), ("1 + pi/4", 1 + PI / 4), True, 4 * PI**2),
    "partial-flag-3": ("partial-flag-3", "partial-flag", (3, 3), ("1 + pi/4", 1 + PI / 4), True, 4 * PI**2),
    "full-flag": ("full-flag", "full-flag", (3, 3), (FULL_FLAG_TAG, FULL_FLAG_REFERENCE), True, 2 * PI**2),
    "s2": ("s2", "s2", (3,), ("pi/2", PI / 2), False, 4 * PI),
    "rp2": ("rp2", "rp2", (3,), ("1", 1.0), False, 2 * PI),
    "trivial-flag": ("trivial-flag", "point", (), ("0", 0.0), False, None),
    "so1": ("so1", "point", (1, 1), ("0", 0.0), False, None),
    "so4": ("so4", None, (4, 4), None, False, None),
    "partial-flag-2-text": ("lambda=1,1,1 P={2}{1,3}", "partial-flag", (3, 3), ("1 + pi/4", 1 + PI / 4),
                            True, 4 * PI**2),
    "rp2-text": ("lambda=2,1 P={1,2}", "rp2", (3,), ("1", 1.0), False, 2 * PI),
}


def test_cases_cover_every_alias():
    assert set(SPACE_ALIASES) <= set(CASES)


def test_alias_texts_in_table_order():
    # families alone would not tell partial-flag-2 from partial-flag-3
    assert [(name, space.to_text()) for name, space in SPACE_ALIASES.items()] == [
        ("so3", "lambda=1,1,1 P={1}{2}{3}"),
        ("partial-flag-1", "lambda=1,1,1 P={1}{2,3}"),
        ("partial-flag-2", "lambda=1,1,1 P={1,3}{2}"),
        ("partial-flag-3", "lambda=1,1,1 P={1,2}{3}"),
        ("full-flag", "lambda=1,1,1 P={1,2,3}"),
        ("s2", "lambda=1,2 P={1}{2}"),
        ("rp2", "lambda=1,2 P={1,2}"),
        ("trivial-flag", "lambda=3 P={1}"),
    ]


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_classify_decides_family_and_every_route(case, capsys):
    text, family, shape, closed, quadrature, volume = case
    space = parse_space(text)
    assert classify(space).family == family
    assert classify(space).shape == shape

    if closed is None:
        with pytest.raises(UnsupportedSpaceError):
            analytic_expected_distance(space)
    else:
        cf = analytic_expected_distance(space)
        assert cf.tag == closed[0]
        assert cf.value == pytest.approx(closed[1], abs=1e-12)

    code = cli.main(["expected", "--space", text, "--mode", "quadrature", "--tol", "1e-10"])
    if quadrature:
        assert code == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["value"] == pytest.approx(closed[1], abs=1e-9)
        routine = {"full-flag": expected_distance_full_flag,
                   "partial-flag": expected_distance_partial_flag_integral}[family]
        quad = _quadrature(space, 1e-10)
        assert quad == routine(1e-10)  # value, bound and evaluations, bit for bit
        assert (result["value"], result["abs_error_bound"], result["evaluations"]) == (
            quad.value, quad.abs_error_bound, quad.evaluations)
    else:
        assert code == 2
        with pytest.raises(UnsupportedSpaceError):
            _quadrature(space, 1e-10)

    if volume is None:
        with pytest.raises(UnsupportedSpaceError):
            numeric_volume(space)
    else:
        assert numeric_volume(space).value == pytest.approx(volume, rel=1e-6)


def test_sign_rows_of_rotation_kernels():
    assert classify(parse_space("so4")).signs.tolist() == [[1.0, 1.0, 1.0, 1.0]]
    assert classify(parse_space("so1")).signs.tolist() == [[1.0]]
    full = classify(SPACE_ALIASES["full-flag"]).signs
    assert full.shape == (4, 3) and (full.prod(axis=1) == 1.0).all()
    assert classify(SPACE_ALIASES["rp2"]).signs.tolist() == [[1.0], [-1.0]]
    assert classify(SPACE_ALIASES["trivial-flag"]).signs is None


def test_kernels_are_cached_and_read_only():
    for text in ("so5", "full-flag", "lambda=1,1,1,1 P={1,2}{3,4}", "rp2"):
        kern = classify(parse_space(text))
        assert classify(parse_space(text)) is kern
        for array in (kern.signs, *(a for column in kern.lift_columns for a in column)):
            if array is not None:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0
    # not a space, and unhashable: still the space error
    with pytest.raises(UnsupportedSpaceError):
        classify([1])


def test_rotation_space_over_the_matrix_budget_is_unsupported():
    # 6 stacks of 8 n^2 bytes: SO(1672) fits 128 MiB a sample, SO(1673) does not.
    assert classify(parse_space("so1672")).shape == (1672, 1672)
    with pytest.raises(UnsupportedSpaceError, match="budget"):
        classify(parse_space("so1673"))
