"""Exact sign decisions in Q(sqrt 2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordercone import LexConeSpec, QuadScalar
from ordercone.errors import UsageError

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def test_zero_sign():
    assert QuadScalar(0, 0).sign() == 0


def test_one_minus_sqrt2_is_negative():
    # 1^2 < 2 * 1^2
    assert QuadScalar(1, -1).sign() == -1


def test_three_minus_two_sqrt2_is_positive():
    # 9 > 8
    assert QuadScalar(3, -2).sign() == 1


def test_string_rationals():
    # (1 - sqrt2)/8: a^2 = 1/64 < 2 b^2 = 2/64, so the sqrt-2 part wins.
    assert QuadScalar("1/8", "-1/8").sign() == -1
    assert QuadScalar("3/2", "-1").sign() == 1  # 9/4 > 2
    # Anything fractions.Fraction parses exactly is accepted.
    assert QuadScalar("1.5", "1e0") == QuadScalar("3/2", 1)


def test_booleans_are_not_rationals():
    for value in (True, False):
        with pytest.raises(UsageError, match="cannot coerce"):
            QuadScalar(value, 0)
        with pytest.raises(UsageError, match="cannot coerce"):
            QuadScalar.from_json({"a": "1", "b": value})


@given(rationals, rationals)
def test_sign_matches_floating_estimate(a, b):
    value = float(a) + float(b) * 2 ** 0.5
    s = QuadScalar(a, b).sign()
    if abs(value) > 1e-6:
        assert s == (1 if value > 0 else -1)
    else:
        assert s in (-1, 0, 1)


@given(rationals, rationals, rationals, rationals)
def test_arithmetic_consistency(a1, b1, a2, b2):
    x, y = QuadScalar(a1, b1), QuadScalar(a2, b2)
    total = x + y
    assert total.a == a1 + a2 and total.b == b1 + b2
    prod = x * y
    assert prod.a == a1 * a2 + 2 * b1 * b2
    assert prod.b == a1 * b2 + b1 * a2
    assert (-x).sign() == -x.sign()


@given(rationals, rationals)
def test_json_round_trip(a, b):
    x = QuadScalar(a, b)
    assert QuadScalar.from_json(x.to_json()) == x



def test_repr_and_the_wrong_dimension_error():
    assert [repr(QuadScalar(*p)) for p in ((3,), ("1/2", 2), (0, "-1/3"))] \
        == ["3", "1/2+2r2", "0-1/3r2"]
    with pytest.raises(UsageError) as info:
        LexConeSpec(3, ((1, QuadScalar(0, -1)),))
    assert str(info.value) == "normal (1, 0-1r2) has wrong dimension"
