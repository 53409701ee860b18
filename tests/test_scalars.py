from fractions import Fraction

import pytest

from skelgram.scalars import (format_scalar, is_exact, parse_scalar, scalar_eq,
                              scalar_is_zero, vector_is_zero)


def test_parse_rational():
    assert parse_scalar("1/6") == Fraction(1, 6)
    assert parse_scalar("-3/4") == Fraction(-3, 4)


def test_parse_decimal_exact():
    assert parse_scalar("0.456") == Fraction(57, 125)
    assert parse_scalar("2") == Fraction(2)


def test_parse_float_backend():
    assert parse_scalar("0.456", exact=False) == pytest.approx(0.456)
    assert isinstance(parse_scalar("1/2", exact=False), float)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_scalar("abc")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


@pytest.mark.parametrize("text", ["1e400", "-1e400", "2e308", "1e4001"])
def test_parse_float_beyond_range_names_the_literal(text):
    assert parse_scalar(text) == Fraction(text)  # exact values have no range
    with pytest.raises(ValueError, match=f"beyond float range: '{text}'"):
        parse_scalar(text, exact=False)


def test_format_roundtrip():
    for text in ("1/6", "-3/4", "2", "0"):
        assert parse_scalar(format_scalar(parse_scalar(text))) == parse_scalar(text)
    assert format_scalar(Fraction(1, 6)) == "1/6"
    assert format_scalar(Fraction(4)) == "4"


def test_exact_equality_is_exact():
    assert scalar_eq(Fraction(1, 3), Fraction(1, 3))
    assert not scalar_eq(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 15))


def test_float_equality_relative():
    assert scalar_eq(1e6, 1e6 * (1 + 1e-12))
    assert not scalar_eq(1e6, 1e6 * (1 + 1e-6))
    assert scalar_is_zero(0.0)
    assert scalar_is_zero(1e-12)
    assert not scalar_is_zero(1e-3)


def test_vector_helpers():
    assert vector_is_zero([Fraction(0), Fraction(0)])
    assert not vector_is_zero([Fraction(0), Fraction(1)])


def test_is_exact_by_type():
    for x in (0, 7, -2, True, False, Fraction(0), Fraction(1, 3)):
        assert is_exact(x)
    for x in (0.0, 1.5, float("nan"), float("inf"), "1", None):
        assert not is_exact(x)
