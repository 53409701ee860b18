"""Scalar backends: exact rationals and floats with a shared comparison API.

Exact values are ``fractions.Fraction``; approximate values are ``float``.
Mixed comparisons degrade to the float rules.  The float rules use a
relative max-norm tolerance, DEFAULT_TOL = 1e-9.
"""
from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Union

Scalar = Union[Fraction, float]

DEFAULT_TOL = 1e-9


def is_exact(x: Scalar) -> bool:
    # int first: Fraction's isinstance check runs ABCMeta.__instancecheck__,
    # and exact zeros are often int 0
    return isinstance(x, (int, Fraction))


def is_unit(x, other) -> bool:
    """Whether x is an exact one that multiplies `other` into itself, value
    and type: an int 1 always, a Fraction(1) against a Fraction or a float
    (times an int it makes a Fraction).  A float 1.0 never is: times a
    Fraction it makes a float."""
    cls = x.__class__
    return (cls is int or cls is Fraction and other.__class__ in (Fraction, float)) and x == 1


def times(a, b):
    """a * b, without multiplying by a factor that `is_unit` against the
    other.  Hot loops inline it, testing `x.__class__ is not float and
    x == 1` first, which costs a float factor no call."""
    if is_unit(b, a):
        return a
    if is_unit(a, b):
        return b
    return a * b


def is_nonnegative(x) -> bool:
    """x >= 0.  A Fraction's sign is its numerator's, read without
    Fraction.__ge__, which costs several times as much."""
    return x.numerator >= 0 if x.__class__ is Fraction else x >= 0


def exceeds_one(x) -> bool:
    """x > 1 and not scalar_eq(x, 1): a Fraction compares its numerator
    with its (always positive) denominator, and floats keep the relative
    tolerance."""
    if x.__class__ is Fraction:
        return x.numerator > x.denominator
    return x > 1 and not scalar_eq(x, 1)


def ordered_sum(values):
    """The sum of a non-empty iterable, added left to right from its first
    term.  The builtin sum compensates float sums from Python 3.12 on, so
    its last bits depend on the Python version; this does not."""
    return reduce(add, values)


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= DEFAULT_TOL * max(1.0, abs(fa), abs(fb))


def scalar_is_zero(x: Scalar) -> bool:
    if is_exact(x):
        return x == 0
    return abs(float(x)) <= DEFAULT_TOL


def vector_is_zero(v) -> bool:
    # `not any(v)` settles rows of exact zeros without a call per entry
    return not any(v) or all(map(scalar_is_zero, v))


def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse "num/den", integer, or decimal notation.

    With ``exact`` the result is a Fraction (decimals parse exactly,
    e.g. "0.456" -> 57/125); otherwise a float, and a ValueError naming
    the literal if its value is beyond float range.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar literal: {text!r}") from exc
    if exact:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"scalar literal beyond float range: {text!r}") from None


class TooLargeToWrite(RuntimeError):
    """A value too large for its text form: an automaton whose .mta form
    exceeds mta.MAX_DENSE_COEFFICIENTS, or a weight with more digits than
    Python converts to text."""


def format_scalar(x: Scalar) -> str:
    """x as text: an integer, num/den, or a float's repr.  TooLargeToWrite,
    naming the digit count, for a numerator or denominator longer than
    sys.get_int_max_str_digits() (4300 by default, and left alone)."""
    try:
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        if isinstance(x, int):
            return str(x)
    except ValueError:
        # Decimal(int) has no such limit
        digits = Decimal(max(abs(x.numerator), x.denominator)).adjusted() + 1
        raise TooLargeToWrite(f"a weight with {digits} digits is longer than the "
                              f"{sys.get_int_max_str_digits()} Python writes") from None
    return repr(float(x))
