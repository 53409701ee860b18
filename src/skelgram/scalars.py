"""Scalars: exact rationals, and floats where a value is irrational.

Every reader returns exact values (``fractions.Fraction``).  Floats arise
only from an irrational partition function and the PCFG built from it.
Comparisons involving a float use a relative max-norm tolerance,
DEFAULT_TOL = 1e-9.
"""
from __future__ import annotations

import sys
from contextlib import suppress
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
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


def parse_scalar(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal notation into a Fraction, as
    written: "0.456" is 57/125."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar literal: {text!r}") from exc


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


def decimal_text(x: Fraction, digits: int) -> str:
    """x to `digits` significant digits in decimal notation, trailing zeros
    dropped, at any exponent: past float range, and below its normal
    floats, which hold fewer digits."""
    with localcontext(Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        return f"{(Decimal(x.numerator) / x.denominator).normalize():.{digits}g}"


def float_text(x: Scalar) -> str:
    """x as `--float` prints it: float(x)'s repr, or 17 significant digits,
    as many as a float's repr may need, where float(x) overflows or is not
    a normal float (`decimal_text`)."""
    if x.__class__ is float or not x:
        return repr(float(x))
    with suppress(OverflowError):
        if abs(float(x)) >= sys.float_info.min:
            return repr(float(x))
    return decimal_text(Fraction(x), 17)
