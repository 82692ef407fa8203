"""Arithmetic-mode helpers and the number codec.

Everything in the package runs in one of two arithmetic modes, selected
implicitly by the number types fed in:

* float mode -- ordinary doubles, with relative tolerances guarding the
  divisions that collision resolution performs;
* exact mode -- ``fractions.Fraction`` (or int) inputs, in which case all
  zero tests are exact and results are bit-reproducible. A run takes the
  int E and P of a particle at an exact position as Fractions, so its
  quotients stay exact, and a state given without a start time starts at
  the int 0; ``mirror_initial`` takes int data as Fractions when all of
  it is exact.

An exact test compares, it never builds the value it tests: ``b < a``
rather than ``b - a < 0``, ``sigma < -rho`` rather than
``sigma + rho < 0``, and a mass check over integer numerators and
denominators rather than a Fraction drift. ``collide`` decides its
product tests (equal velocities, equal squared masses) and its sign
tests over integer numerators and denominators too, and builds only the
values it returns and the sums and ratios that they come from; it takes
r/s as the reciprocal of s/r, which needs no gcd of big integers. An
exact run also keeps what it has already computed: each particle's
sigma and rho from one collision to the next, one meeting point per
colliding pair, and the selected flight time as its step. Between
two floats the comparison decides exactly what the built value would, so
one form serves both modes; a float difference is built only where a
tolerance needs it.

A zero test takes the terms of its tolerance scale, not the scale: the
scale is summed only for a float, since an exact value is compared with
zero as it is.

The number codec decides what text is a number and how a number is
written: ``parse_number`` reads scenario numbers (``config``), CSV fields
(``serialize``) and options and grids (``cli``); ``format_number`` writes
files and ``render``'s range error, ``repr_number`` numbers on stdout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isfinite
from typing import Union

from .errors import ConfigError

Number = Union[int, float, Fraction]

#: The arithmetic modes, by the name that configs and CSV tags give them.
ARITHMETICS = ("float", "rational")

#: Relative tolerance for treating a float quantity as zero.
REL_TOL = 1e-12


def is_count(value: object) -> bool:
    """True for a nonnegative int; a bool is not a count."""
    return type(value) is not bool and isinstance(value, int) and value >= 0


def is_exact(value: Number) -> bool:
    """True for number types that support exact comparison (int, Fraction)."""
    if type(value) is float:
        return False
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def near_zero(value: Number, *terms: Number) -> bool:
    """Whether ``value`` should be treated as zero at the scale of its inputs.

    Exact values compare exactly; floats use ``|value| <= REL_TOL * scale``
    with ``scale = |terms[0]| + |terms[1]| + ...``.
    """
    if type(value) is not float and is_exact(value):
        return value == 0
    return abs(value) <= REL_TOL * float(sum(map(abs, terms)))


def rel_diff(a: Number, b: Number) -> float:
    """Relative difference |a-b| / max(|a|, |b|, 1e-300). Two exact values
    are compared exactly and their quotient converted once, so values
    beyond the float range compare too."""
    if is_exact(a) and is_exact(b):
        if a == b:
            return 0.0
        return float(abs(a - b) / max(abs(a), abs(b)))
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


#: A rational written as ``p/q``, ``p`` or a plain decimal ``p.d``.
_RATIO = re.compile(r"(-?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def parse_number(text: str, arithmetic: str, where: str) -> Number:
    """``text`` as a finite float, or as an exact Fraction in rational
    arithmetic (``p/q`` or ``p.d`` of any length, or any spelling that
    ``Fraction`` accepts); otherwise a ConfigError naming ``where``."""
    text = text.strip()
    try:
        if arithmetic == "rational":
            return _fraction(text)
        value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{where}: cannot parse number {text!r}") from exc
    if not isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, also for parts over the interpreter's limit on
    str-to-int conversion (left as it is)."""
    match = _RATIO.fullmatch(text)
    if match is None:
        return Fraction(text)
    sign, num, den, decimals = match.groups()
    if decimals:
        value = Fraction(_int(num + decimals), 10 ** len(decimals))
    else:
        value = Fraction(_int(num), _int(den) if den else 1)
    return -value if sign else value


def format_number(value: Number) -> str:
    """``value`` as written to files: ``repr`` of a float, which reads
    back bit for bit, or ``p/q`` (``p``) for a Fraction or an int of any
    length."""
    if type(value) is float:
        return repr(value)
    if is_exact(value):
        num, den = value.as_integer_ratio()
        text = _decimal(num)
        return text if den == 1 else f"{text}/{_decimal(den)}"
    return repr(float(value))


def repr_number(value: Number) -> str:
    """``repr(value)``, also for an int or Fraction over the digit limit."""
    if type(value) is int:
        return _decimal(value)
    if isinstance(value, Fraction):
        num, den = value.as_integer_ratio()
        return f"Fraction({_decimal(num)}, {_decimal(den)})"
    return repr(value)


def _int(digits: str) -> int:
    """``int(digits)`` for a string of decimal digits of any length."""
    try:
        return int(digits)
    except ValueError:  # over the digit limit: convert in pieces under it
        half = len(digits) // 2
        return _int(digits[:-half]) * 10**half + _int(digits[-half:])


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any length. One over the interpreter's
    limit on int-to-str conversion is written in pieces under the limit,
    which is left as it is."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _decimal(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)
