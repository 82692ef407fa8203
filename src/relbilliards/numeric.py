"""Arithmetic-mode helpers and the number codec.

Everything in the package runs in one of two arithmetic modes, selected
implicitly by the number types fed in:

* float mode -- ordinary doubles, with relative tolerances guarding the
  divisions that collision resolution performs;
* exact mode -- ``fractions.Fraction`` (or int) inputs, in which case all
  zero tests are exact and results are bit-reproducible.

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
    """Relative difference |a-b| / max(|a|, |b|, 1e-300)."""
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
    """``value`` as written to files: ``repr`` of its float, which reads
    back bit for bit, or ``p/q`` (``p``) for a Fraction of any length."""
    if type(value) is float:
        return repr(value)
    if isinstance(value, Fraction):
        num, den = value.as_integer_ratio()
        text = _decimal(num)
        return text if den == 1 else f"{text}/{_decimal(den)}"
    return repr(float(value))


def repr_number(value: Number) -> str:
    """``repr(value)``, also for a Fraction over the digit limit."""
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
