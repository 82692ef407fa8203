"""Arithmetic-mode helpers.

Everything in the package runs in one of two arithmetic modes, selected
implicitly by the number types fed in:

* float mode -- ordinary doubles, with relative tolerances guarding the
  divisions that collision resolution performs;
* exact mode -- ``fractions.Fraction`` (or int) inputs, in which case all
  zero tests are exact and results are bit-reproducible.

A zero test takes the terms of its tolerance scale, not the scale: the
scale is summed only for a float, since an exact value is compared with
zero as it is.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Number = Union[int, float, Fraction]

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
    if is_exact(value):
        return value == 0
    return abs(value) <= REL_TOL * float(sum(map(abs, terms)))


def rel_diff(a: Number, b: Number) -> float:
    """Relative difference |a-b| / max(|a|, |b|, 1e-300)."""
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(a), abs(b), 1e-300)
