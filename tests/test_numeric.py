"""The number codec: every spelling reads back bit for bit, non-finite
input is named, and no module reaches into another's private names."""

import ast
import pathlib
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relbilliards as rb
from relbilliards.numeric import format_number, parse_number, repr_number

SRC = pathlib.Path(rb.__file__).parent


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: Ints of 4301 to 4401 decimal digits, over the interpreter's default
#: limit on int/str conversion, with either sign.
huge_ints = st.builds(
    lambda k, low, sign: sign * (10**k + low),
    st.integers(4300, 4400),
    st.integers(0, 10**60),
    st.sampled_from((1, -1)),
)

fractions = st.one_of(
    st.fractions(),
    st.builds(Fraction, huge_ints, huge_ints.map(abs)),
    st.builds(Fraction, huge_ints),
    st.builds(Fraction, st.integers(-99, 99), huge_ints.map(abs)),
)


class TestRoundTrip:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_float(self, value):
        text = format_number(value)
        assert _bits(parse_number(text, "float", "v")) == _bits(value)

    @settings(max_examples=60, deadline=None)
    @given(fractions)
    def test_fraction_p_over_q(self, value):
        text = format_number(value)
        back = parse_number(text, "rational", "v")
        assert type(back) is Fraction and back == value

    def test_fraction_over_the_digit_limit(self):
        """4342 digits over 4395: past the limit in both parts (an
        ``@example`` of it would fail in hypothesis's own ``repr``)."""
        value = Fraction(-(3**9100), 7**5200)
        text = format_number(value)
        assert text.startswith("-") and len(text) == 1 + 4342 + 1 + 4395
        assert parse_number(text, "rational", "v") == value

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(-10**30, 10**30), huge_ints),
           st.integers(1, 4500))
    @example(-5, 1)
    @example(7, 3)
    def test_fraction_decimal(self, n, places):
        """``n / 10**places`` spelled as a plain decimal, ``-0.005`` say."""
        digits = format_number(Fraction(abs(n))).zfill(places + 1)
        sign = "-" if n < 0 else ""
        text = f"{sign}{digits[:-places]}.{digits[-places:]}"
        back = parse_number(text, "rational", "v")
        assert back == Fraction(n, 10**places)

    def test_other_fraction_spellings(self):
        assert parse_number(" +3/6 ", "rational", "v") == Fraction(1, 2)
        assert parse_number("1.5e3", "rational", "v") == 1500
        assert parse_number(".25", "rational", "v") == Fraction(1, 4)

    def test_repr_number(self):
        assert repr_number(2.5) == "2.5"
        assert repr_number(Fraction(-3, 4)) == "Fraction(-3, 4)"
        big = Fraction(3**9100, 2)
        text = repr_number(big)
        num = format_number(Fraction(big.numerator))
        assert text == f"Fraction({num}, 2)"


class TestRejections:
    @pytest.mark.parametrize(
        "text, arithmetic, message",
        [
            ("nan", "float", "k: expected a finite number, got 'nan'"),
            (" -inf", "float", "k: expected a finite number, got '-inf'"),
            ("1e400", "float", "k: expected a finite number, got '1e400'"),
            ("one", "float", "k: cannot parse number 'one'"),
            ("3/2", "float", "k: cannot parse number '3/2'"),
            ("nan", "rational", "k: cannot parse number 'nan'"),
            ("inf", "rational", "k: cannot parse number 'inf'"),
            ("1/0", "rational", "k: cannot parse number '1/0'"),
            ("1/-2", "rational", "k: cannot parse number '1/-2'"),
        ],
    )
    def test_message(self, text, arithmetic, message):
        with pytest.raises(rb.ConfigError) as exc:
            parse_number(text, arithmetic, "k")
        assert str(exc.value) == message


def _private_imports() -> list[str]:
    """``module: name`` for each ``_``-prefixed name that a package module
    imports from another package module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            inside = node.level > 0 or (node.module or "").startswith(
                "relbilliards"
            )
            found += [
                f"{path.stem}: {alias.name}"
                for alias in node.names
                if inside and alias.name.startswith("_")
            ]
    return found


def test_no_private_cross_module_imports():
    assert _private_imports() == []
