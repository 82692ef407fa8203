"""The number codec: every spelling reads back bit for bit, non-finite
input is named, and no module reaches into another's private names."""

import ast
import csv
import io
import pathlib
import struct
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import relbilliards as rb
from relbilliards.numeric import (
    format_number,
    parse_number,
    rel_diff,
    repr_number,
)
from relbilliards.serialize import (
    events_to_csv,
    format_bool,
    mirror_trajectory_to_csv,
)

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

numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), fractions
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

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(), huge_ints))
    @example(2**60 + 1)
    @example(-(10**400))
    def test_int(self, n):
        """An int is written as the Fraction ``n/1`` is, not through float:
        every digit, past the float range and the digit limit too."""
        text = format_number(n)
        assert text == format_number(Fraction(n))
        back = parse_number(text, "rational", "v")
        assert type(back) is Fraction and back == n

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

    def test_repr_number_of_an_int(self):
        assert repr_number(-7) == "-7"
        n = 3**9100
        assert repr_number(n) == format_number(n)


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


def _csv_writer_text(tag: str, header: list[str], rows) -> str:
    """The tag line, then ``header`` and ``rows`` as ``csv.writer`` writes
    them: the reference for the comma-joined rows of ``serialize``."""
    out = io.StringIO()
    out.write(f"# {tag}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _event(n: int, values: list, flags: list[bool]):
    """A log record with the 12 numbers ``events_to_csv`` writes, in column
    order, and its 3 flags."""
    t, x, *v = values
    pre = (
        SimpleNamespace(E=v[0], P=v[1], mu=v[2]),
        SimpleNamespace(E=v[3], P=v[4], mu=v[5]),
    )
    post = (SimpleNamespace(E=v[6], P=v[7]), SimpleNamespace(E=v[8], P=v[9]))
    return SimpleNamespace(
        t=t, pair=(n, n + 1), x=x, pre=pre, post=post,
        tachyonic=flags[0], sign_flips=(flags[1], flags[2]),
    )


#: Floats at the ends of the range and rationals over the digit limit.
_EDGE_NUMBERS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, sys.float_info.max, 0.1,
    Fraction(3**9100, 7**5200), Fraction(-(10**4400) - 1), Fraction(-1, 3),
]


class TestCsvRows:
    """``events_to_csv`` and ``mirror_trajectory_to_csv`` join each row's
    fields with commas. The text must be what ``csv.writer`` writes for
    the same fields, which would quote a field holding a comma, a quote
    or a line break."""

    def _check_events(self, rows, mirror_rows):
        events = [
            _event(n, values, flags) for n, (values, flags) in enumerate(rows)
        ]
        fields = [
            [str(n), format_number(values[0]), str(n), str(n + 1),
             *map(format_number, values[1:]), *map(format_bool, flags)]
            + (
                ["", "", "", ""] if mirror_rows is None
                else [format_number(mirror_rows[n][key])
                      for key in ("sigma1", "E2", "x1", "k")]
            )
            for n, (values, flags) in enumerate(rows)
        ]
        header = events_to_csv([]).splitlines()[1].split(",")
        expected = _csv_writer_text(
            "relbilliards-events-v1 arithmetic=rational", header, fields
        )
        assert events_to_csv(events, "rational", mirror_rows) == expected

    def _check_mirror(self, rows, k):
        states = [
            rb.MirrorState(n, sigma1, E2, x1, t)
            for n, (t, sigma1, E2, x1) in enumerate(rows)
        ]
        fields = [
            [str(n), *map(format_number, row), format_number(k)]
            for n, row in enumerate(rows)
        ]
        expected = _csv_writer_text(
            "relbilliards-mirror-v1 arithmetic=float",
            ["n", "t", "sigma1", "E2", "x1", "k"],
            fields,
        )
        assert mirror_trajectory_to_csv(states, k) == expected

    @pytest.mark.parametrize("with_mirror", [False, True])
    def test_edge_numbers(self, with_mirror):
        pool = _EDGE_NUMBERS * 2
        rows = [
            (pool[n : n + 12], [n % 2 == 0, n % 3 == 0, n % 5 == 0])
            for n in range(len(_EDGE_NUMBERS))
        ]
        mirror_rows = None
        if with_mirror:
            mirror_rows = [
                dict(zip(("sigma1", "E2", "x1", "k"), pool[n + 3 : n + 7]))
                for n in range(len(rows))
            ]
        self._check_events(rows, mirror_rows)
        quads = [pool[n : n + 4] for n in range(len(_EDGE_NUMBERS))]
        for k in _EDGE_NUMBERS:
            self._check_mirror(quads, k)

    def test_empty(self):
        self._check_events([], None)
        self._check_mirror([], 1.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(numbers, min_size=12, max_size=12),
                st.lists(st.booleans(), min_size=3, max_size=3),
            ),
            max_size=4,
        ),
        st.booleans(),
    )
    def test_any_numbers(self, rows, with_mirror):
        mirror_rows = None
        if with_mirror:
            mirror_rows = [
                dict(zip(("sigma1", "E2", "x1", "k"), values[-4:]))
                for values, _ in rows
            ]
        self._check_events(rows, mirror_rows)
        self._check_mirror([values[:4] for values, _ in rows], 2.5)


class TestRelDiff:
    def test_exact_values_past_the_float_range(self):
        big = Fraction(10**400)
        assert rel_diff(big, big) == 0.0
        assert rel_diff(-big, big) == 2.0
        assert rel_diff(big, big + big / 3) == 0.25
        assert rel_diff(Fraction(1, 3), 0) == 1.0

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_float_bits(self, a, b):
        expected = abs(a - b) / max(abs(a), abs(b), 1e-300)
        assert _bits(rel_diff(a, b)) == _bits(expected)
