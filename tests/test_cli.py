"""Command-line harness: config parsing, artifacts, exit codes."""

import csv
import math
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relbilliards as rb
from relbilliards import cli, serialize
from relbilliards.cli import build_parser, main
from relbilliards.config import initial_state, parse_config
from relbilliards.numeric import format_number
from relbilliards.render import render_spacetime, worldlines
from relbilliards.serialize import events_from_csv, events_to_csv
from test_golden_gas import _fraction_gas
from test_simulator import mixed_gases

ZERO_ENERGY_COLLISION = """
[scenario]
mode = general
events = 1

[particle 1]
E = 1
P = 0
mu = 1
x = 0

[particle 2]
E = -1
v = -1
mu = 0
x = 1
"""

MIRROR_CYCLE = """
[scenario]
mode = mirror
events = 30

[mirror]
mu = 4
E_total = 1
sigma1 = 1
x1 = -1
"""


def _assert_digits(text, n):
    """``text`` spells the int ``n`` over 4300 digits: its length, sign
    and the 50 digits at either end, checked without ``str(n)``."""
    assert text.startswith("-") == (n < 0)
    digits, n = text.lstrip("-"), abs(n)
    assert len(digits) > 4300
    assert 10 ** (len(digits) - 1) <= n < 10 ** len(digits)
    assert int(digits[:50]) == n // 10 ** (len(digits) - 50)
    assert int(digits[-50:]) == n % 10**50


@pytest.fixture(scope="module")
def wide_log():
    """A two-particle exact run whose right-moving massless particle has
    energy (3**300000 + 1)/49, and its CSV text: four fields of 143,140
    characters, over the csv module's default field size limit."""
    E = Fraction(3**300000 + 1, 49)
    start = rb.BilliardState(
        (
            rb.massless(E, 1, x=Fraction(0), label=0),
            rb.massless(Fraction(1), -1, x=Fraction(1), label=1),
        ),
        Fraction(0),
    )
    _, log = rb.simulate(start, max_events=1)
    return log, events_to_csv(log, "rational")


def _quote_wide_field(text):
    """``text`` with its first row's E_i_pre field in quotes."""
    lines = text.splitlines()
    row = lines[2].split(",")
    row[5] = f'"{row[5]}"'
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_general_mode(self):
        config = parse_config(ZERO_ENERGY_COLLISION)
        assert config.mode == "general"
        assert len(config.particles) == 2
        assert config.particles[1].velocity == -1.0

    def test_mirror_mode(self):
        config = parse_config(MIRROR_CYCLE)
        params, state = config.mirror
        assert params.k == 1.5
        assert state.E2 == -1.5

    def test_rational_mode_numbers(self):
        text = MIRROR_CYCLE.replace(
            "events = 30", "events = 30\narithmetic = rational"
        )
        config = parse_config(text)
        from fractions import Fraction

        params, state = config.mirror
        assert params.mu == Fraction(4)
        assert isinstance(state.E2, Fraction)

    def test_missing_scenario(self):
        with pytest.raises(rb.ConfigError):
            parse_config("[mirror]\nmu = 4\n")

    def test_empty_particles(self):
        with pytest.raises(rb.ConfigError):
            parse_config("[scenario]\nmode = general\nevents = 1\n")

    def test_unordered_positions(self):
        bad = ZERO_ENERGY_COLLISION.replace("x = 1", "x = -5")
        with pytest.raises(rb.ConfigError):
            parse_config(bad)

    def test_no_stop_rule(self):
        with pytest.raises(rb.ConfigError):
            parse_config(
                "[scenario]\nmode = mirror\n\n[mirror]\nmu = 4\n"
                "E_total = 1\nsigma1 = 1\nx1 = -1\n"
            )

    def test_mirror_validation(self):
        bad = MIRROR_CYCLE.replace("x1 = -1", "x1 = 2")
        with pytest.raises(rb.ConfigError):
            parse_config(bad)


def _scenario(text, old, new):
    assert old in text
    return text.replace(old, new)


def _mirror(old, new):
    return _scenario(MIRROR_CYCLE, old, new)


def _general(old, new):
    return _scenario(ZERO_ENERGY_COLLISION, old, new)


class TestConfigMessages:
    """The message of every rejection of a scenario, byte for byte."""

    @pytest.mark.parametrize(
        "text, arithmetic, message",
        [
            (
                _mirror("mu = 4", "mu = 4/x"),
                "rational",
                "mirror.mu: cannot parse number '4/x'",
            ),
            (
                _mirror("x1 = -1", "x1 = left"),
                None,
                "mirror.x1: cannot parse number 'left'",
            ),
            (
                "[scenario]\nevents = 1\n",
                None,
                "scenario: missing required key 'mode'",
            ),
            (
                "events = 1\n",
                None,
                "malformed config: File contains no section headers.\n"
                "file: '<string>', line: 1\n'events = 1\\n'",
            ),
            (
                _mirror("mode = mirror", "mode = chaos"),
                None,
                "scenario.mode: expected one of ('general', 'mirror'), "
                "got 'chaos'",
            ),
            (
                _mirror("events = 30", "events = 30\narithmetic = decimal"),
                None,
                "scenario.arithmetic: expected one of ('float', 'rational'), "
                "got 'decimal'",
            ),
            (
                _mirror("events = 30", "events = 30\ndirection = sideways"),
                None,
                "scenario.direction: expected one of ('forward', 'backward'), "
                "got 'sideways'",
            ),
            (
                _mirror("events = 30", "events = many"),
                None,
                "scenario.events: expected an integer",
            ),
            (
                _mirror("events = 30", "events = -1"),
                None,
                "scenario.events: must be nonnegative",
            ),
            (
                _mirror("events = 30", "t_limit = soon"),
                None,
                "scenario.t_limit: cannot parse number 'soon'",
            ),
            (
                _mirror("events = 30", "events = 30\noutputs = events, pdf"),
                None,
                "scenario.outputs: expected from ('events', 'svg'), got 'pdf'",
            ),
            (
                "[scenario]\nmode = mirror\nevents = 30\n",
                None,
                "mirror: missing [mirror] section",
            ),
            (
                _mirror("sigma1 = 1\n", ""),
                None,
                "mirror: missing required key 'sigma1'",
            ),
            (
                _general("[particle 2]", "[particle two]"),
                None,
                "[particle two]: particle sections are named 'particle <int>'",
            ),
            (
                ZERO_ENERGY_COLLISION.split("[particle 2]")[0],
                None,
                "general mode: need at least two particles",
            ),
            (
                _general("v = -1", "v = -1\nP = 1"),
                None,
                "[particle 2]: give P or v, not both",
            ),
            (
                _general("v = -1\n", ""),
                None,
                "[particle 2]: missing P (or v)",
            ),
            (
                _general("x = 1\n", ""),
                None,
                "[particle 2]: missing required key 'x'",
            ),
            (
                _general("E = -1", "E = minus one"),
                None,
                "[particle 2].E: cannot parse number 'minus one'",
            ),
            (
                _general("mu = 1", "mu = 2"),
                None,
                "[particle 1]: particle 0: mu inconsistent with E, P "
                "(drift -1.000e+00 at scale 3.000e+00)",
            ),
        ],
        ids=[
            "rational-number", "float-number", "missing-key", "malformed",
            "mode", "arithmetic", "direction", "events-not-int",
            "events-negative", "t_limit", "outputs", "no-mirror-section",
            "missing-mirror-key", "particle-section-name", "one-particle",
            "P-and-v", "no-P-or-v", "missing-particle-key",
            "particle-number", "inconsistent-particle",
        ],
    )
    def test_rejection_message(self, text, arithmetic, message):
        with pytest.raises(rb.ConfigError) as exc:
            parse_config(text, arithmetic=arithmetic)
        assert str(exc.value) == message

    def test_t_limit_parsed(self):
        text = _mirror("events = 30", "t_limit = 2.5")
        assert parse_config(text).t_limit == 2.5
        assert parse_config(text, "rational").t_limit == Fraction(5, 2)

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("mirror", ZERO_ENERGY_COLLISION,
             "mirror subcommand needs a mirror-mode config"),
            ("mirror", _mirror("events = 30", "t_limit = 5"),
             "mirror subcommand needs an events stop rule"),
            ("cross-check", ZERO_ENERGY_COLLISION,
             "cross-check needs a mirror-mode config"),
            ("cross-check", _mirror("events = 30", "t_limit = 5"),
             "cross-check needs an event count"),
            ("cross-check",
             _mirror("events = 30", "events = 30\ndirection = backward"),
             "cross-check runs forward only, not direction = backward"),
        ],
        ids=["mirror-general", "mirror-t_limit", "cross-check-general",
             "cross-check-t_limit", "cross-check-backward"],
    )
    def test_subcommand_guards(self, tmp_path, capsys, command, text, message):
        cfg = write(tmp_path, "s.ini", text)
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSimulateCommand:
    def test_zero_energy_collision_row(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.ini", ZERO_ENERGY_COLLISION)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "events.csv").read_text()
        events, _ = events_from_csv(text)
        assert len(events) == 1
        event = events[0]
        assert event.post[0].E == -1.0
        assert event.post[0].P == 0.0
        assert event.post[1].E == 1.0
        assert event.tachyonic is True
        assert event.sign_flips == (True, True)

    def test_deterministic_bytes(self, tmp_path):
        cfg = write(tmp_path, "s.ini", MIRROR_CYCLE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "events.csv").read_bytes() == (
            out2 / "events.csv"
        ).read_bytes()

    def test_round_trip(self, tmp_path):
        config = parse_config(MIRROR_CYCLE)
        state0 = initial_state(config)
        _, events = rb.simulate(state0, max_events=30)
        text = events_to_csv(events, "float")
        back, arithmetic = events_from_csv(text)
        assert arithmetic == "float"
        assert back == events

    def test_round_trip_reads_labels_as_indices(self):
        """The log holds no labels: each state reads back with its
        particle index as its label. A log whose labels are their indices
        reads back as itself; one left at the default label 0 does not."""
        for labels, same in (((0, 1), True), ((0, 0), False)):
            start = rb.BilliardState((
                rb.ParticleState(1.25, 0.75, 1.0, 0.0, labels[0]),
                rb.ParticleState(1.25, -0.75, 1.0, 1.0, labels[1]),
            ))
            _, events = rb.simulate(start, max_events=1)
            back, _ = events_from_csv(events_to_csv(events))
            assert [p.label for p in back[0].pre] == [0, 1]
            assert [p.label for p in events[0].pre] == list(labels)
            assert (back == events) is same

    def test_round_trip_rational(self, tmp_path):
        text_cfg = MIRROR_CYCLE.replace(
            "events = 30", "events = 30\narithmetic = rational"
        )
        config = parse_config(text_cfg)
        state0 = initial_state(config)
        _, events = rb.simulate(state0, max_events=12)
        text = events_to_csv(events, "rational")
        back, arithmetic = events_from_csv(text)
        assert arithmetic == "rational"
        assert back == events

    def test_rationals_over_the_digit_limit(self, tmp_path, capsys):
        """Python refuses str(int) and int(str) over 4300 digits by
        default. Such numbers are written and read back all the same, and
        the limit is left as it is."""
        assert sys.get_int_max_str_digits() == 4300
        start = _fraction_gas(10, 6)
        _, log = rb.simulate(start, max_events=20)
        text = events_to_csv(log, "rational")
        assert events_from_csv(text) == (log, "rational")
        rows = list(csv.DictReader(text.splitlines()[1:]))
        k, side, value = max(
            (
                (k, side, p.E)
                for k, e in enumerate(log)
                for side, p in enumerate(e.post)
            ),
            key=lambda item: abs(item[2].numerator),
        )
        field = rows[k][("E_i_post", "E_j_post")[side]]
        _assert_digits(field.split("/")[0], value.numerator)

        lines = ["[scenario]", "mode = general", "arithmetic = rational",
                 "events = 30"]
        for label, p in enumerate(start.particles):
            lines += [f"[particle {label}]", f"E = {p.E}", f"P = {p.P}",
                      f"mu = {p.mu}", f"x = {p.x}"]
        cfg = write(tmp_path, "gas.ini", "\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        state, full = rb.simulate(start, max_events=30)
        written = (tmp_path / "events.csv").read_text()
        assert events_from_csv(written) == (full, "rational")
        out = capsys.readouterr().out
        num, den = re.fullmatch(
            rf"wrote .*events\.csv \({len(full)} events, "
            r"final t = Fraction\((\d+), (\d+)\)\)\n",
            out,
        ).groups()
        _assert_digits(num, state.t.numerator)
        _assert_digits(den, state.t.denominator)

    def test_fields_over_the_csv_field_limit(self, wide_log):
        """A field wider than the csv module's field size limit reads back,
        and the limit, which is process-wide, is left as it is. A quoted
        field over it, which the csv module reads, is a ConfigError."""
        log, text = wide_log
        limit = csv.field_size_limit()
        rows = text.splitlines()
        assert max(len(f) for row in rows for f in row.split(",")) > limit
        assert events_from_csv(text) == (log, "rational")
        assert csv.field_size_limit() == limit
        with pytest.raises(
            rb.ConfigError, match="line 3: field larger than field limit"
        ):
            events_from_csv(_quote_wide_field(text))
        assert csv.field_size_limit() == limit

    def test_quoted_record_reads_back(self):
        """A quoted record goes through ``csv.reader`` and reads back as
        written, also one that spans lines; the lines after it keep their
        numbers."""
        _, events = rb.simulate(initial_state(parse_config(MIRROR_CYCLE)),
                                max_events=3)
        lines = events_to_csv(events).splitlines()
        lines[2] = ",".join(f'"{field}"' for field in lines[2].split(","))
        fields = lines[3].split(",")
        fields[1] = f'"{fields[1]}\n"'  # the time, then a line break
        lines[3] = ",".join(fields)
        assert events_from_csv("\n".join(lines)) == (events, "float")
        lines[4] = lines[4].replace("false", "no", 1)
        with pytest.raises(rb.ConfigError, match="^line 6, tachyonic: "):
            events_from_csv("\n".join(lines))

    def test_text_without_the_schema_tag_rejected(self):
        text = events_to_csv([]).split("\n", 1)[1]
        for bad in (text, "", "# relbilliards-mirror-v1\n" + text,
                    "# relbilliards-events-v10 arithmetic=float\n" + text,
                    "# relbilliards-events-v1x\n" + text):
            with pytest.raises(
                rb.ConfigError, match="^not a relbilliards-events-v1 file$"
            ):
                events_from_csv(bad)

    @pytest.mark.parametrize("mu, sigma1", [("4", "1"), ("5/4", "3/10")])
    def test_backward_mirror_columns(self, tmp_path, mu, sigma1):
        """A backward log's mirror columns follow the reduced orbit back
        in time: one k on every row, and at each leftmost-pair collision
        the state of that collision, n = 0, -1, -2, ..."""
        text = (
            MIRROR_CYCLE.replace("events = 30", "events = 60\n"
                                 "arithmetic = rational\n"
                                 "direction = backward")
            .replace("mu = 4", f"mu = {mu}")
            .replace("sigma1 = 1", f"sigma1 = {sigma1}")
        )
        cfg = write(tmp_path, "b.ini", text)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(
            csv.DictReader(
                (tmp_path / "events.csv").read_text().splitlines()[1:]
            )
        )
        assert len(rows) == 60
        params, s0 = parse_config(text).mirror
        assert {r["k"] for r in rows} == {str(params.k)}
        leftmost = [r for r in rows if (r["i"], r["j"]) == ("0", "1")]
        orbit = rb.reduced_trajectory(params, s0, 0, len(leftmost) - 1)
        assert [
            tuple(Fraction(r[key]) for key in ("t", "sigma1", "E2", "x1"))
            for r in leftmost
        ] == [(s.t, s.sigma1, s.E2, s.x1) for s in orbit[::-1]]
        # pre is the earlier pair of states in time, so every pair closes
        log = tmp_path / "events.csv"
        events, _ = events_from_csv(log.read_text())
        assert all(e.pre[0].velocity > e.pre[1].velocity for e in events)
        assert main(["render", "--log", str(log), "--out", str(tmp_path)]) == 0

    def test_mirror_columns_cycle(self, tmp_path):
        cfg = write(tmp_path, "s.ini", MIRROR_CYCLE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(
            csv.DictReader(
                (tmp_path / "events.csv").read_text().splitlines()[1:]
            )
        )
        sigmas = [
            float(r["sigma1"]) for r in rows if (r["i"], r["j"]) == ("0", "1")
        ]
        assert sigmas[:6] == [4.0, -2.0, 1.0, 4.0, -2.0, 1.0]
        ks = {r["k"] for r in rows}
        assert ks == {"1.5"}

    @pytest.mark.parametrize(
        "sigma1, events", [("1e-10", "3"), ("-9999999998", "6")]
    )
    def test_mirror_columns_read_sigma1_without_cancellation(
        self, tmp_path, sigma1, events
    ):
        """Where particle 1's E and P cancel (E1 = 5e9, P1 = -5e9 at
        sigma1 = 1e-10), the first row is the start state, as in row 0 of
        mirror.csv, and each collision's sigma1 is the map's."""
        text = (
            MIRROR_CYCLE.replace("events = 30", f"events = {events}")
            .replace("mu = 4", "mu = 1")
            .replace("sigma1 = 1", f"sigma1 = {sigma1}")
        )
        cfg = write(tmp_path, "c.ini", text)
        out = str(tmp_path)
        rows, states = [], []
        for command, name, read in (
            ("simulate", "events.csv", rows), ("mirror", "mirror.csv", states)
        ):
            assert main([command, "--config", cfg, "--out", out]) == 0
            lines = (tmp_path / name).read_text().splitlines()
            read.extend(csv.DictReader(lines[1:]))
        keys = ("sigma1", "E2", "x1", "k")
        assert [rows[0][k] for k in keys] == [states[0][k] for k in keys]
        leftmost = [r for r in rows if (r["i"], r["j"]) == ("0", "1")]
        params, s0 = parse_config(text).mirror
        orbit = rb.reduced_trajectory(params, s0, len(leftmost))[1:]
        for row, state in zip(leftmost, orbit):
            sigma = float(row["sigma1"])
            assert rb.numeric.rel_diff(sigma, state.sigma1) <= 1e-15
        assert "1e-10" in [r["sigma1"] for r in rows]

    def test_validation_exit_code(self, tmp_path):
        cfg = write(
            tmp_path, "bad.ini", "[scenario]\nmode = general\nevents = 1\n"
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_missing_config_exit_code(self, tmp_path):
        assert (
            main(["simulate", "--config", str(tmp_path / "nope.ini"),
                  "--out", str(tmp_path)])
            == 1
        )

    def test_degeneracy_exit_code(self, tmp_path):
        degenerate = """
[scenario]
mode = general
events = 1

[particle 1]
E = 1
P = 0
mu = 1
x = 0

[particle 2]
E = 0.5
P = -1.5
mu = -2
x = 1
"""
        cfg = write(tmp_path, "d.ini", degenerate)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_svg_output(self, tmp_path):
        cfg = write(
            tmp_path,
            "s.ini",
            MIRROR_CYCLE.replace("events = 30", "events = 30\noutputs = events, svg"),
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "spacetime.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 4


SEPARATING_PAIR = """
[scenario]
mode = general
t_limit = 5
outputs = events, svg

[particle 1]
E = 1
mu = 0.75
v = -0.5
x = 0

[particle 2]
E = 1
mu = 0.75
v = 0.5
x = 1
"""

OVERFLOWING_PAIR = """
[scenario]
mode = general
events = 1

[particle 1]
E = 1
mu = 1
P = 1e-10
x = -1e300

[particle 2]
E = 1
mu = 1
P = -1e-10
x = 1e300
"""


class TestSimulateEdges:
    def test_empty_log_skips_the_svg(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.ini", SEPARATING_PAIR)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        events, _ = events_from_csv((tmp_path / "events.csv").read_text())
        assert events == []
        assert not (tmp_path / "spacetime.svg").exists()
        assert "no events: spacetime.svg not drawn" in capsys.readouterr().out

    def test_empty_log_still_rejected_by_render(self, tmp_path):
        cfg = write(tmp_path, "s.ini", SEPARATING_PAIR)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        log = str(tmp_path / "events.csv")
        assert main(["render", "--log", log, "--out", str(tmp_path)]) == 1

    def test_overflow_exits_2_without_a_log(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.ini", OVERFLOWING_PAIR)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "events.csv").exists()
        assert "event time is not finite" in capsys.readouterr().err


class TestPeriodNearCycle:
    def test_float_five_cycle_is_named_near(self, capsys):
        rc = main(["period", "--mu", "1.5278640450004206", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("b=5, a=1, T=7.63932023; simulated ")
        assert out.endswith(" (near cycle within tol 1e-09)\n")

    def test_tol_sets_the_turn_miss(self, capsys):
        rc = main(["period", "--mu", "2.5", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1", "--tol", "1e-3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("b=39, a=11, ")
        assert out.endswith(" (near cycle within tol 0.001)\n")

    def test_exact_cycle_line_unmarked(self, capsys):
        rc = main(["period", "--mu", "4", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "b=3, a=1, T=12; simulated 12.000000000\n"
        )


class TestOverrides:
    def test_events_flag_overrides_config(self, tmp_path):
        cfg = write(tmp_path, "s.ini", MIRROR_CYCLE)
        assert main(["simulate", "--config", cfg, "--events", "6",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "events.csv").read_text().splitlines()
        assert len(lines) - 2 == 6

    def test_arithmetic_flag_switches_to_rational(self, tmp_path):
        cfg = write(tmp_path, "s.ini", MIRROR_CYCLE)
        assert main(["simulate", "--config", cfg, "--arithmetic", "rational",
                     "--events", "6", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "events.csv").read_text()
        assert "arithmetic=rational" in text.splitlines()[0]
        assert "-3/2" in text.splitlines()[2]
        events, arithmetic = events_from_csv(text)
        assert arithmetic == "rational"
        from fractions import Fraction

        assert isinstance(events[0].t, Fraction)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--config", "m.ini", "--events", "-3", "--out", "o"],
            ["mirror", "--config", "m.ini", "--events", "-3", "--out", "o"],
            ["cross-check", "--config", "m.ini", "--events", "-3",
             "--out", "o"],
            ["tachyon-scan", "--mu", "4", "--e-total", "1", "--sigma1", "1",
             "--steps", "-2", "--out", "o"],
            ["period", "--mu", "4", "--e-total", "1", "--sigma1", "1",
             "--x1", "-1", "--b-max", "-1"],
            ["simulate", "--config", "m.ini", "--events", "1.5", "--out", "o"],
        ],
        ids=["simulate", "mirror", "cross-check", "tachyon-scan", "period",
             "simulate-fraction"],
    )
    def test_negative_count_rejected(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "m.ini", MIRROR_CYCLE)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "expected a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMirrorCommand:
    def test_trajectory_csv(self, tmp_path):
        cfg = write(tmp_path, "m.ini", MIRROR_CYCLE)
        assert main(["mirror", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mirror.csv").read_text().splitlines()
        assert lines[0].startswith("# relbilliards-mirror-v1")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 31
        sigmas = [float(r["sigma1"]) for r in rows[:4]]
        assert sigmas == [1.0, 4.0, -2.0, 1.0]

    def test_backward_trajectory(self, tmp_path):
        cfg = write(
            tmp_path,
            "b.ini",
            MIRROR_CYCLE.replace(
                "events = 30", "events = 5\ndirection = backward"
            ),
        )
        assert main(["mirror", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = list(
            csv.DictReader(
                (tmp_path / "mirror.csv").read_text().splitlines()[1:]
            )
        )
        assert [int(r["n"]) for r in rows] == [-5, -4, -3, -2, -1, 0]
        assert float(rows[0]["t"]) == -19.0
        assert {r["k"] for r in rows} == {"1.5"}


    @pytest.mark.parametrize(
        "sigma1, message",
        [
            # sigma1**2 underflows to zero: the x1 update divides by it
            ("1e-200", "float underflow: sigma1**2 is zero at "
                       "sigma1 = 1e-200 (at collision index 0)"),
            # sigma1**2 is subnormal: x1 at collision 1 overflows
            ("1e-160", "float overflow: x1 = -inf, t = inf "
                       "(at collision index 1)"),
            # E2 * sigma1 overflows at collision 1, and x1 underflows
            ("1e200", "float overflow: E2 = inf, x1 = -0.0 "
                      "(at collision index 1)"),
        ],
    )
    def test_float_range_is_a_named_error(
        self, tmp_path, capsys, sigma1, message
    ):
        cfg = write(
            tmp_path,
            "tiny.ini",
            MIRROR_CYCLE.replace("events = 30", "events = 3")
            .replace("mu = 4", "mu = 1")
            .replace("sigma1 = 1", f"sigma1 = {sigma1}"),
        )
        rc = main(["mirror", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "mirror.csv").exists()

    @pytest.mark.parametrize(
        "mu, e_total, sigma1, commands, message",
        [
            # E2 * sigma1 overflows at collision 1, and x1 underflows
            ("4", "1", "1e300", ["mirror", "cross-check"],
             "float overflow: E2 = inf, x1 = -0.0 (at collision index 1)"),
            # mu / sigma1 overflows in the energy split at collision 0
            ("1", "1", "5e-324", ["mirror", "cross-check"],
             "float overflow: E2 = -inf at sigma1 = 5e-324 "
             "(at collision index 0)"),
            # k = x1 * E2 / sigma1 overflows; mirror writes it in every row
            ("1", "1e300", "1e-10", ["mirror"],
             "float overflow: k = -inf (at collision index 0)"),
            # k overflows; simulate writes it in its one row, a swap of the
            # inner pair
            ("1e-10", "1", "1e-160", ["simulate"],
             "float overflow: k = inf (at collision index 0)"),
        ],
    )
    def test_float_overflow_is_a_named_error(
        self, tmp_path, capsys, mu, e_total, sigma1, commands, message
    ):
        """Exit 2 and no file in float arithmetic; the same numbers run
        in rational arithmetic."""
        config = (
            MIRROR_CYCLE.replace("events = 30", "events = 1")
            .replace("mu = 4", f"mu = {mu}")
            .replace("E_total = 1", f"E_total = {e_total}")
            .replace("sigma1 = 1", f"sigma1 = {sigma1}")
        )
        cfg = write(tmp_path, "float.ini", config)
        for command in commands:
            out = tmp_path / command
            rc = main([command, "--config", cfg, "--out", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        rational = config.replace(
            "mode = mirror", "mode = mirror\narithmetic = rational"
        )
        cfg = write(tmp_path, "rational.ini", rational)
        for command in commands:
            out = tmp_path / f"rational-{command}"
            assert main([command, "--config", cfg, "--out", str(out)]) == 0


class TestCrossCheckCommand:
    def test_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "m.ini", MIRROR_CYCLE.replace("events = 30", "events = 99"))
        rc = main(["cross-check", "--config", cfg, "--events", "99",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "report.txt").read_text()
        assert "PASS" in report
        out = capsys.readouterr().out
        assert "max relative deviation" in out

    def test_near_repeller_divergence_flagged(self, tmp_path, capsys):
        near_repeller = """
[scenario]
mode = mirror
events = 20

[mirror]
mu = 0.75
E_total = 1
sigma1 = 1.5000000000000002
x1 = -1
"""
        cfg = write(tmp_path, "r.ini", near_repeller)
        rc = main(["cross-check", "--config", cfg, "--events", "20"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "growth rate" in out

    def test_escaping_rational_orbit(self, tmp_path, capsys):
        """Exact values past the float range compare exactly: the escaping
        orbit's positions and times reach ~1e385 within 150 collisions."""
        escaping = MIRROR_CYCLE.replace("mode = mirror", "mode = mirror\n"
                                        "arithmetic = rational").replace(
            "mu = 4", "mu = 1/100")
        cfg = write(tmp_path, "e.ini", escaping)
        assert main(["cross-check", "--config", cfg, "--events", "150"]) == 0
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_zero_events_trivial_pass(self, tmp_path):
        cfg = write(tmp_path, "m.ini", MIRROR_CYCLE)
        assert main(["cross-check", "--config", cfg, "--events", "0"]) == 0

    def test_short_simulation_refused(self, tmp_path, capsys):
        """A simulation that stops before the asked collisions is a
        SimulationError raised after the event loop: exit 2. The outer
        particle's E - P = 1e-10 is below the float spacing near E = 5e9,
        so the pair moves at one velocity and never meets again."""
        text = (
            MIRROR_CYCLE.replace("events = 30", "events = 6")
            .replace("mu = 4", "mu = 1")
            .replace("sigma1 = 1", "sigma1 = -9999999998")
        )
        cfg = write(tmp_path, "s.ini", text)
        assert main(["cross-check", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: simulation produced 1 collisions, expected 6\n"


class TestPeriodCommand:
    def test_three_cycle_output(self, capsys):
        rc = main(["period", "--mu", "4", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "b=3" in out
        assert "T=12" in out
        assert "simulated 12.000000000" in out

    def test_quarter_turn(self, capsys):
        rc = main(["period", "--mu", "2", "--e-total", "1",
                   "--sigma1", "-1", "--x1", "-1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "b=4" in out
        assert "T=40" in out

    def test_aperiodic(self, capsys):
        rc = main(["period", "--mu", "3", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1", "--b-max", "1000"])
        assert rc == 0
        assert "aperiodic" in capsys.readouterr().out

    def test_nonnegative_discriminant_rejected(self, capsys):
        rc = main(["period", "--mu", "0.75", "--e-total", "1",
                   "--sigma1", "1", "--x1", "-1"])
        assert rc == 1

    @pytest.mark.parametrize(
        "argv, out",
        [
            (
                ["period", "--mu", "4", "--e-total", "1", "--sigma1", "1",
                 "--x1", "-1e-3"],
                "b=3, a=1, T=0.012;",
            ),
            (
                ["tachyon-scan", "--mu", "1", "--e-total", "-1e-3",
                 "--sigma1", "-2E+0", "--steps", "10"],
                "\n1.0,-0.001,-2.0,",
            ),
        ],
        ids=["period", "tachyon-scan"],
    )
    def test_negative_exponent_is_a_value(self, capsys, argv, out):
        """``-1e-3`` after an option is its value, as ``-1`` and ``-0.5``
        are, not an unknown option."""
        assert main(argv) == 0
        assert out in capsys.readouterr().out

    def test_grid_with_a_negative_first_value(self, capsys):
        """``-3,-0.7`` after a grid option is its value, not an option."""
        assert main(["tachyon-scan", "--mu", "1", "--e-total", "1",
                     "--sigma1", "-3,-0.7", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "\n1.0,1.0,-3.0," in out and "\n1.0,1.0,-0.7," in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["period", "--mu", "4", "--e-total", "1", "--sigma1", "1",
             "--x1", "-1", "--tol=-1"],
            ["cross-check", "--config", "m.ini", "--events", "20",
             "--tol", "-1e-9"],
        ],
        ids=["period", "cross-check"],
    )
    def test_negative_tol_rejected(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "m.ini", MIRROR_CYCLE)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        tol = argv[-1].removeprefix("--tol=")
        assert (out, err) == (
            "", f"error: --tol: expected a nonnegative number, got {tol!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["period", "--mu", "4", "--e-total", "1", "--sigma1", "1",
             "--x1", "-1", "--tol", "0"],
            ["cross-check", "--config", "m.ini", "--tol", "0"],
        ],
        ids=["period", "cross-check"],
    )
    def test_zero_tol_accepted(self, argv):
        assert build_parser().parse_args(argv).tol == 0


class TestTachyonScanCommand:
    def test_classifications_with_counts(self, tmp_path):
        rc = main([
            "tachyon-scan", "--mu", "0.5,1,4", "--e-total", "1",
            "--sigma1", "3", "--steps", "400", "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = list(
            csv.DictReader(
                (tmp_path / "tachyon_scan.csv").read_text().splitlines()
            )
        )
        assert [r["classification"] for r in rows] == [
            "exactly-two-consecutive",
            "exactly-two-consecutive",
            "infinitely-many",
        ]
        assert [r["agrees"] for r in rows] == ["true"] * 3
        assert int(rows[0]["count"]) == 2
        assert int(rows[2]["count"]) > 2

    def test_none_class_zero_count(self, tmp_path):
        rc = main([
            "tachyon-scan", "--mu", "0.75", "--e-total", "1",
            "--sigma1", "1", "--steps", "300", "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = list(
            csv.DictReader(
                (tmp_path / "tachyon_scan.csv").read_text().splitlines()
            )
        )
        assert rows[0]["classification"] == "none"
        assert rows[0]["count"] == "0"

    def test_census_agrees_with_the_classification(self, capsys):
        """On a 5 x 2 x 5 grid of both energy signs, every census agrees
        with the classification, and so it does over a million steps each
        way of orbits that settle on a fixed point, where it stops."""
        for mu, e_total, sigma1, steps, points in (
            ("0.25,0.5,1,2,4", "-1,1", "-3,-0.7,0.3,1.3,3", "1000", 50),
            ("0.25,0.5", "-1,1", "-3,0.3,3", "1000000", 12),
        ):
            assert main([
                "tachyon-scan", "--mu", mu, f"--e-total={e_total}",
                f"--sigma1={sigma1}", "--steps", steps,
            ]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == 1 + points + 1
            assert lines[-1] == "0 disagreement(s)"

    def test_empty_grid_rejected(self):
        assert main([
            "tachyon-scan", "--mu", ",", "--e-total", "1", "--sigma1", "3",
        ]) == 1

    def test_pole_names_the_grid_point_and_the_index(self, capsys):
        """The backward orbit of sigma1_0 = 0.5 reaches sigma = 0 at
        collision -1 (2 - 1/0.5 = 0), where the inverse map has its pole."""
        assert main([
            "tachyon-scan", "--mu", "1", "--e-total", "1",
            "--sigma1", "3,0.5", "--steps", "10",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: mu=1.0, E_total=1.0, sigma1_0=0.5: inverse map "
            "undefined at sigma = 0 (at collision index -1)\n"
        )

    def test_overflow_names_the_grid_point_and_the_index(self, capsys):
        """mu / 5e-324 overflows, so the backward orbit of sigma1_0 =
        5e-324 would reach sigma = -inf at collision -1, which meets the
        tachyonic predicate: a named error, not a count."""
        assert main([
            "tachyon-scan", "--mu", "1", "--e-total", "1",
            "--sigma1", "5e-324", "--steps", "3",
        ]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: mu=1.0, E_total=1.0, sigma1_0=5e-324: float overflow: "
            "sigma = -inf (at collision index -1)\n"
        )


class TestEstimateCommand:
    def test_neutron_scale(self, capsys):
        rc = main(["estimate", "--mass", "1.7e-27"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2.5e-54" in out
        assert "2 * G * m" in out
        assert "7.4e-28" in out

    def test_one_kilogram(self, capsys):
        rc = main(["estimate", "--mass", "1"])
        assert rc == 0
        assert "1.48e-27" in capsys.readouterr().out

    def test_nonpositive_mass_rejected(self, capsys):
        assert main(["estimate", "--mass", "0"]) == 1
        assert main(["estimate", "--mass", "-2"]) == 1

    def test_nonpositive_gravity_rejected(self, capsys):
        with pytest.raises(
            rb.ConfigError, match="^gravitational constant must be positive$"
        ):
            rb.estimate_tachyonic_scale(1.0, 0.0)
        assert main(["estimate", "--mass", "1", "--gravity", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: gravitational constant must be positive\n"
        )

    @pytest.mark.parametrize(
        "mass, gravity, message",
        [
            (
                "1e308", "1e300",
                "float overflow: 2*G*m = inf at G = 1e+300, m = 1e+308",
            ),
            (
                "5e-324", "1e-300",
                "float underflow: 2*G*m = 0.0 at G = 1e-300, m = 5e-324",
            ),
        ],
        ids=["overflow", "underflow"],
    )
    def test_bound_past_the_float_range(self, capsys, mass, gravity, message):
        """A bound 2*G*m that is not finite, or rounds to zero, is a
        SimulationError that names the product, and exits 2 with no
        output."""
        match = f"^{re.escape(message)}$"
        with pytest.raises(rb.SimulationError, match=match):
            rb.estimate_tachyonic_scale(float(mass), float(gravity))
        argv = ["estimate", "--mass", mass, "--gravity", gravity]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


_DEGENERACIES = {
    "DegenerateCollisionError", "TripleCollisionError", "PoleError",
    "SimulationError",
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "name", sorted(n for n in rb.__all__ if n.endswith("Error"))
    )
    def test_each_error_class_carries_its_exit_code(
        self, monkeypatch, capsys, name
    ):
        """2 for the four degeneracies, 1 for every other error class."""
        cls = getattr(rb, name)

        def raising(*_):
            raise cls("boom")

        monkeypatch.setattr(cli, "estimate_tachyonic_scale", raising)
        expected = 2 if name in _DEGENERACIES else 1
        assert cls.exit_code == expected
        assert main(["estimate", "--mass", "1"]) == expected
        assert capsys.readouterr() == ("", "error: boom\n")


def _fresh_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the console script run on ``argv`` in a new
    Python process, which imports the package that this one imported."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    script = "import sys; from relbilliards.cli import entrypoint; entrypoint()"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    return done.returncode, done.stdout


class TestParserReuse:
    def test_reused_parser_behaves_as_a_fresh_one(self, capsys):
        """``main`` builds its parser once per process. A usage error, an
        error exit and a run, one after another in this process, exit and
        print as each does in a new process."""
        runs = [
            ["period", "--mu", "4"],  # usage: missing required options
            ["tachyon-scan", "--mu", "1", "--e-total", "1",
             "--sigma1", "0.5", "--steps", "10"],
            ["period", "--mu", "4", "--e-total", "1", "--sigma1", "1",
             "--x1", "-1"],
        ]
        seen = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, capsys.readouterr().out))
        assert [code for code, _ in seen] == [1, 2, 0]
        assert seen == [_fresh_process(argv) for argv in runs]
        assert cli._parser() is cli._parser()


class TestWriteAtomic:
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A write that fails before the rename re-raises, leaves the old
        file as it was and removes its temp file."""
        path = tmp_path / "events.csv"
        path.write_text("old\n")

        def failing(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(serialize.os, "replace", failing)
        with pytest.raises(OSError, match="^replace failed$"):
            serialize.write_atomic(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv"]

    def test_new_file_has_the_mode_open_gives(self, tmp_path):
        """The file gets 0o666 less the umask, as ``open(path, "w")``
        gives it, not mkstemp's 0o600."""
        opened = tmp_path / "opened.csv"
        with open(opened, "w") as handle:
            handle.write("text\n")
        written = tmp_path / "events.csv"
        serialize.write_atomic(str(written), "text\n")
        assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(
            opened.stat().st_mode
        )


class TestRenderCommand:
    def _events(self, text=MIRROR_CYCLE, events=30):
        config = parse_config(text)
        state0 = initial_state(config)
        _, log = rb.simulate(state0, max_events=events)
        return log

    def test_render_from_csv(self, tmp_path):
        cfg = write(tmp_path, "s.ini", MIRROR_CYCLE)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rc = main(["render", "--log", str(tmp_path / "events.csv"),
                   "--out", str(tmp_path)])
        assert rc == 0
        svg = (tmp_path / "spacetime.svg").read_text()
        assert svg.count("<polyline") == 4

    @pytest.mark.parametrize(
        "arithmetic, damage, where",
        [
            # a zero denominator in the first row's event time
            (
                "rational",
                lambda rows: rows[:2]
                + ["0,1/0," + rows[2].split(",", 2)[2]]
                + rows[3:],
                "line 3, t: ",
            ),
            # a row with only 4 fields
            ("float", lambda rows: rows + ["3,1.0,0,1"], "line 6: "),
            # an arithmetic tag the reader does not know
            (
                "float",
                lambda rows: [rows[0].replace("float", "decimal")] + rows[1:],
                "line 1: ",
            ),
            # a flag that is neither true nor false
            (
                "float",
                lambda rows: rows[:3]
                + [re.sub(r",(true|false),", ",maybe,", rows[3], count=1)]
                + rows[4:],
                "line 4, tachyonic: expected boolean, got 'maybe'",
            ),
        ],
        ids=["zero-denominator", "short-row", "decimal-tag", "bad-flag"],
    )
    def test_malformed_log_is_validation_error(
        self, tmp_path, capsys, arithmetic, damage, where
    ):
        config = MIRROR_CYCLE.replace(
            "events = 30", f"events = 30\narithmetic = {arithmetic}"
        )
        rows = events_to_csv(self._events(config, 3), arithmetic).splitlines()
        log = tmp_path / "events.csv"
        log.write_text("\n".join(damage(rows)) + "\n")
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "spacetime.svg").exists()

    def test_fields_over_the_csv_field_limit(self, tmp_path, capsys, wide_log):
        _, text = wide_log
        log = tmp_path / "events.csv"
        log.write_text(text)
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 0
        svg = tmp_path / "spacetime.svg"
        assert svg.read_text().count("<polyline") == 2
        svg.unlink()
        log.write_text(_quote_wide_field(text))
        capsys.readouterr()
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 3: field larger than field limit" in err
        assert not svg.exists()

    def test_value_beyond_float_range(self, tmp_path, capsys):
        """A valid rational log of two massless particles meeting at
        x = 10**400 cannot be drawn in floats: exit 1, naming the value."""
        far = Fraction(10) ** 400
        start = rb.BilliardState(
            (
                rb.massless(Fraction(1), 1, x=far - 1, label=0),
                rb.massless(Fraction(1), -1, x=far + 1, label=1),
            ),
            Fraction(0),
        )
        _, events = rb.simulate(start, max_events=1)
        log = tmp_path / "events.csv"
        log.write_text(events_to_csv(events, "rational"))
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"cannot draw {10**400}: out of float range" in err
        assert not (tmp_path / "spacetime.svg").exists()

    def test_log_without_header_is_validation_error(self, tmp_path, capsys):
        log = tmp_path / "events.csv"
        log.write_text("# relbilliards-events-v1 arithmetic=float\n")
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 1
        assert "unexpected column layout" in capsys.readouterr().err

    def test_deterministic_bytes(self):
        log = self._events()
        assert render_spacetime(log) == render_spacetime(log)

    def test_tachyonic_markers(self):
        log = self._events()
        svg = render_spacetime(log)
        expected = sum(1 for e in log if e.tachyonic)
        assert svg.count("<circle") == expected
        assert expected > 0

    def test_single_collision_two_worldlines(self):
        log = self._events(ZERO_ENERGY_COLLISION, events=1)
        lines, markers = worldlines(log)
        assert set(lines) == {0, 1}
        assert all(len(pts) == 3 for pts in lines.values())
        assert len(markers) == 1

    def test_escape_orbit_final_slopes(self):
        """Outer worldlines straighten to the escape velocity for positive
        discriminant."""
        escape = MIRROR_CYCLE.replace("mu = 4", "mu = 0.75").replace(
            "events = 30", "events = 60"
        )
        log = self._events(escape, events=60)
        lines, _ = worldlines(log)
        (t0, x0), (t1, x1) = lines[0][-2:]
        v = (x1 - x0) / (t1 - t0)
        assert v == pytest.approx(-0.5, abs=1e-6)
        (t0, x0), (t1, x1) = lines[3][-2:]
        assert (x1 - x0) / (t1 - t0) == pytest.approx(0.5, abs=1e-6)

    def test_empty_log_rejected(self):
        with pytest.raises(rb.ConfigError):
            render_spacetime([])

    def test_backward_log_draws_in_time_order(self):
        """The forward and the backward log of one history give the same
        worldlines: each end segment takes the velocity on its own side of
        the event in time, not in traversal order."""
        a = rb.ParticleState(
            E=Fraction(1), P=Fraction(1, 2), mu=Fraction(3, 4), x=Fraction(0),
            label=0,
        )
        b = rb.ParticleState(
            E=Fraction(2), P=Fraction(-1), mu=Fraction(3), x=Fraction(1),
            label=1,
        )
        start = rb.BilliardState((a, b), t=Fraction(0))
        end, forward = rb.simulate(start, t_limit=Fraction(2))
        _, backward = rb.simulate(end, "backward", t_limit=Fraction(0))
        assert len(forward) == len(backward) == 1
        lines, _ = worldlines(forward)
        assert worldlines(backward)[0] == lines
        assert lines[0][0] == (0.95, 0.475)


def _damaged_log(tmp_path, **fields):
    """A float log of the mu=4 mirror run whose first row has ``fields``
    replaced."""
    config = parse_config(MIRROR_CYCLE)
    _, log = rb.simulate(initial_state(config), max_events=3)
    lines = events_to_csv(log).splitlines()
    header, row = lines[1].split(","), lines[2].split(",")
    for key, value in fields.items():
        row[header.index(key)] = value
    lines[2] = ",".join(row)
    return write(tmp_path, "events.csv", "\n".join(lines) + "\n")


class TestInputAtTheEdge:
    """A number that is not finite, or a malformed pair, in a scenario, a
    log, a grid or an option: exit 1, and a message naming where."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                lambda tmp: ["simulate", "--out", str(tmp), "--config",
                             write(tmp, "s.ini",
                                   _general("E = 1", "E = nan"))],
                "[particle 1].E: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["simulate", "--out", str(tmp), "--config",
                             write(tmp, "s.ini",
                                   _mirror("events = 30",
                                           "events = 30\noutputs = events%"))],
                "scenario.outputs: expected from ('events', 'svg'), "
                "got 'events%'",
            ),
            (
                lambda tmp: ["simulate", "--out", str(tmp), "--config",
                             write(tmp, "s.ini",
                                   _mirror("mu = 4", "mu = 4%(x)s"))],
                "mirror.mu: cannot parse number '4%(x)s'",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, t="nan")],
                "line 3, t: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, x="inf")],
                "line 3, x: expected a finite number, got 'inf'",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, t="nan", x="inf")],
                "line 3, t: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, i="x")],
                "line 3: expected adjacent indices i, i + 1, got ('x', '2')",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, i="7", j="9")],
                "line 3: expected adjacent indices i, i + 1, got ('7', '9')",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, i="-1", j="0")],
                "line 3: expected adjacent indices i, i + 1, got ('-1', '0')",
            ),
            (
                lambda tmp: ["render", "--out", str(tmp), "--log",
                             _damaged_log(tmp, k="banana")],
                "line 3, k: cannot parse number 'banana'",
            ),
            (
                lambda tmp: ["tachyon-scan", "--mu", "nan,1", "--e-total",
                             "1", "--sigma1", "3", "--steps", "10"],
                "--mu: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["tachyon-scan", "--mu", "1", "--e-total", "1",
                             "--sigma1", "3,x"],
                "--sigma1: cannot parse number 'x'",
            ),
            (
                lambda tmp: ["tachyon-scan", "--mu", "1", "--e-total", "1",
                             "--sigma1", "0"],
                "sigma1 must be nonzero",
            ),
            (
                lambda tmp: ["cross-check", "--events", "20", "--tol", "nan",
                             "--config",
                             write(tmp, "s.ini",
                                   _mirror("mu = 4", "mu = 4.005"))],
                "--tol: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["period", "--mu", "nan", "--e-total", "1",
                             "--sigma1", "1", "--x1", "-1"],
                "--mu: expected a finite number, got 'nan'",
            ),
            (
                lambda tmp: ["period", "--mu", "4", "--e-total", "1",
                             "--sigma1", "1", "--x1=-1e999"],
                "--x1: expected a finite number, got '-1e999'",
            ),
            (
                lambda tmp: ["estimate", "--mass", "inf"],
                "--mass: expected a finite number, got 'inf'",
            ),
            (
                lambda tmp: ["estimate", "--mass", "1", "--gravity", "g"],
                "--gravity: cannot parse number 'g'",
            ),
        ],
        ids=[
            "ini-nan", "ini-percent", "ini-percent-key", "csv-t-nan",
            "csv-x-inf", "csv-t-before-x",
            "csv-i-not-int",
            "csv-pair-not-adjacent", "csv-pair-negative", "csv-k-word",
            "grid-nan",
            "grid-word", "grid-sigma1-zero", "cross-check-tol-nan",
            "period-mu-nan", "period-x1-overflow", "estimate-mass-inf",
            "estimate-gravity-word",
        ],
    )
    def test_rejected(self, tmp_path, capsys, argv, message):
        assert main(argv(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")
        assert not (tmp_path / "spacetime.svg").exists()


class TestLogParticleData:
    """A log row whose particle data breaks mu = E**2 - P**2, or has zero
    energy, is a ConfigError naming its line, as every other log error is;
    ``render --log`` exits 1 with it."""

    def _log(self, tmp_path, arithmetic, **fields):
        config = MIRROR_CYCLE.replace(
            "events = 30", f"events = 30\narithmetic = {arithmetic}"
        )
        _, log = rb.simulate(initial_state(parse_config(config)), max_events=3)
        lines = events_to_csv(log, arithmetic).splitlines()
        header, row = lines[1].split(","), lines[3].split(",")
        for key, value in fields.items():
            row[header.index(key)] = value
        lines[3] = ",".join(row)
        return write(tmp_path, "events.csv", "\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "arithmetic, fields, message",
        [
            (
                "rational",
                {"mu_i": "1"},
                "line 4: particle 0: mu != E**2 - P**2 (off by 3)",
            ),
            (
                "float",
                {"mu_i": "1.0"},
                "line 4: particle 0: mu inconsistent with E, P "
                "(drift 3.000e+00 at scale 9.500e+00)",
            ),
            (
                "rational",
                {"E_j_post": "0"},
                "line 4: particle 1: energy must be nonzero",
            ),
            (
                "float",
                {"E_i_pre": "0.0"},
                "line 4: particle 0: energy must be nonzero",
            ),
        ],
        ids=["rational-mu", "float-mu", "rational-zero-E", "float-zero-E"],
    )
    def test_line_named(self, tmp_path, capsys, arithmetic, fields, message):
        path = self._log(tmp_path, arithmetic, **fields)
        with open(path) as handle:
            text = handle.read()
        with pytest.raises(rb.ConfigError) as info:
            events_from_csv(text)
        assert str(info.value) == message
        rc = main(["render", "--log", path, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "spacetime.svg").exists()

    def test_line_named_over_the_digit_limit(self, tmp_path, capsys):
        """An energy of 5,001 digits that breaks mu = E**2 - P**2: the
        drift is too long for ``str``, and the error still names its
        line."""
        E = 10**5000
        path = self._log(tmp_path, "rational", E_i_pre="1" + "0" * 5000)
        with open(path) as handle:
            text = handle.read()
        row = list(csv.DictReader(text.splitlines()[1:]))[1]  # line 4
        P, mu = Fraction(row["P_i_pre"]), Fraction(row["mu_i"])
        message = (
            "line 4: particle 0: mu != E**2 - P**2 "
            f"(off by {format_number((E - P) * (E + P) - mu)})"
        )
        with pytest.raises(rb.ConfigError) as info:
            events_from_csv(text)
        assert str(info.value) == message
        rc = main(["render", "--log", path, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


#: The numeric columns of an event row, and its four (E, P, mu) triples.
_NUMBER_COLUMNS = (
    "t", "x", "E_i_pre", "P_i_pre", "mu_i", "E_j_pre", "P_j_pre", "mu_j",
    "E_i_post", "P_i_post", "E_j_post", "P_j_post",
)
_TRIPLES = (
    ("E_i_pre", "P_i_pre", "mu_i"),
    ("E_j_pre", "P_j_pre", "mu_j"),
    ("E_i_post", "P_i_post", "mu_i"),
    ("E_j_post", "P_j_post", "mu_j"),
)


class TestLogWrittenOnce:
    """``events_to_csv`` formats each number object of a log once per
    call, and each number keeps its own text."""

    def test_each_number_object_formatted_once(self, monkeypatch):
        """The rational mu=5/4 mirror log of 1200 events, with its mirror
        columns."""
        params, m0 = rb.mirror_initial(
            Fraction(5, 4), Fraction(1), Fraction(1, 3), Fraction(-1),
            t0=Fraction(0),
        )
        _, log = rb.simulate(rb.billiard_from_mirror(params, m0),
                             max_events=1200)
        rows = rb.mirror.mirror_columns(log, m0)
        numbers = {
            id(value): value
            for e in log
            for value in (e.t, e.x, *(
                getattr(p, key) for p in e.pre + e.post
                for key in ("E", "P", "mu")
            ))
        }
        numbers.update((id(v), v) for row in rows for v in row.values())
        assert len(numbers) < (len(_NUMBER_COLUMNS) + 4) * len(log)
        text = events_to_csv(log, "rational", rows)
        formatted = []
        format_number = serialize.format_number

        def formatting(value):
            formatted.append(value)
            return format_number(value)

        monkeypatch.setattr(serialize, "format_number", formatting)
        assert events_to_csv(log, "rational", rows) == text
        assert sorted(map(id, formatted)) == sorted(numbers)

    def test_equal_numbers_keep_their_text(self):
        """0.0 and -0.0, and 1, 1.0 and Fraction(1), compare equal and are
        written differently; so is each of a log given as a generator,
        whose records are built as it is read."""
        def log():
            for k in range(50):
                zero, one = (0.0, 1.0) if k % 2 else (-0.0, 1)
                p = rb.ParticleState(one, zero, one, zero, 0)
                q = rb.ParticleState(Fraction(one), Fraction(0), one, zero, 1)
                yield rb.CollisionEvent(
                    float(k), (0, 1), zero, (p, q), (q, p), False,
                    (False, False),
                )

        rows = events_to_csv(log()).splitlines()[2:]
        for k, row in enumerate(rows):
            zero, one = ("0.0", "1.0") if k % 2 else ("-0.0", "1")
            assert row.split(",")[1:17] == [
                f"{k}.0", "0", "1", zero, one, zero, one, "1", "0", one,
                "1", "0", one, zero, "false", "false",
            ]


class TestLogReadOnce:
    """``events_from_csv`` parses each distinct field text of a file once
    and checks each distinct (E, P, mu) text triple once, counted as
    ``TestObjectCost`` counts objects; every check keeps its meaning."""

    def test_each_text_parsed_and_each_state_checked_once(self, monkeypatch):
        """The rational mu=5/4 mirror log of 1200 events."""
        params, m0 = rb.mirror_initial(
            Fraction(5, 4), Fraction(1), Fraction(1, 3), Fraction(-1),
            t0=Fraction(0),
        )
        _, log = rb.simulate(rb.billiard_from_mirror(params, m0),
                             max_events=1200)
        text = events_to_csv(log, "rational")
        rows = list(csv.DictReader(text.splitlines()[1:]))
        texts = {row[key] for row in rows for key in _NUMBER_COLUMNS}
        triples = {
            tuple(row[key] for key in triple)
            for row in rows for triple in _TRIPLES
        }
        assert len(texts) < len(_NUMBER_COLUMNS) * len(rows)
        assert len(triples) < len(_TRIPLES) * len(rows)
        parsed, checked = [], []
        parse = serialize.parse_number
        validate = rb.ParticleState._validate

        def parsing(text, arithmetic, where):
            parsed.append(text)
            return parse(text, arithmetic, where)

        def validating(self, drift_tol):
            checked.append(self)
            validate(self, drift_tol)

        monkeypatch.setattr(serialize, "parse_number", parsing)
        monkeypatch.setattr(rb.ParticleState, "_validate", validating)
        events, arithmetic = events_from_csv(text)
        assert (events, arithmetic) == (log, "rational")
        assert sorted(parsed) == sorted(texts)
        assert len(checked) == len(triples)

    def _lines(self, arithmetic, damage):
        """The text of a 3-event log of the mu=4 mirror run, with
        ``damage`` mapping a line number (3 to 5) to its new fields."""
        config = parse_config(MIRROR_CYCLE, arithmetic)
        _, log = rb.simulate(initial_state(config), max_events=3)
        lines = events_to_csv(log, arithmetic).splitlines()
        header = lines[1].split(",")
        for line_no, fields in damage.items():
            row = lines[line_no - 1].split(",")
            for key, value in fields.items():
                row[header.index(key)] = value
            lines[line_no - 1] = ",".join(row)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "lines, first, label", [((3, 4), 3, 2), ((4, 5), 4, 1)]
    )
    def test_bad_state_on_two_lines_names_the_first(self, lines, first, label):
        bad = {"E_j_pre": "-1.5", "P_j_pre": "1.0", "mu_j": "0.0"}
        text = self._lines("float", dict.fromkeys(lines, bad))
        with pytest.raises(rb.ConfigError) as info:
            events_from_csv(text)
        assert str(info.value) == (
            f"line {first}: particle {label}: mu inconsistent with E, P "
            "(drift 1.250e+00 at scale 3.250e+00)"
        )

    @pytest.mark.parametrize(
        "key, value",
        [("E_j_pre", "-2.0"), ("P_j_pre", "1.0"), ("mu_j", "0.5")],
    )
    def test_each_part_of_a_checked_state_counts(self, key, value):
        """Line 3's j state (-1.5, 1.5, 0.0) passes; line 4's, the same
        but for one text, is checked again."""
        text = self._lines("float", {4: {key: value}})
        with pytest.raises(
            rb.ConfigError, match="^line 4: particle 1: mu inconsistent"
        ):
            events_from_csv(text)

    def test_equal_rationals_spelled_two_ways(self):
        text = self._lines("rational", {3: {"x": "1/2"}, 4: {"x": "2/4"}})
        events, _ = events_from_csv(text)
        assert events[0].x == events[1].x == Fraction(1, 2)
        assert events[0].pre[0].x == events[1].post[1].x == Fraction(1, 2)

    @pytest.mark.parametrize("first", ["-0.0", "0.0"])
    def test_signed_zeros_keep_their_signs(self, first):
        second = "0.0" if first == "-0.0" else "-0.0"
        text = self._lines("float", {3: {"x": first}, 4: {"x": second}})
        events, _ = events_from_csv(text)
        for event, spelled in zip(events, (first, second)):
            sign = -1.0 if spelled.startswith("-") else 1.0
            for x in (event.x, *(p.x for p in event.pre + event.post)):
                assert math.copysign(1.0, x) == sign

    @settings(max_examples=60, deadline=None)
    @given(mixed_gases(), st.sampled_from(("forward", "backward")))
    def test_mixed_gas_logs_round_trip_bit_for_bit(self, start, direction):
        log, state = [], start
        try:
            for _ in range(30):
                state, batch = rb.step(state, direction)
                log.extend(batch)
        except rb.BilliardError:
            pass
        text = events_to_csv(log)
        events, _ = events_from_csv(text)
        assert events == log
        assert events_to_csv(events) == text
