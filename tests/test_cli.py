"""Command-line harness: config parsing, artifacts, exit codes."""

import csv
import re
import sys
from fractions import Fraction

import pytest

import relbilliards as rb
from relbilliards.cli import main
from relbilliards.config import initial_state, parse_config
from relbilliards.render import render_spacetime, worldlines
from relbilliards.serialize import events_from_csv, events_to_csv
from test_golden_gas import _fraction_gas

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
        ],
        ids=["mirror-general", "mirror-t_limit", "cross-check-general",
             "cross-check-t_limit"],
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
        ],
        ids=["simulate", "mirror", "cross-check", "tachyon-scan", "period"],
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

    def test_zero_events_trivial_pass(self, tmp_path):
        cfg = write(tmp_path, "m.ini", MIRROR_CYCLE)
        assert main(["cross-check", "--config", cfg, "--events", "0"]) == 0


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

    def test_empty_grid_rejected(self):
        assert main([
            "tachyon-scan", "--mu", ",", "--e-total", "1", "--sigma1", "3",
        ]) == 1


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
            "ini-nan", "csv-t-nan", "csv-x-inf", "csv-i-not-int",
            "csv-pair-not-adjacent", "csv-pair-negative", "grid-nan",
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
