"""Command-line harness: config parsing, artifacts, exit codes."""

import csv

import pytest

import relbilliards as rb
from relbilliards.cli import main
from relbilliards.config import initial_state, parse_config
from relbilliards.render import render_spacetime, worldlines
from relbilliards.serialize import events_from_csv, events_to_csv

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
        "arithmetic, damage, line",
        [
            # a zero denominator in the first row's event time
            (
                "rational",
                lambda rows: rows[:2]
                + ["0,1/0," + rows[2].split(",", 2)[2]]
                + rows[3:],
                3,
            ),
            # a row with only 4 fields
            ("float", lambda rows: rows + ["3,1.0,0,1"], 6),
            # an arithmetic tag the reader does not know
            (
                "float",
                lambda rows: [rows[0].replace("float", "decimal")] + rows[1:],
                1,
            ),
        ],
        ids=["zero-denominator", "short-row", "decimal-tag"],
    )
    def test_malformed_log_is_validation_error(
        self, tmp_path, capsys, arithmetic, damage, line
    ):
        config = MIRROR_CYCLE.replace(
            "events = 30", f"events = 30\narithmetic = {arithmetic}"
        )
        rows = events_to_csv(self._events(config, 3), arithmetic).splitlines()
        log = tmp_path / "events.csv"
        log.write_text("\n".join(damage(rows)) + "\n")
        rc = main(["render", "--log", str(log), "--out", str(tmp_path)])
        assert rc == 1
        assert f"line {line}" in capsys.readouterr().err
        assert not (tmp_path / "spacetime.svg").exists()

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
