"""Command-line front end.

Subcommands: simulate, mirror, cross-check, period, tachyon-scan,
estimate, render. Exit codes: 0 success, 1 validation error, 2 simulation
degeneracy (triple collision, zero-rest-mass pair, map pole), 3
cross-check tolerance failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import replace
from typing import Optional

from . import mirror as mr
from .config import ScenarioConfig, initial_state, parse_config
from .errors import (
    BilliardError,
    ConfigError,
    DegenerateCollisionError,
    PoleError,
    SimulationError,
    TripleCollisionError,
)
from .numeric import format_number, parse_number, repr_number
from .render import render_spacetime
from .scale import GRAVITY_M_PER_KG, estimate_tachyonic_scale
from .serialize import (
    events_from_csv,
    events_to_csv,
    format_bool,
    mirror_trajectory_to_csv,
    write_atomic,
)
from .simulator import simulate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DEGENERATE = 2
EXIT_CROSS_CHECK = 3

_DEGENERATE = (
    DegenerateCollisionError,
    TripleCollisionError,
    PoleError,
    SimulationError,
)


#: An argument that is a negative number, not an option. argparse's own
#: pattern takes ``-1e-3`` for an option; this one also reads exponents.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with code 2 on usage errors; keep 2 for degeneracies
    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _run_simulate(args) -> int:
    config = _load_config(args)
    state0 = initial_state(config)
    state, events = simulate(
        state0,
        config.direction,
        max_events=config.max_events,
        t_limit=config.t_limit,
    )
    rows = None
    if config.mode == "mirror":
        rows = mr.mirror_columns(*config.mirror, state0, events)
    text = events_to_csv(events, config.arithmetic, rows)
    out = os.path.join(args.out, "events.csv")
    write_atomic(out, text)
    t = repr_number(state.t)
    print(f"wrote {out} ({len(events)} events, final t = {t})")
    if "svg" in config.outputs:
        svg = render_spacetime(events)
        svg_path = os.path.join(args.out, "spacetime.svg")
        write_atomic(svg_path, svg)
        print(f"wrote {svg_path}")
    return EXIT_OK


def _run_mirror(args) -> int:
    config = _load_config(args)
    if config.mode != "mirror":
        raise ConfigError("mirror subcommand needs a mirror-mode config")
    if config.max_events is None:
        raise ConfigError("mirror subcommand needs an events stop rule")
    params, state = config.mirror
    n_fwd = config.max_events if config.direction == "forward" else 0
    n_bwd = config.max_events if config.direction == "backward" else 0
    states = mr.reduced_trajectory(params, state, n_fwd, n_bwd)
    text = mirror_trajectory_to_csv(states, params.k, config.arithmetic)
    out = os.path.join(args.out, "mirror.csv")
    write_atomic(out, text)
    print(f"wrote {out} ({len(states)} collision states)")
    return EXIT_OK


def _run_cross_check(args) -> int:
    config = _load_config(args)
    if config.mode != "mirror":
        raise ConfigError("cross-check needs a mirror-mode config")
    if config.max_events is None:
        raise ConfigError("cross-check needs an event count")
    params, state0 = config.mirror
    report = mr.cross_check(params, state0, config.max_events, tol=args.tol)
    text = report.render()
    if args.out:
        path = os.path.join(args.out, "report.txt")
        write_atomic(path, text)
        print(f"wrote {path}")
    sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_CROSS_CHECK


def _run_period(args) -> int:
    params, state0 = mr.mirror_initial(
        args.mu, args.e_total, args.sigma1, args.x1
    )
    found = mr.period(params, b_max=args.b_max, tol=args.tol)
    if found is None:
        print(f"aperiodic within b_max={args.b_max} (tol {args.tol:g})")
        return EXIT_OK
    states = mr.reduced_trajectory(params, state0, found.b)
    simulated_T = states[-1].t - states[0].t
    print(
        f"b={found.b}, a={found.a}, T={found.T:.9g}; "
        f"simulated {float(simulated_T):.9f}"
    )
    return EXIT_OK


def _parse_grid(text: str, name: str) -> list[float]:
    tokens = [token for token in text.split(",") if token.strip()]
    if not tokens:
        raise ConfigError(f"--{name}: empty grid")
    return [parse_number(token, "float", f"--{name}") for token in tokens]


def _run_tachyon_scan(args) -> int:
    mus = _parse_grid(args.mu, "mu")
    energies = _parse_grid(args.e_total, "e-total")
    sigmas = _parse_grid(args.sigma1, "sigma1")
    lines = ["mu,E_total,sigma1_0,delta,classification,count,consecutive,agrees"]
    disagreements = 0
    for mu in mus:
        for e_total in energies:
            for sigma1_0 in sigmas:
                params = mr.MirrorParams(mu, e_total)
                label = mr.classify_tachyonic(params, sigma1_0)
                count, consecutive = mr.tachyonic_census(
                    params, sigma1_0, args.steps
                )
                agrees = mr.census_agrees(label, count, consecutive)
                disagreements += 0 if agrees else 1
                numbers = (mu, e_total, sigma1_0, params.delta)
                lines.append(",".join([
                    *map(format_number, numbers), label.value, str(count),
                    format_bool(consecutive), format_bool(agrees),
                ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        path = os.path.join(args.out, "tachyon_scan.csv")
        write_atomic(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    print(f"{disagreements} disagreement(s)")
    return EXIT_OK if disagreements == 0 else EXIT_CROSS_CHECK


def _run_estimate(args) -> int:
    bound = estimate_tachyonic_scale(args.mass, args.gravity)
    print("bound = 2 * G * m")
    print(f"G = {args.gravity:.6g} m/kg (c = 1 units)")
    print(f"m = {args.mass:.6g} kg")
    print(f"bound = {bound:.6g} m (~ {bound:.1e} m)")
    return EXIT_OK


def _run_render(args) -> int:
    with open(args.log, "r") as handle:
        events, _ = events_from_csv(handle.read())
    svg = render_spacetime(events)
    path = os.path.join(args.out, "spacetime.svg")
    write_atomic(path, svg)
    print(f"wrote {path}")
    return EXIT_OK


def _load_config(args) -> ScenarioConfig:
    try:
        with open(args.config, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    config = parse_config(text, arithmetic=args.arithmetic)
    if args.events is not None:
        config = replace(config, max_events=args.events)
    return config


def _count(text: str) -> int:
    """argparse type for event and step counts: an integer >= 0."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a nonnegative integer, got {text!r}"
    )


def _add_number(parser, flag: str, **kwargs) -> None:
    """Add the float option ``flag``, read by ``parse_number``."""
    parser.add_argument(
        flag, type=lambda text: parse_number(text, "float", flag), **kwargs
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="relbilliards")
    sub = parser.add_subparsers(dest="command", required=True)

    # options of the subcommands that read a scenario config
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True)
    scenario.add_argument("--arithmetic", choices=("float", "rational"))
    scenario.add_argument("--events", type=_count)

    sim = sub.add_parser(
        "simulate", parents=[scenario], help="run a scenario, write events.csv"
    )
    sim.add_argument("--out", default=".")
    sim.set_defaults(func=_run_simulate)

    mirror_cmd = sub.add_parser(
        "mirror",
        parents=[scenario],
        help="run the reduced collision map, write mirror.csv",
    )
    mirror_cmd.add_argument("--out", default=".")
    mirror_cmd.set_defaults(func=_run_mirror)

    check = sub.add_parser(
        "cross-check",
        parents=[scenario],
        help="compare the full simulation against the reduced map",
    )
    _add_number(check, "--tol", default=1e-9)
    check.add_argument("--out")
    check.set_defaults(func=_run_cross_check)

    per = sub.add_parser(
        "period", help="detect rational rotation and report the orbit period"
    )
    for flag in ("--mu", "--e-total", "--sigma1", "--x1"):
        _add_number(per, flag, required=True)
    per.add_argument("--b-max", dest="b_max", type=_count, default=10_000)
    _add_number(per, "--tol", default=1e-9)
    per.set_defaults(func=_run_period)

    scan = sub.add_parser(
        "tachyon-scan",
        help="classify tachyonic collision counts over a parameter grid",
    )
    scan.add_argument("--mu", required=True, help="comma-separated values")
    scan.add_argument("--e-total", dest="e_total", required=True)
    scan.add_argument("--sigma1", required=True)
    scan.add_argument("--steps", type=_count, default=1000)
    scan.add_argument("--out")
    scan.set_defaults(func=_run_tachyon_scan)

    est = sub.add_parser(
        "estimate", help="tachyonic length scale 2*G*m for a real mass"
    )
    _add_number(est, "--mass", required=True, help="mass in kg")
    _add_number(
        est, "--gravity", default=GRAVITY_M_PER_KG,
        help="gravitational constant in m/kg (c = 1 units)",
    )
    est.set_defaults(func=_run_estimate)

    ren = sub.add_parser(
        "render", help="draw a spacetime diagram from an events.csv"
    )
    ren.add_argument("--log", required=True)
    ren.add_argument("--out", default=".")
    ren.set_defaults(func=_run_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _DEGENERATE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (BilliardError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
