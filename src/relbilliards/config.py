"""Scenario configuration: a small INI dialect, versionable and diffable.

Two modes. A general scenario lists explicit particles::

    [scenario]
    mode = general
    arithmetic = float
    direction = forward
    events = 10

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

(either P or v per particle; v fixes P = E * v). A mirror scenario gives
the reduced data instead::

    [scenario]
    mode = mirror
    events = 30

    [mirror]
    mu = 4
    E_total = 1
    sigma1 = 1
    x1 = -1

``arithmetic = rational`` parses every number as an exact fraction
(accepting both "3/2" and "1.5" spellings) and runs the whole scenario
exactly. ``simulate`` always writes events.csv; ``outputs`` lists
"events" (the default) and may add "svg", the spacetime diagram.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BilliardError, ConfigError
from .kinematics import ParticleState
from .mirror import MirrorParams, MirrorState, billiard_from_mirror, mirror_initial
from .numeric import ARITHMETICS, Number, parse_number
from .simulator import BilliardState

_MODES = ("general", "mirror")
_DIRECTIONS = ("forward", "backward")
_OUTPUTS = ("events", "svg")


@dataclass(frozen=True)
class ScenarioConfig:
    mode: str
    arithmetic: str = "float"
    direction: str = "forward"
    max_events: Optional[int] = None
    t_limit: Optional[Number] = None
    outputs: tuple[str, ...] = ("events",)
    particles: tuple[ParticleState, ...] = ()
    mirror: Optional[tuple[MirrorParams, MirrorState]] = None


def _get(section, key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return section[key]


def _number(section, key: str, where: str, arithmetic: str) -> Number:
    """The required number ``key`` of the section named ``where``."""
    text = _get(section, key, where)
    return parse_number(text, arithmetic, f"{where}.{key}")


def _choice(key: str, value: str, allowed: tuple[str, ...]) -> str:
    """``value`` of the scenario option ``key``; ConfigError unless it is
    one of ``allowed``."""
    if value not in allowed:
        raise ConfigError(
            f"scenario.{key}: expected one of {allowed}, got {value!r}"
        )
    return value


def parse_config(text: str, arithmetic: Optional[str] = None) -> ScenarioConfig:
    """Parse and validate a scenario file's contents.

    ``arithmetic`` overrides the file's own setting (used by the CLI
    flag); it must be given before parsing since it decides how every
    number in the file is read.
    """
    # No interpolation: a % in a value is plain text.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    if "scenario" not in parser:
        raise ConfigError("scenario: missing [scenario] section")
    sc = parser["scenario"]

    mode = _choice("mode", _get(sc, "mode", "scenario").strip(), _MODES)
    if arithmetic is None:
        arithmetic = sc.get("arithmetic", "float").strip()
    arithmetic = _choice("arithmetic", arithmetic, ARITHMETICS)
    direction = sc.get("direction", "forward").strip()
    direction = _choice("direction", direction, _DIRECTIONS)

    max_events = None
    if "events" in sc:
        try:
            max_events = int(sc["events"])
        except ValueError as exc:
            raise ConfigError("scenario.events: expected an integer") from exc
        if max_events < 0:
            raise ConfigError("scenario.events: must be nonnegative")
    t_limit = None
    if "t_limit" in sc:
        t_limit = parse_number(sc["t_limit"], arithmetic, "scenario.t_limit")
    if max_events is None and t_limit is None:
        raise ConfigError("scenario: need an events or t_limit stop rule")

    outputs = tuple(
        token.strip()
        for token in sc.get("outputs", "events").split(",")
        if token.strip()
    )
    for token in outputs:
        if token not in _OUTPUTS:
            raise ConfigError(
                f"scenario.outputs: expected from {_OUTPUTS}, got {token!r}"
            )

    particles, pair = (), None
    if mode == "general":
        particles = _parse_particles(parser, arithmetic)
    elif "mirror" not in parser:
        raise ConfigError("mirror: missing [mirror] section")
    else:
        numbers = [
            _number(parser["mirror"], key, "mirror", arithmetic)
            for key in ("mu", "E_total", "sigma1", "x1")
        ]
        pair = mirror_initial(*numbers, t0=_zero(arithmetic))
    return ScenarioConfig(
        mode=mode,
        arithmetic=arithmetic,
        direction=direction,
        max_events=max_events,
        t_limit=t_limit,
        outputs=outputs,
        particles=particles,
        mirror=pair,
    )


def _parse_particles(
    parser: configparser.ConfigParser, arithmetic: str
) -> tuple[ParticleState, ...]:
    sections = []
    for name in parser.sections():
        if not name.startswith("particle"):
            continue
        suffix = name[len("particle"):].strip()
        try:
            order = int(suffix)
        except ValueError as exc:
            raise ConfigError(
                f"[{name}]: particle sections are named 'particle <int>'"
            ) from exc
        sections.append((order, name))
    sections.sort()
    if not sections:
        raise ConfigError("general mode: at least one [particle N] section")
    if len(sections) < 2:
        raise ConfigError("general mode: need at least two particles")

    particles = []
    for label, (_, name) in enumerate(sections):
        sec = parser[name]
        where = f"[{name}]"
        E, mu, x = (
            _number(sec, key, where, arithmetic) for key in ("E", "mu", "x")
        )
        if "P" in sec and "v" in sec:
            raise ConfigError(f"{where}: give P or v, not both")
        if "P" in sec:
            P = parse_number(sec["P"], arithmetic, f"{where}.P")
        elif "v" in sec:
            P = E * parse_number(sec["v"], arithmetic, f"{where}.v")
        else:
            raise ConfigError(f"{where}: missing P (or v)")
        try:
            particles.append(ParticleState(E=E, P=P, mu=mu, x=x, label=label))
        except (ValueError, BilliardError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    xs = [p.x for p in particles]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ConfigError("general mode: positions must be nondecreasing")
    return tuple(particles)


def initial_state(config: ScenarioConfig) -> BilliardState:
    """The billiard state a scenario starts from."""
    if config.mode == "general":
        return BilliardState(config.particles, t=_zero(config.arithmetic))
    params, state = config.mirror
    return billiard_from_mirror(params, state)


def _zero(arithmetic: str) -> Number:
    return Fraction(0) if arithmetic == "rational" else 0.0
