"""Event-log and trajectory serialization.

CSV files start with a schema tag line (``# relbilliards-events-v1
arithmetic=float``) followed by an ordinary header row. An event row's
``_pre`` and ``_post`` columns are its pair's states just before and just
after the collision in time, in a forward or a backward log alike (a
backward log written by an earlier version, under the same tag, holds them
in the run's order). Every number goes through the codec of ``numeric``:
``format_number`` writes a float with ``repr``, which round-trips
bit-for-bit, and a rational as a ``p/q`` string of any length;
``parse_number`` reads each field back, a ConfigError naming its line and
column if it is not a finite number (the reduced columns ``sigma1``,
``E2``, ``x1`` and ``k`` may be empty, as general runs write them, and are
checked but not kept); particle data that breaks
``mu = E**2 - P**2`` or has zero energy is one naming its line. A
file's repeated numbers and states are parsed and checked once: each
distinct field text, and each distinct ``(E, P, mu)`` text triple. The
file holds no labels: each state reads back with its particle index as
its label. Parsing a file back therefore reconstructs the event list
exactly when every label is its particle's index, as ``parse_config``
and ``billiard_from_mirror`` make them. ``format_bool`` writes the
flags, also for the ``tachyon-scan`` rows of ``cli``.

Files are written atomically (temp file + rename) so a crashed run never
leaves a half-written artifact.
"""

from __future__ import annotations

import csv
import itertools
import os
import tempfile
from typing import Iterable, Iterator, Optional

from .errors import ConfigError, ValidationError, ZeroEnergyError
from .kinematics import ParticleState
from .mirror import MirrorState
from .numeric import ARITHMETICS, Number, format_number, parse_number
from .simulator import CollisionEvent

EVENTS_SCHEMA = "relbilliards-events-v1"
MIRROR_SCHEMA = "relbilliards-mirror-v1"

_EVENT_FIELDS = [
    "n", "t", "i", "j", "x",
    "E_i_pre", "P_i_pre", "mu_i",
    "E_j_pre", "P_j_pre", "mu_j",
    "E_i_post", "P_i_post",
    "E_j_post", "P_j_post",
    "tachyonic", "sign_flip_i", "sign_flip_j",
    "sigma1", "E2", "x1", "k",
]
_REDUCED_FIELDS = _EVENT_FIELDS[-4:]

_MIRROR_FIELDS = ["n", "t", "sigma1", "E2", "x1", "k"]

# Rows are joined with commas, not written by ``csv.writer``: no field
# that ``format_number`` or ``format_bool`` writes holds a comma, a quote
# or a line break, so the csv module would quote none of them.
_EVENT_HEADER = ",".join(_EVENT_FIELDS)
_MIRROR_HEADER = ",".join(_MIRROR_FIELDS)


def format_bool(value: bool) -> str:
    """The text form of a flag in files: ``true`` or ``false``."""
    return "true" if value else "false"


def _parse_bool(text: str, where: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ConfigError(f"{where}: expected boolean, got {text!r}")


def events_to_csv(
    events: Iterable[CollisionEvent],
    arithmetic: str = "float",
    mirror_rows: Optional[list[dict]] = None,
) -> str:
    """Render an event log as CSV text.

    ``mirror_rows`` optionally supplies the per-event reduced coordinates
    (dicts with sigma1/E2/x1/k) for mirror-mode runs; general runs leave
    those columns empty.
    """
    # Each number object is written once per call, keyed by identity: equal
    # numbers such as 0.0 and -0.0, or 1 and Fraction(1), are written
    # differently. The ids stay distinct because ``log`` and ``mirror_rows``
    # hold every value until the call returns.
    log = list(events)
    texts: dict[int, str] = {}

    def fmt(value: Number) -> str:
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = format_number(value)
        return text

    lines = [f"# {EVENTS_SCHEMA} arithmetic={arithmetic}", _EVENT_HEADER]
    for n, event in enumerate(log):
        pre_i, pre_j = event.pre
        post_i, post_j = event.post
        i, j = event.pair
        row = [
            str(n), fmt(event.t), str(i), str(j),
            *map(fmt, (
                event.x,
                pre_i.E, pre_i.P, pre_i.mu,
                pre_j.E, pre_j.P, pre_j.mu,
                post_i.E, post_i.P,
                post_j.E, post_j.P,
            )),
            format_bool(event.tachyonic),
            format_bool(event.sign_flips[0]),
            format_bool(event.sign_flips[1]),
        ]
        if mirror_rows is None:
            row += ["", "", "", ""]
        else:
            extra = mirror_rows[n]
            row += map(fmt, (
                extra["sigma1"], extra["E2"], extra["x1"], extra["k"]
            ))
        lines.append(",".join(row))
    lines.append("")
    return "\n".join(lines)


def _records(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The CSV records in ``lines``, each with the number of its last line
    in the file (the schema tag is line 1).

    A line without a quote character is split at its commas, which is how
    the ``csv`` module reads it, but without that module's field size
    limit: a rational that ``events_to_csv`` wrote may exceed it, and the
    limit is process-wide, so it is left as it is. A quoted record, which
    may span lines, still goes through ``csv.reader``; a field of it over
    the limit is a ConfigError.
    """
    rest = iter(lines)
    num = 1
    for line in rest:
        num += 1
        if '"' not in line:
            yield num, line.split(",") if line else []
            continue
        reader = csv.reader(itertools.chain([line], rest))
        try:
            row = next(reader)
        except csv.Error as exc:
            raise ConfigError(f"line {num}: {exc}") from exc
        num += reader.line_num - 1
        yield num, row


def events_from_csv(text: str) -> tuple[list[CollisionEvent], str]:
    """Parse CSV text back into an event log. Returns (events, arithmetic)."""
    lines = text.splitlines()
    # the tag, then a space or the end of the line: not a later version's
    if not lines or not f"{lines[0]} ".startswith(f"# {EVENTS_SCHEMA} "):
        raise ConfigError(f"not a {EVENTS_SCHEMA} file")
    arithmetic = "float"
    if "arithmetic=" in lines[0]:
        arithmetic = lines[0].split("arithmetic=")[1].strip()
    if arithmetic not in ARITHMETICS:
        raise ConfigError(f"line 1: unknown arithmetic {arithmetic!r}")
    records = _records(lines[1:])
    _, header = next(records, (2, None))
    if header != _EVENT_FIELDS:
        raise ConfigError("unexpected column layout")

    events = []
    # A text parses once per file and an (E, P, mu) text triple is checked
    # once: the first occurrence of a bad one raises, so a memo holds only
    # values and triples that passed.
    numbers: dict[str, Number] = {}
    checked: set[tuple[str, str, str]] = set()
    for line_no, row in records:
        where = f"line {line_no}"
        if len(row) != len(_EVENT_FIELDS):
            raise ConfigError(
                f"{where}: {len(row)} fields, expected {len(_EVENT_FIELDS)}"
            )
        rec = dict(zip(_EVENT_FIELDS, row))

        def num(key):
            text = rec[key]
            value = numbers.get(text)
            if value is None:
                value = numbers[text] = parse_number(
                    text, arithmetic, f"{where}, {key}"
                )
            return value

        def flag(key):
            return _parse_bool(rec[key], f"{where}, {key}")

        t = num("t")
        i = int(rec["i"]) if rec["i"].isdecimal() else -1
        j = i + 1
        if i < 0 or rec["j"] != str(j):
            raise ConfigError(
                f"{where}: expected adjacent indices i, i + 1, "
                f"got ({rec['i']!r}, {rec['j']!r})"
            )
        x = num("x")

        def state(E_key, P_key, mu_key, label):
            args = num(E_key), num(P_key), num(mu_key), x, label
            triple = rec[E_key], rec[P_key], rec[mu_key]
            if triple in checked:
                return ParticleState._unchecked(*args)
            try:
                particle = ParticleState._evolved(*args)
            except (ValidationError, ZeroEnergyError) as exc:
                raise ConfigError(f"{where}: {exc}") from exc
            checked.add(triple)
            return particle

        # Fields parse in column order; each mu once, for both states.
        pre = (
            state("E_i_pre", "P_i_pre", "mu_i", i),
            state("E_j_pre", "P_j_pre", "mu_j", j),
        )
        post = (
            state("E_i_post", "P_i_post", "mu_i", i),
            state("E_j_post", "P_j_post", "mu_j", j),
        )
        tachyonic = flag("tachyonic")
        flips = flag("sign_flip_i"), flag("sign_flip_j")
        for key in _REDUCED_FIELDS:
            if rec[key]:
                num(key)
        events.append(
            CollisionEvent._unchecked(t, (i, j), x, pre, post, tachyonic, flips)
        )
    return events, arithmetic


def mirror_trajectory_to_csv(
    states: Iterable[MirrorState],
    k: Number,
    arithmetic: str = "float",
) -> str:
    """Render a reduced-map trajectory as CSV text. A row of floats is
    written with ``repr``, which is what ``format_number`` writes for a
    float, in one f-string; any other row goes through ``format_number``."""
    k_text = format_number(k)
    lines = [f"# {MIRROR_SCHEMA} arithmetic={arithmetic}", _MIRROR_HEADER]
    for s in states:
        t, sigma1, E2, x1 = s.t, s.sigma1, s.E2, s.x1
        if type(t) is type(sigma1) is type(E2) is type(x1) is float:
            lines.append(f"{s.n},{t!r},{sigma1!r},{E2!r},{x1!r},{k_text}")
        else:
            lines.append(",".join([
                str(s.n), *map(format_number, (t, sigma1, E2, x1)), k_text,
            ]))
    lines.append("")
    return "\n".join(lines)


def write_atomic(path: str, text: str) -> None:
    """Write text to ``path`` atomically, with the mode ``open(path, "w")``
    would give a new file: 0o666 less the process's umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # mkstemp creates the file 0o600; the umask is read by setting it.
    umask = os.umask(0o022)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
