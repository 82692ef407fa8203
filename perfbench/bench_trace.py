"""Span tracer for the module boundaries of relbilliards.

``Tracer.install`` replaces each public callable listed in ``boundaries``
with a wrapper, in the namespace where its caller looks it up (the
``simulate`` that ``cli`` imported, the ``resolve_collision`` that
``simulator`` imported, the methods on ``ParticleState``, ...).
``Tracer.remove`` puts every original back. A wrapper records a span
(id, parent id, name, start, end), adds the span's duration to its name's
total and its duration minus the time covered by its child spans to its
name's self time, and may count something about the result. Wrappers only
observe: arguments and results pass through unchanged.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: Spans kept in memory for the spans file. Aggregates cover every span;
#: past this cap span records are only counted as dropped.
MAX_SPANS = 50_000


@dataclass
class Snapshot:
    """Aggregates of one traced pass, keyed by span name (seconds), and the
    pass's own time ``pass_s``."""

    calls: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    pass_s: float = 0.0

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span of one layer (the name's first part)."""
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)


def _count_events(counts, args, result):
    counts["events"] += len(result[1])


def _count_outcome(counts, args, outcome):
    counts["tachyonic"] += outcome.tachyonic
    counts["sign_flips"] += outcome.sign_flip_i + outcome.sign_flip_j


def _count_csv_out(counts, args, text):
    counts["csv_rows_out"] += text.count("\n") - 2  # schema line, header
    counts["csv_bytes"] += len(text.encode())


def _count_csv_bytes(counts, args, text):
    counts["csv_bytes"] += len(text.encode())


def _count_csv_in(counts, args, result):
    counts["csv_rows_in"] += len(result[0])


def _count_steps(counts, args, states):
    counts["trajectory_steps"] += len(states) - 1


def boundaries(rb):
    """(owner, attribute, span name, observer) for every wrapped callable.

    ``rb`` holds the package modules by name. The owner is the module or
    class through which the caller looks the callable up.
    """
    sim, mr, se, cli, cfg = rb.simulator, rb.mirror, rb.serialize, rb.cli, rb.config
    ps = rb.kinematics.ParticleState
    return [
        (sim, "simulate", "simulator.simulate", None),
        (cli, "simulate", "simulator.simulate", None),
        (sim, "step", "simulator.step", _count_events),
        (sim, "next_collisions", "simulator.next_collisions", None),
        (sim, "resolve_collision", "collisions.resolve_collision", _count_outcome),
        (ps, "__post_init__", "kinematics.construct", None),
        (ps, "moved", "kinematics.moved", None),
        (ps, "with_position", "kinematics.with_position", None),
        (ps, "momentum_reversed", "kinematics.momentum_reversed", None),
        (ps, "sigma_rho", "kinematics.sigma_rho", None),
        (ps, "from_sigma_rho", "kinematics.from_sigma_rho", None),
        (mr, "massless", "kinematics.massless", None),
        (mr, "reduced_trajectory", "mirror.reduced_trajectory", _count_steps),
        (mr, "reduced_map", "mirror.reduced_map", None),
        (mr, "inverse_map", "mirror.inverse_map", None),
        (mr, "reduced_states_from_events", "mirror.reduced_states_from_events", None),
        (mr, "billiard_from_mirror", "mirror.billiard_from_mirror", None),
        (mr, "mirror_initial", "mirror.mirror_initial", None),
        (mr, "period", "mirror.period", None),
        (mr, "classify_tachyonic", "mirror.classify_tachyonic", None),
        (mr, "tachyonic_predicate", "mirror.tachyonic_predicate", None),
        (cfg, "billiard_from_mirror", "mirror.billiard_from_mirror", None),
        (cfg, "mirror_initial", "mirror.mirror_initial", None),
        (se, "events_to_csv", "serialize.events_to_csv", _count_csv_out),
        (se, "events_from_csv", "serialize.events_from_csv", _count_csv_in),
        (cli, "events_to_csv", "serialize.events_to_csv", _count_csv_out),
        (cli, "events_from_csv", "serialize.events_from_csv", _count_csv_in),
        (cli, "mirror_trajectory_to_csv", "serialize.mirror_trajectory_to_csv", _count_csv_bytes),
        (cli, "write_atomic", "serialize.write_atomic", None),
        (cli, "render_spacetime", "render.render_spacetime", None),
        (cli, "parse_config", "config.parse_config", None),
        (cli, "initial_state", "config.initial_state", None),
    ]


class Tracer:
    """Records spans at the package's module boundaries while installed."""

    def __init__(self, rb) -> None:
        self._targets = boundaries(rb)
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [id, parent id, name, start, child time]
        self._next_id = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.current = Snapshot()

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        duration = end - start
        agg = self.current
        agg.calls[name] += 1
        agg.total_s[name] += duration
        agg.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call it makes."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, fn, name: str, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(tracer.current.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for owner, attr, name, observe in self._targets:
            original = vars(owner)[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrap(fn, name, observe)
                wrappers[id(fn)] = wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self, pass_s: float, raw_s: float) -> Snapshot:
        """Return the aggregates gathered since the last call and reset them.

        ``pass_s`` is the pass's scaled time and ``raw_s`` its raw time: span
        times are scaled by their ratio, as the pass's were."""
        snap, self.current = self.current, Snapshot(pass_s=pass_s)
        factor = pass_s / raw_s if raw_s else 1.0
        for times in (snap.total_s, snap.self_s):
            for name in times:
                times[name] *= factor
        return snap

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV, times in microseconds."""
        origin = self.spans[0][3] if self.spans else 0.0
        lines = ["id,parent,name,start_us,end_us"]
        for span_id, parent, name, start, end in self.spans:
            lines.append(
                f"{span_id},{parent},{name},"
                f"{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}"
            )
        path.write_text("\n".join(lines) + "\n")
