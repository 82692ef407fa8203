"""Spacetime diagrams as standalone SVG.

Worldlines are piecewise-linear: vertices at the collision events a
particle takes part in, extrapolated with the incoming/outgoing velocity
to a small margin beyond the logged time span. Position runs horizontally,
time vertically (up). Tachyonic events get distinct circular markers.

The SVG is produced by hand so the byte stream is a pure function of the
event log (plotting libraries embed timestamps and session ids, which
would break output determinism).
"""

from __future__ import annotations

from .errors import ConfigError
from .numeric import Number, format_number
from .simulator import CollisionEvent

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)
#: Canvas size in pixels.
_WIDTH = _HEIGHT = 640
#: Worldlines extend past the logged time span by this fraction of it.
_MARGIN = 0.05


def worldlines(
    events: list[CollisionEvent],
) -> tuple[dict[int, list[tuple[float, float]]], list[tuple[float, float]]]:
    """Per-particle (t, x) polylines plus (t, x) tachyonic markers.

    Each particle's vertices are its event points; the first and last
    segments extend to the padded time window using the velocity before
    its first event (``pre``) and after its last (``post``).
    """
    if not events:
        raise ConfigError("empty event log: nothing to draw")

    times = [_float(e.t) for e in events]
    t_lo, t_hi = min(times), max(times)
    pad = _MARGIN * max(t_hi - t_lo, 1.0)
    t_start, t_end = t_lo - pad, t_hi + pad

    touched: dict[int, list[CollisionEvent]] = {}
    for event in events:
        for label in event.pair:
            touched.setdefault(label, []).append(event)

    lines: dict[int, list[tuple[float, float]]] = {}
    for label, evs in sorted(touched.items()):
        evs = sorted(evs, key=lambda e: _float(e.t))
        first, last = evs[0], evs[-1]
        v_in = _float(first.pre[first.pair.index(label)].velocity)
        v_out = _float(last.post[last.pair.index(label)].velocity)
        pts = [(_float(e.t), _float(e.x)) for e in evs]
        t0, x0 = pts[0]
        tn, xn = pts[-1]
        head = (t_start, x0 - v_in * (t0 - t_start))
        tail = (t_end, xn + v_out * (t_end - tn))
        lines[label] = [head] + pts + [tail]

    markers = [
        (_float(e.t), _float(e.x)) for e in events if e.tachyonic
    ]
    return lines, markers


def _float(value: Number) -> float:
    """``float(value)``, or a ConfigError naming a value (an exact number
    from a rational log) beyond the float range."""
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(
            f"cannot draw {format_number(value)}: out of float range"
        ) from exc


def render_spacetime(events: list[CollisionEvent]) -> str:
    """Render the event log to SVG text (deterministic bytes)."""
    lines, markers = worldlines(events)

    all_pts = [p for pts in lines.values() for p in pts]
    ts = [t for t, _ in all_pts]
    xs = [x for _, x in all_pts]
    t_lo, t_hi = min(ts), max(ts)
    x_lo, x_hi = min(xs), max(xs)
    t_span = max(t_hi - t_lo, 1e-9)
    x_span = max(x_hi - x_lo, 1e-9)
    inset = 20.0

    def sx(x: float) -> float:
        return inset + (x - x_lo) / x_span * (_WIDTH - 2 * inset)

    def sy(t: float) -> float:
        return _HEIGHT - inset - (t - t_lo) / t_span * (_HEIGHT - 2 * inset)

    def fmt(v: float) -> str:
        return f"{v:.3f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for label, pts in sorted(lines.items()):
        color = _PALETTE[label % len(_PALETTE)]
        coords = " ".join(f"{fmt(sx(x))},{fmt(sy(t))}" for t, x in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
    for t, x in markers:
        parts.append(
            f'<circle cx="{fmt(sx(x))}" cy="{fmt(sy(t))}" r="4" '
            f'fill="none" stroke="#d62728" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
