"""The benchmark's workloads: inputs built from a seed, one pass of timed
calls into relbilliards, and the correctness gate applied to every
operation.

A run repeats passes; each pass does the same fixed sequence of calls, so
counts gathered in one pass repeat exactly in every other. Every workload
takes ``rb``, the package's modules by name, and looks each callable up
through its module at call time, so that the tracer's wrappers see the
calls. Every call into the package is timed by a ``bench_clock.Clock``; the
times kept are scaled to the clock's reference speed, the gate's own checks
are not timed.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

#: Relative error allowed in a forward-then-backward float round trip.
RETRACE_TOL = 1e-9
#: Allowed change of total E or P, relative to the sum of |E| + |P|.
CONSERVE_TOL = 1e-12
#: Allowed |E**2 - P**2 - mu| relative to E**2 + P**2 + |mu|.
DRIFT_TOL = 1e-9
#: Allowed deviation of the simulation from the reduced map (the
#: ``cross-check`` default).
ORACLE_TOL = 1e-9


@dataclass
class PassResult:
    """What one pass did, how long it took and which operations failed.

    ``wall_s``, ``op_s`` and ``sim_s`` are scaled times; ``raw_s`` is the
    unscaled total of the timed calls."""

    wall_s: float = 0.0
    raw_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    forward_ops: int = 0
    attempted: int = 0
    failed: int = 0
    events: int = 0
    sim_s: float = 0.0
    diag: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def record(self, reason: str | None) -> None:
        """Count one operation; ``reason`` says why it failed, if it did."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)


def _call(res: PassResult, fn):
    """Run ``fn``; an error counts the operation as failed and returns None."""
    try:
        return fn()
    except Exception:  # the benchmark reports failures instead of stopping
        res.record(traceback.format_exc(limit=4))
        return None


def _timed(res: PassResult, clock, fn):
    """Time ``_call(res, fn)``; add it to the pass's wall time."""
    out, raw, scaled = clock.time(lambda: _call(res, fn))
    res.raw_s += raw
    res.wall_s += scaled
    return out, scaled


def _simulate_op(res: PassResult, clock, fn, check):
    """One timed ``simulate`` call, gated by ``check(state) -> reason``."""
    out, scaled = _timed(res, clock, fn)
    res.op_s.append(scaled)
    if out is None:
        return None, []
    state, log = out
    res.sim_s += scaled
    res.events += len(log)
    res.record(check(state))
    return state, log


def max_bits(state) -> int:
    """Largest numerator or denominator bit length in a state (0 for floats)."""
    values = [state.t]
    for p in state.particles:
        values += [p.E, p.P, p.mu, p.x]
    return max(
        (
            max(abs(v.numerator).bit_length(), v.denominator.bit_length())
            for v in values
            if isinstance(v, Fraction)
        ),
        default=0,
    )


def max_mass_drift(particles) -> float:
    """Largest |E**2 - P**2 - mu| relative to E**2 + P**2 + |mu|."""
    return max(
        (
            float(abs(p.E * p.E - p.P * p.P - p.mu))
            / float(p.E * p.E + p.P * p.P + abs(p.mu))
            for p in particles
        ),
        default=0.0,
    )


def retrace_error(start, end) -> float:
    """Largest relative difference of x, P and E between two states."""
    worst = 0.0 if start.t == end.t else 1.0
    if len(start.particles) != len(end.particles):
        return 1.0
    for p, q in zip(start.particles, end.particles):
        for a, b in ((p.x, q.x), (p.P, q.P), (p.E, q.E)):
            a, b = float(a), float(b)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
    return worst


class _Workload:
    """A pass of the simulate-based workloads: batched forward ``simulate``
    calls, the workload's own operations on the forward result, then
    batched backward calls with ``t_limit`` at the start time, which must
    retrace the start state."""

    name = ""
    SIZES: dict[str, int] = {}
    #: The ``bench_clock`` routine that scales this workload's times.
    CALIBRATION = "float"
    #: (events, batch) of the warm-up pass.
    WARM_UP = (2, 2)

    def __init__(self, rb, sizes) -> None:
        self.rb = rb
        self.sizes = dict(self.SIZES if sizes is None else sizes)

    def check(self, state, final: bool = False) -> str | None:
        raise NotImplementedError

    def after_forward(self, res: PassResult, clock, state, log) -> None:
        raise NotImplementedError

    def warm_up(self, clock) -> list[str]:
        return self._pass(clock, *self.WARM_UP).failures

    def run_pass(self, clock, tracer=None) -> PassResult:
        return self._pass(clock, self.sizes["events"], self.sizes["batch"])

    def _pass(self, clock, n_events: int, batch: int) -> PassResult:
        res = PassResult()
        state, log = self._forward(res, clock, n_events, batch)
        res.forward_ops = len(res.op_s)
        if state is not None:
            self.after_forward(res, clock, state, log)
            back = self._backward(res, clock, state, batch, 4 * (n_events // batch + 2))
            if back is not None:
                res.diag["retrace_err"] = retrace_error(self.start, back)
        return res

    def _forward(self, res: PassResult, clock, n_events: int, batch: int):
        state, log = self.start, []
        while len(log) < n_events:
            size = min(batch, n_events - len(log))
            state, events = _simulate_op(
                res,
                clock,
                lambda s=state, k=size: self.rb.simulator.simulate(
                    s, "forward", max_events=k
                ),
                self.check,
            )
            if state is None:
                return None, log
            log += events
        return state, log

    def _backward(self, res: PassResult, clock, state, batch: int, max_ops: int):
        t0 = self.start.t
        for _ in range(max_ops):
            state, _ = _simulate_op(
                res,
                clock,
                lambda s=state: self.rb.simulator.simulate(
                    s, "backward", max_events=batch, t_limit=t0
                ),
                lambda s: self.check(s, final=s.t == t0),
            )
            if state is None or state.t == t0:
                return state
        res.record(f"backward run did not reach t = {t0!r} in {max_ops} calls")
        return None


class GasFloat(_Workload):
    """A seeded bradyon gas in float mode, run forward then retraced."""

    name = "gas_float"
    SIZES = {"n": 512, "events": 200, "batch": 50}

    def __init__(self, rb, seed: int, workdir: Path, sizes=None) -> None:
        super().__init__(rb, sizes)
        n = self.sizes["n"]
        rng = random.Random(seed)
        xs = sorted(rng.uniform(0.0, n) for _ in range(n))
        particles = []
        for label, x in enumerate(xs):
            E = rng.uniform(0.5, 2.0)
            P = E * rng.uniform(-0.9, 0.9)
            particles.append(
                rb.kinematics.ParticleState(E=E, P=P, mu=E * E - P * P, x=x, label=label)
            )
        self.start = rb.simulator.BilliardState(tuple(particles), 0.0)
        self.E0 = self.start.total_energy()
        self.P0 = self.start.total_momentum()
        self.scale = sum(abs(p.E) + abs(p.P) for p in particles)

    def check(self, state, final: bool = False) -> str | None:
        dE = abs(state.total_energy() - self.E0)
        dP = abs(state.total_momentum() - self.P0)
        if max(dE, dP) > CONSERVE_TOL * self.scale:
            return f"E or P not conserved (dE {dE:.3e}, dP {dP:.3e})"
        drift = max_mass_drift(state.particles)
        if drift > DRIFT_TOL:
            return f"mass drift {drift:.3e}"
        if final:
            err = retrace_error(self.start, state)
            if err > RETRACE_TOL:
                return f"retraced state off by {err:.3e}"
        return None

    def after_forward(self, res: PassResult, clock, state, log) -> None:
        res.diag["max_mass_drift"] = max_mass_drift(state.particles)


class MirrorExact(_Workload):
    """The rational mirror system mu=5/4, E_total=1, sigma1=1/3, x1=-1."""

    name = "mirror_exact"
    SIZES = {"events": 1200, "batch": 30}
    CALIBRATION = "exact"
    WARM_UP = (6, 3)

    def __init__(self, rb, seed: int, workdir: Path, sizes=None) -> None:
        super().__init__(rb, sizes)
        F = Fraction
        mr = rb.mirror
        self.params, self.m0 = mr.mirror_initial(F(5, 4), F(1), F(1, 3), F(-1), t0=F(0))
        self.start = mr.billiard_from_mirror(self.params, self.m0)
        self.E0 = self.start.total_energy()
        self.P0 = self.start.total_momentum()

    def check(self, state, final: bool = False) -> str | None:
        if state.total_energy() != self.E0 or state.total_momentum() != self.P0:
            return "total E or P changed in exact mode"
        if final and state != self.start:
            return "backward retrace did not return the start state exactly"
        return None

    def _oracle_op(self, res: PassResult, clock, log) -> None:
        """Simulated reduced states must equal ``reduced_trajectory`` exactly."""
        mr = self.rb.mirror

        def compare():
            simulated = mr.reduced_states_from_events(log, self.m0)
            oracle = mr.reduced_trajectory(self.params, self.m0, len(simulated))[1:]
            return simulated, oracle

        out, _ = _timed(res, clock, compare)
        if out is None:
            return
        simulated, oracle = out
        dev = 0.0
        for a, b in zip(simulated, oracle):
            for u, v in ((a.sigma1, b.sigma1), (a.E2, b.E2), (a.x1, b.x1), (a.t, b.t)):
                dev = max(dev, abs(float(u - v)) / max(abs(float(v)), 1e-300))
        res.diag["oracle_dev"] = dev
        res.record(
            None if simulated == oracle and simulated
            else "simulated reduced states differ from reduced_trajectory"
        )

    def _csv_op(self, res: PassResult, clock, log) -> None:
        """Writing and re-parsing the log must give back an equal event list."""
        se = self.rb.serialize
        out, _ = _timed(
            res, clock, lambda: se.events_from_csv(se.events_to_csv(log, "rational"))
        )
        if out is not None:
            events, arithmetic = out
            res.record(
                None if events == log and arithmetic == "rational"
                else "CSV round trip changed the event log"
            )

    def after_forward(self, res: PassResult, clock, state, log) -> None:
        res.diag["max_bits"] = max_bits(state)
        res.diag["max_mass_drift"] = max_mass_drift(state.particles)
        self._oracle_op(res, clock, log)
        self._csv_op(res, clock, log)


_MIRROR_CONFIG = """\
[scenario]
mode = mirror
arithmetic = float
events = {sim_events}
outputs = events,svg

[mirror]
mu = 4.005
E_total = 1
sigma1 = 1
x1 = -1
"""

_DEVIATION = re.compile(r"max relative deviation\s+\S+\s*=\s*(\S+)")


class CliFloat:
    """In-process ``cli.main`` passes over the near-three-cycle float mirror
    configuration (mu=4.005, E_total=1, sigma1=1, x1=-1). The inputs do
    not depend on the seed."""

    name = "cli_float"
    CALIBRATION = "float"
    SIZES = {
        "sim_events": 300,
        "cross_check_events": 1000,
        "mirror_events": 10000,
        "scan_steps": 1000,
    }
    COMMANDS = ("simulate", "render", "cross-check", "mirror", "tachyon-scan", "period")
    #: Files every pass writes; each must repeat byte for byte.
    OUTPUTS = (
        "sim/events.csv",
        "sim/spacetime.svg",
        "render/spacetime.svg",
        "mirror/mirror.csv",
        "scan/tachyon_scan.csv",
    )

    def __init__(self, rb, seed: int, workdir: Path, sizes=None) -> None:
        self.rb = rb
        self.sizes = dict(self.SIZES if sizes is None else sizes)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "mirror.ini"
        config.write_text(_MIRROR_CONFIG.format(**self.sizes))
        cfg, out = str(config), str(workdir)
        argv = {
            "simulate": ["--config", cfg, "--out", f"{out}/sim"],
            "render": ["--log", f"{out}/sim/events.csv", "--out", f"{out}/render"],
            "cross-check": ["--config", cfg, "--events", str(self.sizes["cross_check_events"])],
            "mirror": ["--config", cfg, "--events", str(self.sizes["mirror_events"]),
                       "--out", f"{out}/mirror"],
            "tachyon-scan": ["--mu", "0.25,0.5,1,2,4", "--e-total=-1,1",
                             "--sigma1=-3,-0.7,0.3,1.3,3",
                             "--steps", str(self.sizes["scan_steps"]), "--out", f"{out}/scan"],
            "period": ["--mu", "4.005", "--e-total", "1", "--sigma1", "1", "--x1", "-1"],
        }
        self.commands = [(name, [name] + argv[name]) for name in self.COMMANDS]
        self.reference: dict[str, bytes] | None = None
        self.diag: dict[str, float] = {}

    def _outputs(self) -> dict[str, bytes]:
        return {
            rel: (self.workdir / rel).read_bytes()
            for rel in self.OUTPUTS
            if (self.workdir / rel).is_file()
        }

    def check(self, codes: list[int | None], outputs: dict[str, bytes]) -> str | None:
        bad = [cmd for (cmd, _), rc in zip(self.commands, codes) if rc != 0]
        if bad or len(codes) != len(self.commands):
            return f"commands failed: {bad}"
        if self.reference is not None and outputs != self.reference:
            changed = sorted(k for k in self.OUTPUTS if outputs.get(k) != self.reference.get(k))
            return f"outputs differ from the first pass: {changed}"
        if outputs.get("sim/spacetime.svg") != outputs.get("render/spacetime.svg"):
            return "render --log did not reproduce the SVG of simulate"
        if self.diag.get("oracle_dev", 0.0) > ORACLE_TOL:
            return f"cross-check deviation {self.diag['oracle_dev']:.3e}"
        if self.diag.get("max_mass_drift", 0.0) > DRIFT_TOL:
            return f"mass drift {self.diag['max_mass_drift']:.3e}"
        return None

    def warm_up(self, clock) -> list[str]:
        res = self.run_pass(clock)
        if res.failed == 0:
            self.reference = self._outputs()
        return res.failures

    def run_pass(self, clock, tracer=None) -> PassResult:
        """One pass of the command sequence: a single operation whose time is
        the sum of the commands' scaled times."""
        res = PassResult()
        cli = self.rb.cli
        original = cli.simulate
        sim_raw = [0.0]

        def timed_simulate(*args, **kwargs):
            t0 = perf_counter()
            state, log = original(*args, **kwargs)
            sim_raw[0] += perf_counter() - t0
            res.events += len(log)
            return state, log

        span = tracer.span if tracer is not None else lambda name: contextlib.nullcontext()
        captured = io.StringIO()
        codes: list[int | None] = []
        errors: list[str] = []

        def command(name, argv):
            with span(f"cli.{name}"):
                try:
                    return cli.main(argv)
                except Exception:  # the benchmark reports failures instead of stopping
                    errors.append(traceback.format_exc(limit=4))
                    return None

        cli.simulate = timed_simulate
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                for name, argv in self.commands:
                    sim_raw[0] = 0.0
                    rc, raw, scaled = clock.time(lambda: command(name, argv))
                    codes.append(rc)
                    res.raw_s += raw
                    res.wall_s += scaled
                    if raw:
                        res.sim_s += sim_raw[0] * scaled / raw
        finally:
            cli.simulate = original
        res.op_s.append(res.wall_s)

        deviations = [float(v) for v in _DEVIATION.findall(captured.getvalue())]
        self.diag["oracle_dev"] = max(deviations, default=1.0)
        outputs = self._outputs()
        if "sim/events.csv" in outputs and "max_mass_drift" not in self.diag:
            events, _ = self.rb.serialize.events_from_csv(outputs["sim/events.csv"].decode())
            self.diag["max_mass_drift"] = max_mass_drift(
                p for e in events for p in e.pre + e.post
            )
        res.diag.update(self.diag)
        res.record(errors[0] if errors else self.check(codes, outputs))
        return res


WORKLOADS = {w.name: w for w in (GasFloat, MirrorExact, CliFloat)}
