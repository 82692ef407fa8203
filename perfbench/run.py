"""Layered benchmark for relbilliards.

Run from the repository root:

    python3 perfbench/run.py --workload gas_float --seed 1 --seconds 30 --trace 0

The run pins itself to one CPU, measures set-up in fresh processes, then
imports the package from ``src/``, builds the workload from the seed, warms
up, and repeats passes of the workload's fixed sequence of calls until
``--seconds`` have elapsed, always finishing the pass it is in. Every operation's output goes through
the workload's correctness gate.

Times are scaled to a reference host speed by a calibration routine run
between timed calls (see ``bench_clock.py``); set-up probes are scaled by
the ``float`` routine. The unscaled figures are in the info line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. The line before it, ``{"info": ...}``, records the
machine, the sizes, the samples behind each figure and the first failures.

With ``--trace 1`` passes alternate between untraced and traced. Traced
passes wrap the package's callables at each module boundary (see
``bench_trace.py``). Spans go to ``perfbench/.out/spans-<workload>-<seed>.csv``.

Which end-to-end metrics each per-layer metric should move, and the
workloads on which it is defined (elsewhere it reads 0, as the layer does
no work there):

  per-layer metrics                        moves                 defined on
  simulator.next_collisions.calls_per_event,
  simulator.next_collisions.self_ms,
  simulator.step.self_ms,
  simulator.events_per_step                events_per_s,         all; gains expected
                                           op_ms_p50             on gas_float, flat
                                                                 on mirror_exact
  kinematics.moved.calls_per_event,
  kinematics.construct.calls_per_event,
  kinematics.self_ms                       events_per_s          all
  collisions.resolve_collision.calls,
  collisions.resolve_collision.self_ms     events_per_s,         all
                                           op_ms_tail
  collisions.tachyonic_ratio,
  collisions.sign_flips                    events_per_s,         mirror_exact,
                                           op_ms_tail            cli_float
  numeric.max_bits                         op_ms_tail,           mirror_exact
                                           peak_rss_mb
  mirror.reduced_trajectory.steps_per_s,
  mirror.reduced_map.calls, mirror.self_ms wall_s                mirror_exact,
                                                                 cli_float
  serialize.events_to_csv.rows_per_s,
  serialize.events_from_csv.rows_per_s,
  serialize.bytes_written                  wall_s, peak_rss_mb   mirror_exact,
                                                                 cli_float
  render.render_spacetime.ms,
  config.parse_config.ms                   wall_s, setup_s       cli_float
  cli.<command>.ms, cli.self_ms            op_ms_p50             cli_float
  simulator.retrace_err                    ok_ratio              gas_float
  mirror.oracle_dev                        ok_ratio              cli_float
  kinematics.max_mass_drift                ok_ratio              gas_float,
                                                                 cli_float
  trace.overhead_ratio                     none                  all

The three diagnostics are not gains: an operation whose value crosses its
bound fails its gate. In exact arithmetic (mirror_exact) they are exactly 0.
"""

from time import perf_counter

PROCESS_T0 = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import bench_clock  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes whose set-up time is measured; ``setup_s`` is the median.
SETUP_PROBES = 9
#: Samples that must lie beyond the percentile reported as ``op_ms_tail``.
TAIL_BEYOND = 10
LAYERS = (
    "cli", "collisions", "config", "kinematics", "mirror",
    "numeric", "render", "serialize", "simulator",
)


def import_package() -> SimpleNamespace:
    """Import relbilliards from ``src/``; return its modules by name."""
    package = importlib.import_module("relbilliards")
    if Path(package.__file__).resolve().parent != SRC / "relbilliards":
        raise ImportError(f"relbilliards imported from {package.__file__}, not src/")
    return SimpleNamespace(
        **{name: importlib.import_module(f"relbilliards.{name}") for name in LAYERS}
    )


def build(args, sizes, workdir: Path):
    """Import the package and build the workload: the work of set-up."""
    rb = import_package()
    return rb, bench_workloads.WORKLOADS[args.workload](rb, args.seed, workdir, sizes)


def probe_setup(args, workdir: Path) -> tuple[float, float] | None:
    """Set up once in a fresh interpreter; (raw, scaled) seconds from the
    start of the process to the moment the workload is built, or None if
    the set-up failed. ``perf_counter`` reads the system-wide monotonic
    clock, so the child's reading compares with the parent's. Each
    calibration is the best of five runs, as five probes give few samples."""
    before = bench_clock.calibrate("float", 5)
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--probe-dir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    after = bench_clock.calibrate("float", 5)
    if proc.returncode != 0:
        return None
    raw = float(proc.stdout.split()[-1]) - t0
    return raw, raw * bench_clock.scale_factor("float", before, after)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(passes, setup: list[float], attempted: int, failed: int):
    """End-to-end metrics from the untraced passes, in scaled time."""
    ops = [t for p in passes for t in p.op_s]
    sim_s = sum(p.sim_s for p in passes)
    tail_ms, pct, beyond = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "events_per_s": (sum(p.events for p in passes) / sim_s if sim_s else 0.0, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(ops), "ms"),
        "op_ms_tail": (1e3 * tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    info = {
        "ops": len(ops),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "wall_s_raw": statistics.median(p.raw_s for p in passes),
        "speed_factor": statistics.median(p.wall_s / p.raw_s for p in passes if p.raw_s),
    }
    forward = [p for p in passes if p.forward_ops]
    if forward:
        info["forward_first_batch_ms"] = 1e3 * statistics.median(p.op_s[0] for p in forward)
        info["forward_last_batch_ms"] = 1e3 * statistics.median(
            p.op_s[p.forward_ops - 1] for p in forward)
    return metrics, info


def per_layer(snaps, untraced, traced, diag):
    """Per-layer metrics: counts from the first traced pass (every pass
    repeats them), times as the median over traced passes, in ms per pass."""
    first = snaps[0]
    events = first.counts["events"]

    def per_event(name):
        return first.calls[name] / events if events else 0.0

    def median(fn):
        return statistics.median(fn(s) for s in snaps)

    def ms(name, kind="total_s"):
        return median(lambda s: 1e3 * getattr(s, kind)[name])

    def layer_self_ms(layer):
        return median(lambda s: 1e3 * s.layer_self_s(layer))

    def rate(count, name):
        return median(
            lambda s: s.counts[count] / s.total_s[name] if s.total_s[name] else 0.0
        )

    resolves = first.calls["collisions.resolve_collision"]
    metrics = {
        "simulator.next_collisions.calls_per_event": (per_event("simulator.next_collisions"), "calls/event"),
        "simulator.next_collisions.self_ms": (ms("simulator.next_collisions", "self_s"), "ms"),
        "simulator.step.self_ms": (ms("simulator.step", "self_s"), "ms"),
        "simulator.events_per_step": (
            events / first.calls["simulator.step"] if first.calls["simulator.step"] else 0.0,
            "events/step",
        ),
        "kinematics.moved.calls_per_event": (per_event("kinematics.moved"), "calls/event"),
        "kinematics.construct.calls_per_event": (per_event("kinematics.construct"), "calls/event"),
        "kinematics.self_ms": (layer_self_ms("kinematics"), "ms"),
        "collisions.resolve_collision.calls": (resolves, "count"),
        "collisions.resolve_collision.self_ms": (ms("collisions.resolve_collision", "self_s"), "ms"),
        "collisions.tachyonic_ratio": (first.counts["tachyonic"] / resolves if resolves else 0.0, "ratio"),
        "collisions.sign_flips": (first.counts["sign_flips"], "count"),
        "numeric.max_bits": (diag.get("max_bits", 0), "bits"),
        "mirror.reduced_trajectory.steps_per_s": (
            rate("trajectory_steps", "mirror.reduced_trajectory"), "1/s"),
        "mirror.reduced_map.calls": (first.calls["mirror.reduced_map"], "count"),
        "mirror.self_ms": (layer_self_ms("mirror"), "ms"),
        "serialize.events_to_csv.rows_per_s": (rate("csv_rows_out", "serialize.events_to_csv"), "1/s"),
        "serialize.events_from_csv.rows_per_s": (rate("csv_rows_in", "serialize.events_from_csv"), "1/s"),
        "serialize.bytes_written": (first.counts["csv_bytes"], "bytes"),
        "render.render_spacetime.ms": (ms("render.render_spacetime"), "ms"),
        "config.parse_config.ms": (ms("config.parse_config"), "ms"),
    }
    for command in bench_workloads.CliFloat.COMMANDS:
        metrics[f"cli.{command}.ms"] = (ms(f"cli.{command}"), "ms")
    metrics["cli.self_ms"] = (layer_self_ms("cli"), "ms")
    metrics["simulator.retrace_err"] = (diag.get("retrace_err", 0.0), "ratio")
    metrics["mirror.oracle_dev"] = (diag.get("oracle_dev", 0.0), "ratio")
    metrics["kinematics.max_mass_drift"] = (diag.get("max_mass_drift", 0.0), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced),
        "ratio",
    )
    repeat = all(
        s.calls == first.calls and s.counts == first.counts for s in snaps[1:]
    )
    share = {
        layer: median(lambda s: s.layer_self_s(layer) / s.pass_s if s.pass_s else 0.0)
        for layer in LAYERS
    }
    return metrics, repeat, share


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="relbilliards layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up in the given directory, print the time, exit (see probe_setup).
    parser.add_argument("--probe-dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    """Run one benchmark; ``sizes`` overrides the workload's size parameters."""
    args = parse_args(argv)
    if not (SRC / "relbilliards" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'relbilliards'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.probe_dir is not None:
        build(args, None, args.probe_dir)
        print(perf_counter())
        return 0
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Keep this process and the set-up probes it starts on one CPU. The two
    vCPUs of a shared virtual machine can run at different speeds at the
    same moment; a calibration made on one does not scale a time taken on
    the other."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(args, sizes, workdir: Path) -> int:
    pin_to_one_cpu()
    probes = [probe_setup(args, workdir / f"probe{i}") for i in range(SETUP_PROBES)]
    setup = [p for p in probes if p is not None]
    probe_failed = len(probes) - len(setup)

    rb, workload = build(args, sizes, workdir)
    clock = bench_clock.Clock(workload.CALIBRATION)
    failures = workload.warm_up(clock)
    warm_failed = 1 if failures else 0

    tracer = bench_trace.Tracer(rb) if args.trace else None
    untraced, traced, snaps = [], [], []
    first_op = perf_counter()
    deadline = first_op + args.seconds
    while len(untraced) + len(traced) < (2 if tracer else 1) or perf_counter() < deadline:
        if tracer is not None and len(untraced) > len(traced):
            tracer.install()
            try:
                result = workload.run_pass(clock, tracer)
            finally:
                tracer.remove()
            traced.append(result)
            snaps.append(tracer.take(result.wall_s, result.raw_s))
        else:
            result = workload.run_pass(clock)
            untraced.append(result)
        failures += result.failures
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes) + warm_failed + len(probes)
    failed = sum(p.failed for p in passes) + warm_failed + probe_failed
    diag = {}
    for p in passes:
        for key, value in p.diag.items():
            diag[key] = max(diag.get(key, value), value)

    info = dict(machine_info())
    info.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sizes=workload.sizes,
        setup_s_raw=[raw for raw, _ in setup],
        setup_s_scaled=[scaled for _, scaled in setup],
        startup_to_first_op_s=first_op - PROCESS_T0,
        passes=len(passes),
        events_per_pass=passes[0].events,
        fail_ratio=failed / attempted,
        diagnostics=diag,
        first_failures=[f.strip().splitlines()[-1] for f in failures[:5]],
    )
    correct = failed == 0
    if tracer is None:
        metrics, more = end_to_end(untraced, [s for _, s in setup] or [0.0], attempted, failed)
        info.update(more)
    else:
        metrics, repeat, share = per_layer(snaps, untraced, traced, diag)
        correct = correct and repeat
        out = HERE / ".out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write_spans(spans)
        info.update(
            counts_repeat=repeat,
            traced_passes=len(traced),
            layer_self_share=share,
            spans_file=str(spans.relative_to(ROOT)),
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.dropped,
        )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
