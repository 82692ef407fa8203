"""Tests of the benchmark itself, on tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import bench_clock
import bench_workloads
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "gas_float": {"n": 16, "events": 20, "batch": 5},
    "mirror_exact": {"events": 60, "batch": 15},
    "cli_float": {
        "sim_events": 30,
        "cross_check_events": 20,
        "mirror_events": 100,
        "scan_steps": 100,
    },
}
COUNTS = (
    "simulator.next_collisions.calls_per_event",
    "simulator.events_per_step",
    "kinematics.moved.calls_per_event",
    "kinematics.construct.calls_per_event",
    "collisions.resolve_collision.calls",
    "collisions.tachyonic_ratio",
    "collisions.sign_flips",
    "numeric.max_bits",
    "mirror.reduced_map.calls",
    "serialize.bytes_written",
)


def _run(capsys, workload, trace, seed=3):
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        sizes=TINY[workload],
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return info, result


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(capsys, workload, trace):
    info, result = _run(capsys, workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    for metric in BENCHMARK[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["fail_ratio"] == 0.0
    for key in ("python", "cpu", "nproc", "git_sha", "seed", "sizes"):
        assert key in info
    assert len(info["setup_s_raw"]) == run.SETUP_PROBES
    assert min(info["setup_s_raw"]) > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_counts_repeat_on_the_same_seed(capsys, workload):
    first = _run(capsys, workload, 1)[1]["metrics"]
    second = _run(capsys, workload, 1)[1]["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def _workload(name, tmp_path):
    rb = run.import_package()
    return bench_workloads.WORKLOADS[name](rb, 3, tmp_path, TINY[name])


def _nudged(state):
    p = state.particles[-1]
    moved = dataclasses.replace(p, x=p.x + p.x / 10**6 + 1)
    return dataclasses.replace(state, particles=state.particles[:-1] + (moved,))


@pytest.mark.parametrize("workload", ["gas_float", "mirror_exact"])
def test_gate_flags_a_perturbed_final_state(tmp_path, workload):
    wl = _workload(workload, tmp_path)
    assert wl.check(wl.start, final=True) is None
    assert wl.check(_nudged(wl.start), final=True) is not None


def test_gate_flags_changed_cli_output(tmp_path):
    wl = _workload("cli_float", tmp_path)
    assert wl.warm_up(bench_clock.Clock(wl.CALIBRATION)) == []
    outputs = wl._outputs()
    codes = [0] * len(wl.commands)
    assert wl.check(codes, outputs) is None
    changed = dict(outputs, **{"mirror/mirror.csv": outputs["mirror/mirror.csv"] + b"\n"})
    assert wl.check(codes, changed) is not None
    assert wl.check([0] * (len(codes) - 1) + [3], outputs) is not None


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gas_float", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(samples)
    assert beyond == 10 and sum(s > value for s in samples) == 10
    assert pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)
