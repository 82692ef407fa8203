"""Golden output bytes: every CLI artifact and its stdout, pinned by digest.

Byte-identical CSV/SVG output is part of the package's behaviour. Each
command runs in-process from the test's temporary directory with relative
output paths, so stdout is free of machine-specific paths; a changed digest
means a changed byte in that artifact. A change meant to alter output
replaces the affected digests and says why.
"""

import hashlib

from relbilliards.cli import main

NEAR_THREE_CYCLE = """
[scenario]
mode = mirror
arithmetic = float
events = 300
outputs = events,svg

[mirror]
mu = 4.005
E_total = 1
sigma1 = 1
x1 = -1
"""

NEAR_REPELLER = """
[scenario]
mode = mirror
events = 20
outputs = events,svg

[mirror]
mu = 0.75
E_total = 1
sigma1 = 1.5000000000000002
x1 = -1
"""

RATIONAL_BACKWARD = """
[scenario]
mode = mirror
arithmetic = rational
direction = backward
events = 60
outputs = events,svg

[mirror]
mu = 4
E_total = 1
sigma1 = 1
x1 = -1
"""

SCAN_GRID = [
    "--mu", "0.25,0.5,1,2,4", "--e-total=-1,1",
    "--sigma1=-3,-0.7,0.3,1.3,3", "--steps", "1000",
]

# (name, argv, exit code, artifacts written)
RUNS = [
    ("simulate-near-three-cycle",
     ["simulate", "--config", "near3.ini", "--out", "sim"], 0,
     ["sim/events.csv", "sim/spacetime.svg"]),
    ("simulate-near-repeller",
     ["simulate", "--config", "repeller.ini", "--out", "rep"], 0,
     ["rep/events.csv", "rep/spacetime.svg"]),
    ("simulate-rational-backward",
     ["simulate", "--config", "rational.ini", "--out", "rat"], 0,
     ["rat/events.csv", "rat/spacetime.svg"]),
    ("render",
     ["render", "--log", "sim/events.csv", "--out", "render"], 0,
     ["render/spacetime.svg"]),
    ("cross-check-pass",
     ["cross-check", "--config", "near3.ini", "--events", "1000",
      "--out", "check"], 0,
     ["check/report.txt"]),
    ("cross-check-near-repeller",
     ["cross-check", "--config", "repeller.ini", "--events", "20"], 3, []),
    ("mirror",
     ["mirror", "--config", "near3.ini", "--events", "10000",
      "--out", "mirror"], 0,
     ["mirror/mirror.csv"]),
    ("tachyon-scan",
     ["tachyon-scan", *SCAN_GRID, "--out", "scan"], 0,
     ["scan/tachyon_scan.csv"]),
    ("period",
     ["period", "--mu", "4.005", "--e-total", "1", "--sigma1", "1",
      "--x1", "-1"], 0, []),
]

GOLDEN = {
    "simulate-near-three-cycle:stdout":
        "18b0a9ff92509dc0617326fbb8009e66df88f7b394e05373ef8f381d2e7b9eb6",
    "sim/events.csv":
        "942ff6256f430a0c9fff71966cd00a4f6007ef25bb8ddb9c42545494488962a9",
    "sim/spacetime.svg":
        "958a4df8bd714d969a2f8e2d1dced6cb5d2baa572cea01546c889f48ea904932",
    "simulate-near-repeller:stdout":
        "0317b7efbc6acbaca92a1cff844076487762e7d82f002a3761f85b6183c8c2be",
    "rep/events.csv":
        "842fbf4e879a7bfcf306eaf339b2a8f3901afad02538434c4589b46ff14dc046",
    "rep/spacetime.svg":
        "9592bd8dce0a7e7458dd96a6ee9ff92b15ce9e37c86d407a5dec7ba8c77cc9ba",
    "simulate-rational-backward:stdout":
        "69fa34d69a15def31f9ecc4c7fd95384bc36664bf06544189162386f7af418f4",
    "rat/events.csv":
        "39c759bb7f2094b6f889539cf7ddd2231c23f959fb033afbd570288d0d645b4f",
    "rat/spacetime.svg":
        "101c14caab4645fa4fec1cee3484fddc6e68f992ba9c5e3038b2e77dbef8d6d3",
    "render:stdout":
        "c10d7277c8d4b22e7a7d9c4d81b47c867fde8e7017dfdbcf9ae3dd89ca28c7f5",
    "render/spacetime.svg":
        "958a4df8bd714d969a2f8e2d1dced6cb5d2baa572cea01546c889f48ea904932",
    "cross-check-pass:stdout":
        "06be80bbfc65cd429217801e5b8cd5afa7e39f09ebe7be832a9a00bbbcd956af",
    "check/report.txt":
        "e69cbc187359b53402443c37ba72a9c6a2f893beb51b4840d8c1df729b0f1773",
    "cross-check-near-repeller:stdout":
        "6ae57ab50b38093eed6290d09b3c427cd212ad5d48646e7e7bb8b84bafca63a4",
    "mirror:stdout":
        "744b0319914a66bca37ecdcb08cca785257da8ffb0effba30489e43c224849ef",
    "mirror/mirror.csv":
        "0e81b28d4f9e9760e816d0d30fa8891206e9a20e7cc7fc9c47ac89dcbd4ba8e8",
    "tachyon-scan:stdout":
        "aaed70e1745a97fdce2a08e68ed37c6de75b446a00c8c15588c1934c118f6e15",
    "scan/tachyon_scan.csv":
        "6fe4dbc74320c433c319729dc5c49f055185bbe64ffd7e63dcd1b1cd3d04e0eb",
    "period:stdout":
        "fd7000a3888e3538b96125bad5f0dc083d58ab4bf0ee24bffd99002c8abd44fb",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "near3.ini").write_text(NEAR_THREE_CYCLE)
    (tmp_path / "repeller.ini").write_text(NEAR_REPELLER)
    (tmp_path / "rational.ini").write_text(RATIONAL_BACKWARD)
    got = {}
    for name, argv, code, artifacts in RUNS:
        assert main(argv) == code, name
        got[f"{name}:stdout"] = _sha(capsys.readouterr().out.encode())
        for rel in artifacts:
            got[rel] = _sha((tmp_path / rel).read_bytes())
    assert got == GOLDEN
