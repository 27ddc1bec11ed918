"""Tests of the benchmark itself:  python3 perfbench/selftest.py

Kept out of pytest collection (the file name does not match test_*.py), so
the repository's test suite is unaffected.  Takes about a minute: it runs
every workload once at a tiny size, untraced and traced.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from checks import check_best, check_witness, exact_dist2, known_defect
from layers import PER_LAYER
from run import END_TO_END, ROOT

HERE = Path(__file__).resolve().parent


def brute_ball(T: int) -> np.ndarray:
    m = int(T**0.5)
    rows = [
        g for g in itertools.product(range(-m, m + 1), repeat=4)
        if g[0] * g[3] - g[1] * g[2] == 1 and sum(x * x for x in g) <= T
    ]
    return np.array(rows, dtype=np.int64)


def test_flags_transposed_witness():
    # the Bug A repro: the row's distance belongs to (41, -34, -6, 5), the
    # row reports its transpose
    u, v, g = (1.37, 1.61), (1.5, 0.0), (41, -34, -6, 5)
    dist = float(exact_dist2(g, u, v)) ** 0.5
    norm = sum(x * x for x in g)
    reasons, err, _ = check_witness(4096.0, dist, norm, g, u, v)
    assert reasons == [] and err < 1e-15, (reasons, err)
    reasons, _, _ = check_witness(4096.0, dist, norm, (41, -6, -34, 5), u, v)
    assert reasons == ["witness"], reasons
    assert known_defect(reasons, dist, (41, -6, -34, 5), u, v) == "transposed"
    # a wrong witness that is not the transpose is no documented defect
    g = (3, 1, 5, 2)
    reasons, _, _ = check_witness(4096.0, dist, sum(x * x for x in g), g, u, v)
    assert reasons == ["witness"], reasons
    assert known_defect(reasons, dist, g, u, v) is None


def test_rounding_is_no_wrong_witness():
    # g*u lands within an ulp of v, so a 2 % deviation is still float
    # rounding of |g*u - v| for entries this large; 1e-6 absolute is not
    u, g = (1.37, 1.61), (1, 0, 100_000_007, 1)
    v = (1.37, 100_000_007 * 1.37 + 1.61)
    exact = float(exact_dist2(g, u, v)) ** 0.5
    norm = sum(x * x for x in g)
    assert 0.0 < exact < 1e-7, exact
    reasons, err, _ = check_witness(1e17, exact * 1.02, norm, g, u, v)
    assert reasons == [] and err > 1e-2, (reasons, err)
    reasons, _, _ = check_witness(1e17, exact + 1e-6, norm, g, u, v)
    assert reasons == ["witness"], reasons


def test_flags_tie_order_violation():
    # horizontal seed: the whole column family (a, c) = (-1, -2) hits v
    # exactly, and under gamma:2 its least-norm member is (-1, 0, -2, -1)
    u, v, T = (1.3, 0.0), (-1.3, -2.6), 20.0
    ball = brute_ball(20)
    right, planted = (-1, 0, -2, -1), (-1, 2, -2, 3)
    reasons, _ = check_best(T, 0.0, 6, right, u, v, ball, "gamma", 2)
    assert reasons == [], reasons
    reasons, _ = check_best(T, 0.0, 18, planted, u, v, ball, "gamma", 2)
    assert reasons == ["tie_order"], reasons
    assert known_defect(reasons, 0.0, planted, u, v, "gamma") == "horizontal_tie"
    # out of tie order anywhere else is no documented defect
    assert known_defect(reasons, 0.0, planted, u, v, "full") is None
    assert known_defect(reasons, 0.0, planted, (1.3, 0.5), v, "gamma") is None
    # a witness at a larger distance is not minimal
    d = float(exact_dist2((1, 0, 0, 1), u, v)) ** 0.5
    reasons, _ = check_best(T, d, 2, (1, 0, 0, 1), u, v, ball)
    assert reasons == ["not_minimal"], reasons


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["ball", "survey", "shear"]


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def printed_metrics(stdout: str) -> dict:
    """{(workload, name): unit} from the report's 'metric' lines."""
    out, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("# orbitlab benchmark: workload="):
            workload = line.split("workload=")[1].split()[0]
        elif line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            float(rest.split()[0])
            out[(workload, name)] = rest.split()[1]
    return out


def test_smoke_prints_every_metric():
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        got = run_bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert got.returncode == 0, got.stderr
        printed = printed_metrics(got.stdout)
        for workload in ("ball", "survey", "shear"):
            extra = [("failed_frac", "frac")] + ([("max_rel_err", "rel")] if workload != "shear" else [])
            for name, unit in expected + extra:
                assert printed.get((workload, name)) == unit, (workload, name, trace)
        final = json.loads(got.stdout.strip().splitlines()[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["attempted"] >= 1
        assert final["correct"] and final["failed"] == 0, final
        assert all(v["unit"] == dict(expected)[k.split(".", 1)[1]] for k, v in final["metrics"].items())


def test_refuses_without_sources():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        got = run_bench(Path(bare), "--workload", "ball", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert got.returncode != 0
        assert "{" not in got.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
