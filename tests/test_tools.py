"""tools/ab_timing.py and tools/bench_pairs.py run on this checkout, each in
a process of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_timing_compares_a_checkout_with_itself():
    argv = [sys.executable, str(ROOT / "tools" / "ab_timing.py"), str(ROOT), str(ROOT)]
    sets = "member,bump-tall,nonreduced-hit-set,report,count,elements"
    done = subprocess.run(argv + ["--rounds", "2", "--sets", sets], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:6] == [
        "member       outputs: 0 of 2000 values differ",
        "bump-tall    outputs: 0 of 2000 values differ",
        "nonreduced-hit-set outputs: 0 of 1132 values differ",
        "report       outputs: 0 of 6208 values differ",
        "count        outputs: 0 of 1 values differ",
        "elements     outputs: 0 of 595240 values differ",
    ]
    assert [l.split()[1] for l in lines[7:]] == ["parent", "change", "ratio"] * 6
    bad = subprocess.run(argv + ["--sets", "nope"], capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and "unknown call sets" in bad.stderr



def test_bench_pairs_compares_a_checkout_with_itself(tmp_path):
    argv = [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT), "--workload", "ball"]
    done = subprocess.run(argv + ["--pairs", "1", "--seconds", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ball, seed 3001, --seconds 1, 1 pairs: q1, median, q3"
    names = ["wall_s", "setup_s", "op_p50_ms", "op_tail_ms", "cpu_s", "peak_rss_mb"]
    assert [l.split()[:2] for l in lines[1:]] == [[n, s] for n in names for s in ("parent", "change", "ratio")]
    assert "only the" not in done.stderr  # one tree, so both sides hold the same bytecode
    # trees without a benchmark: the first run fails, after the warning that
    # only one of them holds bytecode
    (tmp_path / "a" / "src" / "orbitlab" / "__pycache__").mkdir(parents=True)
    (tmp_path / "b").mkdir()
    argv[2:4] = [str(tmp_path / "a"), str(tmp_path / "b")]
    bad = subprocess.run(argv + ["--pairs", "1", "--seconds", "1"], capture_output=True, text=True, timeout=300)
    assert bad.returncode == 1 and "only the parent tree holds" in bad.stderr and "parent run 1" in bad.stderr
