"""tools/ab_timing.py runs on this checkout, in a process of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_timing_compares_a_checkout_with_itself():
    argv = [sys.executable, str(ROOT / "tools" / "ab_timing.py"), str(ROOT), str(ROOT)]
    sets = "member,bump-tall,nonreduced-hit-set,count,elements"
    done = subprocess.run(argv + ["--rounds", "2", "--sets", sets], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:5] == [
        "member       outputs: 0 of 2000 values differ",
        "bump-tall    outputs: 0 of 2000 values differ",
        "nonreduced-hit-set outputs: 0 of 1132 values differ",
        "count        outputs: 0 of 1 values differ",
        "elements     outputs: 0 of 595240 values differ",
    ]
    assert [l.split()[1] for l in lines[6:]] == ["parent", "change", "ratio"] * 5
    bad = subprocess.run(argv + ["--sets", "nope"], capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and "unknown call sets" in bad.stderr

