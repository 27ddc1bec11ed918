"""tools/ab_timing.py, tools/bench_pairs.py and tools/src_lines.py run on
this checkout, each in a process of its own."""

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


# 21 lines, 8 of them code: docstrings, comments and blank lines are not,
# every line of a statement that spans lines is, and so is a string that is
# not a docstring.
MODULE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

# a comment line


def f(x):
    """Function docstring."""
    # a comment inside
    y = (x +
         1)
    return math.sqrt(y)


class C:
    """Class docstring."""

    z = """not a docstring,
but a string"""
'''


def src_lines(*args) -> dict:
    """{module: (lines, code lines)} from the rows of tools/src_lines.py."""
    argv = [sys.executable, str(ROOT / "tools" / "src_lines.py"), *args]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head.split() == ["module", "lines", "code"]
    return {name: (int(lines), int(code)) for name, lines, code in (row.split() for row in rows)}


def test_src_lines_counts_code_lines(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "mod.py").write_text(MODULE)
    assert src_lines(str(tmp_path)) == {"__init__.py": (1, 0), "mod.py": (21, 8), "total": (22, 8)}
    counts = src_lines()
    total = counts.pop("total")
    assert "ergodic.py" in counts
    assert total == tuple(map(sum, zip(*counts.values())))


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
