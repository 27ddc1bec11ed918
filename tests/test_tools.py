"""tools/bench.py and tools/src_lines.py run on this checkout, each in a
process of its own."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench_argv(*args) -> list:
    return [sys.executable, str(ROOT / "tools" / "bench.py"), *map(str, args)]


def bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run(bench_argv(*args), capture_output=True, text=True, timeout=120)


def test_bench_compares_a_checkout_with_itself(tmp_path):
    # the subprocess modes run beside the in-process one: the test checks
    # the results and their schema, not the times read
    argv = bench_argv(ROOT, ROOT, "workloads", "readme", "--only", "ball,approx", "--rounds", "1", "--seconds", "1")
    side = subprocess.Popen(argv + ["--json", tmp_path / "1.json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    layers = bench(ROOT, ROOT, "layers", "--only", "member,report,count", "--rounds", "2", "--json", tmp_path / "0.json")
    _, err = side.communicate(timeout=120)
    assert (layers.returncode, side.returncode) == (0, 0), (layers.stderr, err)
    assert layers.stdout.splitlines()[:3] == [
        "member           outputs: 0 of 2000 values differ, by at most 0 relative",
        "report           outputs: 0 of 6208 values differ, by at most 0 relative",
        "count            outputs: 0 of 1 values differ, by at most 0 relative",
    ]
    docs = [json.loads((tmp_path / f"{i}.json").read_text()) for i in range(2)]
    names = {
        "layers": {name: ["us_per_call"] for name in ("member", "report", "count")},
        "workloads": {"ball": ["wall_s", "setup_s", "op_p50_ms", "op_tail_ms", "cpu_s", "peak_rss_mb"]},
        "readme": {"approx": ["w1_wall_s", "w1_peak_rss_mb", "w2_wall_s", "w2_peak_rss_mb"]},
    }
    modes = docs[0]["modes"] | docs[1]["modes"]
    assert {mode: {name: list(r["metrics"]) for name, r in res.items()} for mode, res in modes.items()} == names
    for doc, rounds in zip(docs, (2, 1)):
        meta = doc["meta"]
        assert meta["parent"] == meta["change"] and set(meta["parent"]) == {"sha", "dirty", "srcLines"}
        assert meta["parent"]["srcLines"]["code"] > 0 and meta["nproc"] >= 1 and len(meta["loadavg"]) == 2
        assert {"python", "numpy"} <= set(meta) and meta["options"]["rounds"] == rounds
    for res in modes.values():
        for r in res.values():
            assert r["problems"] == []
            for row in r["metrics"].values():
                assert set(row) == {"parent", "change", "unit", "ratio", "changeLower"}
                assert row["parent"][0] <= row["parent"][1] <= row["parent"][2] and row["ratio"] > 0
    assert modes["layers"]["member"]["check"] == {"values": 2000, "differ": 0, "maxRel": 0.0}
    assert set(modes["readme"]["approx"]["check"]) == {"exitCode", "stdout", "trace.csv"}
    assert modes["readme"]["approx"]["check"]["exitCode"] == 0
    bad = bench(ROOT, ROOT, "readme", "--only", "nope")
    assert bad.returncode == 2 and "unknown names ['nope']" in bad.stderr


def test_bench_readme_names_a_command_whose_outputs_differ(tmp_path):
    # every output file carries the package version, so a copy with another
    # version writes other bytes
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "orbitlab" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "0.0.0+'))
    done = bench(ROOT, tmp_path, "readme", "--only", "approx", "--rounds", "1")
    assert done.returncode == 1
    assert "readme approx: change --workers 1: exit code 0, differs from the first run in ['trace.csv']" in done.stderr


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
