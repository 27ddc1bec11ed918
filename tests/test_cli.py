import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import pytest

import orbitlab
from orbitlab import approx, cli, enumeration, ergodic, errors, homogeneous, matrices
from orbitlab.cli import _build_parser, main
from orbitlab.enumeration import load_elements

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_enumerate_prints_counts(capsys):
    rc, out, _ = run(capsys, "enumerate", "--T", "3")
    assert rc == 0 and out.strip() == "20"
    rc, out, _ = run(capsys, "enumerate", "--T", "1")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run(capsys, "enumerate", "--T", "100", "--filter", "gamma0:2")
    assert rc == 0
    # oracle: the elementwise definition of the congruence filter
    from orbitlab.enumeration import enumerate_ball

    manual = sum(1 for g in enumerate_ball(100) if g.c % 2 == 0)
    assert int(out.strip()) == manual


def test_enumerate_dump(tmp_path, capsys):
    path = str(tmp_path / "dump.i64")
    rc, out, _ = run(capsys, "enumerate", "--T", "30", "--dump", path, "--out", str(tmp_path / "c.json"))
    assert rc == 0
    arr, sidecar = load_elements(path)
    assert sidecar["count"] == arr.shape[0] == int(out.splitlines()[0])
    doc = json.loads((tmp_path / "c.json").read_text())
    assert doc["count"] == arr.shape[0]
    assert set(doc["meta"]) == {"seed", "configHash", "version"}
    # a level beyond int64: a traceback and an empty file, before
    path = str(tmp_path / "big.i64")
    rc, out, _ = run(capsys, "enumerate", "--T", "100", "--filter", "gamma0:100000000000000000000", "--dump", path)
    assert rc == 0 and out.strip() == "38" and load_elements(path)[0].shape == (38, 4)


def test_exit_codes(tmp_path, capsys):
    rc, _, err = run(capsys, "exponent")  # missing --u/--v
    assert rc == 2 and "config error" in err
    rc, _, err = run(capsys, "survey", "--tau", "0.73", "--pairs", "1")
    assert rc == 2 and "must lie in [0, 1/2)" in err
    rc, _, err = run(capsys, "approx", "--u", "1.1,1.2", "--v", "1.3,1.4", "--budgets", "1e19:2e19:2")
    assert rc == 3 and "BudgetOverflow" in err
    rc, _, _ = run(capsys, "enumerate", "--T", "3", "--workers", "0")
    assert rc == 2


@pytest.mark.parametrize("grid", ["inf:inf:2", "nan:64:2", "16:inf:2", "16:nan:2", "16:64:inf", "16:64:nan"])
@pytest.mark.parametrize(
    "argv",
    [["approx", "--u", "1.1,1.2", "--v", "1.3,1.4", "--budgets"], ["miss-rate", "--Ts"], ["matcoef", "--ts"]],
    ids=["budgets", "Ts", "ts"],
)
def test_non_finite_grids_rejected(capsys, argv, grid):
    # an infinite end once grew the grid without bound, a NaN ratio gave one point
    rc, _, err = run(capsys, *argv, grid)
    assert rc == 2 and "bad geometric grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["miss-rate", "--v", "1e18,0.8", "--delta", "0.2", "--Ts", "16:64:2", "--samples", "10"],
        ["miss-rate", "--v", "1e15,0.8", "--delta", "0.2", "--Ts", "16:64:2", "--samples", "10"],
        ["miss-rate", "--v", "inf,0.8", "--Ts", "16:64:2", "--samples", "10"],
        ["hit-times", "--v", "3e13,0.8", "--eta", "0.5", "--kmax", "100000", "--samples", "1"],
        ["ergodic-variance", "--v", "1e308,0.8", "--Ts", "16:64:2", "--samples", "10"],
        ["approx", "--u", "nan,1", "--v", "0.3,0.2", "--budgets", "4:64:2"],
        ["approx", "--u", "inf,1", "--v", "0.3,0.2", "--budgets", "4:64:2"],
        ["approx", "--u", "1.41,1.73", "--v", "0.3,-inf", "--budgets", "4:64:2"],
        ["survey", "--mode", "uniform", "--omega", "1,inf,1,2", "--samples", "1", "--kmax", "64"],
        ["survey", "--mode", "uniform", "--omega", "1,1e308,1,2", "--samples", "1", "--kmax", "64"],
    ],
    ids=lambda argv: " ".join(argv[:5]),
)
def test_targets_no_search_can_represent_are_config_errors(capsys, argv):
    # each crashed, warned or printed nan rows before
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = run(capsys, *argv)
    assert rc == 2 and "config error" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("exponent --replay TMP/bad.csv", "bad trace header"),
        ("exponent --u 1.41,1.73 --v 1.2,1.5 --budgets 256:65536:2 --tail-fraction 2", "tail_fraction"),
        ("approx --u 1.41,1.73,2 --v 1.2,1.5 --budgets 16:64:2", "expected 'x,y'"),
        ("approx --u 1.41,1.73 --v 1.2,1.5 --budgets 16:64", "expected 'lo:hi:ratio'"),
        ("survey --pairs 1 --tau abc", "bad spectral-gap parameter"),
        ("survey --pairs 1 --tau 1/0", "bad spectral-gap parameter"),
        ("survey --mode uniform --samples 1", "needs --omega"),
        ("survey --mode uniform --omega 2,1,1,2 --samples 1 --kmax 64", "ordered"),
        ("survey --mode uniform --omega 1,2,1,2 --eta 1.5 --samples 1 --kmax 64", "shrink exponent"),
        ("hit-times --eta 1.5 --kmax 64 --samples 1", "shrink exponent"),
        ("hit-times --eta -1000 --kmax 64 --samples 1", "shrink exponent"),
        ("hit-times --eta 0.25 --kmax 1 --samples 1", "k_max"),
        ("hit-times --eta 0.25 --kmax 64 --samples 0", "n >= 1 samples"),
        ("hit-times --eta 0.25 --kmax 64 --samples 1 --seed -1", "seed must be"),
        ("survey --pairs 0 --budgets 256:4096:4", "n_pairs must be >= 1"),
        ("survey --pairs -3 --budgets 256:4096:4", "n_pairs must be >= 1"),
        ("survey --mode uniform --omega 1,2,1,2 --samples 1 --kmax 1", "k_max must be >= 2"),
        # a NaN budget exited 3 (BudgetOverflow) before
        ("enumerate --T nan", "budget must not be NaN"),
        ("enumerate --T nan --dump TMP/nan/ball.i64", "budget must not be NaN"),
    ],
    ids=[
        "replay-header", "tail-fraction", "point", "grid", "tau-text", "tau-zero-division", "no-omega",
        "omega-order", "grid-eta", "report-eta", "report-eta-overflow", "report-kmax", "samples", "seed",
        "pairs-0", "pairs-negative", "grid-kmax", "enumerate-nan", "enumerate-nan-dump",
    ],
)
def test_refused_inputs_exit_2(tmp_path, capsys, argv, message):
    (tmp_path / "bad.csv").write_text("T,dist\n16,0.5\n")
    rc, _, err = run(capsys, *shlex.split(argv.replace("TMP", str(tmp_path))))
    assert rc == 2 and message in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]  # a refused run creates no file


@pytest.mark.parametrize(
    "argv, Ts",
    [("miss-rate --Ts 1:4:1.1 --samples 50", [1, 2, 3]), ("ergodic-variance --Ts 2:4:1.2 --samples 50", [2, 3])],
    ids=["miss-rate", "ergodic-variance"],
)
def test_ts_grids_write_each_time_once(tmp_path, capsys, argv, Ts):
    # the grid values were floored and kept: miss-rate wrote T = 1 eight
    # times, ergodic-variance T = 2 three times
    path = tmp_path / "out.csv"
    rc, _, _ = run(capsys, *argv.split(), "--out", str(path))
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert rc == 0 and [int(l.split(",")[0]) for l in body[1:]] == Ts


@pytest.mark.parametrize("window", ["-1", "-3"])
def test_matcoef_rejects_negative_orbit_window(capsys, window):
    # once a ZeroDivisionError traceback (exit 1) or a numpy shape error
    rc, _, err = run(capsys, "matcoef", "--delta", "0.15", "--ts", "1:16:4", "--samples", "64", "--orbit-window", window)
    assert rc == 2 and "orbit window must be >= 0" in err


def test_approx_csv_format(tmp_path, capsys):
    path = str(tmp_path / "trace.csv")
    rc, _, _ = run(capsys, "approx", "--u", "1.41,1.73", "--v", "1.2,1.5", "--budgets", "16:4096:2", "--out", path)
    assert rc == 0
    lines = open(path).read().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("seed=" in l for l in meta) and any("version=" in l for l in meta)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "T,dist,norm,a,b,c,d"
    assert len(body) == 1 + 9
    dists = [float(l.split(",")[1]) for l in body[1:]]
    assert all(b <= a for a, b in zip(dists, dists[1:]))


def test_approx_reports_true_witness(capsys):
    # the T = 4096 row once printed the transposed matrix (41,-6,-34,5)
    rc, out, _ = run(capsys, "approx", "--u", "1.37,1.61", "--v", "1.5,0", "--budgets", "1024:8192:2")
    assert rc == 0
    rows = {l.split(",")[0]: l.split(",") for l in out.splitlines() if l and not l.startswith("#")}
    assert tuple(int(x) for x in rows["4096"][3:]) == (41, -34, -6, 5)


def test_exponent_replay_and_exact_hit(tmp_path, capsys):
    rows = ["T,dist,norm,a,b,c,d"]
    for k in range(8, 24):
        T = 2.0**k
        rows.append(f"{T:.17g},{T**-0.5:.17g},3,1,1,0,1")
    trace_path = tmp_path / "replay.csv"
    trace_path.write_text("\n".join(rows) + "\n")
    out_path = str(tmp_path / "est.json")
    rc, _, _ = run(capsys, "exponent", "--replay", str(trace_path), "--out", out_path)
    assert rc == 0
    doc = json.loads(open(out_path).read())
    assert doc["muHat"] == pytest.approx(0.5, abs=1e-9)
    assert doc["muHatFrobenius"] == pytest.approx(1.0, abs=1e-9)
    # too short a trace is refused; an empty or header-only one ended with an
    # IndexError traceback (exit 1) before
    for lines, n in ((rows[:8], 7), (rows[:1], 0), ([], 0)):
        trace_path.write_text("".join(line + "\n" for line in lines))
        rc, _, err = run(capsys, "exponent", "--replay", str(trace_path))
        assert rc == 3 and f"InsufficientData: only {n} budgets" in err
    # exact hit: target on the orbit
    rc, _, _ = run(
        capsys, "exponent", "--u", "1.5,1.25", "--v", "1.5,1.25",
        "--budgets", "16:65536:2", "--out", out_path,
    )
    assert rc == 0
    doc = json.loads(open(out_path).read())
    assert doc["exactHit"] is True and doc["muHat"] == math.inf


def test_survey_outputs(tmp_path, capsys):
    path = str(tmp_path / "survey.csv")
    rc, _, _ = run(
        capsys, "survey", "--mode", "exponents", "--pairs", "4",
        "--budgets", "256:1048576:2", "--seed", "5", "--out", path,
    )
    assert rc == 0
    body = [l for l in open(path).read().splitlines() if not l.startswith("#")]
    assert body[0].startswith("index,u1,u2,v1,v2,muHat,mu,muHatFrobenius")
    assert len(body) == 5
    summary = json.loads(open(path + ".summary.json").read())
    assert summary["theory"]["frobenius"]["anyTarget"] == [pytest.approx(1 / 3), 0.5]
    assert summary["theory"]["trace"]["anyTarget"] == [pytest.approx(1 / 6), 0.25]
    # fixed-target mode
    rc, out, _ = run(
        capsys, "survey", "--mode", "exponents", "--pairs", "2",
        "--budgets", "256:65536:2", "--v", "1.3,0.8", "--seed", "5",
    )
    assert rc == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    for r in rows[:2]:
        fields = r.split(",")
        assert float(fields[3]) == 1.3 and float(fields[4]) == 0.8


def test_survey_uniform_mode(tmp_path, capsys):
    path = str(tmp_path / "uniform.json")
    rc, _, _ = run(
        capsys, "survey", "--mode", "uniform", "--omega", "1.0,1.5,1.0,1.5",
        "--eta", "0.15", "--kmax", "1024", "--samples", "2", "--seed", "3", "--out", path,
    )
    assert rc == 0
    doc = json.loads(open(path).read())
    assert doc["summary"]["n"] == 2
    assert len(doc["perSample"]) == 2


def test_survey_uniform_omega_next_to_the_axis(capsys):
    # x0*x1 underflows to 0 here: omega is off the axes, so it runs
    rc, _, err = run(capsys, "survey", "--mode", "uniform", "--omega", "1e-200,2e-200,1,2", "--kmax", "64", "--samples", "1")
    assert rc == 0, err


def test_survey_uniform_streams_huge_grids(tmp_path, capsys):
    # 6*10^7 targets per level: each level is built a slice of 512 targets
    # at a time and ends at its first slice with a miss, so memory is that
    # of a slice.  (At --kmax 64 the level at horizon 64 hits every target
    # and searches all 117,423 slices, minutes of work.)
    path = str(tmp_path / "huge.json")
    tracemalloc.start()
    try:
        rc, _, err = run(
            capsys, "survey", "--mode", "uniform", "--omega", "1,1e7,1,2",
            "--samples", "1", "--kmax", "16", "--out", path,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, err
    levels = json.loads(open(path).read())["perSample"][0]["levels"]
    nx, ny = math.ceil((1e7 - 1.0) / 0.499), math.ceil(1.0 / 0.499)
    assert [lv["nGrid"] for lv in levels] == [nx * ny] * 5 and not any(lv["hit"] for lv in levels)
    assert peak < 50 * 2**20


def test_hit_times_report(tmp_path, capsys):
    path = str(tmp_path / "hits.json")
    rc, _, _ = run(
        capsys, "hit-times", "--eta", "0.25", "--kmax", "4096",
        "--samples", "3", "--seed", "11", "--out", path,
    )
    assert rc == 0
    doc = json.loads(open(path).read())
    assert doc["summary"]["n"] == 3
    assert all("levels" in p for p in doc["perSample"])


def test_hit_times_rejects_target_below_axis(capsys):
    rc, _, err = run(capsys, "hit-times", "--v", "1.3,-0.8", "--eta", "0.25", "--kmax", "64", "--samples", "1")
    assert rc == 2 and "use -v" in err


def test_tau_fraction_strings(capsys, tmp_path):
    for tau, lo in (("6/64", (1 - 2 * 6 / 64) / 3), ("7/64", (1 - 2 * 7 / 64) / 3)):
        path = str(tmp_path / "s.csv")
        rc, _, _ = run(
            capsys, "survey", "--pairs", "1", "--budgets", "256:65536:2",
            "--tau", tau, "--seed", "1", "--out", path,
        )
        assert rc == 0
        summary = json.loads(open(path + ".summary.json").read())
        assert summary["theory"]["frobenius"]["anyTarget"][0] == pytest.approx(lo)


def test_quotient_commands_load_neither_scipy_nor_a_process_pool(tmp_path):
    # one fresh interpreter: the bump is a constant, and the pool is imported
    # only by a run with more than one worker
    script = f"""
import sys
import numpy as np
import orbitlab
from orbitlab.cli import main
from orbitlab.homogeneous import TargetSpec, target_bump
assert target_bump(np.array([[1.25, 1.3], [0.0, 0.8]]), TargetSpec(1.3, 0.8, 0.2)) > 0.0
for argv in (
    ["ergodic-variance", "--delta", "0.15", "--Ts", "16:64:4", "--samples", "64", "--workers", "1"],
    ["matcoef", "--delta", "0.15", "--ts", "1:16:4", "--samples", "64", "--workers", "1"],
):
    assert main(argv + ["--out", {str(tmp_path / "out")!r}]) == 0
print(sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules))
"""
    src = str(Path(orbitlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env, timeout=300)
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, config_hash",
    [
        ("enumerate --T 500 --filter ' gamma:2'", "1b9551d39a80"),
        ("approx --u 1.41,1.73 --v 1.2,1.5 --budgets 256:65536:2 --filter gamma0:3 --format json", "2161d43e6a8b"),
        ("exponent --u 1.5,1.25 --v 1.5,1.25 --budgets 16:65536:2 --tail-fraction 0.6", "56b0a779c4d4"),
        ("survey --pairs 2 --budgets 256:65536:2 --seed 1 --tau 7/64", "c3bf6b363272"),
        ("survey --mode uniform --omega 1,2,1,2 --eta 0.2 --kmax 500 --samples 2 --tau 1/8", "6a70c0f98eb9"),
        ("hit-times --v 1.1,0.9 --eta 0.3 --kmax 1000 --samples 2 --seed 7", "3786e5bfd0f8"),
        ("ergodic-variance --delta 0.15 --Ts 16:256:4 --samples 400 --seed 2", "b5eab5bcd491"),
        ("miss-rate --delta 0.2 --Ts 16:256:2 --samples 300 --format json --seed 3", "26a892e1dfef"),
        ("matcoef --delta 0.15 --ts 1:64:4 --samples 300 --orbit-window 2 --seed 2", "ea1a65fb331f"),
    ],
    ids=lambda a: a.split()[0] if " " in a else None,
)
def test_config_hash_pinned(tmp_path, capsys, argv, config_hash):
    # the hashes the hand-written configs gave before the parsed options
    # replaced them; where and how a run writes does not enter them
    path = tmp_path / "out"
    rc, _, err = run(capsys, *shlex.split(argv), "--workers", "1", "--out", str(path))
    assert rc == 0, err
    assert re.findall(r'configHash(?:=|": ")([0-9a-f]{12})', path.read_text()) == [config_hash]


@pytest.mark.parametrize(
    "argv",
    [
        *(f"{cmd} --tau 0.1" for cmd in (
            "enumerate --T 3", "approx --u 1.41,1.73 --v 1.2,1.5 --budgets 16:64:2", "exponent --replay x.csv",
            "hit-times --eta 0.3", "ergodic-variance", "miss-rate", "matcoef",
        )),
        *(f"{cmd} --format json" for cmd in (
            "enumerate --T 3", "exponent --replay x.csv", "survey --pairs 1", "hit-times --eta 0.3",
            "ergodic-variance", "matcoef",
        )),
    ],
)
def test_options_no_command_reads_are_refused(capsys, argv):
    # accepted and ignored before: survey --format json wrote CSV
    rc, _, err = run(capsys, *shlex.split(argv))
    assert rc == 2 and "unrecognized arguments" in err


def readme_commands() -> list:
    """The argv lists of the README's command block."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_commands_parse():
    # the README's command block and the parser cannot drift apart
    commands = readme_commands()
    assert all(argv[0] == "orbitlab" for argv in commands)
    assert {argv[1] for argv in commands} == {
        "enumerate", "approx", "exponent", "survey", "hit-times", "ergodic-variance", "miss-rate", "matcoef",
    }
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_bench_readme_runs_cover_the_readme_commands():
    # tools/bench.py's readme mode checks every README subcommand for
    # identical outputs, so a new README command cannot skip that check
    spec = importlib.util.spec_from_file_location("bench", README.parent / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = [argv.split() for argv in bench.README_RUNS.values()]
    assert {argv[0] for argv in runs} == {argv[1] for argv in readme_commands()}
    parser = _build_parser()
    for argv in runs:
        parser.parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--T", "100", "--out", "TMP/file/x.json"],
        ["enumerate", "--T", "100", "--dump", "TMP/file/sub/x.i64"],
        ["exponent", "--replay", "TMP/missing.csv"],
    ],
    ids=["out", "dump", "replay"],
)
def test_file_errors_are_config_errors(tmp_path, capsys, argv):
    # each ended with an OSError traceback and exit 1; TMP/file is a file, not a directory
    (tmp_path / "file").write_text("")
    rc, _, err = run(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
    assert rc == 2 and "config error" in err


def test_enumerate_checks_paths_first_and_counts_once(tmp_path, capsys, monkeypatch):
    # a path that cannot be written fails before any annulus of the ball is
    # generated (580 was printed first), and --dump counts what it writes
    # instead of counting the ball a second time: it walks the annuli once,
    # all of them as rows, and no histogram pass of its own
    import orbitlab.enumeration as enum_mod

    annuli, rows = [], []
    real_annuli, real_windows = enum_mod._annuli, enum_mod._windows

    def spy_annuli(*args):
        for a in real_annuli(*args):
            annuli.append(len(a[1]))
            yield a

    def spy_windows(Tint):
        for r in real_windows(Tint):
            rows.append(len(r))
            yield r

    monkeypatch.setattr(enum_mod, "_annuli", spy_annuli)
    monkeypatch.setattr(enum_mod, "_windows", spy_windows)
    (tmp_path / "file").write_text("")
    for opt, name in ("--out", "file/x.json"), ("--dump", "file/sub/x.i64"):
        rc, out, err = run(capsys, "enumerate", "--T", "100", opt, str(tmp_path / name))
        assert (rc, out, annuli, rows) == (2, "", [], []) and "config error" in err
    # a budget out of range is refused before any path is created
    rc, _, err = run(capsys, "enumerate", "--T", "1e19", "--out", str(tmp_path / "big.json"))
    assert rc == 3 and "BudgetOverflow" in err and not (tmp_path / "big.json").exists()
    # and so is a dump above the largest ball whose rows can be ordered
    rc, _, err = run(capsys, "enumerate", "--T", "1073741824", "--dump", str(tmp_path / "big" / "b.i64"))
    assert rc == 3 and "BudgetOverflow" in err and not (tmp_path / "big").exists()
    rc, out, _ = run(capsys, "enumerate", "--T", "100")
    once = list(annuli)
    assert once and rows == []  # the full count builds no row
    annuli.clear()
    dump = str(tmp_path / "ball.i64")
    rc2, out2, _ = run(capsys, "enumerate", "--T", "100", "--dump", dump, "--out", str(tmp_path / "c.json"))
    assert rc == rc2 == 0 and out == out2 == "580\n" and annuli == once and sum(rows) == 580
    assert load_elements(dump)[1]["count"] == 580


@pytest.mark.parametrize(
    "u, v, rc",
    [
        ("1e-170,1e-170", "1,2", 2),  # |u|^2 underflows to 0 (a ZeroDivisionError before)
        ("1e-160,1e-160", "1,2", 0),  # subnormal |u|^2 is still positive
        ("1e160,1e160", "1,2", 2),  # |u|^2 overflows (rows with dist inf before)
        ("1e150,1e150", "1,2", 0),
        ("1.41,1.73", "1e160,1", 2),  # the identity's dist^2 overflows
        ("1.41,1.73", "1e150,1", 0),
        # at T_max = 65536 a search's coordinates reach M = 256*(|u1| + |u2|) + |v1| + |v2|
        ("1.3e154,1", "1,2", 2),  # 2*M^2 overflows (warned at dist2 in the search before)
        ("3.7e151,1", "1,2", 0),  # 2*M^2 = 1.794e308, just inside
    ],
)
def test_approx_refuses_points_whose_squares_leave_the_floats(capsys, u, v, rc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, "approx", "--u", u, "--v", v, "--budgets", "16:1e6:16")
    assert got == rc, err
    if rc:
        assert "config error" in err
    else:
        dists = [float(l.split(",")[1]) for l in out.splitlines()[4:]]
        assert len(dists) == 4 and all(math.isfinite(d) and d > 0 for d in dists)


def test_package_names_are_the_modules_public_names():
    # each module's __all__ is the one list of its public names, and errors
    # defines only public exception classes
    modules = (matrices, enumeration, approx, homogeneous, ergodic)
    for mod in (*modules, cli):
        assert all(hasattr(mod, name) and not name.startswith("_") for name in mod.__all__), mod.__name__
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type) and obj.__module__ == errors.__name__}
    assert all(not name.startswith("_") for name in classes)
    public = {n for n in dir(orbitlab) if not n.startswith("_") and not isinstance(getattr(orbitlab, n), types.ModuleType)}
    assert public == classes.union(*(mod.__all__ for mod in modules))
    # names that restated another rule
    assert not hasattr(ergodic, "shrinking_hit_experiment") and not hasattr(errors, "EmptyBudget")
    assert not hasattr(matrices.LatticeElement, "apply")
