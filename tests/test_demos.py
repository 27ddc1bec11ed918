import contextlib
import io
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_01_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "01_enumerate_norm_balls.py"), run_name="__main__")
    text = out.getvalue()
    assert "budget 7: 52 elements" in text
    assert "norm 3: 16 elements" in text
    assert "count(100000) =  600196" in text
    assert "wrote and re-read" in text


def test_demo_02_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "02_orbit_approximation.py"), run_name="__main__")
    text = out.getvalue()
    assert "budget   10000: dist 0.075795 via (-15, 13, -22, 19) (norm 1239)" in text
    assert "budget 1000000: dist 0.024182 via (383, -312, 561, -457) (norm 767603)" in text
    assert "via (0, 1, -1, 1)" in text


def test_demo_03_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "03_quotient_targets.py"), run_name="__main__")
    text = out.getvalue()
    assert "analytic measure of the projected box: 0.024317" in text
    assert "Monte Carlo hit fraction: 0.02434 +- 0.00069" in text


def test_demo_04_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / "04_orbit_experiments.py"), run_name="__main__")
    text = out.getvalue()
    assert "hits the size-0.2 target at 99 times; first few: (-1936, -1887, -1882, -1862, -1827, -1769, -1731, -1620)" in text
    for line in (
        "T =    16: miss fraction 0.3997  (95% CI 0.3847..0.4150)",
        "T =    32: miss fraction 0.1772  (95% CI 0.1657..0.1894)",
        "T =    64: miss fraction 0.0607  (95% CI 0.0538..0.0686)",
        "T =   128: miss fraction 0.0248  (95% CI 0.0204..0.0300)",
        "T =   256: miss fraction 0.0150  (95% CI 0.0117..0.0193)",
        "T =   512: miss fraction 0.0085  (95% CI 0.0061..0.0119)",
        "T =  1024: miss fraction 0.0053  (95% CI 0.0034..0.0080)",
        "T =  2048: miss fraction 0.0030  (95% CI 0.0017..0.0052)",
    ):
        assert line in text
    assert "certified thresholds for 20/20 points; max T0 = 64" in text
    assert "500 points: [162, 272, 249, 174, 138, 109, 79, 52, 32, 38, 20, 18, 13, 5, 6, 4, 4]" in text
