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
