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
