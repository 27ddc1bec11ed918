"""Timing and tracing of the benchmark's own calls into the program.

The benchmark shares a 2-core machine whose speed drifts by a quarter within
seconds (a fixed interpreter loop measured 6.4 to 10.7 ms over 90 s), so raw
times of the same work spread by about a fifth between runs.  The recorder
therefore runs a fixed reference loop, which does not touch the program,
between calls at most every REF_EVERY_S, and reports times "at reference
speed": each stretch of time is scaled by REF_NOMINAL_S / (duration of the
reference loop then), interpolated between reference samples.  One sample
jitters by a fifth on its own, so "then" is the median of the samples
within REF_SMOOTH_S of it.  Reference loops never run inside a call or an
op, and their own time is left out.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, namedtuple

import numpy as np

Span = namedtuple("Span", "name start end phase group")

REF_EVERY_S = 0.2
REF_SMOOTH_S = 1.5
# About the median duration of reference_loop on the 2-core benchmark machine;
# it only sets the scale of the normalized times, which stay comparable while
# it and reference_loop are unchanged.
REF_NOMINAL_S = 0.0045
# Steps of the tuple part of reference_loop, which then takes about as long
# as the rest of the loop.
TUPLE_STEPS = 900


def reference_loop() -> None:
    """Fixed interpreter, small-array and cache-sized array work, like the
    program's inner loops.  The array part makes the loop slow down under
    cache contention, as the program does, and not only under CPU sharing.
    The tuple part makes and compares a float tuple per step, fed by a
    generator, as the enumeration's family walk does: pure-Python code with
    that much allocation slows down more than the other parts do when the
    host is busy, and best_approx and shrinking_hit_report calls follow the
    loop more closely with this part than without it."""
    s = 0
    for i in range(8000):
        s += (i * i) % 7
    best = None
    for a, c in ((a, (7 * a) % 13 - 6) for a in range(1, TUPLE_STEPS)):
        for k in (-1, 0, 1):
            b, d = k * a + 1, k * c - 1
            e1, e2 = a * 1.37 + b * 1.61 - 0.3, c * 1.37 + d * 1.61 + 0.7
            key = (e1 * e1 + e2 * e2, a * a + b * b + c * c + d * d, a, c, b, d)
            if best is None or key < best:
                best = key
    s += best[1]
    a = np.arange(1, 513)
    for _ in range(80):
        s += int(np.gcd(a, 12).sum())
    x = np.arange(8192, dtype=np.float64)
    y = x[::-1].copy()
    for _ in range(40):
        s += float((x * y + x).sum())


class Recorder:
    """Runs each benchmark call into the program and keeps what it costs.

    Every call goes through ``call``: a call that raises is counted as an error
    and returns None, so the run goes on and the error counts as a failed
    result.  When ``traced``, each call also leaves a span (the program's
    ``module.function``, start, end, the workload phase that made the call and
    the group: "workload" or "probe").  Spans stay in memory until the run
    ends.  ``counts`` holds work counters per group, taken from the outputs.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []
        self.errors = []
        self.ops = []
        self.refs = []
        self.counts = {"workload": Counter(), "probe": Counter()}
        self.phase = ""
        self.group = "workload"
        self._in_op = False
        self._smoothed = None

    def tick(self, force: bool = False) -> None:
        """Samples the machine's speed if REF_EVERY_S has passed (or if forced)."""
        if self._in_op and not force:
            return
        if force or not self.refs or time.perf_counter() - self.refs[-1][1] >= REF_EVERY_S:
            t0 = time.perf_counter()
            reference_loop()
            self.refs.append((t0, time.perf_counter()))

    def call(self, name: str, fn, *args, **kwargs):
        self.tick()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is a failed result, not a failed run
            self.errors.append(f"{self.phase} {name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.traced:
                self.spans.append(Span(name, t0, time.perf_counter(), self.phase, self.group))

    @contextlib.contextmanager
    def op(self):
        """Times one op of the workload; no reference loop runs inside it."""
        self.tick()
        self._in_op = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((t0, time.perf_counter()))
            self._in_op = False

    def _factors(self) -> tuple:
        """(sample midpoints, smoothed speed factor at each), cached per sample count."""
        if self._smoothed is None or len(self._smoothed[0]) != len(self.refs):
            mids = np.array([(s + e) / 2 for s, e in self.refs])
            durs = np.array([e - s for s, e in self.refs])
            lo = np.searchsorted(mids, mids - REF_SMOOTH_S)
            hi = np.searchsorted(mids, mids + REF_SMOOTH_S, side="right")
            factor = REF_NOMINAL_S / np.array([np.median(durs[i:j]) for i, j in zip(lo, hi)])
            self._smoothed = (mids, factor)
        return self._smoothed

    def at_reference_speed(self, a: float, b: float) -> float:
        """Seconds between perf_counter readings a and b, at reference speed."""
        mids, factor = self._factors()
        ts = np.concatenate(([a], mids[(mids > a) & (mids < b)], [b]))
        return float(np.trapezoid(np.interp(ts, mids, factor), ts))

    def section_at_reference_speed(self, a: float, b: float) -> float:
        """Like at_reference_speed, leaving out the reference loops themselves."""
        own = sum(self.at_reference_speed(s, e) for s, e in self.refs if a <= s and e <= b)
        return self.at_reference_speed(a, b) - own

    def count(self, name: str, n=1) -> None:
        self.counts[self.group][name] += n

    def pick(self, name: str) -> tuple:
        """Spans of one program function and the group they come from.

        The workload's own calls are preferred; a function the workload never
        calls is measured on the probe.
        """
        own = [s for s in self.spans if s.name == name and s.group == "workload"]
        if own:
            return own, "workload"
        return [s for s in self.spans if s.name == name and s.group == "probe"], "probe"
