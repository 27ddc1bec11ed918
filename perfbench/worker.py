"""One benchmark process: set up, run one workload, check it, print a JSON line.

Started by run.py, once per set-up sample and once for the workload itself,
so every workload runs in a fresh process.  Set-up is timed from the
parent's spawn (``--spawned``, a CLOCK_MONOTONIC reading, which all
processes share) through ``import orbitlab`` and the warm-up call, and
rescaled to reference speed (recorder.py).

An untraced run times the workload once.  A traced run times the same inputs
twice, untraced and then traced, each at half the run's work, so the two
walls give the tracing overhead; then it runs the probe and writes the spans
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Repeat counts in workloads.py are sized for a run of this many seconds.
NOMINAL_SECONDS = 25.0


def import_program():
    """Imports orbitlab from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import orbitlab

    if Path(orbitlab.__file__).resolve().parent != src / "orbitlab":
        raise ImportError(f"orbitlab imported from {orbitlab.__file__}, not from {src}")
    return orbitlab


def timed(run, inp, rec) -> tuple:
    """Runs the workload; returns (outputs, measures of the timed section).

    Times are given raw and at reference speed (see recorder.py); CPU time
    is scaled by the same factor as the wall time.
    """
    rec.tick(force=True)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    out = run(inp, rec)
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    rec.tick(force=True)
    wall = rec.section_at_reference_speed(t0, t1)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return out, {
        "wall_s": wall,
        "wall_raw_s": t1 - t0,
        "cpu_s": cpu * wall / (t1 - t0),
        "cpu_raw_s": cpu,
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "op_s": [rec.at_reference_speed(a, b) for a, b in rec.ops],
        "op_raw_s": [b - a for a, b in rec.ops],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    from layers import per_layer
    from recorder import REF_NOMINAL_S, Recorder, reference_loop
    from workloads import WORKLOADS, scaled

    wl = WORKLOADS[args.workload]
    wl.warm_up()
    setup_raw = time.monotonic() - args.spawned
    # set-up is rescaled to reference speed by the machine's speed right after it
    refs = []
    for _ in range(5):
        t0 = time.perf_counter()
        reference_loop()
        refs.append(time.perf_counter() - t0)
    setup = {"setup_s": setup_raw * REF_NOMINAL_S / statistics.median(refs), "setup_raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    scale = args.seconds / NOMINAL_SECONDS / (2 if args.trace else 1)
    inp = wl.inputs(args.seed, scaled(wl.size, scale))
    rec = Recorder(traced=False)
    out, result = timed(wl.run, inp, rec)
    result.update(setup)
    if args.trace:
        rec = Recorder(traced=True)
        out, traced = timed(wl.run, inp, rec)
        tally = wl.check(inp, out)
        rec.group = "probe"
        for name, other in WORKLOADS.items():
            if name != args.workload:
                rec.phase = f"probe:{name}"
                other.run(other.inputs(args.seed, other.probe_size), rec)
        layer, probed = per_layer(rec, tally, result["wall_s"], traced["wall_s"])
        result.update(per_layer=layer, probed=sorted(probed))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump([s._asdict() for s in rec.spans], fh)
    else:
        tally = wl.check(inp, out)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        unexpected=tally.unexpected,
        reasons=dict(tally.reasons),
        known=dict(tally.known),
        errors=rec.errors[:20],
        max_rel_err=tally.max_rel_err,
        inexact=tally.inexact,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
