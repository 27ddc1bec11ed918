"""Command-line front end: experiment configuration, persistence, plot-data emission.

Every output file embeds {seed, config hash, artifact version}; no timestamps
are written, so a rerun with identical configuration and --workers 1 produces
byte-identical files.  Exit codes: 0 on success, 2 for configuration errors
(files that cannot be read or written included), 3 for numerical/domain errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .approx import TRACE_CSV_HEADER, ApproxTrace, _exponent_row, approx_trace, survey_exponents
from .enumeration import SubgroupFilter, _budget_int, _row_budget, count, dump_elements
from .ergodic import (
    matcoef_curve,
    miss_rate_curve,
    shrinking_hit_report,
    uniform_grid_experiment,
    variance_curve,
)
from .errors import OrbitLabError
from .homogeneous import TargetSpec, haar_sample

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_floats(text: str, form: str = "x,y") -> tuple:
    """Comma-separated floats shaped like form: a point 'x,y' or a rectangle 'x0,x1,y0,y1'."""
    parts = text.split(",")
    if len(parts) != len(form.split(",")):
        raise ValueError(f"expected {form!r}, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_grid(text: str) -> list:
    """Geometric grid spec 'lo:hi:ratio' (inclusive of hi up to rounding)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected 'lo:hi:ratio', got {text!r}")
    lo, hi, ratio = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (lo, hi, ratio)) or lo <= 0 or hi < lo or ratio <= 1.0:
        raise ValueError(f"bad geometric grid {text!r}")
    out = []
    t = lo
    while t <= hi * (1.0 + 1e-12):
        out.append(t)
        t *= ratio
    return out


def _orbit_times(text: str) -> list:
    """The orbit times of a --Ts grid: each value floored, ascending, each once."""
    return sorted({int(t) for t in _parse_grid(text)})


def _parse_tau(text: str) -> float:
    """argparse type of --tau: a float or a fraction such as 7/64, in [0, 1/2)."""
    try:
        if "/" in text:
            tau = float(Fraction(text))
        else:
            tau = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad spectral-gap parameter {text!r}") from None
    if not 0.0 <= tau < 0.5:
        raise argparse.ArgumentTypeError(f"spectral-gap parameter must lie in [0, 1/2), got {tau}")
    return tau


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _meta(cfg: dict) -> dict:
    return {
        "seed": cfg["seed"],
        "configHash": _config_hash(cfg),
        "version": __version__,
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write(path, text: str) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(path, header_cols, rows, cfg: dict) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(_meta(cfg).items())]
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _write(path, "\n".join(lines) + "\n")


def _emit_json(path, payload: dict, cfg: dict) -> None:
    doc = dict(payload)
    doc["meta"] = _meta(cfg)
    _write(path, json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n")


def _theory_windows(tau: float) -> dict:
    # Shrinking-target theory gives the exponent window in the root-norm
    # (frobenius) convention; the trace-norm convention halves everything.
    lo1 = (1.0 - 2.0 * tau) / 3.0
    lo2 = (1.0 - 2.0 * tau) / 5.0
    return {
        "frobenius": {"anyTarget": [lo1, 0.5], "uniformTarget": [lo2, 0.5]},
        "trace": {"anyTarget": [lo1 / 2.0, 0.25], "uniformTarget": [lo2 / 2.0, 0.25]},
    }


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed options and their provenance config
# ---------------------------------------------------------------------------

_TRACE_COLS = TRACE_CSV_HEADER.split(",")


def _found_summary(per_sample: list) -> dict:
    found = [p["T0"] for p in per_sample if p["T0"] is not None]
    return {"nFound": len(found), "n": len(per_sample), "maxT0": max(found) if found else None}


def _cmd_enumerate(args, cfg: dict) -> int:
    (_row_budget if args.dump else _budget_int)(args.T)  # a budget out of range touches no file
    if args.dump:  # fail before the ball is counted
        os.makedirs(os.path.dirname(os.path.abspath(args.dump)), exist_ok=True)
        open(args.dump, "a").close()
    if args.dump:  # the dump counts what it writes
        n = dump_elements(args.dump, args.T, args.filter)
    else:
        n = count(args.T, args.filter)
    print(n)
    if args.out:
        _emit_json(args.out, {"count": n, "T": args.T, "filter": str(args.filter)}, cfg)
    return 0


def _cmd_approx(args, cfg: dict) -> int:
    budgets = _parse_grid(args.budgets)
    tr = approx_trace(_parse_floats(args.u), _parse_floats(args.v), budgets, subgroup=args.filter)
    if args.format == "json":
        rows = [dict(zip(_TRACE_COLS, row)) for row in tr.rows()]
        _emit_json(args.out, {"u": tr.u, "v": tr.v, "trace": rows}, cfg)
    else:
        _emit_csv(args.out, _TRACE_COLS, tr.rows(), cfg)
    return 0


def _cmd_exponent(args, cfg: dict) -> int:
    if args.replay:
        with open(args.replay) as fh:
            tr = ApproxTrace.from_csv(fh.read())
    else:
        if args.u is None or args.v is None:
            raise ValueError("exponent needs --u and --v (or --replay)")
        budgets = _parse_grid(args.budgets)
        tr = approx_trace(_parse_floats(args.u), _parse_floats(args.v), budgets)
    _emit_json(args.out, _exponent_row(tr, args.tail_fraction), cfg)
    return 0


def _cmd_survey(args, cfg: dict) -> int:
    if args.mode == "exponents":
        budgets = _parse_grid(args.budgets)
        fixed_v = _parse_floats(args.v) if args.v else None
        rows = survey_exponents(
            args.pairs,
            budgets,
            seed=args.seed,
            fixed_v=fixed_v,
            tail_fraction=args.tail_fraction,
        )
        # an exact hit's row has no Frobenius exponents: they are infinite too
        cols = ["index", "u1", "u2", "v1", "v2", "muHat", "mu", "muHatFrobenius", "muFrobenius"]
        csv_rows = [[r.get(c, math.inf) for c in cols] + [int(r["exactHit"])] for r in rows]
        finite = [r["muHat"] for r in rows if not r["exactHit"]]
        summary = {
            "theory": _theory_windows(args.tau),
            "muHatQuantiles": {
                q: float(np.quantile(finite, float(q))) for q in ("0.05", "0.25", "0.5", "0.75", "0.95")
            }
            if finite
            else {},
            "nExactHits": sum(1 for r in rows if r["exactHit"]),
        }
        _emit_csv(args.out, cols + ["exactHit"], csv_rows, cfg)
        _emit_json(args.out and args.out + ".summary.json", summary, cfg)
        return 0
    # uniform mode: grid targets over a compact rectangle
    if not args.omega:
        raise ValueError("survey --mode uniform needs --omega")
    omega = _parse_floats(args.omega, "x0,x1,y0,y1")
    points = haar_sample(args.samples, args.seed)
    per_sample = []
    for pt in points:
        rep = uniform_grid_experiment(omega, args.eta, pt, args.kmax)
        per_sample.append({"T0": rep.T0, "levels": rep.levels})
    payload = {
        "config": {"omega": list(omega), "eta": args.eta, "kmax": args.kmax},
        "theory": _theory_windows(args.tau),
        "perSample": per_sample,
        "summary": _found_summary(per_sample),
    }
    _emit_json(args.out, payload, cfg)
    return 0


def _cmd_hit_times(args, cfg: dict) -> int:
    v = _parse_floats(args.v)
    points = haar_sample(args.samples, args.seed)
    per_sample = [shrinking_hit_report(args.eta, pt, args.kmax, v) for pt in points]
    payload = {
        "config": {"v": list(v), "eta": args.eta, "kmax": args.kmax},
        "perSample": per_sample,
        "summary": _found_summary(per_sample),
    }
    _emit_json(args.out, payload, cfg)
    return 0


def _cmd_ergodic_variance(args, cfg: dict) -> int:
    v = _parse_floats(args.v)
    spec = TargetSpec(v[0], v[1], args.delta)
    Ts = _orbit_times(args.Ts)
    curve = variance_curve(spec, Ts, args.samples, args.seed, workers=args.workers)
    _emit_csv(args.out, ["T", "value", "stderr"], curve.rows(), cfg)
    return 0


def _cmd_miss_rate(args, cfg: dict) -> int:
    v = _parse_floats(args.v)
    Ts = _orbit_times(args.Ts)
    rates = miss_rate_curve(Ts, args.delta, v, args.samples, args.seed, workers=args.workers)
    rows = [(m.T, m.fraction, m.stderr) for m in rates]
    if args.format == "json":
        payload = {
            "rates": [
                {"T": m.T, "fraction": m.fraction, "ciLo": m.ci_lo, "ciHi": m.ci_hi, "n": m.n}
                for m in rates
            ]
        }
        _emit_json(args.out, payload, cfg)
    else:
        _emit_csv(args.out, ["T", "value", "stderr"], rows, cfg)
    return 0


def _cmd_matcoef(args, cfg: dict) -> int:
    v = _parse_floats(args.v)
    spec = TargetSpec(v[0], v[1], args.delta)
    ts = _parse_grid(args.ts)
    values, stderrs = matcoef_curve(
        spec, ts, args.samples, args.seed, orbit_window=args.orbit_window, workers=args.workers
    )
    _emit_csv(args.out, ["t", "value", "stderr"], list(zip(ts, values, stderrs)), cfg)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbitlab",
        description="Lattice-orbit approximation and shrinking-target experiments.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fn, formats=False):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", default=None, help="output file (stdout when omitted)")
        if formats:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("enumerate", help="count / dump a norm ball")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--filter", type=SubgroupFilter.parse, default="full")
    sp.add_argument("--dump", default=None, help="path for a binary dump")
    common(sp, _cmd_enumerate)

    sp = sub.add_parser("approx", help="best-approximation trace over a budget grid")
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--budgets", required=True, help="geometric grid lo:hi:ratio")
    sp.add_argument("--filter", type=SubgroupFilter.parse, default="full")
    common(sp, _cmd_approx, formats=True)

    sp = sub.add_parser("exponent", help="exponent estimates for one pair (or a replayed trace)")
    sp.add_argument("--u")
    sp.add_argument("--v")
    sp.add_argument("--budgets", default="256:134217728:2")
    sp.add_argument("--tail-fraction", type=float, default=0.5)
    sp.add_argument("--replay", default=None, help="read a trace CSV instead of computing one")
    common(sp, _cmd_exponent)

    sp = sub.add_parser("survey", help="exponent survey / uniform-grid target survey")
    sp.add_argument("--mode", choices=("exponents", "uniform"), default="exponents")
    sp.add_argument("--pairs", type=int, default=100)
    sp.add_argument("--budgets", default="256:134217728:2")
    sp.add_argument("--v", default=None, help="fix the target (random otherwise)")
    sp.add_argument("--tail-fraction", type=float, default=0.5)
    sp.add_argument("--omega", default=None, help="target rectangle x0,x1,y0,y1 (uniform mode)")
    sp.add_argument("--eta", type=float, default=0.15)
    sp.add_argument("--kmax", type=int, default=10**5)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--tau", type=_parse_tau, default="0", help="spectral-gap parameter (float or fraction like 7/64)")
    common(sp, _cmd_survey)

    sp = sub.add_parser("hit-times", help="shrinking-target certification over random points")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--kmax", type=int, default=10**5)
    sp.add_argument("--samples", type=int, default=50)
    common(sp, _cmd_hit_times)

    sp = sub.add_parser("ergodic-variance", help="orbit-average variance decay curve")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--Ts", default="64:16384:2", help="geometric grid of orbit half-widths")
    sp.add_argument("--samples", type=int, default=10**4)
    common(sp, _cmd_ergodic_variance)

    sp = sub.add_parser("miss-rate", help="missing-orbit fraction curve")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.2)
    sp.add_argument("--Ts", default="16:4096:2")
    sp.add_argument("--samples", type=int, default=10**4)
    common(sp, _cmd_miss_rate, formats=True)

    sp = sub.add_parser("matcoef", help="correlation decay of the centered target bump")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--ts", default="16:4096:2")
    sp.add_argument("--samples", type=int, default=10**4)
    sp.add_argument("--orbit-window", type=int, default=0)
    common(sp, _cmd_matcoef)

    return p


# Parsed options that say where and how a run writes, or how many processes
# it uses, do not change its results and stay out of its provenance config.
_UNRECORDED = ("command", "fn", "workers", "out", "format", "dump")


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(w.capitalize() for w in rest)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = {"cmd": args.command, **{_camel(k): v for k, v in vars(args).items() if k not in _UNRECORDED}}
    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        if args.out:  # fail before the run, and leave no file the check made
            made = not os.path.exists(args.out)
            open(args.out, "a").close()
            if made:
                os.remove(args.out)
        return args.fn(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OrbitLabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
