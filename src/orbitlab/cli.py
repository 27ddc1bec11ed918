"""Command-line front end: experiment configuration, persistence, plot-data emission.

Every output file embeds {seed, config hash, artifact version}; no timestamps
are written, so a rerun with identical configuration and --workers 1 produces
byte-identical files.  Exit codes: 0 on success, 2 for configuration errors,
3 for numerical/domain errors.
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
from .approx import ApproxTrace, approx_trace, estimate_exponents, survey_exponents
from .enumeration import SubgroupFilter, count, dump_elements
from .ergodic import (
    matcoef_curve,
    miss_rate_curve,
    shrinking_hit_report,
    uniform_grid_experiment,
    variance_curve,
)
from .errors import ExactHit, OrbitLabError
from .homogeneous import TargetSpec, haar_sample

__all__ = ["main"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_rect(text: str) -> tuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"expected 'x0,x1,y0,y1', got {text!r}")
    return tuple(parts)


def _parse_grid(text: str) -> list:
    """Geometric grid spec 'lo:hi:ratio' (inclusive of hi up to rounding)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected 'lo:hi:ratio', got {text!r}")
    lo, hi, ratio = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (lo, hi, ratio)) or lo <= 0 or hi < lo or ratio <= 1.0:
        raise ConfigError(f"bad geometric grid {text!r}")
    out = []
    t = lo
    while t <= hi * (1.0 + 1e-12):
        out.append(t)
        t *= ratio
    return out


def _parse_tau(text: str) -> float:
    if "/" in text:
        tau = float(Fraction(text))
    else:
        tau = float(text)
    if not 0.0 <= tau < 0.5:
        raise ConfigError(f"spectral-gap parameter must lie in [0, 1/2), got {tau}")
    return tau


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _meta(cfg: dict) -> dict:
    return {
        "seed": cfg.get("seed"),
        "configHash": _config_hash(cfg),
        "version": __version__,
    }


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit_csv(path, header_cols, rows, cfg: dict) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(_meta(cfg).items())]
    lines.append(",".join(header_cols))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(path, payload: dict, cfg: dict) -> None:
    doc = dict(payload)
    doc["meta"] = _meta(cfg)
    text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_enumerate(args) -> int:
    flt = SubgroupFilter.parse(args.filter)
    n = count(args.T, flt, workers=args.workers)
    cfg = {"cmd": "enumerate", "T": args.T, "filter": str(flt), "seed": args.seed}
    print(n)
    if args.dump:
        os.makedirs(os.path.dirname(os.path.abspath(args.dump)), exist_ok=True)
        dump_elements(args.dump, args.T, flt)
    if args.out:
        _emit_json(args.out, {"count": n, "T": args.T, "filter": str(flt)}, cfg)
    return 0


def _cmd_approx(args) -> int:
    budgets = _parse_grid(args.budgets)
    flt = SubgroupFilter.parse(args.filter)
    cfg = {
        "cmd": "approx",
        "u": args.u,
        "v": args.v,
        "budgets": args.budgets,
        "filter": str(flt),
        "seed": args.seed,
    }
    tr = approx_trace(_parse_pair(args.u), _parse_pair(args.v), budgets, subgroup=flt)
    if args.format == "json":
        rows = [
            {"T": T, "dist": d, "norm": n, "a": a, "b": b, "c": c, "d": dd}
            for (T, d, n, a, b, c, dd) in tr.rows()
        ]
        _emit_json(args.out, {"u": tr.u, "v": tr.v, "trace": rows}, cfg)
    else:
        _emit_csv(args.out, ["T", "dist", "norm", "a", "b", "c", "d"], tr.rows(), cfg)
    return 0


def _cmd_exponent(args) -> int:
    cfg = {
        "cmd": "exponent",
        "u": args.u,
        "v": args.v,
        "budgets": args.budgets,
        "tailFraction": args.tail_fraction,
        "replay": args.replay,
        "seed": args.seed,
    }
    if args.replay:
        with open(args.replay) as fh:
            tr = ApproxTrace.from_csv(fh.read())
    else:
        if args.u is None or args.v is None:
            raise ConfigError("exponent needs --u and --v (or --replay)")
        budgets = _parse_grid(args.budgets)
        tr = approx_trace(_parse_pair(args.u), _parse_pair(args.v), budgets)
    try:
        est = estimate_exponents(tr, tail_fraction=args.tail_fraction)
        payload = est.as_dict()
        payload["exactHit"] = False
    except ExactHit as exc:
        rec = exc.record
        payload = {
            "exactHit": True,
            "muHat": math.inf,
            "mu": math.inf,
            "gamma": list(rec.gamma.entries()) if rec is not None else None,
        }
    _emit_json(args.out, payload, cfg)
    return 0


def _cmd_survey(args) -> int:
    tau = _parse_tau(args.tau)
    cfg = {
        "cmd": "survey",
        "mode": args.mode,
        "pairs": args.pairs,
        "budgets": args.budgets,
        "v": args.v,
        "omega": args.omega,
        "eta": args.eta,
        "kmax": args.kmax,
        "samples": args.samples,
        "tau": tau,
        "tailFraction": args.tail_fraction,
        "seed": args.seed,
    }
    if args.mode == "exponents":
        budgets = _parse_grid(args.budgets)
        fixed_v = _parse_pair(args.v) if args.v else None
        rows = survey_exponents(
            args.pairs,
            budgets,
            seed=args.seed,
            fixed_v=fixed_v,
            tail_fraction=args.tail_fraction,
        )
        cols = ["index", "u1", "u2", "v1", "v2", "muHat", "mu", "muHatFrobenius", "muFrobenius", "exactHit"]
        csv_rows = [
            [r["index"], r["u1"], r["u2"], r["v1"], r["v2"], r.get("muHat"),
             r.get("mu"), r.get("muHatFrobenius", math.inf), r.get("muFrobenius", math.inf),
             int(r["exactHit"])]
            for r in rows
        ]
        finite = [r["muHat"] for r in rows if not r["exactHit"]]
        summary = {
            "theory": _theory_windows(tau),
            "muHatQuantiles": {
                q: float(np.quantile(finite, float(q))) for q in ("0.05", "0.25", "0.5", "0.75", "0.95")
            }
            if finite
            else {},
            "nExactHits": sum(1 for r in rows if r["exactHit"]),
        }
        if args.out:
            _emit_csv(args.out, cols, csv_rows, cfg)
            _emit_json(args.out + ".summary.json", summary, cfg)
        else:
            _emit_csv(None, cols, csv_rows, cfg)
            _emit_json(None, summary, cfg)
        return 0
    # uniform mode: grid targets over a compact rectangle
    if not args.omega:
        raise ConfigError("survey --mode uniform needs --omega")
    omega = _parse_rect(args.omega)
    points = haar_sample(args.samples, args.seed)
    per_sample = []
    for pt in points:
        rep = uniform_grid_experiment(omega, args.eta, pt, args.kmax)
        per_sample.append({"T0": rep.T0, "levels": rep.levels})
    found = [p["T0"] for p in per_sample if p["T0"] is not None]
    payload = {
        "config": {"omega": list(omega), "eta": args.eta, "kmax": args.kmax},
        "theory": _theory_windows(tau),
        "perSample": per_sample,
        "summary": {
            "nFound": len(found),
            "n": len(per_sample),
            "maxT0": max(found) if found else None,
        },
    }
    _emit_json(args.out, payload, cfg)
    return 0


def _cmd_hit_times(args) -> int:
    v = _parse_pair(args.v)
    cfg = {
        "cmd": "hit-times",
        "v": args.v,
        "eta": args.eta,
        "kmax": args.kmax,
        "samples": args.samples,
        "seed": args.seed,
    }
    points = haar_sample(args.samples, args.seed)
    per_sample = [shrinking_hit_report(args.eta, pt, args.kmax, v) for pt in points]
    found = [p["T0"] for p in per_sample if p["T0"] is not None]
    payload = {
        "config": {"v": list(v), "eta": args.eta, "kmax": args.kmax},
        "perSample": per_sample,
        "summary": {"nFound": len(found), "n": len(per_sample), "maxT0": max(found) if found else None},
    }
    _emit_json(args.out, payload, cfg)
    return 0


def _cmd_ergodic_variance(args) -> int:
    v = _parse_pair(args.v)
    spec = TargetSpec(v[0], v[1], args.delta)
    Ts = [int(t) for t in _parse_grid(args.Ts)]
    cfg = {
        "cmd": "ergodic-variance",
        "v": args.v,
        "delta": args.delta,
        "Ts": args.Ts,
        "samples": args.samples,
        "seed": args.seed,
    }
    curve = variance_curve(spec, Ts, args.samples, args.seed, workers=args.workers)
    _emit_csv(args.out, ["T", "value", "stderr"], curve.rows(), cfg)
    return 0


def _cmd_miss_rate(args) -> int:
    v = _parse_pair(args.v)
    Ts = [int(t) for t in _parse_grid(args.Ts)]
    cfg = {
        "cmd": "miss-rate",
        "v": args.v,
        "delta": args.delta,
        "Ts": args.Ts,
        "samples": args.samples,
        "seed": args.seed,
    }
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


def _cmd_matcoef(args) -> int:
    v = _parse_pair(args.v)
    spec = TargetSpec(v[0], v[1], args.delta)
    ts = _parse_grid(args.ts)
    cfg = {
        "cmd": "matcoef",
        "v": args.v,
        "delta": args.delta,
        "ts": args.ts,
        "samples": args.samples,
        "orbitWindow": args.orbit_window,
        "seed": args.seed,
    }
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

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", default=None, help="output file (stdout when omitted)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--tau", default="0", help="spectral-gap parameter (float or fraction like 7/64)")

    sp = sub.add_parser("enumerate", help="count / dump a norm ball")
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--filter", default="full")
    sp.add_argument("--dump", default=None, help="path for a binary dump")
    common(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("approx", help="best-approximation trace over a budget grid")
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--budgets", required=True, help="geometric grid lo:hi:ratio")
    sp.add_argument("--filter", default="full")
    common(sp)
    sp.set_defaults(fn=_cmd_approx)

    sp = sub.add_parser("exponent", help="exponent estimates for one pair (or a replayed trace)")
    sp.add_argument("--u")
    sp.add_argument("--v")
    sp.add_argument("--budgets", default="256:134217728:2")
    sp.add_argument("--tail-fraction", type=float, default=0.5)
    sp.add_argument("--replay", default=None, help="read a trace CSV instead of computing one")
    common(sp)
    sp.set_defaults(fn=_cmd_exponent)

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
    common(sp)
    sp.set_defaults(fn=_cmd_survey)

    sp = sub.add_parser("hit-times", help="shrinking-target certification over random points")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--kmax", type=int, default=10**5)
    sp.add_argument("--samples", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=_cmd_hit_times)

    sp = sub.add_parser("ergodic-variance", help="orbit-average variance decay curve")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--Ts", default="64:16384:2", help="geometric grid of orbit half-widths")
    sp.add_argument("--samples", type=int, default=10**4)
    common(sp)
    sp.set_defaults(fn=_cmd_ergodic_variance)

    sp = sub.add_parser("miss-rate", help="missing-orbit fraction curve")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.2)
    sp.add_argument("--Ts", default="16:4096:2")
    sp.add_argument("--samples", type=int, default=10**4)
    common(sp)
    sp.set_defaults(fn=_cmd_miss_rate)

    sp = sub.add_parser("matcoef", help="correlation decay of the centered target bump")
    sp.add_argument("--v", default="1.3,0.8")
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--ts", default="16:4096:2")
    sp.add_argument("--samples", type=int, default=10**4)
    sp.add_argument("--orbit-window", type=int, default=0)
    common(sp)
    sp.set_defaults(fn=_cmd_matcoef)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        _parse_tau(args.tau)
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OrbitLabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
