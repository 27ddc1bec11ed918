"""Per-layer metrics of a traced run, derived from its spans and work counters.

Layers are the package's modules.  Each metric is measured on the calls the
workload itself makes into that module's public functions.  A function the
workload never calls is measured on the probe instead: a fixed, tiny run of
the other two workloads at the end of every traced run, so that every metric
exists on every workload.  The report marks such values "(probe)".  Times
are at reference speed, like the end-to-end times (recorder.py).
"""

from __future__ import annotations

MODULES = ("enumeration", "approx", "homogeneous", "ergodic", "cli")

PER_LAYER = [
    ("enumeration.count_s", "s"),
    ("enumeration.count_ns_per_elem", "ns"),
    ("enumeration.elems_counted", "count"),
    ("enumeration.materialize_s", "s"),
    ("enumeration.rows_materialized", "count"),
    ("approx.best_approx_ms", "ms"),
    ("approx.trace_ms", "ms"),
    ("approx.ms_per_budget", "ms"),
    ("approx.budgets_resolved", "count"),
    ("approx.improve_frac", "frac"),
    ("approx.inexact_rows", "count"),
    ("approx.max_rel_err", "rel"),
    ("approx.wrong_witness_rows", "count"),
    ("approx.tie_order_violations", "count"),
    ("homogeneous.sample_s", "s"),
    ("homogeneous.membership_us", "us"),
    ("homogeneous.membership_calls", "count"),
    ("homogeneous.membership_hit_frac", "frac"),
    ("homogeneous.bump_us", "us"),
    ("homogeneous.reduce_us", "us"),
    ("ergodic.variance_s", "s"),
    ("ergodic.matcoef_s", "s"),
    ("ergodic.miss_rate_s", "s"),
    ("ergodic.hit_set_us", "us"),
    ("ergodic.window_counts_ms", "ms"),
    ("ergodic.uniform_grid_s", "s"),
    ("ergodic.report_ms", "ms"),
    ("ergodic.hits_total", "count"),
    ("ergodic.duality_mismatches", "count"),
    ("cli.command_s", "s"),
    ("cli.rerun_identical", "count"),
] + [(f"{m}.span_s", "s") for m in MODULES] + [
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
]


def per_layer(rec, tally, wall_untraced: float, wall_traced: float) -> tuple:
    """Returns ({metric: value}, names of metrics measured on the probe)."""
    m, probed = {}, set()

    def busy(fn: str, *names) -> tuple:
        spans, group = rec.pick(fn)
        if group == "probe":
            probed.update(names)
        return sum(rec.at_reference_speed(s.start, s.end) for s in spans), max(len(spans), 1), rec.counts[group]

    t, _, c = busy("enumeration.count", "enumeration.count_s", "enumeration.count_ns_per_elem", "enumeration.elems_counted")
    m["enumeration.count_s"] = t
    m["enumeration.elems_counted"] = c["elems_counted"]
    m["enumeration.count_ns_per_elem"] = 1e9 * t / max(c["elems_counted"], 1)
    t, _, c = busy("enumeration.elements_array", "enumeration.materialize_s", "enumeration.rows_materialized")
    m["enumeration.materialize_s"] = t
    m["enumeration.rows_materialized"] = c["rows_materialized"]

    t, n, _ = busy("approx.best_approx", "approx.best_approx_ms")
    m["approx.best_approx_ms"] = 1e3 * t / n
    names = ("approx.trace_ms", "approx.ms_per_budget", "approx.budgets_resolved", "approx.improve_frac")
    t, n, c = busy("approx.approx_trace", *names)
    m["approx.trace_ms"] = 1e3 * t / n
    m["approx.ms_per_budget"] = 1e3 * t / max(c["budgets_resolved"], 1)
    m["approx.budgets_resolved"] = c["budgets_resolved"]
    m["approx.improve_frac"] = c["budgets_improved"] / max(c["budgets_scanned"], 1)
    m["approx.inexact_rows"] = tally.inexact
    m["approx.max_rel_err"] = tally.max_rel_err
    m["approx.wrong_witness_rows"] = tally.wrong_witness
    m["approx.tie_order_violations"] = tally.reasons["tie_order"]

    m["homogeneous.sample_s"] = busy("homogeneous.haar_sample", "homogeneous.sample_s")[0]
    names = ("homogeneous.membership_us", "homogeneous.membership_calls", "homogeneous.membership_hit_frac")
    t, n, c = busy("homogeneous.in_quotient_target", *names)
    m["homogeneous.membership_us"] = 1e6 * t / n
    m["homogeneous.membership_calls"] = n
    m["homogeneous.membership_hit_frac"] = c["membership_hits"] / n
    t, n, _ = busy("homogeneous.target_bump", "homogeneous.bump_us")
    m["homogeneous.bump_us"] = 1e6 * t / n
    t, n, _ = busy("homogeneous.reduce_point", "homogeneous.reduce_us")
    m["homogeneous.reduce_us"] = 1e6 * t / n

    m["ergodic.variance_s"] = busy("ergodic.variance_curve", "ergodic.variance_s")[0]
    m["ergodic.matcoef_s"] = busy("ergodic.matcoef_curve", "ergodic.matcoef_s")[0]
    m["ergodic.miss_rate_s"] = busy("ergodic.miss_rate_curve", "ergodic.miss_rate_s")[0]
    t, n, _ = busy("ergodic.hit_set", "ergodic.hit_set_us")
    m["ergodic.hit_set_us"] = 1e6 * t / n
    t, n, _ = busy("ergodic.window_hit_counts", "ergodic.window_counts_ms")
    m["ergodic.window_counts_ms"] = 1e3 * t / n
    t, n, _ = busy("ergodic.uniform_grid_experiment", "ergodic.uniform_grid_s")
    m["ergodic.uniform_grid_s"] = t / n
    t, n, c = busy("ergodic.shrinking_hit_report", "ergodic.report_ms", "ergodic.hits_total")
    m["ergodic.report_ms"] = 1e3 * t / n
    m["ergodic.hits_total"] = c["hits_total"]
    m["ergodic.duality_mismatches"] = tally.reasons["duality"]

    m["cli.command_s"] = busy("cli.main", "cli.command_s")[0]
    m["cli.rerun_identical"] = tally.cli_identical

    for module in MODULES:
        for group in ("workload", "probe"):
            spans = [s for s in rec.spans if s.group == group and s.name.startswith(module + ".")]
            if spans:
                break
        if group == "probe":
            probed.add(f"{module}.span_s")
        m[f"{module}.span_s"] = sum(rec.at_reference_speed(s.start, s.end) for s in spans)

    m["trace.overhead_frac"] = (wall_traced - wall_untraced) / wall_untraced
    m["trace.spans"] = sum(s.group == "workload" for s in rec.spans)
    return m, probed
