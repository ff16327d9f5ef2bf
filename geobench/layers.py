"""Per-layer metrics derived from the spans of a traced run.

Every value is a mean per benchmark operation unless its name says
otherwise; a layer that a workload never reaches reads 0.
"""

from __future__ import annotations

from collections import defaultdict

ID, NAME, START, END, PARENT, OP, THREAD, FAILED, ATTRS = range(9)

POLY_EVAL = {
    "domain.PolynomialDefiningFunction.value",
    "domain.PolynomialDefiningFunction.value_gradient_hessian",
}
GAUGE = {"domain.DomainSpec.gauge_many", "domain.DomainSpec.gauge_sq_derivatives"}
CONVEXITY = {"domain.verify_convexity", "cli.verify_convexity"}
VERIFY_E = {"metrics.verify_E", "cli.verify_E"}
METRIC_CALLS = {"metrics.lempert_distance", "metrics.kobayashi_royden", "cli.lempert_distance"}
METRIC_PARTS = {"metrics.solve_extremal", "metrics.verify_E", "metrics.left_inverse"}
# the work a table cell does in its pool thread, as seen from cli's globals
TABLE_CELL = {"cli.lempert_distance", "cli.verify_E"}
BANDS = (64, 128, 256)

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "domain.rescaled.calls": ("count", "lower"),
    "domain.rescaled.s": ("s", "lower"),
    "domain.gauge.rows": ("count", "lower"),
    "domain.poly_eval.points": ("count", "lower"),
    "domain.poly_eval.s": ("s", "lower"),
    "domain.verify_convexity.s": ("s", "lower"),
    "continuation.band_attempts": ("count", "lower"),
    "continuation.attempt_yield": ("ratio", "higher"),
    "continuation.homotopy_steps": ("count", "lower"),
    "continuation.ball_seed.s": ("s", "lower"),
    "continuation.continue_path.s": ("s", "lower"),
    "stationary.newton_solve.calls": ("count", "lower"),
    "stationary.newton_solve.failed": ("count", "lower"),
    "stationary.newton_iters": ("count", "lower"),
    **{f"stationary.s_per_iter.N{N}": ("s", "lower") for N in BANDS},
    "stationary.normalize.rejections": ("count", "lower"),
    "stationary.verify_E.calls": ("count", "lower"),
    "stationary.verify_E.s": ("s", "lower"),
    "metrics.left_inverse.s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "disc.boundary_values.calls": ("count", "lower"),
    "disc.boundary_values.s": ("s", "lower"),
    "cli.table.self_s": ("s", "lower"),
    "cli.table.parallel_eff": ("ratio", "higher"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _dur(s):
    return s[END] - s[START]


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def derive(spans, n_ops: int, artifact_bytes: float, overhead_s: float) -> dict:
    """Per-layer metrics of ``n_ops`` traced operations.

    ``spans`` also holds the set-up spans (op None) of one set-up, which
    give ``domain.verify_convexity.s``.  ``artifact_bytes`` is the total
    size of the files the operations wrote.
    """
    by_id = {s[ID]: s for s in spans}
    ops = [s for s in spans if s[OP] is not None]
    named = defaultdict(list)
    children = defaultdict(list)
    for s in ops:
        named[s[NAME]].append(s)
        children[s[PARENT]].append(s)

    def outermost(names):
        """Spans of ``names`` not nested in another span of ``names``."""
        out = []
        for s in ops:
            if s[NAME] not in names:
                continue
            p = by_id.get(s[PARENT])
            while p is not None and p[NAME] not in names:
                p = by_id.get(p[PARENT])
            if p is None:
                out.append(s)
        return out

    def calls(*names):
        return sum(len(named[n]) for n in names)

    def seconds(*names):
        return sum(_dur(s) for n in names for s in named[n])

    n = max(n_ops, 1)
    m = {}
    m["domain.rescaled.calls"] = calls("domain.DomainSpec.rescaled") / n
    m["domain.rescaled.s"] = seconds("domain.DomainSpec.rescaled") / n
    m["domain.gauge.rows"] = sum(s[ATTRS]["rows"] for s in outermost(GAUGE)) / n
    poly = outermost(POLY_EVAL)
    m["domain.poly_eval.points"] = sum(s[ATTRS]["rows"] for s in poly) / n
    m["domain.poly_eval.s"] = sum(_dur(s) for s in poly) / n
    m["domain.verify_convexity.s"] = float(sum(
        _dur(s) for s in spans if s[OP] is None and s[NAME] in CONVEXITY
    ))

    attempts = calls("continuation.continue_path")
    accepted = sum(1 for s in named["continuation.normalize"] if not s[FAILED])
    m["continuation.band_attempts"] = attempts / n
    m["continuation.attempt_yield"] = accepted / attempts if attempts else 0.0
    newton = named["continuation.newton_solve"]
    m["continuation.homotopy_steps"] = sum(
        1 for s in newton if s[PARENT] in by_id and by_id[s[PARENT]][NAME] == "continuation.continue_path"
    ) / n
    m["continuation.ball_seed.s"] = seconds("continuation.ball_seed") / n
    m["continuation.continue_path.s"] = seconds("continuation.continue_path") / n

    m["stationary.newton_solve.calls"] = len(newton) / n
    m["stationary.newton_solve.failed"] = sum(1 for s in newton if s[FAILED]) / n
    ok = [s for s in newton if not s[FAILED]]
    m["stationary.newton_iters"] = sum(s[ATTRS]["iters"] for s in ok) / n
    for N in BANDS:
        band = [s for s in ok if s[ATTRS]["N"] == N]
        iters = sum(s[ATTRS]["iters"] for s in band)
        m[f"stationary.s_per_iter.N{N}"] = sum(_dur(s) for s in band) / iters if iters else 0.0
    m["stationary.normalize.rejections"] = sum(
        1 for s in named["continuation.normalize"] if s[FAILED]
    ) / n
    m["stationary.verify_E.calls"] = calls(*VERIFY_E) / n
    m["stationary.verify_E.s"] = seconds(*VERIFY_E) / n

    m["metrics.left_inverse.s"] = seconds("metrics.left_inverse") / n
    self_s = 0.0
    for name in METRIC_CALLS:
        for s in named[name]:
            parts = sum(_dur(c) for c in children[s[ID]] if c[NAME] in METRIC_PARTS)
            self_s += _dur(s) - parts
    m["metrics.self_s"] = self_s / n

    bv = outermost({"disc.FourierDisc.boundary_values"})
    m["disc.boundary_values.calls"] = len(bv) / n
    m["disc.boundary_values.s"] = sum(_dur(s) for s in bv) / n

    table_self, effs = 0.0, []
    for cmd in named["cli.cmd_table"]:
        cells = [s for s in ops if s[OP] == cmd[OP] and s[NAME] in TABLE_CELL]
        wall = _dur(cmd)
        table_self += wall - _union_length((s[START], s[END]) for s in cells)
        workers = len({s[THREAD] for s in cells}) or 1
        effs.append(sum(_dur(s) for s in cells) / (wall * workers))
    m["cli.table.self_s"] = table_self / n
    m["cli.table.parallel_eff"] = sum(effs) / len(effs) if effs else 0.0
    m["cli.artifact_bytes"] = artifact_bytes / n
    m["trace.overhead_s"] = overhead_s
    return m
