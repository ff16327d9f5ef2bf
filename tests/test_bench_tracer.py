"""The traced benchmark run (geobench/tracer.py) wraps geodisc's call
sites by name.  Installing and removing the wrappers, without a solve,
makes a deleted or renamed call site fail here instead of in the middle
of a benchmark run."""

import importlib
from pathlib import Path

GEOBENCH = Path(__file__).resolve().parents[1] / "geobench"
MODULES = ("cli", "continuation", "disc", "domain", "metrics", "stationary")


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_call_site(monkeypatch):
    monkeypatch.syspath_prepend(str(GEOBENCH))
    tracing = importlib.import_module("tracer")
    modules = {name: importlib.import_module(f"geodisc.{name}") for name in MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        patches = list(tracer._patches)
        assert all(current(owner, attr) is not orig for owner, attr, orig in patches)
    finally:
        tracer.unwrap_all()
    assert len(patches) == 20
    assert all(current(owner, attr) is orig for owner, attr, orig in patches)
    assert tracer.spans == []


def test_newton_span_reads_the_config_argument(monkeypatch):
    from geodisc.continuation import ball_seed
    from geodisc.domain import PolynomialDefiningFunction
    from geodisc.stationary import Constraint, NewtonConfig

    monkeypatch.syspath_prepend(str(GEOBENCH))
    tracing = importlib.import_module("tracer")
    modules = {name: importlib.import_module(f"geodisc.{name}") for name in MODULES}
    con = Constraint("two-point", [0.25, 0.0])
    seed = ball_seed([0.0, 0.0], con, N=16)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, modules)
        modules["continuation"].newton_solve(
            PolynomialDefiningFunction.unit_ball(2), con, seed, NewtonConfig(N=16)
        )
    finally:
        tracer.unwrap_all()
    (span,) = [s for s in tracer.spans if s[1] == "continuation.newton_solve"]
    attrs = span[-1]
    assert attrs["N"] == 16
    assert "iters" in attrs
