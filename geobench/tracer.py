"""In-memory span tracer that wraps geodisc's functions from outside.

Each wrapped name is replaced on the object it is looked up on (a module
for a global call such as ``continuation.newton_solve``, a class for a
method such as ``FourierDisc.boundary_values``), so the span is named
after the call site.  A span is the tuple

    (id, name, start, end, parent, op, thread, failed, attrs)

with ``parent`` the enclosing span on the same thread, or the current
operation's root span for work started on a pool thread.  Spans stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "op", "thread", "failed", "attrs")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent

    def _leave(self, sid, name, t0, parent, failed, attrs):
        t1 = perf_counter()
        self._stack().pop()
        self.spans.append(
            (sid, name, t0, t1, parent, self.op, threading.get_ident(), failed, attrs)
        )

    def wrap(self, owner, attr, name, tag=None):
        """Replace owner.attr by a spanning wrapper.

        ``tag(args, kwargs, result)`` may return a small dict stored with
        the span; ``result`` is None when the call raised.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid, parent = tracer._enter()
            result, failed = None, True
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
                failed = False
                return result
            finally:
                attrs = tag(args, kwargs, result) if tag is not None else None
                tracer._leave(sid, name, t0, parent, failed, attrs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation."""
        self.op = op_id
        self.root, _ = self._enter()
        return perf_counter()

    def end_op(self, t0, failed):
        sid, self.root = self.root, None
        self._leave(sid, "op", t0, None, failed, None)
        self.op = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def rows_of(x) -> int:
    """Number of points in an (..., d) coordinate array."""
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= int(s)
    return n


def install(tracer: Tracer, geodisc_modules: dict):
    """Wrap the public call sites of every layer that the solve path uses."""
    cli = geodisc_modules["cli"]
    cont = geodisc_modules["continuation"]
    disc = geodisc_modules["disc"]
    domain = geodisc_modules["domain"]
    metrics = geodisc_modules["metrics"]

    def rows_arg(args, kwargs, result):
        return {"rows": rows_of(args[1])}

    def newton_tag(args, kwargs, result):
        config = args[3] if len(args) > 3 else kwargs.get("config")
        out = {"N": int(config.N) if config is not None else 64}
        if result is not None:
            out["iters"] = int(result.diagnostics.get("newton_iters", 0))
        return out

    DomainSpec = domain.DomainSpec
    Poly = domain.PolynomialDefiningFunction
    tracer.wrap(DomainSpec, "rescaled", "domain.DomainSpec.rescaled")
    tracer.wrap(DomainSpec, "gauge_many", "domain.DomainSpec.gauge_many", rows_arg)
    tracer.wrap(DomainSpec, "gauge_sq_derivatives", "domain.DomainSpec.gauge_sq_derivatives", rows_arg)
    tracer.wrap(Poly, "value", "domain.PolynomialDefiningFunction.value", rows_arg)
    tracer.wrap(Poly, "value_gradient_hessian",
                "domain.PolynomialDefiningFunction.value_gradient_hessian", rows_arg)
    tracer.wrap(domain, "verify_convexity", "domain.verify_convexity")
    tracer.wrap(cli, "verify_convexity", "cli.verify_convexity")

    tracer.wrap(cont, "ball_seed", "continuation.ball_seed")
    tracer.wrap(cont, "continue_path", "continuation.continue_path")
    tracer.wrap(cont, "newton_solve", "continuation.newton_solve", newton_tag)
    tracer.wrap(cont, "normalize", "continuation.normalize")

    tracer.wrap(metrics, "solve_extremal", "metrics.solve_extremal")
    tracer.wrap(metrics, "verify_E", "metrics.verify_E")
    tracer.wrap(metrics, "left_inverse", "metrics.left_inverse")
    tracer.wrap(metrics, "lempert_distance", "metrics.lempert_distance")
    tracer.wrap(metrics, "kobayashi_royden", "metrics.kobayashi_royden")

    tracer.wrap(disc.FourierDisc, "boundary_values", "disc.FourierDisc.boundary_values")

    tracer.wrap(cli, "cmd_table", "cli.cmd_table")
    tracer.wrap(cli, "lempert_distance", "cli.lempert_distance")
    tracer.wrap(cli, "verify_E", "cli.verify_E")
