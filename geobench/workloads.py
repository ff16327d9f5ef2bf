"""The four workloads: their domains, seeded inputs and checks.

A workload hands out rounds of operations.  Every round has the same
operations in the same order; only the points change with the seed and
the round index, so the share of failed operations is the same in every
run.  ``run`` is the timed part of an operation; ``check`` runs after the
clock stops and returns (values certified, reasons for rejected values).
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import checks

WARM_UP_ROUND = 2**31


@dataclass
class Op:
    kind: str  # "lempert", "kobayashi" or "table"
    domain: str
    x: object = None  # base point, or the grid of a table command
    y: object = None  # second point or direction
    checks: list = field(default_factory=list)  # callables value -> reason | None
    group: str = ""  # ops of one group must return equal values
    result: object = None


def _cpoint(rng, n):
    """A uniformly random unit vector of C^n."""
    x = rng.standard_normal(2 * n)
    x /= np.linalg.norm(x)
    return x[0::2] + 1j * x[1::2]


def _in_ellipsoid(rng, axes, lo, hi):
    """A random point whose ellipsoid gauge lies in [lo, hi]."""
    u = _cpoint(rng, len(axes))
    mu = np.sqrt(np.sum(np.abs(u / axes) ** 2))
    return u / mu * rng.uniform(lo, hi)


def _phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def _axis_point(axes, j, t):
    p = np.zeros(len(axes), complex)
    p[j] = axes[j] * t
    return p


def _fmt_point(p) -> str:
    return ",".join(f"{float(c.real)!r}{'+' if c.imag >= 0 else '-'}{abs(float(c.imag))!r}i" for c in p)


class Workload:
    """Domains live in ``self.domains``; files go to ``out_dir``."""

    name = ""

    def __init__(self, seed: int, out_dir: str, geodisc):
        self.seed = seed
        self.out_dir = out_dir
        self.g = geodisc
        self.domains = {}
        # the checks call the unwrapped functions even in a traced run
        self._left_inverse = geodisc.metrics.left_inverse
        self._verify_E = geodisc.stationary.verify_E

    def rng(self, round_index: int):
        return np.random.default_rng([self.seed, round_index])

    def load(self, key: str, spec: dict):
        """Write a domain file and load it back as the CLI does."""
        path = os.path.join(self.out_dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with open(path, "r", encoding="utf-8") as fh:
            dom = self.g.domain.load_domain(json.load(fh))
        if dom.kind == "polynomial":
            chk = self.g.domain.verify_convexity(dom)
            if not (chk["strongly_convex"] and chk["strongly_linearly_convex"]):
                raise RuntimeError(f"domain {key} fails the sampled convexity check")
        self.domains[key] = dom
        return path

    def setup(self):
        raise NotImplementedError

    def round(self, i: int) -> list:
        raise NotImplementedError

    def clear(self):
        """Remove the previous operation's files before the next one."""

    def artifact_bytes(self) -> int:
        return 0

    def warm_up_ops(self) -> list:
        """One operation of each kind, from a round that is never measured."""
        ops = {}
        for op in self.round(WARM_UP_ROUND):
            ops.setdefault(op.kind, op)
        return list(ops.values())

    def warm_up(self):
        for op in self.warm_up_ops():
            self.run(op)

    # -- one library call ----------------------------------------------------

    def run(self, op: Op):
        fn = getattr(self.g.metrics, "lempert_distance" if op.kind == "lempert" else "kobayashi_royden")
        op.result = fn(self.domains[op.domain], op.x, op.y)

    def check(self, op: Op):
        res, disc = op.result
        dom = self.domains[op.domain]
        roots = [self._left_inverse(disc, op.x)]
        if op.kind == "lempert":
            roots.append(self._left_inverse(disc, op.y))
        dual, reason = checks.dual_route(
            op.kind, (disc.f.coeffs, disc.f.k_min), (disc.f_tilde.coeffs, disc.f_tilde.k_min),
            op.x, op.y, roots,
        )
        reasons = [reason or checks.certificate(res.value, res.certificate_gap, dual)]
        if not self._verify_E(dom, disc, op.x).passed:
            reasons.append("verify_E does not pass")
        reasons += [c(res.value) for c in op.checks]
        reasons = [r for r in reasons if r]
        return (0 if reasons else 1), reasons

    def check_round(self, ops) -> list:
        """Cross-operation checks: values of one group must coincide."""
        groups = {}
        for op in ops:
            if op.group and op.result is not None:
                groups.setdefault(op.group, []).append(op.result[0].value)
        out = [checks.equal_values(v, f"invariance ({g})") for g, v in groups.items()]
        return [r for r in out if r]


def _lempert_checks(z, w, rho):
    return [lambda v: checks.sandwich_lempert(v, z, w, *rho)]


def _kobayashi_checks(z, v, rho):
    return [lambda val: checks.sandwich_kobayashi(val, z, v, *rho)]


class Quadric(Workload):
    """Ball and ellipsoids at no more than 0.6 of the boundary radius."""

    name = "quadric"
    E12 = np.array([1.0, 1.2])
    E2 = np.array([1.0, 2.0])

    def setup(self):
        self.load("ball2", {"n": 2, "kind": "ball"})
        self.load("ball3", {"n": 3, "kind": "ball"})
        self.load("E1_1.2", {"n": 2, "kind": "ellipsoid", "semiaxes": list(self.E12)})
        self.load("E1_2", {"n": 2, "kind": "ellipsoid", "semiaxes": list(self.E2)})
        self.warm_up()

    def round(self, i):
        rng = self.rng(i)
        ops = []
        z, w = (_in_ellipsoid(rng, np.ones(2), 0.1, 0.6) for _ in range(2))
        ops.append(Op("lempert", "ball2", z, w, [lambda v, z=z, w=w: checks.ball_lempert(v, z, w)]))
        z = _in_ellipsoid(rng, np.ones(3), 0.1, 0.6)
        v = _cpoint(rng, 3) * rng.uniform(0.5, 1.5)
        ops.append(Op("kobayashi", "ball3", z, v, [lambda val, z=z, v=v: checks.ball_kobayashi(val, z, v)]))
        # general points run a Newton solve; the ball cases above, and axis
        # cases on the longest axis below, are solved by the ball seed.  Two
        # thirds of the ops are general so that the median op runs Newton
        for key, axes in (("E1_1.2", self.E12), ("E1_2", self.E2)) * 2:
            rho = (axes.min(), axes.max())
            z, w = (_in_ellipsoid(rng, axes, 0.1, 0.6) for _ in range(2))
            ops.append(Op("lempert", key, z, w, _lempert_checks(z, w, rho)))
            z = _in_ellipsoid(rng, axes, 0.1, 0.6)
            v = _cpoint(rng, 2) * rng.uniform(0.5, 1.5)
            ops.append(Op("kobayashi", key, z, v, _kobayashi_checks(z, v, rho)))
        # points on the j-th axis, where the value has a closed form
        j = int(rng.integers(2))
        tz, tw = (rng.uniform(0.05, 0.6) * _phase(rng) for _ in range(2))
        z, w = _axis_point(self.E2, j, tz), _axis_point(self.E2, j, tw)
        ops.append(Op("lempert", "E1_2", z, w, _lempert_checks(z, w, (1.0, 2.0)) + [
            lambda v, a=self.E2[j], zj=z[j], wj=w[j]: checks.axis_lempert(v, a, zj, wj)]))
        j = int(rng.integers(2))
        z = _axis_point(self.E12, j, rng.uniform(0.05, 0.6) * _phase(rng))
        v = np.zeros(2, complex)
        v[j] = rng.uniform(0.5, 1.5) * _phase(rng)
        ops.append(Op("kobayashi", "E1_1.2", z, v, _kobayashi_checks(z, v, (1.0, 1.2)) + [
            lambda val, a=self.E12[j], zj=z[j], vj=v[j]: checks.axis_kobayashi(val, a, zj, vj)]))
        return ops


class NearBoundary(Workload):
    """E(1,2) with the base point at 0.78-0.80 (band 128) or 0.845-0.85
    (band 256) of the boundary along the first axis."""

    name = "near-boundary"
    AXES = np.array([1.0, 2.0])
    RHO = (1.0, 2.0)

    def setup(self):
        self.load("E1_2", {"n": 2, "kind": "ellipsoid", "semiaxes": list(self.AXES)})
        self.warm_up()

    def _base(self, rng, lo, hi):
        return np.array([rng.uniform(lo, hi) * _phase(rng), 0.0])

    def _target(self, rng):
        # |w_2| stays below 0.3: a larger second coordinate lowers the band
        return np.array([rng.uniform(0.1, 0.5) * _phase(rng), rng.uniform(0.0, 0.3) * _phase(rng)])

    def _direction(self, rng):
        return np.array([_phase(rng), rng.uniform(0.0, 0.4) * _phase(rng)]) * rng.uniform(0.5, 1.5)

    def round(self, i):
        # eleven band-128 operations and one band-256 one: the median sits
        # among the two-point band-128 solves, the costliest band-128 kind
        rng = self.rng(i)
        ops = []
        for _ in range(6):
            z, w = self._base(rng, 0.78, 0.80), self._target(rng)
            ops.append(Op("lempert", "E1_2", z, w, _lempert_checks(z, w, self.RHO)))
        for _ in range(2):
            z = self._base(rng, 0.78, 0.80)
            w = np.array([rng.uniform(0.1, 0.5) * _phase(rng), 0.0])
            ops.append(Op("lempert", "E1_2", z, w, _lempert_checks(z, w, self.RHO) + [
                lambda v, zj=z[0], wj=w[0]: checks.axis_lempert(v, 1.0, zj, wj)]))
        for _ in range(2):
            z, v = self._base(rng, 0.78, 0.80), self._direction(rng)
            ops.append(Op("kobayashi", "E1_2", z, v, _kobayashi_checks(z, v, self.RHO)))
        z = self._base(rng, 0.78, 0.80)
        v = np.array([rng.uniform(0.5, 1.5) * _phase(rng), 0.0])
        ops.append(Op("kobayashi", "E1_2", z, v, _kobayashi_checks(z, v, self.RHO) + [
            lambda val, zj=z[0], vj=v[0]: checks.axis_kobayashi(val, 1.0, zj, vj)]))
        z, w = self._base(rng, 0.845, 0.85), self._target(rng)
        ops.append(Op("lempert", "E1_2", z, w, _lempert_checks(z, w, self.RHO)))
        return ops


def _quartic_spec():
    monomials = [{"c": -1.0, "p": [0, 0, 0, 0]}]
    for d in range(4):
        for power, c in ((2, 1.0), (4, 0.5)):
            p = [0, 0, 0, 0]
            p[d] = power
            monomials.append({"c": c, "p": p})
    return {"n": 2, "kind": "polynomial", "monomials": monomials}


def _sym(z, swap=False, rot=(0, 0), conj=False):
    """The symmetries of the quartic: conjugation, quarter turns of each
    coordinate and the coordinate swap, applied in that order."""
    z = np.conj(z) if conj else np.array(z, complex)
    z = z * np.array([1j ** rot[0], 1j ** rot[1]])
    return z[::-1].copy() if swap else z


# z -> (z_2, z_1), (i z_1, z_2) and conj(z)
GENERATORS = (
    functools.partial(_sym, swap=True),
    functools.partial(_sym, rot=(1, 0)),
    functools.partial(_sym, conj=True),
)


class Quartic(Workload):
    """Symmetry images of base problems in the degree-4 domain.

    Every base problem needs band 128: band 64 misses the pairing contract
    by at least a factor 10 and band 128 meets it with a margin of at
    least 30, so the median does not sit between two cost classes.
    """

    name = "quartic"
    RHO = (checks.QUARTIC_RHO_IN, checks.QUARTIC_RHO_OUT)
    PAIRS = (
        ((0.053 + 0.222j, -0.262 + 0.247j), (-0.22 - 0.221j, -0.298 - 0.061j)),
        ((0.124 + 0.28j, 0.155 - 0.132j), (0.21 + 0.072j, -0.274 + 0.001j)),
        ((0.111 - 0.192j, -0.262 + 0.225j), (-0.069 + 0.168j, -0.288 + 0.102j)),
        ((-0.345 - 0.163j, 0.031 + 0.095j), (0.144 - 0.289j, 0.318 - 0.004j)),
        ((-0.051 - 0.234j, -0.112 + 0.154j), (0.091 + 0.198j, -0.137 + 0.162j)),
        ((0.312 - 0.119j, -0.232 - 0.105j), (-0.134 + 0.353j, -0.287 - 0.138j)),
    )
    DIRECTIONS = (
        ((-0.234 - 0.201j, -0.218 - 0.104j), (0.107 + 0.276j, 0.491 + 0.203j)),
        ((0.228 + 0.124j, 0.236 + 0.261j), (-0.091 + 0.138j, -0.595 - 0.407j)),
        ((0.162 + 0.205j, 0.139 + 0.341j), (0.163 - 0.172j, -0.068 - 0.488j)),
        ((-0.255 - 0.29j, -0.111 + 0.173j), (-0.458 - 0.27j, -0.315 + 0.35j)),
    )

    def setup(self):
        self.load("quartic", _quartic_spec())
        self.warm_up()

    def _element(self, rng):
        return dict(swap=bool(rng.integers(2)), rot=tuple(rng.integers(4, size=2)), conj=bool(rng.integers(2)))

    def round(self, i):
        rng = self.rng(i)
        ops = []
        z0, w0 = self.PAIRS[rng.integers(len(self.PAIRS))]
        g = self._element(rng)
        z, w = _sym(z0, **g), _sym(w0, **g)
        for image in (lambda p: p,) + GENERATORS:
            zi, wi = image(z), image(w)
            ops.append(Op("lempert", "quartic", zi, wi, _lempert_checks(zi, wi, self.RHO), "k"))
        z0, v0 = self.DIRECTIONS[rng.integers(len(self.DIRECTIONS))]
        g = self._element(rng)
        z, v = _sym(z0, **g), _sym(v0, **g)
        for image in (lambda p: p,) + GENERATORS:
            zi, vi = image(z), image(v)
            ops.append(Op("kobayashi", "quartic", zi, vi, _kobayashi_checks(zi, vi, self.RHO), "kappa"))
        return ops


class Table(Workload):
    """``geodisc table`` on an E(1,2) domain file, run through cli.main."""

    name = "table"
    AXES = np.array([1.0, 2.0])
    # a pair that needs band 128; its cell fails while sampling boundary.csv
    FAULT_GRID = "0.8,0;-0.3,0"

    def setup(self):
        self.path = self.load("E1_2", {"n": 2, "kind": "ellipsoid", "semiaxes": list(self.AXES)})
        self.table_dir = os.path.join(self.out_dir, "table")
        self.warm_up()

    def round(self, i):
        rng = self.rng(i)
        a = self.AXES
        random_grid = [_in_ellipsoid(rng, a, 0.1, 0.5) for _ in range(3)]
        j = int(rng.integers(2))
        axis_grid = [_in_ellipsoid(rng, a, 0.1, 0.5)] + [
            _axis_point(a, j, rng.uniform(0.05, 0.5) * _phase(rng)) for _ in range(2)
        ]
        return [Op("table", "E1_2", random_grid), Op("table", "E1_2", axis_grid),
                Op("table", "E1_2", self.FAULT_GRID)]

    def warm_up_ops(self):
        return [Op("table", "E1_2", self.round(WARM_UP_ROUND)[0].x[:2])]

    def artifact_paths(self):
        return [os.path.join(self.table_dir, n) for n in ("table.csv", "boundary.csv")]

    def run(self, op: Op):
        grid = op.x if isinstance(op.x, str) else ";".join(_fmt_point(p) for p in op.x)
        argv = ["table", self.path, f"--grid={grid}", "--output", self.table_dir]
        code = self.g.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"geodisc table exited {code}")

    def clear(self):
        for p in self.artifact_paths():
            if os.path.exists(p):
                os.remove(p)

    def artifact_bytes(self):
        return sum(os.path.getsize(p) for p in self.artifact_paths() if os.path.exists(p))

    def check(self, op: Op):
        pts = op.x
        with open(self.artifact_paths()[0], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(self.artifact_paths()[1], newline="", encoding="utf-8") as fh:
            samples = np.array([[float(v) for v in r[3:]] for r in list(csv.reader(fh))[1:]])
        reasons = []
        if len(rows) != len(pts) ** 2:
            reasons.append(f"table has {len(rows)} rows for {len(pts)} points")
        value = {(int(r["i"]), int(r["j"])): r for r in rows}
        certified = 0
        for (i, j), r in value.items():
            if i == j:
                continue
            v = float(r["value"])
            swapped = float(value[(j, i)]["value"]) if (j, i) in value else np.nan
            cell = [
                None if r["passed"] == "true" else f"cell ({i},{j}) did not pass",
                None if float(r["certificate_gap"]) < checks.CERT_TOL else f"cell ({i},{j}) gap",
                checks.expect_equal(v, swapped, f"swap symmetry ({i},{j})"),
                checks.sandwich_lempert(v, pts[i], pts[j], 1.0, 2.0),
            ]
            for axis in range(2):
                if pts[i][1 - axis] == 0 and pts[j][1 - axis] == 0:
                    cell.append(checks.axis_lempert(v, self.AXES[axis], pts[i][axis], pts[j][axis]))
            cell = [c for c in cell if c]
            reasons += cell
            certified += not cell
        pts_c = samples[:, 0::2] + 1j * samples[:, 1::2] if samples.size else np.zeros((0, 2))
        if len(pts_c) != 128 * len(pts) * (len(pts) - 1):
            reasons.append(f"boundary.csv has {len(pts_c)} samples")
            certified = 0
        elif (msg := checks.ellipsoid_boundary(pts_c, self.AXES)):
            reasons.append(msg)
            certified = 0
        return certified, reasons


WORKLOADS = {w.name: w for w in (Quadric, NearBoundary, Quartic, Table)}
