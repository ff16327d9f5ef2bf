"""Command-line front end.

Four subcommands:

  solve      extremal disc through a point pair (--to) or along a
             direction (--dir); writes metrics, the disc bundle, and the
             continuation trace
  verify     re-check a saved disc bundle against its domain
  table      distance matrix over a point grid plus plot-ready boundary
             samples of every disc
  factorize  standalone spectral factorization of a matrix symbol

Exit codes: 0 all certificates pass, 1 input error (bad file, bad point,
bad flag), 2 solver or certification failure.  On a stalled continuation
the partial trace is still written.

Points on the command line are comma-separated coordinates, one per
complex dimension, each in "re+imi" form:

  coordinate := FLOAT | [sign] [FLOAT] "i" | FLOAT sign [FLOAT] "i"

where FLOAT is a plain decimal with optional exponent ("0.5", "1e-3",
".25") and a lone "i" means the unit imaginary.  Examples: "0.5,0",
"0.1+0.2i,-0.3i", "1e-2,0.4-i".  No spaces inside a coordinate, no "j".
A point starting with a minus sign must be attached to its flag with
"=", as in --to=-0.2,0.5i.

All floating output is printed with 17 significant digits, and JSON
artifacts are written with sorted keys so identical runs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from .disc import FourierDisc
from .domain import DomainSpec, _json_number, load_domain, verify_convexity
from .errors import (
    DomainViolation,
    GeodiscError,
    InvalidConstraint,
    NotPositive,
    NotSymmetric,
    StepUnderflow,
)
from .factor import spectral_factorize
from .metrics import geodesic_consistency, kobayashi_royden, lempert_distance
from .stationary import NewtonConfig, StationaryDisc, verify_E

# geodesic_consistency is exact on the truncated space, so any healthy
# bundle passes this with a wide margin.
CONSISTENCY_TOL = 1e-9

_TRACE_COLUMNS = ("t", "step", "newton_iters", "residual", "xi_or_lambda", "holder_C")
_METRICS_COLUMNS = (
    "kind", "value", "xi_or_lambda", "certificate_gap", "wind_phi", "wind_G",
    "residual_blended", "boundary_sup", "dual_tail_sup",
)

# fixed parameter pairs for the verify subcommand's consistency check
_VERIFY_PAIRS = (
    (0.0 + 0.0j, 0.3 + 0.0j),
    (0.5j, -0.2 + 0.1j),
    (-0.4 + 0.0j, 0.25 + 0.25j),
)


# ---------------------------------------------------------------------------
# point grammar
# ---------------------------------------------------------------------------

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_COORD = re.compile(
    rf"^(?:[-+]?{_FLOAT}[-+](?:{_FLOAT})?i|[-+]?(?:{_FLOAT})?i|[-+]?{_FLOAT})$"
)


def parse_coordinate(token: str) -> complex:
    """One coordinate in re+imi form -> complex."""
    if not _COORD.match(token):
        raise ValueError(
            f"cannot parse coordinate {token!r}: expected re+imi form like "
            "'0.5', '-0.3i' or '0.5+0.3i'"
        )
    # the grammar guarantees at most one 'i' and no other letters besides
    # an exponent marker, so a plain substitution is safe
    return complex(token.replace("i", "j"))


def parse_point(text: str, n: int) -> np.ndarray:
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != n:
        raise ValueError(f"point must have {n} comma-separated coordinates, got {len(tokens)}")
    return np.array([parse_coordinate(t) for t in tokens], dtype=complex)


def fmt(x) -> str:
    """17-significant-digit rendering used for every float we print."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to print non-finite value {x!r}")
    return format(x, ".17g")


def format_point(z: np.ndarray) -> str:
    parts = []
    for c in np.asarray(z, dtype=complex):
        sign = "+" if c.imag >= 0 else "-"
        parts.append(f"{fmt(c.real)}{sign}{fmt(abs(c.imag))}i")
    return ",".join(parts)


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Sorted keys, fixed float format, trailing newline.

    json.dumps hard-wires float.__repr__, so a small hand-rolled emitter
    is the simplest way to honor the 17-digit contract.
    """
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj, out, depth):
    pad = "  " * depth
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        for i, (k, v) in enumerate(items):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad + "  ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise ValueError(f"cannot serialize {type(obj).__name__} to JSON")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _tol_res(args) -> float:
    if not args.tol_res > 0:
        raise ValueError(f"tol_res must be positive, got {args.tol_res}")
    return args.tol_res


def _newton(args) -> NewtonConfig:
    """The solver setting of a solve or table run, from --N and --tol-res."""
    if args.N < 8:
        raise ValueError(f"N must be at least 8, got {args.N}")
    return NewtonConfig(N=args.N, tol_res=_tol_res(args))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_domain_file(path: str, seed_rng: int = 0) -> DomainSpec:
    domain = load_domain(_read_json(path))
    if domain.kind == "polynomial":
        # ball and ellipsoid kinds are convex by construction; a hand-written
        # polynomial needs the sampled check before the solver trusts it
        chk = verify_convexity(domain, seed=seed_rng)
        if not (chk["strongly_convex"] and chk["strongly_linearly_convex"]):
            m = chk["min_margins"]
            raise DomainViolation(
                "defining polynomial fails the sampled convexity check "
                f"(convexity margin {m['convexity']:.3e}, linear margin "
                f"{m['linear_convexity']:.3e})"
            )
    return domain


def _out_path(output: str, name: str) -> str:
    os.makedirs(output, exist_ok=True)
    return os.path.join(output, name)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_cell(v) -> str:
    if type(v) is float:  # most cells: boundary samples come as Python floats
        return fmt(v)
    if v is None or v == "":
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    return str(v)


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([_csv_cell(v) for v in row] for row in rows)


def write_trace_csv(path: str, rows):
    _write_csv(path, _TRACE_COLUMNS, ([row.get(c, "") for c in _TRACE_COLUMNS] for row in rows))


def _report_violations(lines) -> int:
    """Print one stderr line per failed certificate; the exit code."""
    for line in lines:
        print(f"violated: {line}", file=sys.stderr)
    return 2 if lines else 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    newton = _newton(args)
    domain = _load_domain_file(args.domain, args.seed_rng)
    z = parse_point(args.from_, domain.n)

    try:
        if args.to is not None:
            w = parse_point(args.to, domain.n)
            result, disc = lempert_distance(domain, z, w, newton)
        else:
            v = parse_point(args.dir, domain.n)
            result, disc = kobayashi_royden(domain, z, v, newton)
    except StepUnderflow as e:
        if e.path is not None:
            trace_path = _out_path(args.output, "trace.csv")
            write_trace_csv(trace_path, e.path.trace)
            print(f"partial trace written to {trace_path}", file=sys.stderr)
        raise

    if args.format == "csv":
        wind, res = result.windings, result.residuals
        row = (
            result.kind, result.value, result.xi_or_lambda, result.certificate_gap,
            wind["phi"], wind["G"], res["blended"], res["boundary_sup"], res["dual_tail_sup"],
        )
        # "\n" line ends, where _write_csv would write "\r\n"
        text = ",".join(_METRICS_COLUMNS) + "\n" + ",".join(map(_csv_cell, row)) + "\n"
        _write_text(_out_path(args.output, "metrics.csv"), text)
    else:
        _write_text(_out_path(args.output, "metrics.json"), canonical_json(result.to_dict()))

    bundle = disc.to_bundle()
    bundle["certificates"] = dataclasses.asdict(result.report)
    _write_text(_out_path(args.output, "disc.json"), canonical_json(bundle))
    write_trace_csv(_out_path(args.output, "trace.csv"), disc.diagnostics.get("trace", []))

    violations = result.violations()
    print(
        f"{result.kind} value {fmt(result.value)}  "
        f"xi_or_lambda {fmt(result.xi_or_lambda)}  "
        f"certificate_gap {fmt(result.certificate_gap)}  "
        f"certificates {'FAIL' if violations else 'pass'}"
    )
    return _report_violations(violations)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    domain = _load_domain_file(args.domain, args.seed_rng)
    try:
        disc = StationaryDisc.from_bundle(_read_json(args.disc))
    except (KeyError, TypeError, IndexError, ValueError) as e:
        raise ValueError(f"malformed disc bundle: {e!r}") from None
    if disc.f.target_shape != (domain.n,):
        raise ValueError(
            f"disc bundle has {disc.f.target_shape} components, domain needs ({domain.n},)"
        )

    if args.probe is not None:
        probe = parse_point(args.probe, domain.n)
        if not domain.contains(probe):
            raise DomainViolation("probe point lies outside the domain")
    else:
        probe = disc.base_point

    try:
        report = verify_E(domain, disc, probe)
        gap = geodesic_consistency(disc, list(_VERIFY_PAIRS)) if report.passed else None
    except GeodiscError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 2

    violations = report.violations()
    if gap is not None and not gap < CONSISTENCY_TOL:
        violations.append(f"geodesic consistency gap {gap:.3e} exceeds {CONSISTENCY_TOL:.0e}")
    payload = {
        "verify_E": dataclasses.asdict(report),
        "geodesic_consistency": gap,
        "probe": format_point(probe),
        "passed": not violations,
    }
    text = canonical_json(payload)
    sys.stdout.write(text)
    if args.output is not None:
        _write_text(_out_path(args.output, "verify.json"), text)
    return _report_violations(violations)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _split_grid(spec: str):
    return [tok.strip() for tok in spec.split(";") if tok.strip()]


def _table_cell(domain, pts, newton, cell):
    i, j = cell
    base = {"i": i, "j": j, "z": format_point(pts[i]), "w": format_point(pts[j])}
    if i == j:
        base.update(
            value=0.0, xi=0.0, certificate_gap="", residual="",
            wind_phi="", wind_G="", holder_C="", passed="",
        )
        return base, None
    result, disc = lempert_distance(domain, pts[i], pts[j], newton)
    base.update(
        value=result.value,
        xi=result.xi_or_lambda,
        certificate_gap=result.certificate_gap,
        residual=result.residuals["blended"],
        wind_phi=result.windings["phi"],
        wind_G=result.windings["G"],
        holder_C=result.report.holder_constant,
        passed=not result.violations(),
    )
    M_plot = 128
    theta = 2.0 * np.pi * np.arange(M_plot) / M_plot
    fv = disc.f.boundary_values(M_plot).view(float)  # (re, im) of each component
    return base, [[i, j, t, *reim] for t, reim in zip(theta.tolist(), fv.tolist())]


_TABLE_COLUMNS = (
    "i", "j", "z", "w", "value", "xi", "certificate_gap",
    "residual", "wind_phi", "wind_G", "holder_C", "passed",
)


def cmd_table(args) -> int:
    newton = _newton(args)
    domain = _load_domain_file(args.domain, args.seed_rng)
    pts = [parse_point(tok, domain.n) for tok in _split_grid(args.grid)]
    for k, p in enumerate(pts):
        if not domain.contains(p):
            raise DomainViolation(f"grid point #{k} ({format_point(p)}) is not interior")

    cells = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
    boundary_header = ["i", "j", "theta"]
    for k in range(domain.n):
        boundary_header.extend([f"re_f{k + 1}", f"im_f{k + 1}"])

    # cells run in order, so a failing cell stops the table with the rows
    # before it
    rows, samples, failure = [], [], None
    for cell in cells:
        try:
            row, smp = _table_cell(domain, pts, newton, cell)
        except GeodiscError as e:
            failure = (cell, e)
            break
        rows.append(row)
        if smp is not None:
            samples.extend(smp)

    table_path = _out_path(args.output, "table.csv")
    _write_csv(table_path, _TABLE_COLUMNS, ([row[c] for c in _TABLE_COLUMNS] for row in rows))
    _write_csv(_out_path(args.output, "boundary.csv"), boundary_header, samples)

    if failure is not None:
        (i, j), err = failure
        print(f"cell ({i},{j}) failed: {err}", file=sys.stderr)
        print(f"partial table ({len(rows)} rows) written to {table_path}", file=sys.stderr)
        return 2
    print(f"{len(rows)} rows -> {table_path}")
    return 0


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def cmd_factorize(args) -> int:
    tol = _tol_res(args)
    if args.n_work is not None and args.n_work < 1:
        raise ValueError(f"n_work must be positive, got {args.n_work}")
    obj = _read_json(args.symbol)
    try:
        m = _json_number(obj["m"], "m", integer=True)
        entries = obj["entries"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed symbol file: {e!r}") from None
    if m < 1:
        raise ValueError(f"matrix size must be positive, got {m}")
    try:
        beta = FourierDisc.from_entries(entries, target_shape=(m, m))
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed symbol entries: {e!r}") from None

    fac = spectral_factorize(beta, tol=tol, N_work=args.n_work)
    payload = {
        "m": m,
        "H": fac.H.to_entries(),
        "residual": fac.residual,
        "min_det": fac.min_det,
        "det_winding": fac.det_winding,
    }
    path = _out_path(args.output, "factor.json")
    _write_text(path, canonical_json(payload))
    print(
        f"residual {fmt(fac.residual)}  min |det H| {fmt(fac.min_det)}  "
        f"wind det {fac.det_winding}  -> {path}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves 2
    # for solver failures, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_run_flags(p):
    p.add_argument("--N", type=int, default=64,
                   help="first Fourier band that can be accepted (>= 8); a coarse "
                        "solve at N/2 seeds it, and bands 2N and 4N follow if it fails")
    p.add_argument("--tol-res", dest="tol_res", type=float, default=1e-10,
                   help="residual tolerance for Newton acceptance")
    p.add_argument("--seed", dest="seed_rng", type=int, default=0,
                   help="seed for sampled input checks")
    p.add_argument("--output", default=".", help="directory for artifacts")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geodisc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="extremal disc through --from/--to or --from/--dir")
    p.add_argument("domain", help="domain spec JSON file")
    p.add_argument("--from", dest="from_", required=True, help="base point")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to", help="target point (Lempert function)")
    group.add_argument("--dir", help="direction vector (Kobayashi-Royden metric)")
    _add_run_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="format of the metrics artifact")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a saved disc bundle")
    p.add_argument("domain", help="domain spec JSON file")
    p.add_argument("disc", help="disc bundle JSON file")
    p.add_argument("--probe", default=None, help="interior probe point (default f(0))")
    p.add_argument("--seed", dest="seed_rng", type=int, default=0)
    p.add_argument("--output", default=None, help="directory for verify.json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="distance matrix over a point grid")
    p.add_argument("domain", help="domain spec JSON file")
    p.add_argument("--grid", required=True,
                   help="semicolon-separated points, e.g. '0,0;0.2,0;0,0.3i'")
    _add_run_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("factorize", help="spectral factorization of a matrix symbol")
    p.add_argument("symbol", help="JSON file with m and Fourier entries of beta")
    p.add_argument("--tol-res", dest="tol_res", type=float, default=1e-10)
    p.add_argument("--n-work", dest="n_work", type=int, default=None,
                   help="working bandwidth of the factor")
    p.add_argument("--output", default=".", help="directory for factor.json")
    p.set_defaults(func=cmd_factorize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DomainViolation, InvalidConstraint,
            NotSymmetric, NotPositive) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except GeodiscError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
