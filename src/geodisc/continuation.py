"""Seeding and homotopy continuation for extremal discs.

Every solve starts from a closed-form extremal disc of the unit ball
(image of a linear disc under a ball automorphism) and follows the gauge
homotopy r_t = t*mu_D^2 + (1-t)*|x|^2 - 1 from the ball to the target
domain.  The domain shrinks monotonically along the path and always
contains the rescaled target, so the constraint data stays valid for
every t.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from . import disc as dc
from .disc import FourierDisc, unit_grid
from .domain import DomainSpec, PolynomialDefiningFunction, homotopy_domain
from .errors import (
    DomainViolation,
    InvalidConstraint,
    LeftDomain,
    NoConvergence,
    NonConstantPairing,
    StepUnderflow,
)
from .stationary import (
    Constraint,
    NewtonConfig,
    StationaryDisc,
    _dual_from_normal,
    _holder_constant,
    _next_pow2,
    newton_solve,
    normalize,
    residual,
)


@dataclass
class ContinuationConfig:
    initial_step: float = 0.1
    min_step: float = 1e-6
    tol_res: float = 1e-10
    max_steps: int = 500


@dataclass
class HomotopyProblem:
    """family(t) -> (defining function, Constraint) for t in [0, 1]."""

    family: Callable[[float], tuple]
    seed: StationaryDisc
    t_current: float = 0.0


@dataclass
class PathResult:
    status: str  # "ok" or "step_underflow"
    disc: StationaryDisc
    t_reached: float
    trace: list = dc_field(default_factory=list)


def mobius_ball(z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The ball automorphism phi_z exchanging 0 and z, applied pointwise.

    phi_z(x) = (z - P_z x - s Q_z x) / (1 - <x, z>) with s = sqrt(1-|z|^2),
    P_z the orthogonal projection onto C*z.  Involution: phi_z o phi_z = id.
    """
    z = np.asarray(z, dtype=complex)
    x = np.asarray(x, dtype=complex)
    z2 = float(np.real(np.vdot(z, z)))
    s = float(np.sqrt(max(1.0 - z2, 0.0)))
    if z2 == 0.0:
        return -x
    inner = x @ np.conj(z)  # <x, z>
    P = (inner / z2)[..., None] * z
    Q = x - P
    return (z - P - s * Q) / (1.0 - inner)[..., None]


def _seed_direction(z: np.ndarray, v: np.ndarray):
    """Unit disc direction u and lambda with d(phi_z)(0) u = lambda^{-1}... u
    chosen so that f = phi_z(zeta u) has f'(0) = lambda v."""
    z2 = float(np.real(np.vdot(z, z)))
    s2 = 1.0 - z2
    s = float(np.sqrt(s2))
    if z2 == 0.0:
        u_raw = -v
    else:
        inner = complex(np.vdot(z, v))  # <v, z> = sum v_j conj(z_j)
        P = (inner / z2) * z
        Q = v - P
        u_raw = -(P / s2 + Q / s)
    lam = 1.0 / float(np.linalg.norm(u_raw))
    return u_raw * lam, lam


def ball_seed(z, constraint: Constraint, N: int = 64) -> StationaryDisc:
    """Closed-form extremal disc of the unit ball through z.

    two-point: f(xi) = w with xi = |phi_z(w)|;
    direction: f'(0) = lambda*v with lambda = kappa(z; v)^{-1}.
    The disc, its dual, rho and q are sampled on a grid and truncated to
    order N; the tail decays like |z|^k so the residual stays below 1e-12
    for base points away from the boundary.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    if float(np.linalg.norm(z)) >= 1.0:
        raise DomainViolation("base point must lie inside the unit ball")
    if constraint.mode == "two-point":
        w = constraint.vector
        if float(np.linalg.norm(w)) >= 1.0:
            raise DomainViolation("target point must lie inside the unit ball")
        u_raw = mobius_ball(z, w)
        xi = float(np.linalg.norm(u_raw))
        if xi == 0.0:
            raise InvalidConstraint("the two constraint points coincide")
        u = u_raw / xi
        mult = xi
    else:
        u, mult = _seed_direction(z, constraint.vector)

    M = _next_pow2(max(8 * (N + 2), 256))
    Z = unit_grid(M)
    vals = mobius_ball(z, Z[:, None] * u[None, :])
    f = FourierDisc.from_boundary_values(vals, 0, N + 1)

    # the unit normal of the ball along the disc is f itself
    rho_vals, f_tilde = _dual_from_normal(f, f.boundary_values(M), 2 * N + 3)
    rho = dc.real_field(rho_vals, 2 * N)
    q_vals = rho_vals / rho_vals[0] - 1.0
    q = dc.real_field(q_vals, N)
    # pin the gauge exactly: q(1) = 0
    qc = q.coeffs.copy()
    qc[N] -= np.sum(qc).real
    q = FourierDisc(qc, -N)

    con = Constraint(constraint.mode, constraint.vector, mult)
    r_ball = PolynomialDefiningFunction.unit_ball(n)
    parts = residual(r_ball, con, f, q)
    return StationaryDisc(
        f=f,
        f_tilde=f_tilde,
        rho=rho,
        q=q,
        multiplier=mult,
        mode=constraint.mode,
        constraint_vector=con.vector,
        residual_norm=parts.blended_norm(),
        diagnostics={"seed": "ball", "newton_iters": 0},
    )


def _holder_estimate(f: FourierDisc, n_pts: int = 128) -> float:
    M = max(_next_pow2(4 * (f.k_max + 1)), 256)
    return _holder_constant(f.boundary_values(M), n_pts)


def _trace_row(t: float, step: float, disc: StationaryDisc) -> dict:
    return {
        "t": float(t),
        "step": float(step),
        "newton_iters": int(disc.diagnostics.get("newton_iters", 0)),
        "residual": float(disc.residual_norm),
        "xi_or_lambda": float(disc.multiplier),
        "holder_C": _holder_estimate(disc.f),
    }


def continue_path(
    problem: HomotopyProblem,
    config: ContinuationConfig = None,
    newton: NewtonConfig = None,
) -> PathResult:
    """March t from the problem's current value to 1 with adaptive steps.

    Order-0 predictor (previous disc seeds the next solve); failed Newton
    corrections halve the step, quick ones (<= 3 iterations) grow it by
    1.5x up to 0.2.  A step below min_step ends the path with status
    "step_underflow" and the last good disc; it is the caller's decision
    whether that is an error.
    """
    config = config or ContinuationConfig()
    newton = newton or NewtonConfig(tol_res=config.tol_res)
    t = problem.t_current
    disc = problem.seed
    trace = []

    # a seed that already satisfies the end-of-path system is accepted
    # directly; this is the constant-family fast path
    r1, con1 = problem.family(1.0)
    con1 = Constraint(con1.mode, con1.vector, float(disc.multiplier))
    try:
        rn = residual(
            r1, con1, disc.f, disc.q.band(-newton.N, newton.N)
        ).blended_norm()
    except (LeftDomain, NoConvergence):
        rn = np.inf
    if rn < config.tol_res:
        accepted = replace(disc, residual_norm=rn, diagnostics=dict(disc.diagnostics))
        trace.append(_trace_row(1.0, 1.0 - t, accepted))
        return PathResult("ok", accepted, 1.0, trace)

    # next cheapest outcome: one direct Newton solve at the end of the path;
    # the march below is the fallback when the seed is too far out.  The
    # attempt gets a reduced iteration budget so a hopeless direct solve
    # cannot eat the time the march needs.
    if np.isfinite(rn):
        direct = replace(newton, max_iter=12, max_halvings=3)
        try:
            cand = newton_solve(r1, con1, disc, direct)
            trace.append(_trace_row(1.0, 1.0 - t, cand))
            return PathResult("ok", cand, 1.0, trace)
        except (NoConvergence, LeftDomain, NonConstantPairing):
            pass

    step = config.initial_step
    n_steps = 0
    while t < 1.0:
        if n_steps >= config.max_steps:
            raise NoConvergence(
                f"continuation exceeded {config.max_steps} steps at t = {t:.4f}"
            )
        t_try = min(1.0, t + step)
        r_t, con_t = problem.family(t_try)
        try:
            cand = newton_solve(r_t, con_t, disc, newton)
        except (NoConvergence, LeftDomain, NonConstantPairing):
            step *= 0.5
            if step < config.min_step:
                return PathResult("step_underflow", disc, t, trace)
            continue
        n_steps += 1
        taken = t_try - t
        t = t_try
        disc = cand
        trace.append(_trace_row(t, taken, disc))
        if disc.diagnostics.get("newton_iters", 99) <= 3:
            step = min(step * 1.5, 0.2)
    return PathResult("ok", disc, t, trace)


def solve_extremal(
    domain: DomainSpec,
    z,
    constraint: Constraint,
    config: ContinuationConfig = None,
    newton: NewtonConfig = None,
) -> StationaryDisc:
    """Extremal disc of a bounded domain through z, by continuation from
    the unit ball.

    The domain is first dilated into the closed unit ball; the gauge
    homotopy then deforms the ball into the dilated target while the
    (dilated) constraint stays fixed.  The result is mapped back to the
    original coordinates, normalized, and carries the continuation trace
    in its diagnostics.  Raises StepUnderflow (with the partial path
    attached) when the continuation stalls.
    """
    config = config or ContinuationConfig()
    newton = newton or NewtonConfig(tol_res=config.tol_res)
    z = np.asarray(z, dtype=complex)
    if z.shape != (domain.n,):
        raise DomainViolation(f"base point must have {domain.n} components")
    if not domain.contains(z):
        raise DomainViolation("base point lies outside the domain")
    if constraint.mode == "two-point":
        w = constraint.vector
        if not domain.contains(w):
            raise DomainViolation("target point lies outside the domain")
        if np.allclose(w, z, atol=0.0, rtol=0.0):
            raise InvalidConstraint("the two constraint points coincide")

    dscaled, sigma, _delta = domain.rescaled()
    z_s = z / sigma
    con_s = Constraint(constraint.mode, constraint.vector / sigma)

    def family(t):
        return homotopy_domain(dscaled, t), con_s

    # Truncation error in the Fourier band scales like N|z|^N, so base
    # points close to the boundary can miss the pairing contract of the
    # seed or of the normalization at the default band.  Retry with a
    # doubled band, twice, before giving up.  A band whose converged disc
    # fails the pairing test seeds the next band's Newton solve with that
    # disc, zero-padded; only if that solve fails does the band restart
    # from the ball.
    disc_s = None
    kept = None
    for attempt in range(3):
        nwt = replace(newton, N=newton.N * 2**attempt)
        path = None
        if kept is not None:
            try:
                refined = newton_solve(family(1.0)[0], con_s, kept, nwt)
                path = PathResult("ok", refined, 1.0, [_trace_row(1.0, 0.0, refined)])
            except (NoConvergence, LeftDomain, NonConstantPairing):
                pass
        if path is None:
            try:
                seed = ball_seed(z_s, con_s, N=nwt.N)
            except NonConstantPairing:
                if attempt == 2:
                    raise
                continue
            path = continue_path(HomotopyProblem(family, seed, 0.0), config, nwt)
            if path.status != "ok":
                if attempt == 2:
                    raise StepUnderflow(
                        f"continuation stalled at t = {path.t_reached:.6f}",
                        path=path,
                    )
                continue
        try:
            disc_s = normalize(path.disc)
            break
        except NonConstantPairing:
            if attempt == 2:
                raise
            kept = path.disc
    f = disc_s.f * sigma
    f_tilde = disc_s.f_tilde * (1.0 / sigma)
    rho = disc_s.rho * (1.0 / sigma)
    con_final = Constraint(constraint.mode, constraint.vector, disc_s.multiplier)
    rn = residual(domain.defining, con_final, f, disc_s.q).blended_norm()
    return replace(
        disc_s, f=f, f_tilde=f_tilde, rho=rho,
        constraint_vector=np.asarray(constraint.vector, dtype=complex),
        residual_norm=rn,
        diagnostics=dict(
            disc_s.diagnostics, trace=path.trace, sigma=float(sigma), t_reached=path.t_reached
        ),
    )
