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

import numpy as np

from . import disc as dc
from .disc import FourierDisc, _next_pow2, unit_grid
from .domain import DomainSpec, homotopy_domain
from .errors import (
    DomainViolation,
    InvalidConstraint,
    LeftDomain,
    NoConvergence,
    NonConstantPairing,
    StepUnderflow,
)
from .stationary import (
    PAIRING_TOL,
    Constraint,
    NewtonConfig,
    StationaryDisc,
    _dual_from_normal,
    _holder_constant,
    newton_solve,
    normalize,
    residual,
)


# step policy of the homotopy march: the first step, the step below which
# the path counts as stalled, and the most accepted steps before giving up
_INITIAL_STEP = 0.1
_MIN_STEP = 1e-6
_MAX_STEPS = 500

# band rule after a rejected band: bands are multiples of _BAND_STEP, and the
# next one is where the measured decay takes the pairing deviation to
# PAIRING_TOL / _BAND_MARGIN
_BAND_STEP = 8
_BAND_MARGIN = 100.0


def _direct(newton: NewtonConfig, N: int) -> NewtonConfig:
    """The budget of a Newton solve tried straight at t = 1 at band N: the
    direct attempt of continue_path and the coarse solve of solve_extremal.
    It is reduced so that a hopeless solve cannot eat the time the march
    needs."""
    return replace(newton, N=N, max_iter=12, max_halvings=3)


@dataclass
class PathResult:
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
    order N; the tail decays like |z|^k so the residual on the ball stays
    below 1e-12 for base points away from the boundary.  The seed is not
    evaluated against any domain: its residual_norm is NaN until a Newton
    solve measures it on the domain it is carried to.
    """
    z = np.asarray(z, dtype=complex)
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

    return StationaryDisc(
        f=f,
        f_tilde=f_tilde,
        rho=rho,
        q=q,
        multiplier=mult,
        mode=constraint.mode,
        constraint_vector=constraint.vector,
        residual_norm=float("nan"),
    )


def _holder_estimate(f: FourierDisc) -> float:
    M = max(_next_pow2(4 * (f.k_max + 1)), 256)
    return _holder_constant(f.boundary_values(M), 128)


def _next_band(f: FourierDisc, N: int, deviation: float) -> int:
    """The band after a band-N disc f that normalize rejected with pairing
    deviation `deviation`.

    The decay rho is the ratio of the largest |f_k| in the top quarter of
    the band to the largest in the quarter below it, to the power 1/(N/4);
    the deviation is taken to fall like rho^k, so the next band is the
    smallest multiple of _BAND_STEP at or above
    N + log(PAIRING_TOL / _BAND_MARGIN / deviation) / log rho, kept within
    [N + _BAND_STEP, 2N].  Without geometric decay (rho >= 1: a noise
    plateau or algebraic decay) or a finite deviation it is 2N.
    """
    q = N // 4
    norms = np.linalg.norm(f.coeffs, axis=1)
    top, below = np.max(norms[-q:]), np.max(norms[-2 * q : -q])
    if not (np.isfinite(deviation) and 0.0 < top < below):
        return 2 * N
    rho = (top / below) ** (1.0 / q)
    grow = np.log(PAIRING_TOL / _BAND_MARGIN / deviation) / np.log(rho)
    band = _BAND_STEP * int(np.ceil((N + grow) / _BAND_STEP))
    return min(max(band, N + _BAND_STEP), 2 * N)


def _trace_row(t: float, step: float, disc: StationaryDisc) -> dict:
    return {
        "t": float(t),
        "step": float(step),
        "newton_iters": int(disc.diagnostics.get("newton_iters", 0)),
        "residual": float(disc.residual_norm),
        "xi_or_lambda": float(disc.multiplier),
        "holder_C": _holder_estimate(disc.f),
    }


def continue_path(family, seed: StationaryDisc, newton: NewtonConfig) -> PathResult:
    """Carry seed, a disc of family(0), to a disc of family(1); family(t)
    gives the (defining function, Constraint) of the homotopy at t.

    One direct Newton solve at t = 1 is tried first; a seed that already
    solves the end-of-path system comes back from it after 0 iterations.
    Only when that solve fails is t marched from 0 with adaptive steps.
    Order-0 predictor (previous disc seeds the next solve); failed Newton
    corrections halve the step, quick ones (<= 3 iterations) grow it by
    1.5x up to 0.2.  A step below _MIN_STEP raises StepUnderflow carrying
    the path up to the last good disc.
    """
    r1, con1 = family(1.0)
    try:
        cand = newton_solve(r1, con1, seed, _direct(newton, newton.N))
        return PathResult(cand, 1.0, [_trace_row(1.0, 1.0, cand)])
    except (NoConvergence, LeftDomain, NonConstantPairing):
        pass

    t, disc, trace = 0.0, seed, []
    step = _INITIAL_STEP
    n_steps = 0
    while t < 1.0:
        if n_steps >= _MAX_STEPS:
            raise NoConvergence(
                f"continuation exceeded {_MAX_STEPS} steps at t = {t:.4f}"
            )
        # a remainder below _MIN_STEP joins this step: ten steps of 0.1 sum
        # to 1 - 1.1e-16, which would otherwise cost one more solve
        t_try = 1.0 if t + step > 1.0 - _MIN_STEP else t + step
        r_t, con_t = family(t_try)
        try:
            cand = newton_solve(r_t, con_t, disc, newton)
        except (NoConvergence, LeftDomain, NonConstantPairing):
            step *= 0.5
            if step < _MIN_STEP:
                raise StepUnderflow(
                    f"continuation stalled at t = {t:.6f}",
                    path=PathResult(disc, t, trace),
                ) from None
            continue
        n_steps += 1
        taken = t_try - t
        t = t_try
        disc = cand
        trace.append(_trace_row(t, taken, disc))
        if disc.diagnostics.get("newton_iters", 99) <= 3:
            step = min(step * 1.5, 0.2)
    return PathResult(disc, t, trace)


def solve_extremal(
    domain: DomainSpec,
    z,
    constraint: Constraint,
    newton: NewtonConfig = None,
) -> StationaryDisc:
    """Extremal disc of a bounded domain through z, by continuation from
    the unit ball.

    The domain is first dilated into the closed unit ball; the gauge
    homotopy then deforms the ball into the dilated target while the
    (dilated) constraint stays fixed.  A coarse Newton solve at half the
    band newton.N, straight at t = 1 from the ball seed, starts the band
    ladder; newton.N (at least 8) is the first band whose disc can be
    accepted, and 4N the last.  After a band N' whose disc normalize
    rejects, the next band comes from that disc's measured decay
    (_next_band), between N' + 8 and 2N'; otherwise the band doubles.  The
    result is mapped back to the original coordinates, normalized, and
    carries the continuation trace in its diagnostics.
    Raises StepUnderflow (with the partial path attached) when the
    continuation stalls.
    """
    newton = newton or NewtonConfig()
    if newton.N < 8:
        raise ValueError(f"N must be at least 8, got {newton.N}")
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

    # Coarse to fine: a direct solve from the ball at half the first band
    # costs a fraction of a band-N iteration, and its disc, zero-padded,
    # usually solves band N after 0 or 1 iterations.  The coarse disc is
    # never marched, normalized or accepted: it seeds band N as a rejected
    # band's disc seeds the next, and if its solve fails, kept stays None
    # and band N starts from the ball.
    # Truncation error in the Fourier band scales like N|z|^N, so base
    # points close to the boundary can miss the pairing contract of the
    # seed or of the normalization at the first band.  The bands then grow
    # up to the top band 4N, where a failure is raised.  A band whose
    # converged disc fails the pairing test seeds the next band's Newton
    # solve with that disc, zero-padded, and picks that band by _next_band
    # from its decay; only if that solve fails does the band restart from
    # the ball.  Without a disc (a seed or a march failure) the band
    # doubles.
    r1 = family(1.0)[0]
    coarse = newton.N // 2
    try:
        kept = newton_solve(r1, con_s, ball_seed(z_s, con_s, N=coarse), _direct(newton, coarse))
    except (NoConvergence, LeftDomain, NonConstantPairing):
        kept = None
    top = 4 * newton.N
    band, shortened, ruled_out = newton.N, False, False
    while True:
        nwt = replace(newton, N=band)
        path = None
        try:
            if kept is not None:
                try:
                    path = PathResult(newton_solve(r1, con_s, kept, nwt), 1.0)
                except (NoConvergence, LeftDomain, NonConstantPairing):
                    pass
            refined = path is not None
            if not refined:
                path = continue_path(family, ball_seed(z_s, con_s, N=band), nwt)
            disc_s = normalize(path.disc)
            if refined:
                # a refined disc's row, with its Holder estimate, is built
                # only once normalize has accepted the disc
                path.trace.append(_trace_row(1.0, 0.0, path.disc))
            break
        except (NonConstantPairing, StepUnderflow) as e:
            if band >= top:
                raise
            # once a band that _next_band shortened is rejected too, the
            # band only doubles: at most one band more than N, 2N, 4N runs
            ruled_out = ruled_out or shortened
            nxt = 2 * band
            # only a disc that normalize rejected seeds the next band
            if path is not None:
                kept = path.disc
                if not ruled_out:
                    nxt = _next_band(kept.f, band, e.deviation)
            shortened = nxt < 2 * band
            band = min(nxt, top)
    f = disc_s.f * sigma
    f_tilde = disc_s.f_tilde * (1.0 / sigma)
    rho = disc_s.rho * (1.0 / sigma)
    rn = residual(domain.defining, constraint, f, disc_s.q, disc_s.multiplier).blended_norm()
    return replace(
        disc_s, f=f, f_tilde=f_tilde, rho=rho,
        constraint_vector=np.asarray(constraint.vector, dtype=complex),
        residual_norm=rn,
        diagnostics=dict(
            disc_s.diagnostics, trace=path.trace, sigma=float(sigma), t_reached=path.t_reached
        ),
    )
