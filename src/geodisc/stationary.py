"""Stationary analytic discs: residual, Newton corrector, linearized solver.

A stationary disc for a defining function r is a holomorphic map f of the
unit disc with f(T) in {r = 0} such that zeta*(1+q)(r_z o f) extends
holomorphically from the circle for some real field q; the extension,
normalized so that f' . f_tilde == 1, is the dual disc f_tilde.  The solver
works on truncated Fourier series: f carries degree N+1, q degree N, and
the boundary conditions are collocated on a uniform grid sized so that all
trigonometric products below are alias-free for polynomial r.

Unknown and equation counts match exactly:
    unknowns   2n(N+1) [f, with f(0) pinned] + (2N+1) [q] + 1 [multiplier]
    equations  (2N+1) [r o f] + 2nN [negative freqs] + 2n [constraint]
               + 1 [q(1) = 0]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import disc as dc
from .disc import FourierDisc, unit_grid
from .domain import DomainSpec, complex_coords, real_coords, wirtinger
from .errors import (
    ContractionFailure,
    DegenerateGradient,
    InvalidConstraint,
    LeftDomain,
    NoConvergence,
    NonConstantPairing,
    NotSymmetric,
)
from .factor import SpectralFactor, _top_singular, spectral_factorize

PAIRING_TOL = 1e-8


def _next_pow2(x: int) -> int:
    return 1 << max(int(math.ceil(math.log2(max(x, 2)))), 1)


def _poly_degree(r) -> int:
    exps = getattr(r, "exps", None)
    if exps is not None:
        return int(exps.sum(axis=1).max())
    return 4  # effective degree for gauge interpolants


def _grid_size(r, N: int) -> int:
    deg = _poly_degree(r)
    need = max((deg + 1) * (N + 2) + N + 2, 4 * (N + 2), 256)
    return _next_pow2(need)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass
class Constraint:
    """Either a direction constraint f'(0) = lambda*v or a two-point
    constraint f(xi) = w.  mode is "direction" or "two-point"."""

    mode: str
    vector: np.ndarray
    multiplier: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("direction", "two-point"):
            raise InvalidConstraint(f"unknown constraint mode {self.mode!r}")
        self.vector = np.asarray(self.vector, dtype=complex)
        # a two-point target may be the origin; only a direction must be nonzero
        if self.mode == "direction" and np.linalg.norm(self.vector) == 0.0:
            raise InvalidConstraint("direction vector must be nonzero")


@dataclass
class StationaryDisc:
    """A solved disc: f, its dual f_tilde, the boundary weight rho, the
    gauge field q (q(1) = 0), and the multiplier (lambda or xi)."""

    f: FourierDisc
    f_tilde: FourierDisc
    rho: FourierDisc
    q: FourierDisc
    multiplier: float
    mode: str
    constraint_vector: np.ndarray
    residual_norm: float
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def base_point(self) -> np.ndarray:
        return self.f.coefficient(0)

    def to_bundle(self) -> dict:
        return {
            "mode": self.mode,
            "multiplier": float(self.multiplier),
            "constraint": {
                "re": [float(x) for x in self.constraint_vector.real],
                "im": [float(x) for x in self.constraint_vector.imag],
            },
            "f": self.f.to_entries(),
            "f_tilde": self.f_tilde.to_entries(),
            "rho": self.rho.to_entries(),
            "q": self.q.to_entries(),
            "residuals": {"blended": float(self.residual_norm)},
            "diagnostics": self.diagnostics,
        }

    @staticmethod
    def from_bundle(obj: dict) -> "StationaryDisc":
        vec = np.asarray(obj["constraint"]["re"]) + 1j * np.asarray(
            obj["constraint"]["im"]
        )
        load = FourierDisc.from_entries
        f = load(obj["f"])
        return StationaryDisc(
            f=f,
            f_tilde=load(obj["f_tilde"]),
            rho=load(obj["rho"], target_shape=()),
            q=load(obj["q"], target_shape=()),
            multiplier=float(obj["multiplier"]),
            mode=obj["mode"],
            constraint_vector=vec,
            residual_norm=float(obj["residuals"]["blended"]),
            diagnostics=obj.get("diagnostics", {}),
        )


@dataclass
class ResidualParts:
    """The three residual components plus the gauge value q(1)."""

    c1: FourierDisc  # real field, band [-N, N]
    c2: FourierDisc  # C^n field, band [-N, -1]
    c3: np.ndarray  # complex n-vector
    q1: float

    def blended_norm(self) -> float:
        M1 = max(4 * (self.c1.k_max + 1), 64)
        sup1 = float(np.max(np.abs(self.c1.boundary_values(M1).real)))
        M2 = max(4 * (abs(self.c2.k_min) + 1), 64)
        v2 = self.c2.boundary_values(M2)
        sup2 = float(np.max(np.linalg.norm(v2, axis=1)))
        return max(sup1, sup2, float(np.max(np.abs(self.c3))), abs(self.q1))


@dataclass
class NewtonConfig:
    N: int = 64
    tol_res: float = 1e-10
    max_iter: int = 50
    max_halvings: int = 5


@dataclass
class LinearizedData:
    """Frozen coefficients of the linearization at the axis disc."""

    eta: FourierDisc
    phi: FourierDisc
    v_or_w: np.ndarray
    alpha: FourierDisc
    beta: FourierDisc
    H: SpectralFactor
    gamma: FourierDisc
    margin: float
    r0: object
    eps_used: Optional[float] = None


@dataclass
class ContractionReport:
    eps: float
    margin: float
    iterations: int
    max_ratio: float
    ratios: list
    final_diff: float


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def _field_data(r, f: FourierDisc, q: FourierDisc, M: int) -> dict:
    """Grid evaluation of everything the residual and Jacobian need."""
    Z = unit_grid(M)
    fv = f.boundary_values(M)
    try:
        val, grad, hess = r.value_gradient_hessian(real_coords(fv))
    except (NoConvergence, LeftDomain) as e:
        raise LeftDomain(f"iterate left the defining function's reach: {e}") from None
    r_z, r_zz, r_zzbar = wirtinger(grad, hess)
    qv = np.real(q.boundary_values(M))
    if np.min(1.0 + qv) <= 1e-9:
        raise LeftDomain("1 + q lost positivity on the circle")
    return {
        "Z": Z,
        "fv": fv,
        "val": val,
        "r_z": r_z,
        "r_zz": r_zz,
        "r_zzbar": r_zzbar,
        "qv": qv,
        "M": M,
        # spectrum of zeta(1+q)(r_z o f): the c2 residual and the dual disc
        "field_spec": np.fft.fft(Z[:, None] * (1.0 + qv)[:, None] * r_z, axis=0) / M,
    }


def _c3_of(constraint: Constraint, f: FourierDisc, mult: float) -> np.ndarray:
    if constraint.mode == "direction":
        return f.coefficient(1) - mult * constraint.vector
    return f(complex(mult)) - constraint.vector


def residual(r, constraint: Constraint, f: FourierDisc, q: FourierDisc) -> ResidualParts:
    """(c1, c2, c3): boundary defect r o f, the negative-frequency part of
    zeta*(1+q)*(r_z o f), and the constraint defect.

    The multiplier is read from the constraint.  Bands follow the
    truncation order N = q.N.
    """
    if constraint.multiplier is None:
        raise InvalidConstraint("constraint carries no multiplier value")
    N = q.k_max
    M = _grid_size(r, N)
    d = _field_data(r, f, q, M)
    return _parts_from_grid(d, constraint, f, q, N)


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


def _split(dst: np.ndarray, c: np.ndarray) -> None:
    """Write complex c into the (..., 2) real view dst as (re, im) pairs."""
    dst[..., 0] = c.real
    dst[..., 1] = c.imag


class _Layout:
    """Index bookkeeping between packed real vectors and (f, q, mult)."""

    def __init__(self, n: int, N: int):
        self.n = n
        self.N = N
        self.Nf = N + 1
        self.n_f = 2 * n * self.Nf
        self.n_q = 2 * N + 1
        self.size = self.n_f + self.n_q + 1

    def pack(self, f: FourierDisc, q: FourierDisc, mult: float) -> np.ndarray:
        x = np.zeros(self.size)
        _split(x[: self.n_f].reshape(self.Nf, self.n, 2), f.band(1, self.Nf).coeffs)
        qk = q.band(0, self.N).coeffs
        x[self.n_f] = qk[0].real
        _split(x[self.n_f + 1 : -1].reshape(self.N, 2), qk[1:])
        x[-1] = mult
        return x

    def unpack(self, x: np.ndarray, z0: np.ndarray):
        fc = np.zeros((self.Nf + 1, self.n), dtype=complex)
        fc[0] = z0
        body = x[: self.n_f].reshape(self.Nf, self.n, 2)
        fc[1:] = body[..., 0] + 1j * body[..., 1]
        f = FourierDisc(fc, 0)
        qc = np.zeros(2 * self.N + 1, dtype=complex)
        qc[self.N] = x[self.n_f]
        pos = x[self.n_f + 1 : -1].reshape(self.N, 2)
        c = pos[:, 0] + 1j * pos[:, 1]
        qc[self.N + 1 :] = c
        qc[: self.N] = np.conj(c[::-1])
        q = FourierDisc(qc, -self.N)
        return f, q, float(x[-1])

    def residual_vector(self, parts: ResidualParts) -> np.ndarray:
        n, N = self.n, self.N
        v = np.zeros(self.size)
        c1 = parts.c1.band(0, N).coeffs
        v[0] = c1[0].real
        _split(v[1 : 2 * N + 1].reshape(N, 2), c1[1:])
        # c2 rows run over (j, k) with frequency -k, k = 1..N
        base = 2 * N + 1
        c2 = parts.c2.band(-N, -1).coeffs[::-1]  # (N, n), row k - 1
        _split(v[base : base + 2 * n * N].reshape(n, N, 2), c2.T)
        base += 2 * n * N
        _split(v[base : base + 2 * n].reshape(n, 2), parts.c3)
        v[-1] = parts.q1
        return v


def _jacobian(layout: _Layout, d: dict, constraint: Constraint, f: FourierDisc, mult: float) -> np.ndarray:
    """Dense analytic Jacobian of the collocated residual.

    Columns follow _Layout.pack, rows follow _Layout.residual_vector.
    Multiplying a grid field by zeta^k shifts its spectrum by k, so every
    block is an index gather (mod M) from the spectrum of one grid field;
    see the expressions in the inline comments.
    """
    n, N, Nf = layout.n, layout.N, layout.Nf
    M, nf = d["M"], layout.n_f
    base2, base3 = 2 * N + 1, 2 * N + 1 + 2 * n * N
    k = np.arange(1, Nf + 1)  # f columns carry zeta^k
    p = np.arange(N + 1)  # c1 rows carry frequency p
    kr = np.arange(1, N + 1)  # c2 rows carry frequency -kr, q columns zeta^kr
    J = np.zeros((layout.size, layout.size))
    R = np.fft.fft(d["r_z"], axis=0) / M  # (M, n)

    # --- c1 rows, f columns: d(r o f) = 2 Re[(r_z o f) . df] -------------
    # r_z zeta^k has coefficient R[p - k] at frequency p
    A = R[(p[:, None] - k) % M]  # (p, k, j)
    B = np.conj(R[(-p[:, None] - k) % M])
    C = np.stack([A + B, 1j * (A - B)], axis=-1)  # (p, k, j, re/im column)
    c1 = J[:base2, :nf].reshape(base2, Nf, n, 2)
    c1[0] = C[0].real
    c1[1::2] = C[1:].real
    c1[2::2] = C[1:].imag

    # --- c2 rows, f columns ------------------------------------------------
    # field_l = zeta(1+q) [ (r_zz)_{lj} c zeta^k + (r_zzbar)_{lj} conj(c zeta^k) ]
    # with spectra S1, S2 of zeta(1+q) r_zz, zeta(1+q) r_zzbar: S1[-kr - k], S2[-kr + k]
    P0 = (d["Z"] * (1.0 + d["qv"]))[:, None, None]
    S1 = np.fft.fft(P0 * d["r_zz"], axis=0) / M  # (M, l, j)
    S2 = np.fft.fft(P0 * d["r_zzbar"], axis=0) / M
    A = S1[(-kr[:, None] - k) % M]  # (kr, k, l, j)
    B = S2[(-kr[:, None] + k) % M]
    C = np.stack([A + B, 1j * (A - B)], axis=-1).transpose(2, 0, 1, 3, 4)
    c2 = J[base2:base3, :nf].reshape(n, N, 2, Nf, n, 2)
    c2[:, :, 0] = C.real
    c2[:, :, 1] = C.imag

    # --- c2 rows, q columns ------------------------------------------------
    # d field = zeta * dq * (r_z o f); dq basis: 1, zeta^k + zeta^-k,
    # i zeta^k - i zeta^-k; zeta r_z has coefficient R[m - 1] at frequency m
    A = np.moveaxis(R[(-kr[:, None] - kr - 1) % M], -1, 0)  # (l, row kr, column k)
    B = np.moveaxis(R[(-kr[:, None] + kr - 1) % M], -1, 0)
    C = np.empty((n, N, 2 * N + 1), dtype=complex)
    C[..., 0] = R[(-kr - 1) % M].T
    C[..., 1::2] = A + B
    C[..., 2::2] = 1j * (A - B)
    cq = J[base2:base3, nf : nf + 2 * N + 1].reshape(n, N, 2, 2 * N + 1)
    cq[:, :, 0] = C.real
    cq[:, :, 1] = C.imag

    # --- c3 rows: d f(xi) = sum_k xi^k df_k + f'(xi) dxi, or ------------
    # d [f'(0) - lambda v] = df_1 - v dlambda
    if constraint.mode == "direction":
        w = (k == 1).astype(float)
        dmult = -constraint.vector
    else:
        w = mult**k
        dmult = dc.differentiate(f).band(0, max(f.k_max - 1, 0))(complex(mult))
    jj, part = np.arange(n)[:, None], np.arange(2)[None, :]
    J[base3 : base3 + 2 * n, :nf].reshape(n, 2, Nf, n, 2)[jj, part, :, jj, part] = w
    _split(J[base3 : base3 + 2 * n, -1].reshape(n, 2), dmult)

    # --- q(1) row -----------------------------------------------------------
    J[-1, nf] = 1.0
    J[-1, nf + 1 : nf + 2 * N + 1 : 2] = 2.0
    return J


def newton_solve(
    r, constraint: Constraint, seed: StationaryDisc, config: NewtonConfig = None
) -> StationaryDisc:
    """Damped Newton iteration on the collocated stationary-disc system.

    The seed fixes the base point f(0) and provides the starting
    multiplier.  Returns the normalized disc; raises NoConvergence when the
    iteration or its damping stalls and LeftDomain when an iterate leaves
    the usable region (gauge reach, 1 + q > 0, multiplier range).
    """
    config = config or NewtonConfig()
    n = seed.f.target_shape[0]
    N = config.N
    layout = _Layout(n, N)
    z0 = seed.f.coefficient(0)

    f = seed.f.band(0, layout.Nf)
    qc = seed.q.band(-N, N)
    mult = float(seed.multiplier)
    x = layout.pack(f, qc, mult)

    work = Constraint(constraint.mode, constraint.vector, mult)

    def eval_state(xv):
        fx, qx, mx = layout.unpack(xv, z0)
        if work.mode == "two-point" and not (0.0 < mx < 1.0):
            raise LeftDomain(f"two-point multiplier left (0,1): {mx:.4f}")
        if work.mode == "direction" and mx <= 0.0:
            raise LeftDomain(f"direction multiplier must stay positive: {mx:.4f}")
        M = _grid_size(r, N)
        d = _field_data(r, fx, qx, M)
        work.multiplier = mx
        parts = _parts_from_grid(d, work, fx, qx, N)
        return fx, qx, mx, d, parts

    fx, qx, mx, d, parts = eval_state(x)
    rn = parts.blended_norm()
    iters = 0
    # tested after every step, the last allowed one included; written with
    # `not` so that a NaN residual keeps iterating instead of converging
    while not rn < config.tol_res:
        if iters >= config.max_iter:
            raise NoConvergence(
                f"Newton did not reach tol {config.tol_res:.0e} in {config.max_iter} iterations"
            )
        J = _jacobian(layout, d, work, fx, mx)
        rhs = -layout.residual_vector(parts)
        try:
            dx = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError as e:
            raise NoConvergence(f"Jacobian solve failed: {e}") from None
        step = 1.0
        accepted = False
        for _ in range(config.max_halvings + 1):
            try:
                cand = eval_state(x + step * dx)
                rn_try = cand[4].blended_norm()
            except LeftDomain:
                step *= 0.5
                continue
            if rn_try < rn or rn_try < config.tol_res:
                x = x + step * dx
                fx, qx, mx, d, parts = cand
                rn = rn_try
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise NoConvergence(
                f"Newton damping exhausted at residual {rn:.3e} (iteration {iters})"
            )
        iters += 1

    disc_out = _assemble_disc(r, fx, qx, mx, constraint, rn, d)
    disc_out.diagnostics["newton_iters"] = iters
    return disc_out


def _parts_from_grid(d, constraint: Constraint, f, q, N) -> ResidualParts:
    M = d["M"]
    spec1 = np.fft.fft(d["val"]) / M
    ks = np.arange(-N, N + 1)
    c1 = spec1[ks % M]
    c1 = 0.5 * (c1 + np.conj(c1[::-1]))
    neg = d["field_spec"][(-np.arange(1, N + 1)) % M]
    c3 = _c3_of(constraint, f, float(constraint.multiplier))
    q1 = float(np.real(np.sum(q.coeffs)))
    return ResidualParts(
        c1=FourierDisc(c1, -N), c2=FourierDisc(neg[::-1], -N), c3=c3, q1=q1
    )


def _pairing(f: FourierDisc, f_tilde: FourierDisc, M: int, c0=None):
    """f' . f_tilde on the M-point grid.

    Returns (c0, dev, ftv): the pairing constant (the grid mean unless c0
    is given), the largest deviation of the pairing from it, and the grid
    values of f_tilde.
    """
    fpv = dc.differentiate(f).boundary_values(M)
    ftv = f_tilde.boundary_values(M)
    pairing = np.einsum("mj,mj->m", fpv, ftv)
    if c0 is None:
        c0 = complex(np.mean(pairing))
    return c0, float(np.max(np.abs(pairing - c0))), ftv


def _rescaled_dual(f_tilde: FourierDisc, ftv: np.ndarray, c0: complex, rho_band: int):
    """(f_tilde, rho) divided by the pairing constant c0, rho = |f_tilde|
    on the grid of ftv; raises NonConstantPairing unless c0 is real
    positive."""
    if abs(c0.imag) > PAIRING_TOL * max(1.0, abs(c0)) or c0.real <= 0:
        raise NonConstantPairing(f"pairing constant {c0:.3e} is not real positive")
    rho_vals = np.linalg.norm(ftv, axis=1) / c0.real
    return f_tilde * (1.0 / c0.real), dc.real_field(rho_vals, rho_band)


def _unit_normal(r, fv: np.ndarray):
    """(r o f, |grad r o f|, nu o f) at the boundary samples fv; raises
    DegenerateGradient where the gradient vanishes."""
    val, grad, _ = r.value_gradient_hessian(real_coords(fv))
    gc = complex_coords(grad)
    gn = np.linalg.norm(gc, axis=1)
    if np.min(gn) < 1e-10:
        raise DegenerateGradient("gradient vanishes along the disc boundary")
    return val, gn, gc / gn[:, None]


def _dual_from_normal(f: FourierDisc, nu: np.ndarray, n_coeffs: int):
    """rho and f_tilde of the disc f from its unit normal nu o f sampled on
    a uniform grid: 1/rho = <zeta f', nu o f> and f_tilde =
    zeta*rho*conj(nu o f), kept to its first n_coeffs frequencies.
    Returns (rho values, f_tilde).

    The positivity test is loose on purpose: near-boundary discs leave
    truncation noise of order |z|^N here, and the Newton corrector absorbs
    defects far larger than 1e-6.
    """
    M = nu.shape[0]
    Z = unit_grid(M)
    fpv = dc.differentiate(f).boundary_values(M)
    inv_rho = np.einsum("m,mj,mj->m", Z, fpv, np.conj(nu))
    if np.max(np.abs(inv_rho.imag)) > 1e-6 or np.min(inv_rho.real) <= 0:
        raise NonConstantPairing("<zeta f', nu o f> is not positive real on the circle")
    rho_vals = 1.0 / inv_rho.real
    ftv = Z[:, None] * rho_vals[:, None] * np.conj(nu)
    spec = np.fft.fft(ftv, axis=0) / M
    return rho_vals, FourierDisc(spec[: min(n_coeffs, M // 2)].copy(), 0)


def _holder_constant(vals: np.ndarray, n_pts: int) -> float:
    """Empirical 1/2-Holder constant of boundary values sampled on the
    uniform grid, from every (M // n_pts)-th sample."""
    M = vals.shape[0]
    stride = max(M // n_pts, 1)
    sub = vals[::stride]
    zs = unit_grid(M)[::stride]
    dfz = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
    dzz = np.sqrt(np.abs(zs[:, None] - zs[None, :]))
    mask = dzz > 0
    return float(np.max(dfz[mask] / dzz[mask]))


def _assemble_disc(
    r, f: FourierDisc, q: FourierDisc, mult: float, constraint: Constraint,
    rn: float, d: dict,
) -> StationaryDisc:
    """Build (f_tilde, rho) from the converged (f, q) and normalize so that
    f' . f_tilde == 1."""
    M, spec = d["M"], d["field_spec"]
    keep = min(2 * q.k_max + 2, M // 2 - 1)
    ft_raw = FourierDisc(spec[: keep + 1].copy(), 0)
    neg_tail = float(np.sqrt(np.sum(np.abs(spec[M // 2 :]) ** 2)))
    c0, dev, ftv = _pairing(f, ft_raw, M)
    f_tilde, rho = _rescaled_dual(ft_raw, ftv, c0, min(2 * q.k_max, M // 2 - 1))
    return StationaryDisc(
        f=f,
        f_tilde=f_tilde,
        rho=rho,
        q=q,
        multiplier=mult,
        mode=constraint.mode,
        constraint_vector=constraint.vector,
        residual_norm=rn,
        diagnostics={
            "pairing_deviation": dev,
            "dual_negative_tail": neg_tail,
        },
    )


def normalize(disc: StationaryDisc) -> StationaryDisc:
    """Rescale f_tilde (and rho) so that f' . f_tilde == 1 exactly in the
    constant term; raises NonConstantPairing if the pairing is genuinely
    nonconstant (deviation > 1e-8)."""
    M = max(4 * (disc.f.k_max + disc.f_tilde.k_max + 2), 256)
    c0, dev, ftv = _pairing(disc.f, disc.f_tilde, M)
    if dev > PAIRING_TOL * max(1.0, abs(c0)):
        raise NonConstantPairing(
            f"f'.f_tilde deviates from a constant by {dev:.3e}"
        )
    f_tilde, rho = _rescaled_dual(
        disc.f_tilde, ftv, c0, max(disc.q.k_max, disc.rho.k_max)
    )
    return replace(
        disc, f_tilde=f_tilde, rho=rho,
        diagnostics=dict(disc.diagnostics, pairing_deviation=dev),
    )


def disc_from_f(r, f: FourierDisc, mode: str, multiplier: float, vector) -> StationaryDisc:
    """Reconstruct the dual data of a claimed stationary f from scratch:
    rho from 1/rho = <zeta f', nu o f> and f_tilde = zeta*rho*conj(nu o f).

    Useful for verifying externally supplied discs and for checking
    invariance under disc automorphisms.
    """
    N = f.k_max
    _, gn, nu = _unit_normal(r, f.boundary_values(_grid_size(r, N)))
    rho_vals, f_tilde = _dual_from_normal(f, nu, 2 * N + 2)
    ratio = rho_vals * gn
    q_vals = ratio / ratio[0] - 1.0
    q = dc.real_field(q_vals, N)
    con = Constraint(mode, vector, multiplier)
    parts = residual(r, con, f, q)
    return StationaryDisc(
        f=f,
        f_tilde=f_tilde,
        rho=dc.real_field(rho_vals, N),
        q=q,
        multiplier=multiplier,
        mode=mode,
        constraint_vector=con.vector,
        residual_norm=parts.blended_norm(),
        diagnostics={"reconstructed": True},
    )


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class EReport:
    sup_boundary_defect: float
    dual_tail_sup: float
    dual_tail_w: float
    min_rho: float
    wind_phi: int
    wind_G: int
    holder_constant: float
    pairing_deviation: float
    passed: bool


def G_disc(disc: StationaryDisc, z) -> FourierDisc:
    """G(z, .) = (z - f) . f_tilde as a holomorphic-type disc in zeta."""
    z = np.asarray(z, dtype=complex)
    zf = FourierDisc.constant(z, disc.f.k_max) - disc.f
    return dc.dot_product(zf, disc.f_tilde)


def verify_E(domain, disc: StationaryDisc, z_probe) -> EReport:
    """Recompute all E-mapping certificates of a disc from scratch.

    Checks on an 8N grid: sup |r o f|, the negative-frequency tail of
    zeta*rho*conj(nu o f) (sup and W-norm), min rho, the winding of
    phi_z = <z - f, nu o f> (must be 0 for interior z), the winding of
    G(z, .) = (z - f) . f_tilde (must be 1), and the empirical 1/2-Holder
    constant of the boundary values.
    """
    r = domain.defining if isinstance(domain, DomainSpec) else domain
    z = np.asarray(z_probe, dtype=complex)
    N = max(disc.f.k_max, disc.q.k_max)
    M = max(8 * N, 512)
    Z = unit_grid(M)
    fv = disc.f.boundary_values(M)
    val, _, nu = _unit_normal(r, fv)
    sup_r = float(np.max(np.abs(val)))

    rho_vals = np.real(disc.rho.boundary_values(M))
    min_rho = float(np.min(rho_vals))
    w_field = Z[:, None] * rho_vals[:, None] * np.conj(nu)
    spec = np.fft.fft(w_field, axis=0) / M
    neg = spec[M // 2 :]
    ks = np.arange(-(M - M // 2), 0)
    tail_sup_field = FourierDisc(neg, int(ks[0]))
    dual_tail_sup = float(np.max(np.linalg.norm(tail_sup_field.boundary_values(M), axis=1)))
    w_weights = 1.0 + ks.astype(float) ** 2 + ks.astype(float) ** 4
    dual_tail_w = float(np.sqrt(np.sum(w_weights[:, None] * np.abs(neg) ** 2)))

    phi_vals = np.einsum("mj,mj->m", z[None, :] - fv, np.conj(nu))
    wind_phi = dc.winding_values(phi_vals)

    wind_G = dc.winding(G_disc(disc, z))

    holder = _holder_constant(fv, 384)
    M2 = max(4 * (disc.f.k_max + disc.f_tilde.k_max + 2), 256)
    _, pairing_dev, _ = _pairing(disc.f, disc.f_tilde, M2, c0=1.0)

    passed = (
        sup_r < 1e-9
        and dual_tail_sup < 1e-9
        and min_rho > 0
        and wind_phi == 0
        and wind_G == 1
        and np.isfinite(holder)
    )
    return EReport(
        sup_boundary_defect=sup_r,
        dual_tail_sup=dual_tail_sup,
        dual_tail_w=dual_tail_w,
        min_rho=min_rho,
        wind_phi=wind_phi,
        wind_G=wind_G,
        holder_constant=holder,
        pairing_deviation=pairing_dev,
        passed=bool(passed),
    )


# ---------------------------------------------------------------------------
# linearization at the axis disc
# ---------------------------------------------------------------------------


def axis_ball_defining(n: int):
    """r0 = (|z|^2 - 1)/2, for which the axis disc satisfies situation
    (dagger): r_z o f0 = (conj(zeta)/2, 0, ..., 0)."""
    from .domain import PolynomialDefiningFunction

    base = PolynomialDefiningFunction.unit_ball(n)
    return PolynomialDefiningFunction(n, base.coeffs * 0.5, base.exps)


def _axis_grid_data(r0, M: int):
    n = r0.n
    Z = unit_grid(M)
    f0v = np.zeros((M, n), dtype=complex)
    f0v[:, 0] = Z
    val, grad, hess = r0.value_gradient_hessian(real_coords(f0v))
    r_z, r_zz, r_zzbar = wirtinger(grad, hess)
    defect = max(
        float(np.max(np.abs(val))),
        float(np.max(np.abs(r_z[:, 0] - np.conj(Z) / 2))),
        float(np.max(np.abs(r_z[:, 1:]))) if n > 1 else 0.0,
    )
    if defect > 1e-9:
        raise ValueError(
            f"axis disc is not in normalized stationary position (defect {defect:.2e})"
        )
    return Z, r_z, r_zz, r_zzbar


def _trim(u: FourierDisc, tol: float = 1e-13) -> FourierDisc:
    mags = np.max(np.abs(u.coeffs.reshape(u.coeffs.shape[0], -1)), axis=1)
    nz = np.flatnonzero(mags > tol)
    if nz.size == 0:
        return FourierDisc.zeros(0, 0, u.target_shape)
    lo, hi = nz[0], nz[-1]
    return FourierDisc(u.coeffs[lo : hi + 1].copy(), u.k_min + int(lo))


def linearized_data(r0, eta: FourierDisc, phi: FourierDisc, v_or_w, M: int = 512) -> LinearizedData:
    """Freeze the coefficient fields of the linearization at the axis disc.

    alpha = zeta^2 * (second holomorphic derivatives in the hatted
    variables), beta = the mixed Hessian block, H its spectral factor,
    gamma = H^{-1} alpha H^{-T}.  Raises ContractionFailure if
    sup ||gamma|| >= 1 (no contraction margin).
    """
    Z, r_z, r_zz, r_zzbar = _axis_grid_data(r0, M)
    alpha_v = (Z**2)[:, None, None] * r_zz[:, 1:, 1:]
    beta_v = r_zzbar[:, 1:, 1:]
    band = M // 4
    alpha = _trim(FourierDisc.from_boundary_values(alpha_v, -band, band))
    beta = _trim(FourierDisc.from_boundary_values(beta_v, -band, band))
    H = spectral_factorize(beta.band(min(beta.k_min, -1), max(beta.k_max, 1)))
    Hv = H.H.boundary_values(M)
    X = np.linalg.solve(Hv, alpha_v)
    gamma_v = np.swapaxes(np.linalg.solve(Hv, np.swapaxes(X, -1, -2)), -1, -2)
    asym = float(np.max(np.abs(gamma_v - np.swapaxes(gamma_v, -1, -2))))
    if asym > 1e-8:
        raise NotSymmetric(f"gamma is not symmetric on the grid ({asym:.2e})")
    sup_gamma = float(np.max(_top_singular(gamma_v)))
    margin = 1.0 - sup_gamma
    if margin <= 0.0:
        raise ContractionFailure(
            f"sup ||gamma|| = {sup_gamma:.6f} leaves no contraction margin"
        )
    gamma = _trim(FourierDisc.from_boundary_values(gamma_v, -band, band))
    return LinearizedData(
        eta=eta,
        phi=phi,
        v_or_w=np.asarray(v_or_w, dtype=complex),
        alpha=alpha,
        beta=beta,
        H=H,
        gamma=gamma,
        margin=margin,
        r0=r0,
    )


def contraction_solve_report(
    gamma: FourierDisc,
    rhs: FourierDisc,
    a,
    eps: float = None,
    tol: float = 1e-13,
    xi0: float = None,
    max_iter: int = 500,
):
    """Fixed point of h -> P(rhs - gamma*h) + a in holomorphic type.

    Solves the reflected holomorphy condition: gamma*h + conj(h) - rhs has
    no negative frequencies, with the value constraint h(0) = a (or
    h(xi0) = a via the Mobius involution when xi0 is given).  Returns
    (h, ContractionReport) with the measured per-iteration eps-norm ratios
    and the selected eps.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    p = a.shape[0]
    if gamma.target_shape != (p, p):
        raise ValueError("gamma size does not match the constraint vector")

    K_g = max(abs(gamma.k_min), gamma.k_max, 1)
    K_r = max(abs(rhs.k_min), rhs.k_max, 1)

    # Probe the (possibly Mobius-shifted) data on a large grid.  Composition
    # with tau turns band-limited data into rational functions whose Fourier
    # tails decay geometrically with a polynomial factor (pole order at xi0),
    # so the usable bandwidths are measured rather than derived.
    M_probe = _next_pow2(max(16 * (K_g + K_r), 2048))
    if xi0 is not None:
        if not 0.0 < xi0 < 1.0:
            raise ValueError("xi0 must lie in (0, 1)")
        tzp = (xi0 - unit_grid(M_probe)) / (1.0 - xi0 * unit_grid(M_probe))
        gvp = dc.evaluate(gamma, tzp)
        rvp = dc.evaluate(rhs, tzp)
    else:
        gvp = gamma.boundary_values(M_probe)
        rvp = rhs.boundary_values(M_probe)

    sup_g = float(np.max(_top_singular(gvp)))
    margin = 1.0 - sup_g
    if margin <= 1e-9:
        raise NoConvergence(f"sup ||gamma|| = {sup_g:.6f}: no contraction margin")

    def eff_band(values, scale_floor):
        spec = np.fft.fft(values, axis=0) / M_probe
        mags = np.abs(spec.reshape(M_probe, -1)).max(axis=1)
        cut = 1e-14 * max(float(mags.max()), scale_floor)
        ks = np.minimum(np.arange(M_probe), M_probe - np.arange(M_probe))
        live = mags > cut
        return int(ks[live].max()) if np.any(live) else 0

    K_g_eff = max(eff_band(gvp, 1.0), 1)
    K_r_eff = max(eff_band(rvp, 1.0), 1)
    rate = max(1.0 - margin, 0.05)
    depth = int(math.ceil(math.log(1e-12) / math.log(rate)))
    N_work = min(K_r_eff + K_g_eff * depth, 4096)
    M = _next_pow2(2 * (N_work + K_g_eff) + 2)

    if xi0 is not None:
        Z = unit_grid(M)
        tz = (xi0 - Z) / (1.0 - xi0 * Z)
        gv = dc.evaluate(gamma, tz)
        rv = dc.evaluate(rhs, tz)
    else:
        gv = gamma.boundary_values(M)
        rv = rhs.boundary_values(M)

    hc = np.zeros((N_work + 1, p), dtype=complex)
    hc[0] = a
    diffs = []
    scale = max(float(np.linalg.norm(a)), 1.0)
    converged = False
    its = 0
    for it in range(max_iter):
        spec_h = np.zeros((M, p), dtype=complex)
        spec_h[: N_work + 1] = hc
        hv = np.fft.ifft(spec_h, axis=0) * M
        wv = rv - np.einsum("mij,mj->mi", gv, hv)
        spec_w = np.fft.fft(wv, axis=0) / M
        hc_new = np.zeros_like(hc)
        hc_new[0] = a
        ks = np.arange(1, N_work + 1)
        hc_new[1:] = np.conj(spec_w[(-ks) % M])
        delta = hc_new - hc
        k_all = np.arange(0, N_work + 1, dtype=float)
        d2 = np.sum(np.abs(delta) ** 2, axis=1)
        diffs.append(
            (
                float(np.sqrt(np.sum(d2))),
                float(np.sqrt(np.sum(k_all**2 * d2))),
                float(np.sqrt(np.sum(k_all**4 * d2))),
            )
        )
        hc = hc_new
        its = it + 1
        if diffs[-1][0] <= tol * scale:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"contraction did not reach tol {tol:.0e} in {max_iter} iterations "
            f"(margin {margin:.3f})"
        )

    # eps selection: largest dyadic eps whose measured ratios stay below
    # 1 - margin/2 (the l2 route, eps -> 0, always qualifies)
    target = 1.0 - margin / 2.0
    floor = 1e-13 * scale
    usable = [
        (diffs[i], diffs[i + 1])
        for i in range(len(diffs) - 1)
        if diffs[i][0] > floor and diffs[i + 1][0] > floor * 0.01
    ]

    def max_ratio(e):
        worst = 0.0
        for d0, d1 in usable:
            den = d0[0] + e * d0[1] + e * e * d0[2]
            num = d1[0] + e * d1[1] + e * e * d1[2]
            if den > 0:
                worst = max(worst, num / den)
        return worst

    chosen = None
    ratio = 0.0
    if eps is not None:
        chosen, ratio = eps, max_ratio(eps)
    else:
        for j in range(0, 41):
            e = 0.5**j
            rr = max_ratio(e)
            if rr <= target:
                chosen, ratio = e, rr
                break
        if chosen is None:
            chosen, ratio = 0.0, max_ratio(0.0)

    ratios = []
    for d0, d1 in usable:
        den = d0[0] + chosen * d0[1] + chosen**2 * d0[2]
        num = d1[0] + chosen * d1[1] + chosen**2 * d1[2]
        if den > 0:
            ratios.append(num / den)

    h = FourierDisc(hc, 0)
    if xi0 is not None:
        Z = unit_grid(M)
        tz = (xi0 - Z) / (1.0 - xi0 * Z)
        hv_back = dc.evaluate(h, tz)
        spec_b = np.fft.fft(hv_back, axis=0) / M
        h = FourierDisc(spec_b[: N_work + 1].copy(), 0)
    h = _trim(h, tol=1e-15).band(0, max(_trim(h, tol=1e-15).k_max, 0))

    report = ContractionReport(
        eps=float(chosen),
        margin=margin,
        iterations=its,
        max_ratio=float(ratio),
        ratios=ratios,
        final_diff=diffs[-1][0],
    )
    return h, report


def solve_linearized_at_axis(data: LinearizedData, mode: str, xi0: float = None):
    """Exact solution of the linearized stationary system at the axis disc.

    Returns (f_tilde, q_tilde, multiplier_correction).  The first
    component comes from the analytic completion of eta with the imaginary
    constant pinned by the constraint; the remaining components solve the
    reflected-holomorphy fixed point through the spectral factor of beta;
    q_tilde is read off coefficientwise from the first row.
    """
    if mode not in ("direction", "two-point"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "two-point" and xi0 is None:
        raise ValueError("two-point mode needs xi0")
    r0 = data.r0
    n = r0.n
    N_d = max(data.eta.k_max, abs(data.phi.k_min), 1)
    M = _next_pow2(max(8 * (N_d + 2), 512))
    Z, r_z, r_zz, r_zzbar = _axis_grid_data(r0, M)

    G = dc.analytic_completion(data.eta)
    vw = data.v_or_w
    Hv0 = data.H.H
    if mode == "direction":
        G0 = float(np.real(G.coefficient(0)))
        mult = G0 - vw[0].real
        C = vw[0].imag
        a = Hv0(0.0 + 0.0j).T @ vw[1:]
    else:
        Gxi = complex(G(complex(xi0)))
        C = vw[0].imag / xi0 - Gxi.imag
        mult = vw[0].real - xi0 * Gxi.real
        a = Hv0(complex(xi0)).T @ (vw[1:] / xi0)

    # f_tilde_1 = zeta * (G + iC)
    f1c = np.zeros(G.coeffs.shape[0] + 1, dtype=complex)
    f1c[1:] = G.coeffs
    f1c[1] += 1j * C
    f1 = FourierDisc(f1c, 0)

    f1v = f1.boundary_values(M)
    phiv = data.phi.boundary_values(M)
    psi_v = (
        phiv[:, 1:]
        - (Z * f1v)[:, None] * r_zz[:, 1:, 0]
        - (Z * np.conj(f1v))[:, None] * r_zzbar[:, 1:, 0]
    )
    Hvals = data.H.H.boundary_values(M)
    rhs_v = np.linalg.solve(Hvals, psi_v[..., None])[..., 0]
    band = M // 2 - 1
    rhs = _trim(FourierDisc.from_boundary_values(rhs_v, -band, band), tol=1e-14)

    h, report = contraction_solve_report(data.gamma, rhs, a, xi0=xi0)
    data.eps_used = report.eps
    if report.max_ratio >= 1.0:
        raise ContractionFailure(
            f"measured contraction ratio {report.max_ratio:.4f} reached 1"
        )

    M2 = _next_pow2(max(2 * (h.k_max + data.H.H.k_max + 2), M))
    Hvals2 = data.H.H.boundary_values(M2)
    hv = h.boundary_values(M2)
    gv = np.linalg.solve(np.swapaxes(Hvals2, -1, -2), hv[..., None])[..., 0]
    Z2 = unit_grid(M2)
    fhat_v = Z2[:, None] * gv
    spec_hat = np.fft.fft(fhat_v, axis=0) / M2
    fhat = _trim(FourierDisc(spec_hat[: M2 // 2].copy(), 0))
    fhat = fhat.band(0, fhat.k_max)

    # assemble the full dual direction
    width = max(f1.k_max, fhat.k_max)
    ftc = np.zeros((width + 1, n), dtype=complex)
    ftc[: f1.coeffs.shape[0], 0] = f1.coeffs
    ftc[: fhat.coeffs.shape[0], 1:] = fhat.coeffs
    f_tilde = FourierDisc(ftc, 0)

    # q_tilde from the first row: pi(q~/2 + u) = phi_1 with
    # u = zeta * [ (r_zz o f0) f~ + (r_zzbar o f0) conj(f~) ]_1
    ftv = f_tilde.boundary_values(M2)
    _, r_z2, r_zz2, r_zzbar2 = _axis_grid_data(r0, M2)
    u_v = Z2 * (
        np.einsum("mj,mj->m", r_zz2[:, 0, :], ftv)
        + np.einsum("mj,mj->m", r_zzbar2[:, 0, :], np.conj(ftv))
    )
    spec_u = np.fft.fft(u_v) / M2
    ks_all = np.arange(1, M2 // 2)
    q_neg = 2.0 * (
        np.array([data.phi.coefficient(-k)[0] for k in ks_all])
        - spec_u[(-ks_all) % M2]
    )
    nz = np.flatnonzero(np.abs(q_neg) > 1e-14)
    K_q = int(ks_all[nz[-1]]) if nz.size else 1
    qc = np.zeros(2 * K_q + 1, dtype=complex)
    qc[K_q - np.arange(1, K_q + 1)] = q_neg[:K_q]
    qc[K_q + np.arange(1, K_q + 1)] = np.conj(q_neg[:K_q])
    qc[K_q] = -2.0 * np.sum(q_neg[:K_q]).real  # gauge: q_tilde(1) = 0
    q_tilde = FourierDisc(qc, -K_q)
    return f_tilde, q_tilde, float(mult)


def linearized_forward(r0, f_tilde: FourierDisc, q_tilde: FourierDisc, mult: float,
                       mode: str, xi0: float = None):
    """Apply the linearized residual map at the axis disc to a candidate
    direction; the exact inverse check for solve_linearized_at_axis."""
    n = r0.n
    N_big = max(f_tilde.k_max, q_tilde.k_max, abs(q_tilde.k_min), 4)
    M = _next_pow2(max(8 * (N_big + 2), 512))
    Z, r_z, r_zz, r_zzbar = _axis_grid_data(r0, M)
    ftv = f_tilde.boundary_values(M)
    qv = np.real(q_tilde.boundary_values(M))

    eta_v = 2.0 * np.real(np.einsum("mj,mj->m", r_z, ftv))
    eta_out = _trim(dc.real_field(eta_v, M // 2 - 1))

    dfield = Z[:, None] * (
        qv[:, None] * r_z
        + np.einsum("mjk,mk->mj", r_zz, ftv)
        + np.einsum("mjk,mk->mj", r_zzbar, np.conj(ftv))
    )
    spec = np.fft.fft(dfield, axis=0) / M
    neg_ks = np.arange(-(M // 2 - 1), 0)
    phi_out = _trim(FourierDisc(spec[neg_ks % M], int(neg_ks[0])))

    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    if mode == "direction":
        v_out = f_tilde.coefficient(1) - mult * e1
    else:
        v_out = f_tilde(complex(xi0)) + mult * e1
    return eta_out, phi_out, v_out
