"""Stationary analytic discs: residual, Newton corrector, normalization
and the E-mapping certificates.

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

from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import disc as dc
from . import linear
from .disc import FourierDisc, _next_pow2, unit_grid
from .domain import DomainSpec, complex_coords, real_coords, wirtinger
from .errors import (
    DegenerateGradient,
    InvalidConstraint,
    LeftDomain,
    NoConvergence,
    NonConstantPairing,
)

# linear.py holds these; the acceptance tests still import them from here
axis_ball_defining = linear.axis_ball_defining
linearized_data = linear.linearized_data
contraction_solve_report = linear.contraction_solve_report
solve_linearized_at_axis = linear.solve_linearized_at_axis
linearized_forward = linear.linearized_forward

PAIRING_TOL = 1e-8
# bound on the boundary defect and on the dual field's negative tail that
# verify_E certifies
CERT_TOL = 1e-9


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
    constraint f(xi) = w.  mode is "direction" or "two-point"; the
    multiplier lambda or xi is an unknown of the solve, not part of the
    constraint."""

    mode: str
    vector: np.ndarray

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
    # (z, f, f_tilde, G(z, .), its winding) of the last _G_winding call;
    # replace() starts a new disc without it
    _G_memo: tuple = dc_field(default=None, init=False, repr=False, compare=False)

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


def residual(
    r, constraint: Constraint, f: FourierDisc, q: FourierDisc, mult: float
) -> ResidualParts:
    """(c1, c2, c3): boundary defect r o f, the negative-frequency part of
    zeta*(1+q)*(r_z o f), and the constraint defect at the multiplier mult.

    Bands follow the truncation order N = q.k_max.
    """
    N = q.k_max
    M = _grid_size(r, N)
    d = _field_data(r, f, q, M)
    return _parts_from_grid(d, constraint, f, q, mult, N)


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

    def eval_state(xv):
        fx, qx, mx = layout.unpack(xv, z0)
        if constraint.mode == "two-point" and not (0.0 < mx < 1.0):
            raise LeftDomain(f"two-point multiplier left (0,1): {mx:.4f}")
        if constraint.mode == "direction" and mx <= 0.0:
            raise LeftDomain(f"direction multiplier must stay positive: {mx:.4f}")
        M = _grid_size(r, N)
        d = _field_data(r, fx, qx, M)
        parts = _parts_from_grid(d, constraint, fx, qx, mx, N)
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
        J = _jacobian(layout, d, constraint, fx, mx)
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


def _parts_from_grid(d, constraint: Constraint, f, q, mult, N) -> ResidualParts:
    M = d["M"]
    spec1 = np.fft.fft(d["val"]) / M
    ks = np.arange(-N, N + 1)
    c1 = spec1[ks % M]
    c1 = 0.5 * (c1 + np.conj(c1[::-1]))
    neg = d["field_spec"][(-np.arange(1, N + 1)) % M]
    c3 = _c3_of(constraint, f, float(mult))
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
    val, grad = r.value_gradient(real_coords(fv))
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


_HOLDER_BLOCK = 32  # offsets per block of the Holder scan


def _holder_constant(vals: np.ndarray, n_pts: int) -> float:
    """Empirical 1/2-Holder constant of boundary values sampled on the
    uniform grid, from every (M // n_pts)-th sample: the largest
    |f_i - f_j| / sqrt|zeta_i - zeta_j| over the pairs of distinct samples.

    The scan runs by offset: the pairs (i, i + s mod m) for s = 1..m//2
    meet every unordered pair of the m samples once (twice at s = m/2).
    The samples are stored component-major and extended by their first
    m//2 columns, so window s of a sliding-window view is the cyclic shift
    by s, read in place; the grid points are windowed the same way.  The
    offsets are scanned in blocks of _HOLDER_BLOCK, which bounds every
    temporary at (n, block, m) whatever the grid size.

    The constant reaches EReport.holder_constant and the holder_C column
    of trace.csv, so the scan keeps the bits of the all-pairs matrix and
    the artifacts do not move with it.  Each ratio is formed pair by pair,
    with the operands of np.linalg.norm, (d.conj() * d).real summed over
    the components, and with the distance |zeta_i - zeta_j| of that pair
    (on the grid it depends on the offset only up to roundoff).  So every
    ratio is the same float as in the all-pairs matrix (a - b and b - a
    differ only in sign), the maximum is bit-identical to it, and np.max
    over the block maxima keeps a NaN sample's NaN.
    """
    M = vals.shape[0]
    stride = max(M // n_pts, 1)
    sub = vals[::stride].T
    zs = unit_grid(M)[::stride]
    m = zs.shape[0]
    h = m // 2
    f_win = sliding_window_view(np.concatenate([sub, sub[:, :h]], axis=1), m, axis=1)
    z_win = sliding_window_view(np.concatenate([zs, zs[:h]]), m)
    peaks = []
    for s in range(1, h + 1, _HOLDER_BLOCK):
        block = slice(s, s + _HOLDER_BLOCK)
        # a C-ordered difference keeps the component sum a reduction of
        # contiguous rows
        d = np.subtract(f_win[:, block], sub[:, None, :], order="C")
        dfz = np.sqrt(np.add.reduce((d.conj() * d).real, axis=0))
        dzz = np.sqrt(np.abs(z_win[block] - zs))
        peaks.append(np.max(dfz / dzz))
    return float(np.max(peaks))


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
    con = Constraint(mode, vector)
    parts = residual(r, con, f, q, multiplier)
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
    """The E-mapping certificates of a disc; passed is set from them."""

    sup_boundary_defect: float
    dual_tail_sup: float
    dual_tail_w: float
    min_rho: float
    wind_phi: int
    wind_G: int
    holder_constant: float
    pairing_deviation: float
    passed: bool = dc_field(init=False)

    def __post_init__(self):
        self.passed = not self.violations()

    def violations(self) -> list:
        """One message per failed certificate, in report order.  Each test
        is written as a pass condition under `not`, so a NaN fails it."""
        out = []
        if not self.sup_boundary_defect < CERT_TOL:
            out.append(f"boundary defect {self.sup_boundary_defect:.3e} exceeds {CERT_TOL:.0e}")
        if not self.dual_tail_sup < CERT_TOL:
            out.append(f"dual field negative tail {self.dual_tail_sup:.3e} exceeds {CERT_TOL:.0e}")
        if not self.min_rho > 0:
            out.append(f"rho is not positive (min {self.min_rho:.3e})")
        if self.wind_phi != 0:
            out.append(f"wind phi_z = {self.wind_phi}, expected 0")
        if self.wind_G != 1:
            out.append(f"wind G(z, .) = {self.wind_G}, expected 1")
        if not np.isfinite(self.holder_constant):
            out.append("Holder constant is not finite")
        return out


def G_disc(disc: StationaryDisc, z) -> FourierDisc:
    """G(z, .) = (z - f) . f_tilde as a holomorphic-type disc in zeta."""
    z = np.asarray(z, dtype=complex)
    zf = FourierDisc.constant(z, disc.f.k_max) - disc.f
    return dc.dot_product(zf, disc.f_tilde)


def _G_winding(disc: StationaryDisc, z):
    """(G(z, .), its winding number), built once per disc and point z:
    verify_E and the left inverse both need them at the base point.  The
    memo also holds the f and f_tilde it was built from, so assigning
    either one builds G again."""
    zb = np.asarray(z, dtype=complex).tobytes()
    memo = disc._G_memo
    if not (memo and memo[0] == zb and memo[1] is disc.f and memo[2] is disc.f_tilde):
        G = G_disc(disc, z)
        memo = disc._G_memo = (zb, disc.f, disc.f_tilde, G, dc.winding(G))
    return memo[3], memo[4]


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

    _, wind_G = _G_winding(disc, z)

    holder = _holder_constant(fv, 384)
    M2 = max(4 * (disc.f.k_max + disc.f_tilde.k_max + 2), 256)
    _, pairing_dev, _ = _pairing(disc.f, disc.f_tilde, M2, c0=1.0)
    return EReport(
        sup_boundary_defect=sup_r,
        dual_tail_sup=dual_tail_sup,
        dual_tail_w=dual_tail_w,
        min_rho=min_rho,
        wind_phi=wind_phi,
        wind_G=wind_G,
        holder_constant=holder,
        pairing_deviation=pairing_dev,
    )
