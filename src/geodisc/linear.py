"""Linear theory at the axis disc: the linearized stationary system.

At the axis disc f0(zeta) = (zeta, 0, ..., 0) of a defining function in
normalized stationary position (r_z o f0 = (conj(zeta)/2, 0, ..., 0)), the
linearization of the stationary-disc system splits.  The first component
is an analytic completion; the remaining ones satisfy a reflected
holomorphy condition that, through the spectral factor H of the mixed
Hessian block beta = H H*, becomes a fixed point h = P(rhs - gamma h) + a
with gamma = H^{-1} alpha H^{-T}.  The fixed point is a contraction when
sup ||gamma|| < 1, and its measured per-iteration ratio is reported.

None of this runs inside a solve: it is the exact inverse of the
linearized map, checked by linearized_forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import disc as dc
from .disc import FourierDisc, _next_pow2, unit_grid
from .domain import PolynomialDefiningFunction, real_coords, wirtinger
from .errors import ContractionFailure, NoConvergence, NotSymmetric
from .factor import SpectralFactor, _top_singular, spectral_factorize


@dataclass
class LinearizedData:
    """Frozen coefficients of the linearization at the axis disc."""

    eta: FourierDisc
    phi: FourierDisc
    v_or_w: np.ndarray
    H: SpectralFactor
    gamma: FourierDisc
    margin: float
    r0: object


@dataclass
class ContractionReport:
    eps: float
    margin: float
    iterations: int
    max_ratio: float


# ---------------------------------------------------------------------------
# linearization at the axis disc
# ---------------------------------------------------------------------------

_AXIS_GRID = 512  # grid on which linearized_data freezes the coefficient fields
# stop of the contraction iteration: update norm below _CONTRACTION_TOL
# times max(|a|, 1), within _CONTRACTION_MAX_ITER iterations
_CONTRACTION_TOL = 1e-13
_CONTRACTION_MAX_ITER = 500


def axis_ball_defining(n: int):
    """r0 = (|z|^2 - 1)/2, for which the axis disc satisfies situation
    (dagger): r_z o f0 = (conj(zeta)/2, 0, ..., 0)."""
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


def linearized_data(r0, eta: FourierDisc, phi: FourierDisc, v_or_w) -> LinearizedData:
    """Freeze the coefficient fields of the linearization at the axis disc.

    alpha = zeta^2 * (second holomorphic derivatives in the hatted
    variables), beta = the mixed Hessian block, H its spectral factor,
    gamma = H^{-1} alpha H^{-T}.  Raises ContractionFailure if
    sup ||gamma|| >= 1 (no contraction margin).
    """
    M = _AXIS_GRID
    Z, r_z, r_zz, r_zzbar = _axis_grid_data(r0, M)
    alpha_v = (Z**2)[:, None, None] * r_zz[:, 1:, 1:]
    beta_v = r_zzbar[:, 1:, 1:]
    band = M // 4
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
        H=H,
        gamma=gamma,
        margin=margin,
        r0=r0,
    )


def contraction_solve_report(gamma: FourierDisc, rhs: FourierDisc, a, xi0: float = None):
    """Fixed point of h -> P(rhs - gamma*h) + a in holomorphic type.

    Solves the reflected holomorphy condition: gamma*h + conj(h) - rhs has
    no negative frequencies, with the value constraint h(0) = a (or
    h(xi0) = a via the Mobius involution when xi0 is given).  Returns
    (h, ContractionReport) with the selected eps and the largest measured
    per-iteration eps-norm ratio.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    p = a.shape[0]
    if gamma.target_shape != (p, p):
        raise ValueError("gamma size does not match the constraint vector")

    if xi0 is not None and not 0.0 < xi0 < 1.0:
        raise ValueError("xi0 must lie in (0, 1)")
    K_g = max(abs(gamma.k_min), gamma.k_max, 1)
    K_r = max(abs(rhs.k_min), rhs.k_max, 1)

    def sample(M):
        """(gamma, rhs) on the M-point grid, composed with the Mobius
        involution tau when xi0 is given, and tau's grid (None without)."""
        if xi0 is None:
            return gamma.boundary_values(M), rhs.boundary_values(M), None
        Z = unit_grid(M)
        tz = (xi0 - Z) / (1.0 - xi0 * Z)
        return dc.evaluate(gamma, tz), dc.evaluate(rhs, tz), tz

    # Probe the (possibly Mobius-shifted) data on a large grid.  Composition
    # with tau turns band-limited data into rational functions whose Fourier
    # tails decay geometrically with a polynomial factor (pole order at xi0),
    # so the usable bandwidths are measured rather than derived.
    M_probe = _next_pow2(max(16 * (K_g + K_r), 2048))
    gvp, rvp, _ = sample(M_probe)

    sup_g = float(np.max(_top_singular(gvp)))
    margin = 1.0 - sup_g
    if margin <= 1e-9:
        raise NoConvergence(f"sup ||gamma|| = {sup_g:.6f}: no contraction margin")

    def eff_band(values):
        spec = np.fft.fft(values, axis=0) / M_probe
        mags = np.abs(spec.reshape(M_probe, -1)).max(axis=1)
        cut = 1e-14 * max(float(mags.max()), 1.0)
        ks = np.minimum(np.arange(M_probe), M_probe - np.arange(M_probe))
        live = mags > cut
        return int(ks[live].max()) if np.any(live) else 0

    K_g_eff = max(eff_band(gvp), 1)
    K_r_eff = max(eff_band(rvp), 1)
    rate = max(1.0 - margin, 0.05)
    depth = int(math.ceil(math.log(1e-12) / math.log(rate)))
    N_work = min(K_r_eff + K_g_eff * depth, 4096)
    M = _next_pow2(2 * (N_work + K_g_eff) + 2)
    gv, rv, tz = sample(M)

    hc = np.zeros((N_work + 1, p), dtype=complex)
    hc[0] = a
    diffs = []
    scale = max(float(np.linalg.norm(a)), 1.0)
    converged = False
    its = 0
    for it in range(_CONTRACTION_MAX_ITER):
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
        if diffs[-1][0] <= _CONTRACTION_TOL * scale:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"contraction did not reach tol {_CONTRACTION_TOL:.0e} in "
            f"{_CONTRACTION_MAX_ITER} iterations (margin {margin:.3f})"
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
    for j in range(0, 41):
        e = 0.5**j
        rr = max_ratio(e)
        if rr <= target:
            chosen, ratio = e, rr
            break
    if chosen is None:
        chosen, ratio = 0.0, max_ratio(0.0)

    h = FourierDisc(hc, 0)
    if xi0 is not None:
        hv_back = dc.evaluate(h, tz)
        spec_b = np.fft.fft(hv_back, axis=0) / M
        h = FourierDisc(spec_b[: N_work + 1].copy(), 0)
    h = _trim(h, tol=1e-15)
    h = h.band(0, max(h.k_max, 0))

    report = ContractionReport(
        eps=float(chosen),
        margin=margin,
        iterations=its,
        max_ratio=float(ratio),
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
        data.phi.band(1 - M2 // 2, -1).coeffs[::-1, 0]
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
