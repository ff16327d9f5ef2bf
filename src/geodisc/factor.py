"""Spectral factorization of positive matrix fields on the circle.

Given a self-adjoint, pointwise positive-definite matrix field beta on the
unit circle, find a holomorphic-type matrix field H with H(zeta) H(zeta)* =
beta(zeta) and det H zero-free on the closed disc.  The solver is a
Wilson-style Newton iteration: solve H V + (H V)* = beta + H H* for the
holomorphic-type update V and replace H by H V, with step damping on
non-decrease.  A scalar field admits the independent outer-function
construction H = exp(analytic_completion(log beta)/2), used as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disc import (
    FourierDisc,
    _next_pow2,
    analytic_completion,
    real_field,
    unit_grid,
    winding,
)
from .errors import NoConvergence, NotPositive, NotSymmetric

_SYMMETRY_TOL = 1e-12  # largest |A - A^T| entry symmetric_norm accepts
_REFINE_ITERS = 200  # power-iteration polish of symmetric_norm_sampled
_WILSON_MAX_ITER = 80  # Wilson steps of spectral_factorize
_OUTER_BAND = 64  # band of log beta and of the factor in scalar_outer_factor


@dataclass
class SpectralFactor:
    """Holomorphic-type factor H with H H* = beta, plus certificates."""

    H: FourierDisc
    residual: float
    min_det: float
    det_winding: int = 0


def _top_singular(A: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., p, p) stack."""
    return np.linalg.svd(A, compute_uv=False)[..., 0]


def symmetric_norm(A) -> float:
    """sup_{|z|=1 in C^m} |z^T A z| for complex symmetric A.

    Equals the largest singular value of A.  Raises NotSymmetric when
    ||A - A^T||_max exceeds _SYMMETRY_TOL.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("expected a square matrix")
    if float(np.max(np.abs(A - A.T))) > _SYMMETRY_TOL:
        raise NotSymmetric("matrix is not complex symmetric")
    return float(_top_singular(A))


def symmetric_norm_sampled(A, n_samples: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo estimate of sup |z^T A z|, polished by the quadratic
    power iteration z <- conj(A z)/|A z| from the best sample.

    Independent of the svd route; used to sandwich symmetric_norm.
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[0]
    rng = np.random.default_rng(seed)
    Zs = rng.standard_normal((n_samples, m)) + 1j * rng.standard_normal((n_samples, m))
    Zs /= np.linalg.norm(Zs, axis=1, keepdims=True)
    vals = np.abs(np.einsum("si,ij,sj->s", Zs, A, Zs))
    best = float(np.max(vals))
    z = Zs[int(np.argmax(vals))]
    for _ in range(_REFINE_ITERS):
        w = np.conj(A @ z)
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            break
        z = w / nw
        v = abs(z @ A @ z)
        if v > best:
            best = float(v)
    return best


def _check_beta(beta: FourierDisc, Bv: np.ndarray):
    p = beta.target_shape[0] if beta.target_shape else 1
    asym = float(np.max(np.abs(Bv - np.conj(np.swapaxes(Bv, -1, -2)))))
    if asym > 1e-8:
        raise NotPositive(f"field is not self-adjoint on the circle (defect {asym:.2e})")
    eigs = np.linalg.eigvalsh(0.5 * (Bv + np.conj(np.swapaxes(Bv, -1, -2))))
    m_eig = float(np.min(eigs))
    if m_eig <= 1e-8:
        raise NotPositive(f"minimum eigenvalue {m_eig:.3e} on the circle is not > 1e-8")
    return p


def spectral_factorize(
    beta: FourierDisc,
    tol: float = 1e-10,
    N_work: int = None,
) -> SpectralFactor:
    """Wilson iteration for H with H H* = beta on the circle.

    beta must be a matrix-valued FourierDisc (target shape (p, p));
    scalar fields can be passed with shape (1, 1).  The factor is
    defective-free: min |det H| over a sampled closed disc is positive and
    the winding of det H on the circle is 0.
    """
    if len(beta.target_shape) != 2:
        raise ValueError("spectral_factorize expects a matrix field (p, p)")
    p = beta.target_shape[0]
    if N_work is None:
        N_work = max(2 * max(abs(beta.k_min), beta.k_max), 32)
    M = _next_pow2(max(8 * N_work, 512))

    Bv = beta.boundary_values(M)
    _check_beta(beta, Bv)

    # constant Cholesky start from the mean of beta
    B0 = 0.5 * (beta.coefficient(0) + np.conj(beta.coefficient(0).T))
    try:
        H0 = np.linalg.cholesky(B0)
    except np.linalg.LinAlgError:
        raise NotPositive("mean of beta is not positive definite") from None
    Hv = np.broadcast_to(H0, (M, p, p)).copy()

    def residual_of(Hvals):
        return float(
            np.max(_top_singular(Hvals @ np.conj(np.swapaxes(Hvals, -1, -2)) - Bv))
        )

    res = residual_of(Hv)
    eye = np.eye(p)

    for _ in range(_WILSON_MAX_ITER):
        if res < tol:
            break
        # W = H^{-1} beta H^{-*} + I on the grid
        X = np.linalg.solve(Hv, Bv)
        W = np.linalg.solve(Hv, np.conj(np.swapaxes(X, -1, -2)))
        W = np.conj(np.swapaxes(W, -1, -2)) + eye
        spec = np.fft.fft(W, axis=0) / M
        # holomorphic-type half: V = w_0/2 + sum_{k>=1} w_k zeta^k
        Vc = np.zeros((N_work + 1, p, p), dtype=complex)
        Vc[0] = 0.5 * spec[0]
        Vc[1 : N_work + 1] = spec[1 : N_work + 1]
        Vv = FourierDisc(Vc, 0).boundary_values(M)

        step = 1.0
        improved = False
        for _ in range(6):
            Hv_try = Hv @ (eye + step * (Vv - eye))
            # re-truncate to the working band to keep H holomorphic-type
            spec_H = np.fft.fft(Hv_try, axis=0) / M
            Hc = spec_H[: N_work + 1].copy()
            Hv_try = FourierDisc(Hc, 0).boundary_values(M)
            res_try = residual_of(Hv_try)
            if res_try < res:
                Hv, res = Hv_try, res_try
                improved = True
                break
            step *= 0.5
        if not improved:
            raise NoConvergence(
                f"factorization stalled at residual {res:.3e} (tol {tol:.0e})"
            )
    else:
        raise NoConvergence(
            f"factorization did not reach tol {tol:.0e} in {_WILSON_MAX_ITER} iterations"
        )

    spec_H = np.fft.fft(Hv, axis=0) / M
    H = FourierDisc(spec_H[: N_work + 1].copy(), 0)

    # determinant certificates on a sampled closed disc
    radii = np.linspace(0.0, 1.0, 21)
    angles = unit_grid(256)
    pts = (radii[:, None] * angles[None, :]).ravel()
    vals = H(pts)
    dets = np.linalg.det(vals)
    min_det = float(np.min(np.abs(dets)))
    det_field = FourierDisc.from_boundary_values(
        np.linalg.det(H.boundary_values(M)), -(M // 2 - 1), M // 2 - 1
    )
    w = winding(det_field)
    if w != 0:
        raise NoConvergence(f"determinant of the factor winds {w} times")
    return SpectralFactor(H=H, residual=res, min_det=min_det, det_winding=w)


def scalar_outer_factor(beta: FourierDisc) -> FourierDisc:
    """Outer function H = exp(analytic_completion(log beta)/2) for a scalar
    positive field; the independent route for 1x1 factorizations."""
    if beta.target_shape not in ((), (1, 1)):
        raise ValueError("scalar_outer_factor expects a scalar field")
    M = _next_pow2(max(8 * _OUTER_BAND, 512))
    vals = beta.boundary_values(M).reshape(M)
    if np.max(np.abs(vals.imag)) > 1e-9 or np.min(vals.real) <= 0:
        raise NotPositive("scalar field is not positive on the circle")
    log_field = real_field(np.log(vals.real), _OUTER_BAND)
    G = analytic_completion(log_field)
    Hv = np.exp(0.5 * G.boundary_values(M))
    spec = np.fft.fft(Hv, axis=0) / M
    return FourierDisc(spec[: _OUTER_BAND + 1].copy().reshape(-1, 1, 1), 0)
