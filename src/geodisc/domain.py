"""Defining functions and domain bookkeeping.

A domain in C^n is described by a real polynomial r in the 2n interleaved
real coordinates x = (Re z1, Im z1, ..., Re zn, Im zn) with D = {r < 0}.
This module provides exact polynomial calculus (values, gradients, Hessians,
Wirtinger derivatives), the Minkowski gauge with derivatives via the
implicit function theorem, sampled convexity verification, and the homotopy
family joining a domain to the unit ball.  One table of coordinate powers
serves the value, the gradient, the Hessian and the gauge's degree split;
the coefficient and exponent tables of the derivatives are built eagerly,
once per polynomial.  For every kind of domain the gauge mu(x) is the
largest positive root of one polynomial per ray: with r(c*x) =
sum_d h_d(x) c^d split by degree, mu(x) = 1/c is the largest positive
root s of sum_d h_d(x) s^(D-d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateGradient,
    DomainViolation,
    LeftDomain,
    NoConvergence,
)
from .factor import _top_singular


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------


def real_coords(z) -> np.ndarray:
    """Complex (..., n) -> interleaved real (..., 2n)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def complex_coords(x) -> np.ndarray:
    """Interleaved real (..., 2n) -> complex (..., n)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def _as_real_point(point, n: int) -> np.ndarray:
    """Accept a complex n-point or a real 2n-point, return real coords."""
    a = np.asarray(point)
    if a.shape[-1] == n:
        # complex points; a real array of length n means zero imaginary parts
        return real_coords(a.astype(complex))
    if a.shape[-1] == 2 * n and not np.iscomplexobj(a):
        return a.astype(float)
    raise ValueError(f"point of length {a.shape[-1]} does not fit C^{n}")


# ---------------------------------------------------------------------------
# polynomial defining functions
# ---------------------------------------------------------------------------


def _monomials(X: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """prod_d X[j, d]^exps[..., i, d] at the points X (points, 2n), as a
    C-contiguous (..., points, m) array gathered from one table X[j, d]^k.

    The product runs coordinate by coordinate, in the order np.prod takes.
    """
    # exponents along the last axis: a broadcast scalar exponent would take
    # numpy's x*x fast path for x**2, whose bits differ from pow's
    powers = X[..., None] ** np.arange(exps.max(initial=0) + 1)
    mono = powers[:, 0, exps[..., 0]]
    for d in range(1, X.shape[1]):
        mono *= powers[:, d, exps[..., d]]
    return np.ascontiguousarray(np.moveaxis(mono, 0, -2))


class PolynomialDefiningFunction:
    """r(x) = sum_i c_i * prod_d x_d^{p_id} over the 2n real coordinates.

    value, value_gradient_hessian and the gauge read one power table
    (_monomials); the derivatives' tables are built once, in __init__.
    """

    def __init__(self, n: int, coeffs, exps):
        self.n = int(n)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.exps = np.asarray(exps, dtype=int)
        if self.exps.ndim != 2 or self.exps.shape[1] != 2 * self.n:
            raise ValueError("exponent table must be (m, 2n)")
        if np.any(self.exps < 0):
            raise ValueError("negative exponents are not allowed")
        # r, then d_a r, then d_b d_a r for a <= b: coefficients (K, m) and
        # exponents (K, m, 2n), each derivative lowering one exponent, clamped at 0
        dim = 2 * self.n
        eye = np.eye(dim, dtype=int)
        grad_c = self.coeffs * self.exps.T
        grad_e = np.maximum(self.exps - eye[:, None, :], 0)
        a, b = np.triu_indices(dim)
        hess_c = grad_c[a] * grad_e[a, :, b]
        hess_e = np.maximum(grad_e[a] - eye[b][:, None, :], 0)
        self._derived_coeffs = np.concatenate([self.coeffs[None], grad_c, hess_c])
        self._derived_exps = np.concatenate([self.exps[None], grad_e, hess_e])
        self._hessian_index = np.empty((dim, dim), dtype=int)
        self._hessian_index[a, b] = self._hessian_index[b, a] = 1 + dim + np.arange(a.size)

    @staticmethod
    def from_monomials(n: int, monomials) -> "PolynomialDefiningFunction":
        """monomials: iterable of (coefficient, exponent-vector of length 2n)."""
        coeffs = [float(c) for c, _ in monomials]
        exps = [list(map(int, p)) for _, p in monomials]
        return PolynomialDefiningFunction(n, coeffs, exps)

    @staticmethod
    def unit_ball(n: int) -> "PolynomialDefiningFunction":
        """|x|^2 - 1."""
        eye = np.eye(2 * n, dtype=int) * 2
        coeffs = [1.0] * (2 * n) + [-1.0]
        exps = list(eye) + [np.zeros(2 * n, dtype=int)]
        return PolynomialDefiningFunction(n, coeffs, exps)

    @staticmethod
    def ellipsoid(semiaxes) -> "PolynomialDefiningFunction":
        """sum |z_j|^2 / a_j^2 - 1."""
        a = np.asarray(semiaxes, dtype=float)
        n = a.size
        coeffs, exps = [], []
        for j in range(n):
            for d in (2 * j, 2 * j + 1):
                e = np.zeros(2 * n, dtype=int)
                e[d] = 2
                coeffs.append(1.0 / a[j] ** 2)
                exps.append(e)
        coeffs.append(-1.0)
        exps.append(np.zeros(2 * n, dtype=int))
        return PolynomialDefiningFunction(n, coeffs, exps)

    def value(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = X.reshape(-1, X.shape[-1])
        return (_monomials(flat, self.exps) @ self.coeffs).reshape(X.shape[:-1])

    def value_gradient_hessian(self, X):
        X = np.asarray(X, dtype=float)
        shape, dim = X.shape[:-1], X.shape[-1]
        flat = X.reshape(-1, dim)
        # one C-contiguous (points, m) @ (m,) product per derived polynomial:
        # BLAS sums a strided operand, and .sum(-1) sums, in another order
        derived = np.matmul(
            _monomials(flat, self._derived_exps), self._derived_coeffs[..., None]
        )[..., 0]
        val = derived[0]
        # C-contiguous copies: an F-ordered grad moves the FFTs downstream by a bit
        grad = np.ascontiguousarray(derived[1 : 1 + dim].T)
        hess = np.ascontiguousarray(np.moveaxis(derived[self._hessian_index], -1, 0))
        return val.reshape(shape), grad.reshape(shape + (dim,)), hess.reshape(shape + (dim, dim))

    def rescale(self, sigma: float) -> "PolynomialDefiningFunction":
        """Defining function of D/sigma: r_new(x) = r(sigma * x), exact."""
        degs = self.exps.sum(axis=1)
        return PolynomialDefiningFunction(
            self.n, self.coeffs * sigma**degs.astype(float), self.exps
        )

    def monomials(self):
        return [(float(c), [int(p) for p in e]) for c, e in zip(self.coeffs, self.exps)]


# ---------------------------------------------------------------------------
# derivative plumbing
# ---------------------------------------------------------------------------


def wirtinger(grad: np.ndarray, hess: np.ndarray):
    """Convert real gradient/Hessian (interleaved coords) to complex data.

    Returns (r_z, r_zz, r_zzbar): r_z[j] = d r / d z_j; r_zz symmetric,
    r_zzbar Hermitian for real r.
    """
    gre = grad[..., 0::2]
    gim = grad[..., 1::2]
    r_z = 0.5 * (gre - 1j * gim)
    Haa = hess[..., 0::2, 0::2]
    Hbb = hess[..., 1::2, 1::2]
    Hab = hess[..., 0::2, 1::2]
    Hba = hess[..., 1::2, 0::2]
    r_zz = 0.25 * (Haa - Hbb - 1j * (Hab + Hba))
    r_zzbar = 0.25 * (Haa + Hbb + 1j * (Hab - Hba))
    return r_z, r_zz, r_zzbar


def complex_derivatives(r, point):
    """(r_z, r_zz, r_zzbar) at one or many complex points."""
    _, grad, hess = r.value_gradient_hessian(_as_real_point(point, r.n))
    return wirtinger(grad, hess)


def unit_normal(r, a) -> np.ndarray:
    """Outward unit normal nu = grad r / |grad r| as a complex vector.

    Requires a to sit on {r = 0} within 1e-9*(1+|grad r|); raises
    DomainViolation otherwise and DegenerateGradient when the gradient is
    numerically zero.
    """
    X = _as_real_point(a, r.n)
    val, grad, _ = r.value_gradient_hessian(X)
    g = complex_coords(grad)  # 2*dr/dzbar
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn < 1e-8):
        raise DegenerateGradient("defining-function gradient vanishes at the point")
    if np.any(np.abs(val) > 1e-9 * (1.0 + gn)):
        raise DomainViolation("point is not on the boundary {r = 0}")
    return g / gn[..., None]


# ---------------------------------------------------------------------------
# Minkowski gauge
# ---------------------------------------------------------------------------


def _first_root_along_rays(r, X: np.ndarray):
    """Smallest c > 0 with r(c*x) = 0 for each row x; nan where there is none.

    Split by degree, r(c*x) = sum_d h_d(x) c^d.  In s = 1/c the polynomial
    sum_d h_d s^(D-d) has leading coefficient h_0 = r(0) != 0, so the
    eigenvalues of its companion matrix are all its roots, and the first
    crossing is the largest positive real s.  Two Newton steps on the same
    table polish c.
    """
    X = np.asarray(X, dtype=float)
    if np.any(np.linalg.norm(X, axis=1) == 0.0):
        raise ValueError("gauge ray through the origin is undefined")
    deg = r.exps.sum(axis=1)
    D = int(deg.max())
    H = _monomials(X, r.exps) @ (r.coeffs[:, None] * (deg[:, None] == np.arange(D + 1)))
    if np.any(H[:, 0] == 0.0):
        raise DomainViolation("0 lies on {r = 0}, so rays from 0 have no first crossing")

    companion = np.zeros((X.shape[0], D, D)) + np.eye(D, k=-1)
    companion[:, :1, :] = -H[:, None, 1:] / H[:, :1, None]
    s = np.linalg.eigvals(companion)
    s = np.where((s.imag == 0.0) & (s.real > 0.0), s.real, 0.0).max(axis=1, initial=0.0)
    c = 1.0 / np.where(s > 0.0, s, np.nan)

    for _ in range(2):
        v = slope = 0.0
        for d in range(D, -1, -1):  # Horner for r(c*x) and its c-derivative
            slope = slope * c + v
            v = v * c + H[:, d]
        c = c - v / slope
    return c


def _gauge_batch(r, X: np.ndarray) -> np.ndarray:
    """mu(x) for each row of X, by the ray root finder (requires r(0) < 0)."""
    if float(r.value(np.zeros(X.shape[1]))) >= 0.0:
        raise DomainViolation("0 must be an interior point for the gauge")
    c = _first_root_along_rays(r, X)
    if np.any(np.isnan(c)):
        raise NoConvergence("gauge found no boundary crossing on some rays")
    return 1.0 / c


def _gauge_sq_derivatives_batch(r, X: np.ndarray):
    """(mu^2, grad mu^2, Hess mu^2) rows via the implicit function theorem."""
    X = np.asarray(X, dtype=float)
    small = np.linalg.norm(X, axis=-1) < 1e-8
    if np.any(small):
        raise LeftDomain("gauge derivatives requested too close to the origin")
    mu = _gauge_batch(r, X)
    Y = X / mu[:, None]
    _, grad, hess = r.value_gradient_hessian(Y)
    c = np.einsum("pi,pi->p", grad, X)
    if np.any(c <= 0.0):
        raise NoConvergence("ray crossing is not transversal (gauge IFT failed)")
    Hx = np.einsum("pij,pj->pi", hess, X)
    xHx = np.einsum("pi,pi->p", Hx, X)
    grad_mu = mu[:, None] * grad / c[:, None]
    hess_mu = (
        hess / c[:, None, None]
        - (Hx[:, :, None] * grad[:, None, :] + grad[:, :, None] * Hx[:, None, :])
        / (c**2)[:, None, None]
        + xHx[:, None, None]
        * grad[:, :, None]
        * grad[:, None, :]
        / (c**3)[:, None, None]
    )
    mu2 = mu**2
    grad_mu2 = 2.0 * mu[:, None] * grad_mu
    hess_mu2 = 2.0 * grad_mu[:, :, None] * grad_mu[:, None, :] + 2.0 * mu[
        :, None, None
    ] * hess_mu
    return mu2, grad_mu2, hess_mu2


# ---------------------------------------------------------------------------
# domain spec
# ---------------------------------------------------------------------------


@dataclass
class DomainSpec:
    """A bounded domain D = {r < 0} in C^n together with its kind.

    kind is one of "ball" (the unit ball), "ellipsoid" (semiaxes stored),
    or "polynomial" (general).  The defining function always is an exact
    polynomial in the interleaved real coordinates.  Gauge operations
    require 0 to be interior.
    """

    n: int
    kind: str
    defining: PolynomialDefiningFunction
    semiaxes: Optional[np.ndarray] = None
    z0: np.ndarray = None  # interleaved real coords of a declared interior point
    label: str = ""

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("domains live in C^n with n >= 2")
        if self.z0 is None:
            self.z0 = np.zeros(2 * self.n)
        self.z0 = np.asarray(self.z0, dtype=float)
        v = float(self.defining.value(self.z0))
        if v >= 0.0:
            raise DomainViolation(f"declared interior point has r = {v:.3e} >= 0")

    # -- gauge ---------------------------------------------------------------

    def gauge_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _gauge_batch(self.defining, np.atleast_2d(X)).reshape(X.shape[:-1])

    def gauge_sq_derivatives(self, X: np.ndarray):
        return _gauge_sq_derivatives_batch(self.defining, np.atleast_2d(X))

    # -- geometry ------------------------------------------------------------

    def contains(self, z, margin: float = 0.0) -> bool:
        X = _as_real_point(z, self.n)
        return bool(np.all(self.defining.value(X) < -margin))

    def boundary_radius_range(self):
        """(min, max) of the boundary radius 1/mu(u) over 4096 sampled
        directions, polished locally around both extremes."""
        rng = np.random.default_rng(0)
        U = rng.standard_normal((4096, 2 * self.n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        radii = 1.0 / self.gauge_many(U)

        def polish(u_best, sign):
            u = u_best.copy()
            best = sign / float(self.gauge_many(u[None, :])[0])
            width = 0.1
            for _ in range(14):
                cand = u[None, :] + width * rng.standard_normal((128, 2 * self.n))
                cand /= np.linalg.norm(cand, axis=1, keepdims=True)
                vals = sign / self.gauge_many(cand)
                i = int(np.argmax(vals))
                if vals[i] > best:
                    best = float(vals[i])
                    u = cand[i]
                width *= 0.4
            return sign * best

        r_max = polish(U[int(np.argmax(radii))], 1.0)
        r_min = polish(U[int(np.argmin(radii))], -1.0)
        return float(r_min), float(r_max)

    def rescaled(self):
        """Dilated copy D/sigma contained in the closed unit ball.

        Returns (domain, sigma, delta) where delta is the radius of the
        largest origin-centred ball inside the rescaled domain.
        """
        if self.kind == "ball":
            return self, 1.0, 1.0
        if self.kind == "ellipsoid":
            sigma = float(np.max(self.semiaxes))
            new_axes = np.asarray(self.semiaxes, dtype=float) / sigma
            dom = DomainSpec(
                self.n,
                "ellipsoid",
                PolynomialDefiningFunction.ellipsoid(new_axes),
                semiaxes=new_axes,
                label=self.label,
            )
            return dom, sigma, float(np.min(new_axes))
        r_min, r_max = self.boundary_radius_range()
        sigma = r_max * (1.0 + 1e-9)
        dom = DomainSpec(
            self.n,
            "polynomial",
            self.defining.rescale(sigma),
            z0=self.z0 / sigma,
            label=self.label,
        )
        return dom, sigma, r_min / sigma


def minkowski(domain: DomainSpec, point) -> float:
    """Minkowski gauge mu(x) = inf{t > 0 : x/t in D}; homogeneous of
    degree 1.  Accepts a complex n-point or interleaved real 2n-point."""
    X = _as_real_point(point, domain.n)
    if np.linalg.norm(X) == 0.0:
        return 0.0
    return float(domain.gauge_many(X))


# ---------------------------------------------------------------------------
# homotopy family
# ---------------------------------------------------------------------------


class GaugeInterpolant:
    """r_t(x) = t*mu_D(x)^2 + (1-t)*|x|^2 - 1 for a general domain.

    Exposes the same evaluation interface as PolynomialDefiningFunction,
    with derivatives of mu^2 supplied by the implicit function theorem.
    """

    def __init__(self, domain: DomainSpec, t: float):
        self.domain = domain
        self.t = float(t)
        self.n = domain.n

    def value(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        flat = np.atleast_2d(X.reshape(-1, X.shape[-1]))
        mu2 = self.domain.gauge_many(flat) ** 2
        out = self.t * mu2 + (1.0 - self.t) * np.einsum("pi,pi->p", flat, flat) - 1.0
        return out.reshape(X.shape[:-1])

    def value_gradient_hessian(self, X):
        X = np.asarray(X, dtype=float)
        shape = X.shape[:-1]
        flat = np.atleast_2d(X.reshape(-1, X.shape[-1]))
        mu2, g2, h2 = self.domain.gauge_sq_derivatives(flat)
        t = self.t
        dim = flat.shape[1]
        val = t * mu2 + (1 - t) * np.einsum("pi,pi->p", flat, flat) - 1.0
        grad = t * g2 + 2.0 * (1 - t) * flat
        hess = t * h2 + 2.0 * (1 - t) * np.eye(dim)[None, :, :]
        return (
            val.reshape(shape),
            grad.reshape(shape + (dim,)),
            hess.reshape(shape + (dim, dim)),
        )


def homotopy_domain(domain: DomainSpec, t: float):
    """Defining function of D_t, the gauge interpolation between the unit
    ball (t = 0) and D (t = 1).

    For ellipsoid/ball kinds the result is an exact quadric; the general
    kind gets a GaugeInterpolant.  D = D_1 and D_0 = B_n; with D contained
    in B_n the family is nested, so the extremal value is nondecreasing
    in t.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("homotopy parameter must lie in [0, 1]")
    if t == 0.0 or domain.kind == "ball":
        return PolynomialDefiningFunction.unit_ball(domain.n)
    if domain.kind == "ellipsoid":
        w = 1.0 / np.asarray(domain.semiaxes, dtype=float) ** 2 * t + (1.0 - t)
        return PolynomialDefiningFunction.ellipsoid(np.sqrt(1.0 / w))
    if t == 1.0:
        return domain.defining
    return GaugeInterpolant(domain, t)


# ---------------------------------------------------------------------------
# convexity verification (sampled)
# ---------------------------------------------------------------------------


def _boundary_samples(domain: DomainSpec, n_samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n_samples, 2 * domain.n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    c = _first_root_along_rays(domain.defining, U)
    # a boundary component may be unreachable in some directions (the origin
    # need not see the whole boundary); keep the rays that cross
    keep = ~np.isnan(c)
    if np.count_nonzero(keep) < max(8, n_samples // 8):
        raise NoConvergence("too few boundary crossings reachable from the origin")
    return c[keep, None] * U[keep]


def verify_convexity(domain: DomainSpec, n_samples: int = 2048, seed: int = 0) -> dict:
    """Sampled strong convexity / strong linear convexity check.

    At each sampled boundary point the real Hessian is minimized exactly
    over the real tangent space (restricted eigenproblem), and the complex
    margin  min eig(restricted r_zzbar) - ||restricted r_zz||  is computed
    on the complex tangent space.  64 extra random tangent directions act
    as a sampled cross-check.  Sampled, not certified.
    """
    B = _boundary_samples(domain, n_samples, seed)
    _, grad, hess = domain.defining.value_gradient_hessian(B)
    gn = np.linalg.norm(grad, axis=1)
    if np.any(gn < 1e-10):
        raise DegenerateGradient("vanishing gradient at a sampled boundary point")
    ghat = grad / gn[:, None]

    # real tangent margin: shift the normal direction out of the spectrum
    dim = 2 * domain.n
    proj = np.eye(dim)[None, :, :] - ghat[:, :, None] * ghat[:, None, :]
    restricted = np.einsum("pij,pjk,pkl->pil", proj, hess, proj)
    scale = np.abs(hess).max() + 1.0
    shifted = restricted + (1e6 * scale) * ghat[:, :, None] * ghat[:, None, :]
    eigs = np.linalg.eigvalsh(shifted)
    convexity_margin = float(np.min(eigs[:, 0]))

    # complex tangent margin
    r_z, r_zz, r_zzbar = wirtinger(grad, hess)
    a = np.conj(r_z)
    a = a / np.linalg.norm(a, axis=1)[:, None]
    outer = a[:, :, None] * np.conj(a)[:, None, :]
    _, vecs = np.linalg.eigh(outer)
    basis = vecs[:, :, : domain.n - 1]  # eigenvalue-0 eigenvectors
    beta_r = np.einsum("pji,pjk,pkl->pil", np.conj(basis), r_zzbar, basis)
    alpha_r = np.einsum("pji,pjk,pkl->pil", basis, r_zz, basis)
    lin_margin = float(
        np.min(np.linalg.eigvalsh(beta_r)[:, 0] - _top_singular(alpha_r))
    )

    # random tangent directions as a sampled upper bound on the real margin
    rng = np.random.default_rng(seed + 1)
    V = rng.standard_normal((B.shape[0], 64, dim))
    V -= np.einsum("pti,pi->pt", V, ghat)[:, :, None] * ghat[:, None, :]
    V /= np.linalg.norm(V, axis=2, keepdims=True)
    sampled = np.einsum("pti,pij,ptj->pt", V, hess, V)
    sampled_margin = float(np.min(sampled))

    return {
        "strongly_convex": convexity_margin > 0.0,
        "strongly_linearly_convex": lin_margin > 0.0,
        "min_margins": {
            "convexity": convexity_margin,
            "linear_convexity": lin_margin,
            "convexity_sampled": sampled_margin,
        },
    }


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def load_domain(obj: dict) -> DomainSpec:
    """Build a DomainSpec from its JSON dictionary.

    Expected keys: n, kind ("polynomial" | "ellipsoid" | "ball"), and for
    polynomial kind "monomials": [{"c": float, "p": [int * 2n]}], for
    ellipsoid kind "semiaxes": [float * n].  Optional "z0": [float * 2n].
    """
    try:
        n = int(obj["n"])
        kind = obj["kind"]
    except (KeyError, TypeError, ValueError) as e:
        raise DomainViolation(f"malformed domain object: {e}") from None
    if n < 2:
        raise DomainViolation("domains live in C^n with n >= 2")
    z0 = np.asarray(obj.get("z0", np.zeros(2 * n)), dtype=float)
    if z0.shape != (2 * n,):
        raise DomainViolation(f"z0 must have length {2*n}")
    label = obj.get("label", "")

    if kind == "ball":
        if "monomials" in obj or "semiaxes" in obj:
            raise DomainViolation("ball kind takes no monomials/semiaxes")
        return DomainSpec(n, "ball", PolynomialDefiningFunction.unit_ball(n), z0=z0, label=label)
    if kind == "ellipsoid":
        if "monomials" in obj:
            raise DomainViolation("ellipsoid kind must not carry monomials")
        a = np.asarray(obj["semiaxes"], dtype=float)
        if a.shape != (n,) or np.any(a <= 0):
            raise DomainViolation("semiaxes must be n positive reals")
        return DomainSpec(
            n,
            "ellipsoid",
            PolynomialDefiningFunction.ellipsoid(a),
            semiaxes=a,
            z0=z0,
            label=label,
        )
    if kind == "polynomial":
        if "semiaxes" in obj:
            raise DomainViolation("polynomial kind must not carry semiaxes")
        monos = obj["monomials"]
        if not monos:
            raise DomainViolation("empty monomial list")
        for i, mono in enumerate(monos):
            if set(mono) != {"c", "p"}:
                raise DomainViolation(f"monomial #{i} must have keys c and p")
            if len(mono["p"]) != 2 * n or any(
                int(e) < 0 or int(e) != e for e in mono["p"]
            ):
                raise DomainViolation(
                    f"monomial #{i}: exponent vector must be {2*n} nonnegative ints"
                )
        poly = PolynomialDefiningFunction.from_monomials(
            n, [(m["c"], m["p"]) for m in monos]
        )
        return DomainSpec(n, "polynomial", poly, z0=z0, label=label)
    raise DomainViolation(f"unknown domain kind {kind!r}")


def domain_to_dict(domain: DomainSpec) -> dict:
    out = {"n": domain.n, "kind": domain.kind}
    if domain.kind == "ellipsoid":
        out["semiaxes"] = [float(a) for a in domain.semiaxes]
    elif domain.kind == "polynomial":
        out["monomials"] = [
            {"c": c, "p": p} for c, p in domain.defining.monomials()
        ]
    out["z0"] = [float(v) for v in domain.z0]
    if domain.label:
        out["label"] = domain.label
    return out
