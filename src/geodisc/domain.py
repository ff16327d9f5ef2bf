"""Defining functions and domain bookkeeping.

A domain in C^n is described by a real polynomial r in the 2n interleaved
real coordinates x = (Re z1, Im z1, ..., Re zn, Im zn) with D = {r < 0}.
This module provides polynomial calculus (values, gradients, Hessians,
Wirtinger derivatives), the Minkowski gauge with derivatives via the
implicit function theorem, sampled convexity verification, and the homotopy
family joining a domain to the unit ball.  Each polynomial writes r, its
gradient and its Hessian once, as one coefficient matrix over the distinct
monomials they contain; at a set of points all of them are column slices
of one product of that matrix with the monomial values, which come from
coordinate powers built by repeated multiplication.  The gauge's degree
split reads the same monomial values.  For every kind of domain the gauge
mu(x) is the largest positive root of one polynomial per ray: with
r(c*x) = sum_d h_d(x) c^d split by degree, mu(x) = 1/c is the largest
positive root s of sum_d h_d(x) s^(D-d).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
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
    """prod_d X[j, d]^exps[i, d] at the points X (points, 2n), as a
    (points, m) array gathered from one (points, 2n, P+1) table of the
    powers X[j, d]^k, built by cumulative products x^k = x^(k-1) * x, so a
    monomial of degree d carries at most d - 1 roundings."""
    powers = np.empty(X.shape + (exps.max(initial=0) + 1,))
    powers[..., 0] = 1.0
    for k in range(1, powers.shape[-1]):
        np.multiply(powers[..., k - 1], X, out=powers[..., k])
    mono = powers[:, 0, exps[:, 0]]
    for d in range(1, X.shape[1]):
        mono *= powers[:, d, exps[:, d]]
    return mono


class PolynomialDefiningFunction:
    """r(x) = sum_i c_i * prod_d x_d^{p_id} over the 2n real coordinates.

    __init__ derives r, its gradient and its Hessian as K = 1 + 2n + n(2n+1)
    polynomials and folds them into the U distinct exponent rows that carry
    a nonzero coefficient and one (U, K) coefficient matrix.  value,
    value_gradient and value_gradient_hessian are column slices of the one
    product (points, U) @ (U, K), and the gauge's degree split reads the
    same monomial table.
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
        # exponents (K, m, 2n); each derivative multiplies by the exponent it
        # lowers, so an exponent below 0 only ever carries a zero coefficient
        dim = 2 * self.n
        eye = np.eye(dim, dtype=int)
        grad_c = self.coeffs * self.exps.T
        grad_e = self.exps - eye[:, None, :]
        a, b = np.triu_indices(dim)
        hess_c = grad_c[a] * grad_e[a, :, b]
        hess_e = grad_e[a] - eye[b][:, None, :]
        coeffs = np.concatenate([self.coeffs[None], grad_c, hess_c])
        exps = np.concatenate([self.exps[None], grad_e, hess_e])
        k, i = np.nonzero(coeffs)
        self._exps, row = np.unique(exps[k, i], axis=0, return_inverse=True)
        self._coeffs = np.zeros((len(self._exps), len(coeffs)))
        np.add.at(self._coeffs, (row.ravel(), k), coeffs[k, i])
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

    def _evaluate(self, X, hessian: bool):
        """r, its gradient and, if asked, its Hessian at the points X (..., 2n):
        column slices of the one product (points, U) @ (U, K)."""
        X = np.asarray(X, dtype=float)
        shape, dim = X.shape[:-1], 2 * self.n
        derived = _monomials(X.reshape(-1, X.shape[-1]), self._exps) @ self._coeffs
        # C-contiguous copies: an F-ordered grad moves the FFTs downstream by a bit
        out = [
            np.ascontiguousarray(derived[:, 0]).reshape(shape),
            np.ascontiguousarray(derived[:, 1 : 1 + dim]).reshape(shape + (dim,)),
        ]
        if hessian:
            out.append(derived[:, self._hessian_index].reshape(shape + (dim, dim)))
        return tuple(out)

    def value(self, X) -> np.ndarray:
        return self._evaluate(X, hessian=False)[0]

    def value_gradient(self, X):
        """r and its gradient, with the bits of value_gradient_hessian."""
        return self._evaluate(X, hessian=False)

    def value_gradient_hessian(self, X):
        return self._evaluate(X, hessian=True)

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
    D = int(r.exps.sum(axis=1).max())
    deg = r._exps.sum(axis=1)
    H = _monomials(X, r._exps) @ (r._coeffs[:, :1] * (deg[:, None] == np.arange(D + 1)))
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

    def contains(self, z) -> bool:
        X = _as_real_point(z, self.n)
        return bool(np.all(self.defining.value(X) < 0.0))

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
        largest origin-centred ball inside the rescaled domain.  The
        triple is a property of the domain: it is computed on the first
        call and every later call returns the same objects, so callers
        must not mutate it, nor the domain once it has been rescaled.
        """
        if self.kind == "ball":
            return self, 1.0, 1.0
        return self._dilation

    # Python 3.11's cached_property locks the first computation; from 3.12
    # concurrent first calls may each compute it, to the same values.
    @cached_property
    def _dilation(self):
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

    Exposes value_gradient_hessian and value_gradient, the evaluations
    the solver calls, with derivatives of mu^2 supplied by the implicit
    function theorem.
    """

    def __init__(self, domain: DomainSpec, t: float):
        self.domain = domain
        self.t = float(t)
        self.n = domain.n

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

    def value_gradient(self, X):
        val, grad, _ = self.value_gradient_hessian(X)
        return val, grad


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
    on the complex tangent space.  Sampled, not certified.
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

    return {
        "strongly_convex": convexity_margin > 0.0,
        "strongly_linearly_convex": lin_margin > 0.0,
        "min_margins": {"convexity": convexity_margin, "linear_convexity": lin_margin},
    }


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _json_number(value, what: str, integer: bool = False):
    """A finite JSON number (integral if asked) or a DomainViolation naming the field."""
    ok = not isinstance(value, bool) and isinstance(value, numbers.Real)
    limit = sys.maxsize if integer else sys.float_info.max
    if not (ok and abs(value) <= limit) or (integer and value != int(value)):
        kind = "a 64-bit integer" if integer else "a finite number"
        raise DomainViolation(f"{what} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainViolation(f"{what} must be a list of numbers, got {value!r}") from None


def load_domain(obj: dict) -> DomainSpec:
    """Build a DomainSpec from its JSON dictionary.

    Expected keys: n, kind ("polynomial" | "ellipsoid" | "ball"), and for
    polynomial kind "monomials": [{"c": float, "p": [int * 2n]}], for
    ellipsoid kind "semiaxes": [float * n].  Optional "z0": [float * 2n].
    A missing or wrong-typed field is a DomainViolation that names it.
    """
    try:
        n = obj["n"]
        kind = obj["kind"]
    except (KeyError, TypeError) as e:
        raise DomainViolation(f"malformed domain object: {e!r}") from None
    n = _json_number(n, "n", integer=True)
    if n < 2:
        raise DomainViolation("domains live in C^n with n >= 2")
    z0 = _float_array(obj.get("z0", np.zeros(2 * n)), "z0")
    if z0.shape != (2 * n,):
        raise DomainViolation(f"z0 must have length {2*n}")
    if not np.all(np.isfinite(z0)):
        raise DomainViolation("z0 entries must be finite")
    label = obj.get("label", "")

    if kind == "ball":
        if "monomials" in obj or "semiaxes" in obj:
            raise DomainViolation("ball kind takes no monomials/semiaxes")
        return DomainSpec(n, "ball", PolynomialDefiningFunction.unit_ball(n), z0=z0, label=label)
    if kind == "ellipsoid":
        if "monomials" in obj:
            raise DomainViolation("ellipsoid kind must not carry monomials")
        a = _float_array(obj.get("semiaxes"), "semiaxes")
        if a.shape != (n,) or not np.all(np.isfinite(a) & (a > 0)):
            raise DomainViolation("semiaxes must be n finite positive reals")
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
        monos = obj.get("monomials")
        if not isinstance(monos, list) or not monos:
            raise DomainViolation(f"monomials must be a nonempty list, got {monos!r}")
        terms = []
        for i, mono in enumerate(monos):
            if not isinstance(mono, dict) or set(mono) != {"c", "p"}:
                raise DomainViolation(f"monomial #{i} must have keys c and p")
            c = _json_number(mono["c"], f"monomial #{i}: coefficient c")
            p = mono["p"]
            if not isinstance(p, list) or len(p) != 2 * n:
                raise DomainViolation(
                    f"monomial #{i}: exponent vector p must be a list of {2*n} "
                    f"nonnegative ints, got {p!r}"
                )
            p = [_json_number(e, f"monomial #{i}: exponent p[{k}]", integer=True)
                 for k, e in enumerate(p)]
            if min(p) < 0:
                raise DomainViolation(f"monomial #{i}: exponents must be nonnegative, got {p}")
            terms.append((c, p))
        poly = PolynomialDefiningFunction.from_monomials(n, terms)
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
