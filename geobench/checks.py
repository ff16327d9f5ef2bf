"""Correctness checks that do not depend on geodisc's own formulas.

Every check compares a computed value with a closed form, a bound from an
inclusion of domains, or another computed value that must equal it.  Each
returns None when the value passes and a one-line reason otherwise.  The
tolerances are far below 1e-6, so a value moved by 1e-6 fails.
"""

from __future__ import annotations

import numpy as np

# relative agreement required of values that must be equal
EQ_TOL = 1e-8
# |value - dual-route value| and the reported certificate_gap
CERT_TOL = 1e-7
# |G(x, F(x))| at the root the left inverse returns
ROOT_TOL = 1e-9

# The quartic r = sum x_d^2 + 1/2 sum x_d^4 - 1 over the 4 real coordinates of
# C^2 meets the ray through a unit vector u at s^2 + s^4 sum(u_d^4)/2 = 1, and
# sum(u_d^4) runs over [1/4, 1]; so rho_in*B is inside D and D inside rho_out*B.
QUARTIC_RHO_IN = float(np.sqrt(np.sqrt(3.0) - 1.0))
QUARTIC_RHO_OUT = float(2.0 * np.sqrt(np.sqrt(1.5) - 1.0))


def _scale(x):
    return max(1.0, abs(x))


def poincare(a, b) -> float:
    """Poincare distance atanh|(a - b)/(1 - conj(b) a)| of the unit disc."""
    a, b = complex(a), complex(b)
    return float(np.arctanh(abs(a - b) / abs(1.0 - np.conj(b) * a)))


def ball_k(z, w) -> float:
    """Lempert function of the unit ball: atanh |phi_z(w)|."""
    z, w = np.asarray(z, complex), np.asarray(w, complex)
    zz, ww = np.vdot(z, z).real, np.vdot(w, w).real
    s = 1.0 - (1.0 - zz) * (1.0 - ww) / abs(1.0 - np.vdot(w, z)) ** 2
    return float(np.arctanh(np.sqrt(max(s, 0.0))))


def ball_kappa(z, v) -> float:
    """Kobayashi-Royden metric of the unit ball."""
    z, v = np.asarray(z, complex), np.asarray(v, complex)
    d = 1.0 - np.vdot(z, z).real
    return float(np.sqrt(np.vdot(v, v).real / d + abs(np.vdot(z, v)) ** 2 / d**2))


def _in_unit_ball(*pts) -> bool:
    return all(np.vdot(p, p).real < 1.0 for p in pts)


def expect_equal(value, expected, what) -> str | None:
    if abs(value - expected) <= EQ_TOL * _scale(expected):
        return None
    return f"{what}: {value!r} differs from {expected!r} by {abs(value - expected):.3e}"


def expect_within(value, lo, hi, what) -> str | None:
    if lo - EQ_TOL * _scale(lo) <= value and (hi == np.inf or value <= hi + EQ_TOL * _scale(hi)):
        return None
    return f"{what}: {value!r} outside [{lo!r}, {hi!r}]"


def ball_lempert(value, z, w):
    return expect_equal(value, ball_k(z, w), "ball closed form k")


def ball_kobayashi(value, z, v):
    return expect_equal(value, ball_kappa(z, v), "ball closed form kappa")


def axis_lempert(value, a_j, z_j, w_j):
    """Points on the j-th axis of an ellipsoid: the projection onto z_j and
    the inclusion zeta -> zeta e_j retract the ellipsoid onto a_j * disc."""
    return expect_equal(value, poincare(z_j / a_j, w_j / a_j), "ellipsoid axis k")


def axis_kobayashi(value, a_j, z_j, v_j):
    exact = abs(v_j) / a_j / (1.0 - abs(z_j / a_j) ** 2)
    return expect_equal(value, exact, "ellipsoid axis kappa")


def sandwich_lempert(value, z, w, rho_in, rho_out):
    """rho_in*B <= D <= rho_out*B gives k_{rho_out B} <= k_D <= k_{rho_in B}."""
    z, w = np.asarray(z, complex), np.asarray(w, complex)
    lo = ball_k(z / rho_out, w / rho_out)
    hi = ball_k(z / rho_in, w / rho_in) if _in_unit_ball(z / rho_in, w / rho_in) else np.inf
    return expect_within(value, lo, hi, "inclusion sandwich k")


def sandwich_kobayashi(value, z, v, rho_in, rho_out):
    z, v = np.asarray(z, complex), np.asarray(v, complex)
    lo = ball_kappa(z / rho_out, v / rho_out)
    hi = ball_kappa(z / rho_in, v / rho_in) if _in_unit_ball(z / rho_in) else np.inf
    return expect_within(value, lo, hi, "inclusion sandwich kappa")


def equal_values(values, what):
    """Values that a symmetry of the problem forces to coincide."""
    ref = values[0]
    for v in values[1:]:
        msg = expect_equal(v, ref, what)
        if msg:
            return msg
    return None


def _poly(coeffs, k_min, zeta):
    """sum_k c_k zeta^(k_min + k) and its derivative, by Horner's rule."""
    if k_min:
        raise ValueError("holomorphic-type coefficients expected")
    val = np.zeros(coeffs.shape[1:], complex)
    der = np.zeros(coeffs.shape[1:], complex)
    for c in coeffs[::-1]:
        der = der * zeta + val
        val = val * zeta + c
    return val, der


def _G(f, ft, x, zeta):
    """G(x, zeta) = (x - f(zeta)) . f_tilde(zeta) and d/dzeta of it."""
    fv, fd = _poly(f[0], f[1], zeta)
    tv, td = _poly(ft[0], ft[1], zeta)
    return np.sum((x - fv) * tv), np.sum(-fd * tv + (x - fv) * td)


def dual_route(kind, f, f_tilde, x, y, roots) -> tuple:
    """Lower-bound value of the left inverse F, recomputed from the disc.

    f and f_tilde are (coefficients, k_min) of the disc and its dual; roots
    gives F(x) (and F(y) for a pair), whose root property is checked here.
    Returns (value, reason or None).
    """
    x = np.asarray(x, complex)
    pts = (x,) if kind == "kobayashi" else (x, np.asarray(y, complex))
    for p, zeta in zip(pts, roots):
        g, _ = _G(f, f_tilde, p, zeta)
        if not abs(zeta) < 1.0 or abs(g) > ROOT_TOL:
            return None, f"left inverse root {zeta!r} has |G| = {abs(g):.3e}"
    if kind == "lempert":
        return poincare(roots[0], roots[1]), None
    zeta0 = roots[0]
    _, gp = _G(f, f_tilde, x, zeta0)
    tv, _ = _poly(f_tilde[0], f_tilde[1], zeta0)
    dFv = -np.sum(np.asarray(y, complex) * tv) / gp
    return float(abs(dFv) / (1.0 - abs(zeta0) ** 2)), None


def certificate(value, reported_gap, dual_value):
    """The disc's upper bound and the left inverse's lower bound agree."""
    if not reported_gap < CERT_TOL:
        return f"reported certificate_gap {reported_gap:.3e} is not below {CERT_TOL:.0e}"
    if not abs(value - dual_value) < CERT_TOL:
        return f"value {value!r} and dual route {dual_value!r} differ by {abs(value - dual_value):.3e}"
    return None


def ellipsoid_boundary(points, semiaxes):
    """Sampled disc boundary values must lie on sum |z_j / a_j|^2 = 1."""
    a = np.asarray(semiaxes, float)
    r = np.sum(np.abs(np.asarray(points) / a) ** 2, axis=-1) - 1.0
    worst = float(np.max(np.abs(r)))
    return None if worst < EQ_TOL else f"boundary sample off the ellipsoid by {worst:.3e}"
