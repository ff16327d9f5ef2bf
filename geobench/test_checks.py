"""Each benchmark check accepts the true value and rejects it moved by 1e-6.

    python3 -m pytest geobench/test_checks.py -q
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402

EPS = 1e-6


def rejects_perturbed(check, value, *args):
    return check(value, *args) is None and all(
        check(value + s * EPS, *args) is not None for s in (-1.0, 1.0)
    )


def test_ball_closed_forms_match_known_values_and_reject_perturbation():
    assert checks.ball_k([0, 0], [0.5, 0]) == pytest.approx(np.arctanh(0.5), abs=1e-15)
    assert checks.ball_kappa([0, 0], [2.0, 0]) == pytest.approx(2.0, abs=1e-15)
    z, w, v = np.array([0.3, 0.1j]), np.array([-0.2, 0.4]), np.array([1.0, 0.5j])
    assert rejects_perturbed(checks.ball_lempert, checks.ball_k(z, w), z, w)
    assert rejects_perturbed(checks.ball_kobayashi, checks.ball_kappa(z, v), z, v)


def test_axis_formulas_reject_perturbation():
    a, zj, wj, vj = 2.0, 1.2 + 0.3j, -0.5j, 0.7 - 0.2j
    exact_k = checks.poincare(zj / a, wj / a)
    exact_kappa = abs(vj) / a / (1.0 - abs(zj / a) ** 2)
    assert rejects_perturbed(checks.axis_lempert, exact_k, a, zj, wj)
    assert rejects_perturbed(checks.axis_kobayashi, exact_kappa, a, zj, vj)


def test_axis_formula_of_the_ellipsoid_is_the_disc_of_the_ball():
    # with a_j = 1 the ellipsoid axis disc is the ball's
    z, w = np.array([0.4 - 0.2j, 0.0]), np.array([-0.3j, 0.0])
    assert checks.poincare(z[0], w[0]) == pytest.approx(checks.ball_k(z, w), abs=1e-14)


def test_sandwich_rejects_values_just_outside_either_bound():
    z, w, v = np.array([0.3, 0.2j]), np.array([-0.1, 0.35]), np.array([1.0, -0.4j])
    rho_in, rho_out = checks.QUARTIC_RHO_IN, checks.QUARTIC_RHO_OUT
    lo, hi = checks.ball_k(z / rho_out, w / rho_out), checks.ball_k(z / rho_in, w / rho_in)
    for bound, s in ((lo, -1.0), (hi, 1.0)):
        assert checks.sandwich_lempert(bound, z, w, rho_in, rho_out) is None
        assert checks.sandwich_lempert(bound + s * EPS, z, w, rho_in, rho_out) is not None
    lo, hi = checks.ball_kappa(z / rho_out, v / rho_out), checks.ball_kappa(z / rho_in, v / rho_in)
    for bound, s in ((lo, -1.0), (hi, 1.0)):
        assert checks.sandwich_kobayashi(bound, z, v, rho_in, rho_out) is None
        assert checks.sandwich_kobayashi(bound + s * EPS, z, v, rho_in, rho_out) is not None


def test_quartic_radii_are_the_extreme_boundary_radii():
    def r(x):
        return np.sum(x**2) + 0.5 * np.sum(x**4) - 1.0

    axis, diagonal = np.eye(4)[0], np.full(4, 0.5)
    assert r(checks.QUARTIC_RHO_IN * axis) == pytest.approx(0.0, abs=1e-14)
    assert r(checks.QUARTIC_RHO_OUT * diagonal) == pytest.approx(0.0, abs=1e-14)


def test_symmetry_and_swap_checks_reject_perturbation():
    v = 0.8344072729649
    assert checks.equal_values([v, v, v, v], "invariance") is None
    assert checks.equal_values([v, v, v + EPS, v], "invariance") is not None
    assert checks.equal_values([v, v - EPS], "swap") is not None


def test_ellipsoid_boundary_rejects_points_moved_off_it():
    a = np.array([1.0, 2.0])
    t = np.linspace(0.0, 2.0 * np.pi, 64)
    pts = np.stack([np.cos(t) * np.exp(1j * t), 2.0 * np.sin(t) * np.exp(-2j * t)], axis=1)
    assert checks.ellipsoid_boundary(pts, a) is None
    assert checks.ellipsoid_boundary(pts * (1.0 + EPS), a) is not None


@pytest.mark.parametrize("kind", ["lempert", "kobayashi"])
def test_certificate_recomputes_the_dual_route_of_a_real_solve(kind):
    from geodisc.domain import DomainSpec, PolynomialDefiningFunction
    from geodisc.metrics import kobayashi_royden, lempert_distance, left_inverse

    axes = np.array([1.0, 2.0])
    dom = DomainSpec(2, "ellipsoid", PolynomialDefiningFunction.ellipsoid(axes), semiaxes=axes)
    z, y = np.array([0.2, 0.6 + 0.1j]), np.array([-0.3, -0.4j])
    solve = lempert_distance if kind == "lempert" else kobayashi_royden
    res, disc = solve(dom, z, y)
    roots = [left_inverse(disc, z)] + ([left_inverse(disc, y)] if kind == "lempert" else [])
    dual, reason = checks.dual_route(
        kind, (disc.f.coeffs, disc.f.k_min), (disc.f_tilde.coeffs, disc.f_tilde.k_min), z, y, roots
    )
    assert reason is None
    assert checks.certificate(res.value, res.certificate_gap, dual) is None
    for s in (-1.0, 1.0):
        assert checks.certificate(res.value + s * EPS, res.certificate_gap, dual) is not None
    assert checks.certificate(res.value, 2 * checks.CERT_TOL, dual) is not None
    # a point that is not F's root is refused
    _, reason = checks.dual_route(
        kind, (disc.f.coeffs, disc.f.k_min), (disc.f_tilde.coeffs, disc.f_tilde.k_min),
        z, y, [r + 1e-3 for r in roots],
    )
    assert reason is not None
