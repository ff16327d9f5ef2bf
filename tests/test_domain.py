"""Defining functions, Wirtinger calculus, gauges, homotopy family,
convexity sampling, and the JSON domain format."""

import numpy as np
import pytest

from geodisc.domain import (
    DomainSpec,
    PolynomialDefiningFunction,
    complex_coords,
    complex_derivatives,
    domain_to_dict,
    homotopy_domain,
    load_domain,
    minkowski,
    real_coords,
    unit_normal,
    verify_convexity,
    wirtinger,
)
from geodisc.errors import DegenerateGradient, DomainViolation, NoConvergence


def ball(n=2):
    return DomainSpec(n, "ball", PolynomialDefiningFunction.unit_ball(n))


def ellipsoid(semiaxes):
    a = np.asarray(semiaxes, dtype=float)
    return DomainSpec(
        len(a), "ellipsoid", PolynomialDefiningFunction.ellipsoid(a), semiaxes=a
    )


def quartic():
    """sum x_d^2 + 1/2 sum x_d^4 - 1 over the four real coordinates of C^2."""
    monomials = [(-1.0, [0, 0, 0, 0])]
    for d in range(4):
        for power, c in ((2, 1.0), (4, 0.5)):
            p = [0, 0, 0, 0]
            p[d] = power
            monomials.append((c, p))
    return DomainSpec(2, "polynomial", PolynomialDefiningFunction.from_monomials(2, monomials))


def test_coords_roundtrip():
    z = np.array([0.3 + 0.4j, -1.0 + 2.0j])
    assert np.allclose(complex_coords(real_coords(z)), z)
    assert np.allclose(real_coords(z), [0.3, 0.4, -1.0, 2.0])


def test_ball_value_gradient_hessian():
    r = PolynomialDefiningFunction.unit_ball(2)
    v, g, h = r.value_gradient_hessian(np.array([[1.0, 0.0, 0.0, 0.0]]))
    assert v[0] == pytest.approx(0.0)
    assert np.allclose(g[0], [2.0, 0.0, 0.0, 0.0])
    assert np.allclose(h[0], 2.0 * np.eye(4))
    v0 = r.value(np.array([[0.0, 0.0, 0.0, 0.0]]))
    assert v0[0] == pytest.approx(-1.0)


def test_ellipsoid_gradient_hand_expansion():
    r = PolynomialDefiningFunction.ellipsoid([1.0, 2.0])
    v, g, _ = r.value_gradient_hessian(np.array([[0.0, 0.0, 2.0, 0.0]]))
    assert v[0] == pytest.approx(0.0)
    assert np.allclose(g[0], [0.0, 0.0, 1.0, 0.0])


FD_POLYNOMIALS = {
    "mixed": (2, [(1.0, [2, 0, 0, 0]), (1.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]),
                  (1.0, [0, 0, 0, 2]), (0.2, [4, 0, 0, 0]), (0.1, [1, 1, 2, 0]),
                  (-1.0, [0, 0, 0, 0])]),
    "odd_n3": (3, [(1.0, [3, 0, 0, 0, 0, 1]), (0.5, [0, 2, 1, 0, 0, 0]),
                   (1.0, [0, 0, 0, 2, 0, 0]), (-0.3, [1, 0, 0, 0, 1, 0]),
                   (-1.0, [0, 0, 0, 0, 0, 0])]),
    "constant": (2, [(-1.0, [0, 0, 0, 0])]),
}


@pytest.mark.parametrize("shape", [(), (5,), (2, 3)], ids=["point", "rows", "grid"])
@pytest.mark.parametrize("poly", list(FD_POLYNOMIALS))
def test_gradient_matches_finite_differences(poly, shape):
    """The gradient against central differences of the value, the Hessian
    against central differences of the gradient, for points of any shape."""
    n, monomials = FD_POLYNOMIALS[poly]
    r = PolynomialDefiningFunction.from_monomials(n, monomials)
    dim = 2 * n
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=shape + (dim,)) * 0.5
        v, g, hess = r.value_gradient_hessian(x)
        assert v.shape == shape and g.shape == shape + (dim,)
        assert hess.shape == shape + (dim, dim)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        for h in (1e-4, 1e-5):
            # row j of the (..., dim, dim) stacks is x +- h e_j
            up, down = x[..., None, :] + h * np.eye(dim), x[..., None, :] - h * np.eye(dim)
            fd = (r.value(up) - r.value(down)) / (2 * h)
            assert np.max(np.abs(fd - g)) < 50 * h**2 + 1e-10
            fd = (r.value_gradient_hessian(up)[1] - r.value_gradient_hessian(down)[1]) / (2 * h)
            assert np.max(np.abs(fd - hess)) < 50 * h**2 + 1e-10


def test_power_table_matches_per_polynomial_powers_bit_for_bit():
    """value, gradient and Hessian equal np.prod(x ** p) @ c summed over the
    monomials of r and of each derivative, with exponents lowered and
    clamped at 0 one step at a time."""

    def lower(c, e, d):
        lowered = e.copy()
        lowered[:, d] = np.maximum(e[:, d] - 1, 0)
        return c * e[:, d], lowered

    rng = np.random.default_rng(6)
    for n, monomials in list(FD_POLYNOMIALS.values()) + [(2, quartic().defining.monomials())]:
        r = PolynomialDefiningFunction.from_monomials(n, monomials)
        X = rng.normal(size=(257, 2 * n))

        def ev(c, e):
            return np.prod(X[:, None, :] ** e, axis=-1) @ c

        v, g, hess = r.value_gradient_hessian(X)
        assert np.array_equal(v, ev(r.coeffs, r.exps))
        assert np.array_equal(r.value(X), v)
        for a in range(2 * n):
            ga = lower(r.coeffs, r.exps, a)
            assert np.array_equal(g[:, a], ev(*ga))
            for b in range(a, 2 * n):
                assert np.array_equal(hess[:, a, b], ev(*lower(*ga, b)))


def test_wirtinger_quadric():
    r = PolynomialDefiningFunction.unit_ball(2)
    zeta = np.exp(0.7j)
    x = real_coords(np.array([zeta, 0.0]))
    _, g, h = r.value_gradient_hessian(x[None, :])
    r_z, r_zz, r_zzbar = wirtinger(g, h)
    assert np.allclose(r_z[0], [np.conj(zeta), 0.0])
    assert np.max(np.abs(r_zz[0])) < 1e-14
    assert np.allclose(r_zzbar[0], np.eye(2))


def test_wirtinger_hermitian_symmetry():
    rng = np.random.default_rng(4)
    r = PolynomialDefiningFunction.from_monomials(
        2,
        [(1.0, [2, 0, 0, 0]), (1.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]),
         (1.0, [0, 0, 0, 2]), (0.3, [2, 0, 2, 0]), (-1.0, [0, 0, 0, 0])],
    )
    for _ in range(5):
        x = rng.normal(size=(1, 4)) * 0.4
        _, g, h = r.value_gradient_hessian(x)
        _, r_zz, r_zzbar = wirtinger(g, h)
        assert np.max(np.abs(r_zzbar[0] - np.conj(r_zzbar[0].T))) < 1e-13
        assert np.max(np.abs(r_zz[0] - r_zz[0].T)) < 1e-13


def test_ellipsoid_complex_gradient():
    r = PolynomialDefiningFunction.ellipsoid([1.0, 2.0])
    r_z, _, _ = complex_derivatives(r, np.array([0.0, 2.0 + 0j]))
    assert np.allclose(r_z, [0.0, 0.5])


def test_unit_normal_ball():
    d = ball()
    assert np.allclose(unit_normal(d.defining, np.array([1.0 + 0j, 0.0])), [1.0, 0.0])
    assert np.allclose(unit_normal(d.defining, np.array([0.0, 1j])), [0.0, 1j])


def test_unit_normal_ellipsoid():
    d = ellipsoid([1.0, 2.0])
    nu = unit_normal(d.defining, np.array([0.0, 2.0 + 0j]))
    assert np.allclose(nu, [0.0, 1.0])


def test_unit_normal_degenerate():
    d = ball()
    with pytest.raises(DegenerateGradient):
        unit_normal(d.defining, np.array([0.0 + 0j, 0.0]))


def test_minkowski_ball():
    d = ball()
    assert minkowski(d, np.array([0.3, 0.4j])) == pytest.approx(0.5, abs=1e-11)
    assert minkowski(d, np.zeros(2)) == 0.0


def test_minkowski_ellipsoid_closed_form():
    d = ellipsoid([1.0, 2.0])
    mu = minkowski(d, np.array([1.0 + 0j, 1.0 + 0j]))
    assert mu == pytest.approx(np.sqrt(1.25), abs=1e-10)


def test_minkowski_homogeneity():
    rng = np.random.default_rng(6)
    d = ellipsoid([1.0, 1.5])
    for _ in range(20):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = float(rng.uniform(0.05, 2.0))
        assert abs(minkowski(d, t * x) - t * minkowski(d, x)) < 1e-10


def test_minkowski_interior_criterion():
    d = ellipsoid([1.0, 2.0])
    assert minkowski(d, np.array([0.0, 1.9 + 0j])) < 1.0
    assert minkowski(d, np.array([0.0, 2.1 + 0j])) > 1.0
    assert d.contains(np.array([0.0, 1.9 + 0j]))
    assert not d.contains(np.array([0.0, 2.1 + 0j]))


def test_minkowski_quartic_closed_forms():
    # the ray through a unit vector u meets the boundary at radius s with
    # s^2 + s^4 sum(u_d^4) / 2 = 1: sum(u_d^4) is 1 on an axis, 1/4 on a diagonal
    d = quartic()
    rho_in = np.sqrt(np.sqrt(3.0) - 1.0)
    rho_out = 2.0 * np.sqrt(np.sqrt(1.5) - 1.0)
    for axis in ([1.0, 0.0], [1j, 0.0], [0.0, 1.0], [0.0, 1j]):
        assert minkowski(d, np.array(axis)) == pytest.approx(1.0 / rho_in, abs=1e-14)
    diagonal = 0.5 * np.array([1.0 + 1j, 1.0 + 1j])
    assert minkowski(d, diagonal) == pytest.approx(1.0 / rho_out, abs=1e-14)


@pytest.mark.parametrize(
    "monomials",
    [
        # a cylinder along the fourth real axis
        [(1.0, [2, 0, 0, 0]), (1.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]), (-1.0, [0, 0, 0, 0])],
        # a constant: degree 0, no root on any ray
        [(-1.0, [0, 0, 0, 0])],
    ],
    ids=["cylinder", "constant"],
)
def test_minkowski_raises_on_a_ray_without_crossing(monomials):
    d = DomainSpec(2, "polynomial", PolynomialDefiningFunction.from_monomials(2, monomials))
    with pytest.raises(NoConvergence):
        minkowski(d, np.array([0.0, 1j]))


def test_homotopy_endpoints():
    d = ellipsoid([0.8, 0.6])  # already inside the unit ball
    r0 = homotopy_domain(d, 0.0)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(10, 4)) * 0.5
    ball_vals = np.sum(X**2, axis=1) - 1.0
    assert np.max(np.abs(r0.value(X) - ball_vals)) < 1e-12
    r1 = homotopy_domain(d, 1.0)
    # t=1 recovers the gauge-squared of the ellipsoid: mu^2 - 1
    for x in X:
        z = complex_coords(x)
        mu = minkowski(d, z)
        assert abs(r1.value(x[None, :])[0] - (mu**2 - 1.0)) < 1e-10


def test_homotopy_midpoint_ellipsoid():
    d = ellipsoid([1.0, 2.0])
    rt = homotopy_domain(d, 0.5)
    x = real_coords(np.array([0.0, 2.0 + 0j]))
    # 0.5 * mu_D^2 + 0.5 * mu_ball^2 - 1 = 0.5*1 + 0.5*4 - 1
    assert rt.value(x[None, :])[0] == pytest.approx(1.5, abs=1e-10)


def test_homotopy_interpolation_property():
    d = ellipsoid([0.9, 0.5])
    rng = np.random.default_rng(8)
    for _ in range(10):
        t = float(rng.uniform(0, 1))
        z = (rng.normal(size=2) + 1j * rng.normal(size=2)) * 0.3
        x = real_coords(z)[None, :]
        rt = homotopy_domain(d, t)
        mu_d = minkowski(d, z) ** 2
        mu_b = float(np.sum(np.abs(z) ** 2))
        assert abs(rt.value(x)[0] - (t * mu_d + (1 - t) * mu_b - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "make_domain",
    [lambda: ellipsoid([1.0, 1.3]), lambda: quartic().rescaled()[0]],
    ids=["ellipsoid", "quartic"],
)
def test_gauge_euler_identity(make_domain):
    # <grad mu^2(x), x>_R = 2 mu^2(x) near the boundary.  The ellipsoid's
    # family is an exact quadric; the quartic's runs through the gauge
    rt = homotopy_domain(make_domain(), 0.7)
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = z / np.linalg.norm(z) * rng.uniform(0.7, 0.95)
        x = real_coords(z)[None, :]
        v, g, h = rt.value_gradient_hessian(x)
        mu2 = v[0] + 1.0
        assert abs(float(g[0] @ x[0]) - 2.0 * mu2) < 1e-8
        # the gradient is homogeneous of degree 1: Hess(x) x = grad(x)
        assert np.max(np.abs(h[0] @ x[0] - g[0])) < 1e-12


def test_verify_convexity_ball_and_ellipsoid():
    rep = verify_convexity(ball(), n_samples=256)
    assert rep["strongly_convex"] and rep["strongly_linearly_convex"]
    assert rep["min_margins"]["linear_convexity"] == pytest.approx(1.0, abs=1e-9)
    rep2 = verify_convexity(ellipsoid([1.0, 2.0]), n_samples=256)
    assert rep2["strongly_convex"] and rep2["strongly_linearly_convex"]


def test_verify_convexity_flags_nonconvex():
    # (|z1|^2 - 1)^2 + |z2|^2 - 0.5: inner boundary component is concave
    r = PolynomialDefiningFunction.from_monomials(
        2,
        [(1.0, [4, 0, 0, 0]), (2.0, [2, 2, 0, 0]), (1.0, [0, 4, 0, 0]),
         (-2.0, [2, 0, 0, 0]), (-2.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]),
         (1.0, [0, 0, 0, 2]), (0.5, [0, 0, 0, 0])],
    )
    # the tube does not contain the origin; declare an interior point on
    # the z1 axis and let the ray sampler find the concave inner wall
    d = DomainSpec(2, "polynomial", r, z0=np.array([1.0, 0.0, 0.0, 0.0]))
    rep = verify_convexity(d, n_samples=512)
    assert not rep["strongly_convex"]


def test_verify_convexity_rejects_origin_on_boundary():
    # |x - e_1|^2 - 1 has no constant term: the ray sampler starts on {r = 0}
    r = PolynomialDefiningFunction.from_monomials(
        2,
        [(1.0, [2, 0, 0, 0]), (-2.0, [1, 0, 0, 0]), (1.0, [0, 2, 0, 0]),
         (1.0, [0, 0, 2, 0]), (1.0, [0, 0, 0, 2])],
    )
    d = DomainSpec(2, "polynomial", r, z0=np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(DomainViolation):
        verify_convexity(d, n_samples=256)


def test_rescaled_ball_is_identity():
    d = ball()
    scaled, sigma, delta = d.rescaled()
    assert sigma == 1.0 and scaled is d
    assert 0 < delta <= 1.0


def test_rescaled_ellipsoid():
    d = ellipsoid([1.0, 2.0])
    scaled, sigma, delta = d.rescaled()
    assert sigma == pytest.approx(2.0)
    assert delta == pytest.approx(0.5)
    # the scaled domain sits inside the closed unit ball
    assert minkowski(scaled, np.array([0.0, 0.999 + 0j])) < 1.0


def test_load_domain_roundtrip():
    d = ellipsoid([1.0, 2.0])
    back = load_domain(domain_to_dict(d))
    assert back.kind == "ellipsoid" and back.n == 2
    assert np.allclose(back.semiaxes, [1.0, 2.0])
    b = load_domain({"n": 3, "kind": "ball"})
    assert b.n == 3
    p = load_domain(
        {
            "n": 2,
            "kind": "polynomial",
            "monomials": [
                {"c": 1.0, "p": [2, 0, 0, 0]},
                {"c": 1.0, "p": [0, 2, 0, 0]},
                {"c": 1.0, "p": [0, 0, 2, 0]},
                {"c": 1.0, "p": [0, 0, 0, 2]},
                {"c": -1.0, "p": [0, 0, 0, 0]},
            ],
        }
    )
    assert p.kind == "polynomial"
    again = load_domain(domain_to_dict(p))
    x = np.array([[0.3, 0.1, -0.2, 0.4]])
    assert again.defining.value(x)[0] == pytest.approx(p.defining.value(x)[0])


def test_load_domain_errors():
    with pytest.raises(DomainViolation):
        load_domain({"n": 1, "kind": "ball"})
    with pytest.raises(DomainViolation):
        load_domain({"n": 2, "kind": "banana"})
    with pytest.raises(DomainViolation):
        load_domain({"n": 2, "kind": "ellipsoid", "semiaxes": [1.0]})
    with pytest.raises(DomainViolation):
        load_domain({"n": 2, "kind": "ellipsoid", "semiaxes": [1.0, -2.0]})
    with pytest.raises(DomainViolation) as exc:
        load_domain(
            {"n": 2, "kind": "polynomial", "monomials": [{"c": 1.0, "p": [2, 0]}]}
        )
    assert "monomial #0" in str(exc.value)
    with pytest.raises(DomainViolation):
        load_domain({"n": 2, "kind": "polynomial", "monomials": []})
    with pytest.raises(DomainViolation):
        load_domain({"n": 2, "kind": "ball", "semiaxes": [1.0, 1.0]})
