"""Tests for the distance/metric layer: Poincare distance, Lempert function,
Kobayashi-Royden metric, left inverses, and the certificate gaps."""

import dataclasses
import inspect
import json

import numpy as np
import pytest

from geodisc import continuation, metrics, stationary
from geodisc import disc as dc
from geodisc.continuation import solve_extremal
from geodisc.disc import FourierDisc
from geodisc.domain import DomainSpec, GaugeInterpolant, PolynomialDefiningFunction, load_domain
from geodisc.errors import DomainViolation, NoConvergence, WindingNotOne
from geodisc.metrics import (
    geodesic_consistency,
    kobayashi_royden,
    left_inverse,
    lempert_distance,
    poincare,
)
from geodisc.linear import axis_ball_defining
from geodisc.stationary import G_disc, NewtonConfig, disc_from_f


def ball_domain(n=2):
    return DomainSpec(n, "ball", PolynomialDefiningFunction.unit_ball(n))


def ellipsoid_domain(axes):
    a = np.asarray(axes, dtype=float)
    return DomainSpec(
        len(a), "ellipsoid", PolynomialDefiningFunction.ellipsoid(a), semiaxes=a
    )


def ball_formula(z, w):
    """Closed-form Lempert distance of the unit ball."""
    num = (1.0 - np.linalg.norm(z) ** 2) * (1.0 - np.linalg.norm(w) ** 2)
    den = abs(1.0 - complex(np.vdot(w, z))) ** 2
    return float(np.arctanh(np.sqrt(1.0 - num / den)))


def ball_kappa(z, v):
    """Closed-form Kobayashi-Royden metric of the unit ball."""
    d = 1.0 - np.linalg.norm(z) ** 2
    return float(np.sqrt(np.linalg.norm(v) ** 2 / d + abs(complex(np.vdot(z, v))) ** 2 / d**2))


def quartic_domain():
    """sum x_d^2 + 1/2 sum x_d^4 - 1 over the four real coordinates of C^2."""
    monomials = [(-1.0, [0, 0, 0, 0])]
    for d in range(4):
        for power, c in ((2, 1.0), (4, 0.5)):
            p = [0, 0, 0, 0]
            p[d] = power
            monomials.append((c, p))
    return DomainSpec(2, "polynomial", PolynomialDefiningFunction.from_monomials(2, monomials))


def axis_disc(N=9):
    fc = np.zeros((2, 2), dtype=complex)
    fc[1, 0] = 1.0
    return disc_from_f(
        axis_ball_defining(2),
        FourierDisc(fc, 0).band(0, N),
        "direction",
        1.0,
        np.array([1.0, 0.0]),
    )


# ---------------------------------------------------------------------------
# Poincare distance
# ---------------------------------------------------------------------------


def test_poincare_reference_values():
    assert poincare(0, 0.5) == pytest.approx(0.5493061443340549, abs=1e-16)
    assert poincare(0.3 + 0.2j, -0.1 + 0.5j) == pytest.approx(
        0.5885765734840136, abs=1e-15
    )
    assert poincare(0.25j, 0.25j) == 0.0


def test_poincare_is_symmetric_and_mobius_invariant():
    rng = np.random.default_rng(17)
    c = 0.3 - 0.2j

    def aut(x):
        return (x - c) / (1.0 - np.conj(c) * x)

    for _ in range(25):
        a, b = (rng.uniform(-0.9, 0.9, 2) + 1j * rng.uniform(-0.9, 0.9, 2)) / 2
        assert poincare(a, b) == pytest.approx(poincare(b, a), abs=1e-15)
        assert poincare(aut(a), aut(b)) == pytest.approx(poincare(a, b), abs=1e-12)


def test_poincare_rejects_exterior_points():
    with pytest.raises(DomainViolation):
        poincare(1.0, 0.0)
    with pytest.raises(DomainViolation):
        poincare(0.0, 2.0j)


# ---------------------------------------------------------------------------
# left inverse on a known disc
# ---------------------------------------------------------------------------


def test_axis_disc_G_is_minus_zeta():
    d = axis_disc()
    vals = G_disc(d, np.zeros(2))(np.array([0.3 + 0j, -0.5j, 0.1 + 0.1j]))
    assert np.allclose(vals, [-0.3, 0.5j, -0.1 - 0.1j], atol=1e-13)


def test_left_inverse_recovers_the_parameter():
    d = axis_disc()
    for zeta in (0.3 + 0j, 0.2 + 0.1j, 0j, -0.45j):
        z = np.array([zeta, 0.0], dtype=complex)
        assert abs(left_inverse(d, z) - zeta) < 1e-12


def test_left_inverse_rejects_multiple_windings():
    d = axis_disc()
    shifted = FourierDisc(d.f_tilde.coeffs.copy(), d.f_tilde.k_min + 1)
    bad = dataclasses.replace(d, f_tilde=shifted)
    with pytest.raises(WindingNotOne):
        left_inverse(bad, np.array([0.3, 0.0]))


def count_polish_steps(monkeypatch):
    """Each Newton polish step of left_inverse evaluates G' once."""
    steps = []
    real = metrics._derivative

    class Counted(FourierDisc):
        def __call__(self, zeta):
            steps.append(zeta)
            return super().__call__(zeta)

    def derivative(G):
        Gp = real(G)
        return Counted(Gp.coeffs, Gp.k_min)

    monkeypatch.setattr(metrics, "_derivative", derivative)
    return steps


def test_left_inverse_polishes_the_moment_estimate_near_the_circle(monkeypatch):
    z, w = np.array([0.2, 0.3j]), np.array([-0.1, 0.4])
    _, d = lempert_distance(ellipsoid_domain((1.0, 2.0)), z, w)
    assert d.f.k_max == 64 + 1
    steps = count_polish_steps(monkeypatch)
    # the first moment of G'/G meets |G| < 1e-12 on its own up to |zeta| =
    # 0.98; at 0.995 Newton takes two steps from it
    for zeta, polish, tol in ((0.5j, 0, 1e-15), (-0.98, 0, 1e-13), (0.98j, 0, 1e-13),
                              (0.995, 2, 1e-15)):
        steps.clear()
        assert abs(left_inverse(d, d.f(zeta)) - zeta) < tol
        assert len(steps) == polish


def test_geodesic_consistency_on_the_axis_disc():
    d = axis_disc()
    pairs = [(0.1, 0.5), (0.3j, -0.2), (0.0, 0.45 + 0.2j)]
    assert geodesic_consistency(d, pairs) < 1e-12


# ---------------------------------------------------------------------------
# Lempert function
# ---------------------------------------------------------------------------


def test_ball_distance_matches_the_closed_form():
    B = ball_domain()
    z = np.array([0.3, 0.0])
    w = np.array([0.0, 0.3])
    res, disc = lempert_distance(B, z, w)
    assert res.kind == "lempert"
    assert res.value == pytest.approx(ball_formula(z, w), abs=1e-12)
    assert res.value == pytest.approx(0.4411633162860364, abs=1e-12)
    assert res.certificate_gap < 1e-12
    assert res.windings == {"phi": 0, "G": 1}
    assert set(res.residuals) == {"blended", "boundary_sup", "dual_tail_sup"}
    assert np.arctanh(disc.multiplier) == pytest.approx(res.value, abs=1e-15)


def test_ball_distance_random_pairs_against_formula():
    rng = np.random.default_rng(41)
    B = ball_domain()
    for _ in range(4):
        z = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.25
        w = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.25
        res, _ = lempert_distance(B, z, w)
        assert res.value == pytest.approx(ball_formula(z, w), abs=1e-10)
        assert res.certificate_gap < 1e-9


def test_ellipsoid_axis_pair_is_exact():
    # the z2-slice of the (1, 2) ellipsoid is a geodesic disc of radius 2,
    # so the distance from 0 to (0, 0.6) is atanh(0.6 / 2)
    E = ellipsoid_domain((1.0, 2.0))
    res, _ = lempert_distance(E, np.zeros(2, dtype=complex), np.array([0.0, 0.6]))
    assert res.value == pytest.approx(np.arctanh(0.3), abs=1e-12)
    assert res.value == pytest.approx(0.3095196042031117, abs=1e-12)
    assert res.certificate_gap < 1e-12


def test_ellipsoid_reference_pairs():
    E2 = ellipsoid_domain((1.0, 2.0))
    res, _ = lempert_distance(E2, np.zeros(2, dtype=complex), np.array([0.2, 0.6]))
    assert res.value == pytest.approx(0.37752383215050755, abs=1e-9)
    assert res.certificate_gap < 1e-9

    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([-0.4, 0.5 + 0.2j])
    r2, _ = lempert_distance(E2, z, w)
    assert r2.value == pytest.approx(0.8351648437232304, abs=1e-9)
    assert r2.certificate_gap < 1e-9
    r12, _ = lempert_distance(ellipsoid_domain((1.0, 1.2)), z, w)
    assert r12.value == pytest.approx(1.0015195760638653, abs=1e-9)
    assert r12.certificate_gap < 1e-9


# E(a) = {sum |z_j|^2 / a_j^2 < 1} is the image of the unit ball under
# L = diag(a), so k_E(z, w) = k_B(L^-1 z, L^-1 w) and
# kappa_E(z; v) = kappa_B(L^-1 z; L^-1 v): a reference independent of the
# solver, which never uses L
E12_AXES = np.array([1.0, 2.0])


@pytest.mark.parametrize(
    "solve, ball_value, z, y, band",
    [
        (lempert_distance, ball_formula,
         (0.2 + 0.1j, 0.5 - 0.3j), (-0.3, 0.2 + 0.4j), 64),
        # gauge 0.797, off both axes
        (lempert_distance, ball_formula,
         (0.6 + 0.3j, -0.7 + 0.5j), (0.1, 0.2j), 128),
        (kobayashi_royden, ball_kappa,
         (0.2 + 0.1j, 0.5 - 0.3j), (0.4, -0.3 + 0.5j), 64),
        (kobayashi_royden, ball_kappa,
         (0.6 + 0.3j, -0.7 + 0.5j), (1.0, 0.5j), 128),
    ],
    ids=["pair-band64", "pair-band128", "direction-band64", "direction-band128"],
)
def test_ellipsoid_matches_the_ball_under_the_linear_map(solve, ball_value, z, y, band):
    z, y = np.array(z), np.array(y)
    res, disc = solve(ellipsoid_domain(E12_AXES), z, y)
    assert disc.f.k_max == band + 1
    assert res.report.passed
    assert abs(res.value - ball_value(z / E12_AXES, y / E12_AXES)) < 1e-10


def test_ellipsoid_reference_values_match_the_linear_map():
    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([-0.4, 0.5 + 0.2j])
    # the values that test_ellipsoid_reference_pairs recorded from the solver
    for value, a, x, y in (
        (0.37752383215050755, E12_AXES, np.zeros(2), np.array([0.2, 0.6])),
        (0.8351648437232304, E12_AXES, z, w),
        (1.0015195760638653, np.array([1.0, 1.2]), z, w),
    ):
        assert abs(value - ball_formula(x / a, y / a)) < 1e-10


def test_ellipsoid_pair_of_the_table_fault_grid_certifies_at_band_128():
    # the pair behind geodisc table's grid 0.8,0;-0.3,0 on E(1,2): the solve
    # certifies; only the table's 128-point boundary sample of the disc fails
    z, w = np.array([0.8, 0.0]), np.array([-0.3, 0.0])
    res, disc = lempert_distance(ellipsoid_domain(E12_AXES), z, w)
    assert disc.f.k_max == 128 + 1
    assert not res.violations()
    assert abs(res.value - np.arctanh(1.1 / 1.24)) < 1e-12
    assert abs(res.value - 1.4081318928712219) < 1e-12


def test_distance_is_symmetric():
    E = ellipsoid_domain((1.0, 1.2))
    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([-0.4, 0.5 + 0.2j])
    fwd, _ = lempert_distance(E, z, w)
    rev, _ = lempert_distance(E, w, z)
    assert fwd.value == pytest.approx(rev.value, abs=1e-9)


def test_distance_decreases_with_domain_inclusion():
    # B(1) c E(1, 1.2) c E(1, 2) pointwise, so distances must not increase
    z = np.array([0.3, 0.0])
    w = np.array([0.0, 0.3])
    vals = []
    for dom in (ball_domain(), ellipsoid_domain((1.0, 1.2)), ellipsoid_domain((1.0, 2.0))):
        res, _ = lempert_distance(dom, z, w)
        vals.append(res.value)
    assert vals[0] >= vals[1] - 1e-9
    assert vals[1] >= vals[2] - 1e-9


def test_triangle_inequality_on_the_ellipsoid():
    E = ellipsoid_domain((1.0, 1.2))
    z = np.array([0.3 + 0.1j, -0.2j])
    w = np.array([-0.4, 0.5 + 0.2j])
    y = np.array([0.1, -0.2])
    zw, _ = lempert_distance(E, z, w)
    zy, _ = lempert_distance(E, z, y)
    yw, _ = lempert_distance(E, y, w)
    assert zw.value <= zy.value + yw.value + 1e-9


def test_supplied_disc_skips_the_solve():
    B = ball_domain()
    z = np.array([0.3, 0.0])
    w = np.array([0.0, 0.3])
    _, disc = lempert_distance(B, z, w)
    res2, disc2 = lempert_distance(B, z, w, disc=disc)
    assert disc2 is disc
    assert res2.value == pytest.approx(ball_formula(z, w), abs=1e-12)


def test_newton_config_is_the_one_solver_setting():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(lempert_distance) == ["domain", "z", "w", "newton", "disc"]
    assert params(kobayashi_royden) == ["domain", "z", "v", "newton", "disc"]
    assert params(solve_extremal) == ["domain", "z", "constraint", "newton"]
    assert [f.name for f in dataclasses.fields(NewtonConfig)] == [
        "N", "tol_res", "max_iter", "max_halvings",
    ]
    z, w = np.array([0.3, 0.0]), np.array([0.0, 0.3])
    res, disc = lempert_distance(ball_domain(), z, w, newton=NewtonConfig(N=16))
    assert disc.f.k_max == 16 + 1
    assert res.value == pytest.approx(ball_formula(z, w), abs=1e-12)


# ---------------------------------------------------------------------------
# Kobayashi-Royden metric
# ---------------------------------------------------------------------------


def test_ball_metric_at_the_center():
    B = ball_domain()
    r1, _ = kobayashi_royden(B, np.zeros(2, dtype=complex), np.array([1.0, 0.0]))
    assert r1.kind == "kobayashi"
    assert r1.value == pytest.approx(1.0, abs=1e-12)
    assert r1.certificate_gap < 1e-12
    r2, _ = kobayashi_royden(B, np.zeros(2, dtype=complex), np.array([0.3, 0.4j]))
    assert r2.value == pytest.approx(0.5, abs=1e-12)


def test_metric_is_positively_homogeneous():
    B = ball_domain()
    z = np.array([0.2, 0.1j])
    v = np.array([0.5, -0.3 + 0.2j])
    base, _ = kobayashi_royden(B, z, v)
    scaled, _ = kobayashi_royden(B, z, 2.5 * v)
    assert scaled.value == pytest.approx(2.5 * base.value, abs=1e-10)


def test_ellipsoid_metric_along_the_long_axis():
    E = ellipsoid_domain((1.0, 2.0))
    res, _ = kobayashi_royden(E, np.zeros(2, dtype=complex), np.array([0.0, 1.0]))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.certificate_gap < 1e-12
    assert res.xi_or_lambda == pytest.approx(2.0, abs=1e-10)


def count_G_builds(monkeypatch):
    calls = []
    real = stationary.G_disc

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(stationary, "G_disc", counted)
    return calls


def test_metric_certificate_builds_G_once(monkeypatch):
    E = ellipsoid_domain((1.0, 2.0))
    z = np.array([0.2, 0.3j])
    v = np.array([0.5, -0.3 + 0.2j])
    calls = count_G_builds(monkeypatch)
    # verify_E and the left inverse share G(z, .) and its winding
    res, disc = kobayashi_royden(E, z, v)
    assert len(calls) == 1
    again, _ = kobayashi_royden(E, z, v, disc=disc)
    assert len(calls) == 1
    assert again.certificate_gap == res.certificate_gap
    # a disc made by replace() builds its own, and so does a new f_tilde
    kobayashi_royden(E, z, v, disc=dataclasses.replace(disc))
    assert len(calls) == 2
    disc.f_tilde = FourierDisc(disc.f_tilde.coeffs.copy(), disc.f_tilde.k_min)
    kobayashi_royden(E, z, v, disc=disc)
    assert len(calls) == 3
    # the certificate as computed from a second G(z, .), bit for bit
    zeta0 = left_inverse(disc, z)
    G = G_disc(disc, z)
    Gp = dc.differentiate(G).band(0, max(G.k_max - 1, 0))
    dFv = -complex(np.sum(v * disc.f_tilde(zeta0))) / complex(Gp(zeta0))
    assert res.certificate_gap == abs(res.value - abs(dFv) / (1.0 - abs(zeta0) ** 2))


def test_lempert_certificate_builds_G_once_per_point(monkeypatch):
    E = ellipsoid_domain((1.0, 2.0))
    z, w = np.array([0.2, 0.3j]), np.array([-0.1, 0.4])
    calls = count_G_builds(monkeypatch)
    res, disc = lempert_distance(E, z, w)
    # G(z, .) for verify_E and F(z), G(w, .) for F(w)
    assert len(calls) == 2
    Fz, Fw = left_inverse(disc, z), left_inverse(disc, w)
    assert res.certificate_gap == abs(poincare(Fz, Fw) - res.value)


def test_violations_add_the_certificate_gap_to_the_report():
    res, _ = lempert_distance(ball_domain(), np.array([0.3, 0.0]), np.array([0.0, 0.3]))
    assert res.violations() == res.report.violations() == []
    # the gap test is a pass condition under `not`, so a NaN gap fails it
    for gap, text in ((metrics.GAP_TOL, "1.000e-07"), (float("nan"), "nan")):
        bad = dataclasses.replace(res, certificate_gap=gap)
        assert bad.violations() == [f"certificate gap {text} exceeds 1e-07"]
    failed = dataclasses.replace(res, report=dataclasses.replace(res.report, wind_G=0))
    assert failed.violations() == ["wind G(z, .) = 0, expected 1"]


def test_metrics_result_serializes():
    B = ball_domain()
    res, _ = kobayashi_royden(B, np.zeros(2, dtype=complex), np.array([1.0, 0.0]))
    d = res.to_dict()
    assert d["kind"] == "kobayashi"
    assert isinstance(d["windings"]["G"], int)
    assert isinstance(d["residuals"]["blended"], float)


# ---------------------------------------------------------------------------
# a polynomial domain
# ---------------------------------------------------------------------------


# the quartic holds the ball of radius RHO_IN (reached on the axes) and lies
# in the ball of radius RHO_OUT (reached on the diagonals)
QUARTIC_RHO_IN = np.sqrt(np.sqrt(3.0) - 1.0)
QUARTIC_RHO_OUT = 2.0 * np.sqrt(np.sqrt(1.5) - 1.0)


@pytest.mark.parametrize(
    "solve, ball_value, z, y",
    [
        (lempert_distance, ball_formula,
         (0.053 + 0.222j, -0.262 + 0.247j), (-0.22 - 0.221j, -0.298 - 0.061j)),
        (kobayashi_royden, ball_kappa,
         (-0.234 - 0.201j, -0.218 - 0.104j), (0.107 + 0.276j, 0.491 + 0.203j)),
    ],
    ids=["pair", "direction"],
)
def test_quartic_solve_is_certified_symmetric_and_sandwiched(solve, ball_value, z, y):
    D = quartic_domain()
    z, y = np.array(z), np.array(y)
    res, _ = solve(D, z, y)
    # the quartic is invariant under the coordinate swap (z1, z2) -> (z2, z1)
    swapped, _ = solve(D, z[::-1], y[::-1])
    for r in (res, swapped):
        assert r.certificate_gap < 1e-7
        assert r.report.passed
    assert abs(res.value - swapped.value) < 1e-8
    lo = ball_value(z / QUARTIC_RHO_OUT, y / QUARTIC_RHO_OUT)
    hi = ball_value(z / QUARTIC_RHO_IN, y / QUARTIC_RHO_IN)
    assert lo <= res.value <= hi


def test_quartic_pair_certified_after_band_refinement():
    # this pair misses the pairing test at band 256 when every band restarts
    # from the ball (deviation 1.8e-8); refined from band 128 it passes
    D = quartic_domain()
    z = np.array([0.07 + 0.06j, -0.521 - 0.057j])
    w = np.array([0.061 - 0.225j, 0.297 + 0.394j])
    res, d = lempert_distance(D, z, w)
    swapped, _ = lempert_distance(D, z[::-1], w[::-1])
    for r in (res, swapped):
        assert r.certificate_gap < 1e-7
        assert r.report.passed
    assert d.f.k_max == 256 + 1
    assert abs(res.value - swapped.value) < 1e-10
    lo = ball_formula(z / QUARTIC_RHO_OUT, w / QUARTIC_RHO_OUT)
    hi = ball_formula(z / QUARTIC_RHO_IN, w / QUARTIC_RHO_IN)
    assert lo <= res.value <= hi


# D = {|z1|^2 + |z2 - c z1^2|^2 < 1} is the image of the ball under the
# automorphism Phi(z) = (z1, z2 + c z1^2) of C^2, so k_D(z, w) =
# k_B(Phi^-1 z, Phi^-1 w) and kappa_D(z; v) = kappa_B(Phi^-1 z; v1, v2 - 2c z1 v1):
# exact answers on a degree-4 domain that is neither circular nor Reinhardt
SHEAR = 0.2


def shear(u):
    return np.array([u[0], u[1] + SHEAR * u[0] ** 2])


def shear_domain(tmp_path):
    """D written as a polynomial domain file and read back by load_domain."""
    c = SHEAR
    monomials = [
        (1.0, [2, 0, 0, 0]), (1.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]), (1.0, [0, 0, 0, 2]),
        (c * c, [4, 0, 0, 0]), (c * c, [0, 4, 0, 0]), (2 * c * c, [2, 2, 0, 0]),
        (-2 * c, [2, 0, 1, 0]), (2 * c, [0, 2, 1, 0]), (-4 * c, [1, 1, 0, 1]),
        (-1.0, [0, 0, 0, 0]),
    ]
    path = tmp_path / "shear.json"
    path.write_text(json.dumps(
        {"n": 2, "kind": "polynomial", "monomials": [{"c": a, "p": p} for a, p in monomials]}
    ))
    return load_domain(json.loads(path.read_text()))


def test_shear_pair_matches_the_ball(tmp_path):
    # ball radii 0.52 and 0.57
    u, y = np.array([0.1 + 0.5j, -0.1 + 0.08j]), np.array([0.12 + 0.3j, 0.42 - 0.22j])
    res, _ = lempert_distance(shear_domain(tmp_path), shear(u), shear(y))
    assert not res.violations()
    assert abs(res.value - ball_formula(u, y)) < 1e-10


def test_shear_direction_matches_the_ball(tmp_path):
    # ball radius 0.32
    u, v = np.array([-0.25 - 0.11j, -0.15 - 0.06j]), np.array([0.9 - 0.74j, 0.09 - 0.92j])
    res, _ = kobayashi_royden(shear_domain(tmp_path), shear(u), v)
    assert not res.violations()
    v_ball = np.array([v[0], v[1] - 2 * SHEAR * u[0] * v[0]])
    assert abs(res.value - ball_kappa(u, v_ball)) < 1e-10


# ---------------------------------------------------------------------------
# the homotopy march
# ---------------------------------------------------------------------------


def march_from_the_ball(monkeypatch):
    """Fail the 12-iteration direct attempt at t = 1, so that every ball seed
    marches; returns the defining function of each Newton solve that ran."""
    ran = []
    real = continuation.newton_solve

    def solve(r, constraint, seed, config=None):
        if config.max_iter == 12:
            raise NoConvergence("forced failure of the direct attempt")
        ran.append(r)
        return real(r, constraint, seed, config)

    monkeypatch.setattr(continuation, "newton_solve", solve)
    return ran


def test_march_grows_its_step_to_the_cap(monkeypatch):
    E = ellipsoid_domain((1.0, 2.0))
    z, w = np.array([0.2, 0.3j]), np.array([-0.1, 0.4])
    direct, _ = lempert_distance(E, z, w)
    march_from_the_ball(monkeypatch)
    marched, d = lempert_distance(E, z, w)
    trace = d.diagnostics["trace"]
    # quick corrections grow the step by 1.5x up to 0.2, and the last step
    # is what is left of [0, 1]
    steps = [row["step"] for row in trace]
    assert steps == pytest.approx([0.1, 0.15, 0.2, 0.2, 0.2, 0.15], abs=1e-15)
    assert trace[-1]["t"] == 1.0
    assert marched.value == pytest.approx(direct.value, abs=1e-12)
    assert not marched.violations()


def test_quartic_march_solves_on_the_gauge_interpolant(monkeypatch):
    D = quartic_domain()
    z = np.array([0.053 + 0.222j, -0.262 + 0.247j])
    w = np.array([-0.22 - 0.221j, -0.298 - 0.061j])
    direct, _ = lempert_distance(D, z, w)
    ran = march_from_the_ball(monkeypatch)
    marched, d = lempert_distance(D, z, w)
    # five band-64 steps inside (0, 1) solve on t mu^2 + (1 - t)|x|^2 - 1;
    # t = 1 and the band-128 refinement solve on the quartic itself
    kinds = [type(r) for r in ran]
    assert kinds == [GaugeInterpolant] * 5 + [PolynomialDefiningFunction] * 2
    assert d.f.k_max == 128 + 1
    assert marched.value == pytest.approx(direct.value, abs=1e-14)
    assert not marched.violations()
