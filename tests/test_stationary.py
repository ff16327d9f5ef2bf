"""Tests for the stationary-disc system: residuals, Newton, normalization,
certificate verification, and the linear theory at the axis disc
(geodisc.linear): the linearization and the contraction solver behind it."""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geodisc import disc as dc
from geodisc import linear, stationary
from geodisc.continuation import ball_seed
from geodisc.disc import FourierDisc
from geodisc.domain import DomainSpec, PolynomialDefiningFunction
from geodisc.errors import (
    InvalidConstraint,
    NoConvergence,
    NonConstantPairing,
)
from geodisc.linear import (
    axis_ball_defining,
    contraction_solve_report,
    linearized_data,
    linearized_forward,
    solve_linearized_at_axis,
)
from geodisc.metrics import lempert_distance
from geodisc.stationary import (
    Constraint,
    EReport,
    NewtonConfig,
    _holder_constant,
    disc_from_f,
    newton_solve,
    normalize,
    residual,
    verify_E,
)

E1 = np.array([1.0, 0.0], dtype=complex)


def axis_disc(n=2, N=8):
    """The exact stationary disc zeta -> (zeta, 0, ..., 0) of the halved ball."""
    r = axis_ball_defining(n)
    fc = np.zeros((2, n), dtype=complex)
    fc[1, 0] = 1.0
    f = FourierDisc(fc, 0).band(0, N + 1)
    v = np.zeros(n, dtype=complex)
    v[0] = 1.0
    return r, disc_from_f(r, f, "direction", 1.0, v)


def perturbed_axis_ball(n, c):
    """Halved ball plus c*(Re z1)^2*(Re z2)^2, which keeps the axis disc
    stationary but switches on the quadratic coupling in the hatted block."""
    base = axis_ball_defining(n)
    e = np.zeros(2 * n, dtype=int)
    e[0] = 2
    e[2] = 2
    return PolynomialDefiningFunction(
        n, np.concatenate([base.coeffs, [c]]), np.vstack([base.exps, e[None, :]])
    )


def real_band_field(rng, K):
    cpos = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    co = np.zeros(2 * K + 1, dtype=complex)
    co[K] = rng.standard_normal()
    co[K + 1 :] = cpos
    co[:K] = np.conj(cpos[::-1])
    return FourierDisc(co, -K)


# ---------------------------------------------------------------------------
# constraints and residual parts
# ---------------------------------------------------------------------------


def test_constraint_rejects_unknown_mode():
    with pytest.raises(InvalidConstraint):
        Constraint("tangent", E1)


def test_constraint_rejects_zero_direction():
    with pytest.raises(InvalidConstraint):
        Constraint("direction", np.zeros(2))


def test_constraint_allows_origin_target():
    con = Constraint("two-point", np.zeros(2))
    assert con.vector.dtype == complex


def test_axis_disc_residual_vanishes():
    r, d = axis_disc()
    con = Constraint("direction", E1)
    parts = residual(r, con, d.f, d.q, 1.0)
    assert parts.blended_norm() < 1e-13
    assert np.all(parts.c3 == 0)
    assert parts.q1 == pytest.approx(0.0, abs=1e-15)


def test_two_point_interpolation_defect_is_exact():
    r, d = axis_disc()
    w = d.f(0.5 + 0j)
    con = Constraint("two-point", w)
    parts = residual(r, con, d.f, d.q, 0.5)
    assert np.all(parts.c3 == 0)


def test_gauge_perturbation_moves_only_the_dual_residual():
    # q -> eps*(cos t - 1) leaves r o f and the constraint untouched; the
    # holomorphic-type defect of (1+q)/2 appears at frequency -1 with
    # coefficient eps/4 in the first component.
    r, d = axis_disc(N=8)
    con = Constraint("direction", E1)
    eps = 1e-3
    N = 8
    qc = np.zeros(2 * N + 1, dtype=complex)
    qc[N] = -eps
    qc[N - 1] = eps / 2
    qc[N + 1] = eps / 2
    parts = residual(r, con, d.f, FourierDisc(qc, -N), 1.0)
    assert float(np.max(np.abs(parts.c1.coeffs))) < 1e-15
    assert np.all(parts.c3 == 0)
    assert parts.q1 == pytest.approx(0.0, abs=1e-15)
    assert parts.c2.coefficient(-1)[0] == pytest.approx(0.00025, abs=1e-15)
    assert abs(parts.c2.coefficient(-1)[1]) < 1e-15
    deeper = max(
        float(np.max(np.abs(parts.c2.coefficient(-k)))) for k in range(2, N + 1)
    )
    assert deeper < 1e-15


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------


def quartic_defining():
    """sum x_d^2 + 1/2 sum x_d^4 - 1 over the four real coordinates of C^2."""
    monomials = [(-1.0, [0, 0, 0, 0])]
    for d in range(4):
        for power, c in ((2, 1.0), (4, 0.5)):
            p = [0, 0, 0, 0]
            p[d] = power
            monomials.append((c, p))
    return PolynomialDefiningFunction.from_monomials(2, monomials)


def newton_system(r, n, N, mode, taper=0):
    """The collocated residual map F, the point x0 and the analytic Jacobian
    at x0, for a random disc near the axis disc.  Coefficient k of the
    random tails of f and q is divided by k**taper."""
    from geodisc.stationary import _field_data, _grid_size, _jacobian, _Layout, _parts_from_grid

    rng = np.random.default_rng(11)
    layout = _Layout(n, N)
    z0 = np.array([0.05, -0.02j, 0.03][:n])

    fc = np.zeros((layout.Nf + 1, n), dtype=complex)
    fc[0] = z0
    fc[1] = np.array([0.9, 0.1j, -0.05][:n])
    fc[2:] = 0.01 * (
        rng.standard_normal((layout.Nf - 1, n))
        + 1j * rng.standard_normal((layout.Nf - 1, n))
    ) / np.arange(2, layout.Nf + 1)[:, None] ** taper
    f = FourierDisc(fc, 0)
    q = 0.05 * real_band_field(rng, N)
    q = FourierDisc(q.coeffs / np.maximum(np.abs(np.arange(-N, N + 1)), 1) ** taper, -N)
    mult = 0.8
    con = Constraint(mode, np.array([1.0, 0.2j, -0.1][:n]))

    M = _grid_size(r, N)

    def F(x):
        fx, qx, mx = layout.unpack(x, z0)
        dd = _field_data(r, fx, qx, M)
        return layout.residual_vector(_parts_from_grid(dd, con, fx, qx, mx, N))

    x0 = layout.pack(f, q, mult)
    d0 = _field_data(r, f, q, M)
    J = _jacobian(layout, d0, con, f, mult)
    assert J.shape == (layout.size, layout.size)
    return F, x0, J


JACOBIAN_DOMAINS = {
    "E(1,1.2)": (lambda: PolynomialDefiningFunction.ellipsoid((1.0, 1.2)), 2),
    "quartic": (quartic_defining, 2),
    "E(1,1.2,1.5)": (lambda: PolynomialDefiningFunction.ellipsoid((1.0, 1.2, 1.5)), 3),
}


@pytest.mark.parametrize("mode", ["direction", "two-point"])
@pytest.mark.parametrize("domain", list(JACOBIAN_DOMAINS))
def test_jacobian_matches_finite_differences(domain, mode):
    # every column, including the two-point c3 rows (xi^k) and the
    # multiplier column (-v or f'(xi))
    make_r, n = JACOBIAN_DOMAINS[domain]
    F, x0, J = newton_system(make_r(), n, 6, mode)
    h = 1e-6
    J_fd = np.zeros_like(J)
    for i in range(x0.size):
        e = np.zeros(x0.size)
        e[i] = h
        J_fd[:, i] = (F(x0 + e) - F(x0 - e)) / (2 * h)
    assert float(np.max(np.abs(J - J_fd))) < 1e-6


@pytest.mark.parametrize("mode", ["direction", "two-point"])
def test_jacobian_matches_directional_differences_at_band_64(mode):
    # E(1,2) at N = 64 collocates on M = 512 points, the grid the solver
    # uses, so the spectral index gathers wrap around mod M
    from geodisc.stationary import _grid_size

    r = PolynomialDefiningFunction.ellipsoid((1.0, 2.0))
    assert _grid_size(r, 64) == 512
    F, x0, J = newton_system(r, 2, 64, mode, taper=2)
    rng = np.random.default_rng(64)
    h = 1e-6
    for _ in range(4):
        e = rng.standard_normal(x0.size)
        e /= np.linalg.norm(e)
        fd = (F(x0 + h * e) - F(x0 - h * e)) / (2 * h)
        assert float(np.max(np.abs(J @ e - fd))) < 1e-7


def test_layout_round_trips_a_disc():
    from geodisc.stationary import _Layout

    rng = np.random.default_rng(5)
    n, N = 2, 64
    layout = _Layout(n, N)
    fc = rng.standard_normal((layout.Nf + 1, n)) + 1j * rng.standard_normal((layout.Nf + 1, n))
    f = FourierDisc(fc, 0)
    q = real_band_field(rng, N)
    x = layout.pack(f, q, 0.625)
    assert x.shape == (layout.size,)
    f2, q2, mult = layout.unpack(x, fc[0])
    assert np.array_equal(f2.coeffs, fc) and f2.k_min == 0
    assert np.array_equal(q2.coeffs, q.coeffs) and q2.k_min == -N
    assert mult == 0.625


def test_newton_accepts_exact_seed_without_stepping():
    r = axis_ball_defining(2)
    w = np.array([0.25, 0.0], dtype=complex)
    con = Constraint("two-point", w)
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    out = newton_solve(r, con, seed, NewtonConfig(N=16))
    assert out.diagnostics["newton_iters"] == 0
    assert out.residual_norm < 1e-12
    assert out.multiplier == pytest.approx(0.25, abs=1e-12)


def test_newton_recovers_rotated_axis_disc():
    # two points of the ball at distance 0.5; the extremal disc is the
    # rotated axis disc zeta -> zeta*w/|w| and the parameter is |w|.
    r = axis_ball_defining(2)
    w = np.array([0.3, 0.4j])
    con = Constraint("two-point", w)
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    pc = np.zeros((3, 2), dtype=complex)
    pc[2, 0] = 0.02
    bumped = dataclasses.replace(seed, f=seed.f + FourierDisc(pc, 0))
    out = newton_solve(r, con, bumped, NewtonConfig(N=16))
    assert out.diagnostics["newton_iters"] <= 6
    assert out.multiplier == pytest.approx(0.5, abs=1e-10)
    assert np.allclose(out.f.coefficient(1), w / 0.5, atol=1e-10)
    assert float(np.max(np.abs(out.f.coefficient(2)))) < 1e-10


@pytest.fixture(scope="module")
def ellipsoid_disc():
    r = PolynomialDefiningFunction.ellipsoid((1.0, 1.2))
    con = Constraint("two-point", np.array([0.4, 0.2]))
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=32)
    return r, newton_solve(r, con, seed, NewtonConfig(N=32))


def test_newton_solves_ellipsoid_two_point(ellipsoid_disc):
    r, out = ellipsoid_disc
    assert out.residual_norm < 1e-10
    assert 0.0 < out.multiplier < 1.0
    hit = out.f(complex(out.multiplier))
    assert np.allclose(hit, [0.4, 0.2], atol=1e-10)
    # the gauge is pinned at zeta = 1
    assert abs(float(np.sum(out.q.coeffs).real)) < 1e-12


def test_newton_reports_iteration_count(ellipsoid_disc):
    _, out = ellipsoid_disc
    assert 1 <= out.diagnostics["newton_iters"] <= 10


def test_newton_accepts_convergence_on_its_last_allowed_iteration(ellipsoid_disc):
    r, out = ellipsoid_disc
    k = out.diagnostics["newton_iters"]
    con = Constraint("two-point", np.array([0.4, 0.2]))
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=32)
    last = newton_solve(r, con, seed, NewtonConfig(N=32, max_iter=k))
    assert last.diagnostics["newton_iters"] == k
    assert np.array_equal(last.f.coeffs, out.f.coeffs)
    with pytest.raises(NoConvergence, match=f"in {k - 1} iterations"):
        newton_solve(r, con, seed, NewtonConfig(N=32, max_iter=k - 1))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_axis_disc_dual_is_constant():
    r, d = axis_disc()
    nd = normalize(d)
    assert np.allclose(nd.f_tilde.coefficient(0), [1.0, 0.0], atol=1e-13)
    others = [
        float(np.max(np.abs(nd.f_tilde.coefficient(k))))
        for k in range(1, nd.f_tilde.k_max + 1)
    ]
    assert max(others, default=0.0) < 1e-13
    rho_vals = np.real(nd.rho.boundary_values(256))
    assert float(np.max(np.abs(rho_vals - 1.0))) < 1e-12


def test_normalize_is_idempotent(ellipsoid_disc):
    _, out = ellipsoid_disc
    once = normalize(out)
    twice = normalize(once)
    assert np.allclose(once.f_tilde.coeffs, twice.f_tilde.coeffs, atol=1e-14)
    assert once.diagnostics["pairing_deviation"] < 1e-9


def test_normalize_rejects_nonconstant_pairing():
    _, d = axis_disc()
    spike = np.zeros((2, 2), dtype=complex)
    spike[1, 0] = 0.1
    bad = dataclasses.replace(d, f_tilde=d.f_tilde + FourierDisc(spike, 0))
    with pytest.raises(NonConstantPairing):
        normalize(bad)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def test_verify_axis_disc_at_center():
    r, d = axis_disc()
    rep = verify_E(r, d, np.zeros(2))
    assert rep.passed
    assert rep.wind_phi == 0
    assert rep.wind_G == 1
    assert rep.sup_boundary_defect < 1e-13
    assert rep.dual_tail_sup < 1e-13
    assert rep.min_rho == pytest.approx(1.0, abs=1e-12)
    # |f(z) - f(w)| = |z - w| on the axis disc, so the 1/2-Holder constant
    # of the boundary trace is sqrt(diameter) = sqrt(2)
    assert rep.holder_constant == pytest.approx(np.sqrt(2.0), abs=1e-2)


def test_verify_axis_disc_translated_probe():
    r, d = axis_disc()
    rep = verify_E(r, d, np.array([0.2, 0.1]))
    assert rep.passed
    assert rep.wind_phi == 0
    assert rep.wind_G == 1


def test_verify_flags_boundary_defect():
    r, d = axis_disc()
    spike = np.zeros((3, 2), dtype=complex)
    spike[2, 1] = 0.05
    bad = dataclasses.replace(d, f=d.f + FourierDisc(spike, 0))
    rep = verify_E(r, bad, np.zeros(2))
    assert not rep.passed
    assert rep.sup_boundary_defect > 1e-9


def test_verify_flags_dual_tail():
    r, d = axis_disc()
    wobble = FourierDisc(np.array([0.05, 0.0, 0.05], dtype=complex), -1)
    bad = dataclasses.replace(d, rho=d.rho + wobble)
    rep = verify_E(r, bad, np.zeros(2))
    assert not rep.passed
    assert rep.dual_tail_sup > 1e-3


PASSING_REPORT = dict(
    sup_boundary_defect=1e-13, dual_tail_sup=1e-13, dual_tail_w=1e-11, min_rho=0.5,
    wind_phi=0, wind_G=1, holder_constant=1.5, pairing_deviation=1e-12,
)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sup_boundary_defect", 2e-9, "boundary defect 2.000e-09 exceeds 1e-09"),
        ("sup_boundary_defect", float("nan"), "boundary defect nan exceeds 1e-09"),
        ("dual_tail_sup", 1e-9, "dual field negative tail 1.000e-09 exceeds 1e-09"),
        ("min_rho", 0.0, "rho is not positive (min 0.000e+00)"),
        ("wind_phi", -1, "wind phi_z = -1, expected 0"),
        ("wind_G", 2, "wind G(z, .) = 2, expected 1"),
        ("holder_constant", float("inf"), "Holder constant is not finite"),
    ],
)
def test_report_names_exactly_the_failed_certificate(field, value, message):
    assert EReport(**PASSING_REPORT).violations() == []
    assert EReport(**PASSING_REPORT).passed is True
    rep = EReport(**dict(PASSING_REPORT, **{field: value}))
    assert rep.violations() == [message]
    assert rep.passed is False


def test_verify_ellipsoid_disc(ellipsoid_disc):
    r, out = ellipsoid_disc
    rep = verify_E(r, out, np.zeros(2))
    assert rep.passed
    assert rep.pairing_deviation < 1e-9
    assert np.isfinite(rep.holder_constant)


def holder_all_pairs(vals, n_pts):
    """The 1/2-Holder constant over the full m x m pair matrix: the
    reference that the offset scan must match bit for bit."""
    M = vals.shape[0]
    stride = max(M // n_pts, 1)
    sub = vals[::stride]
    zs = dc.unit_grid(M)[::stride]
    dfz = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
    dzz = np.sqrt(np.abs(zs[:, None] - zs[None, :]))
    mask = dzz > 0
    return float(np.max(dfz[mask] / dzz[mask]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_pts", [128, 384])
@pytest.mark.parametrize("M", [256, 512, 520, 1032, 2056])
def test_holder_offset_scan_matches_all_pairs(M, n_pts, n):
    # strides 1 to 16, with odd and even sample counts m; m = 128 (the
    # continuation's trace rows) fills whole blocks of offsets, m = 520
    # and m = 516 (M = 1032, n_pts = 384) end in a partial block
    rng = np.random.default_rng([M, n_pts, n])
    noise = rng.standard_normal((M, n)) + 1j * rng.standard_normal((M, n))
    # on a complex line the ratio is sqrt|zeta_i - zeta_j|: largest at the
    # widest offset, where noise has its largest ratios at the narrowest
    line = dc.unit_grid(M)[:, None] * noise[0] + noise[1]
    for vals in (noise, line):
        assert _holder_constant(vals, n_pts) == holder_all_pairs(vals, n_pts)


def test_holder_nonfinite_sample_matches_all_pairs():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((520, 2)) + 1j * rng.standard_normal((520, 2))
    vals[11, 0] = np.inf
    # inf - inf in the imaginary part of the squared differences
    with np.errstate(invalid="ignore"):
        assert _holder_constant(vals, 384) == holder_all_pairs(vals, 384) == np.inf
    vals[11, 0] = np.nan
    assert np.isnan(_holder_constant(vals, 384))
    assert np.isnan(holder_all_pairs(vals, 384))


def test_holder_scan_memory_is_bounded():
    # the blocked scan holds no (m//2, m, n) gather, which peaks at 15.8 MB
    # here
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((1024, 3)) + 1j * rng.standard_normal((1024, 3))
    tracemalloc.start()
    try:
        _holder_constant(vals, 384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_holder_offset_scan_matches_all_pairs_on_a_solved_disc():
    E12 = DomainSpec(2, "ellipsoid", PolynomialDefiningFunction.ellipsoid((1.0, 2.0)),
                     semiaxes=np.array([1.0, 2.0]))
    _, disc = lempert_distance(E12, np.array([0.3, 0.2j]), np.array([-0.2, 0.5]))
    M = max(8 * max(disc.f.k_max, disc.q.k_max), 512)
    vals = disc.f.boundary_values(M)
    assert _holder_constant(vals, 384) == holder_all_pairs(vals, 384)


def test_holder_nan_sample_fails_verification(ellipsoid_disc, monkeypatch):
    r, out = ellipsoid_disc
    vals = out.f.boundary_values(512)
    vals[7, 1] = np.nan
    assert np.isnan(_holder_constant(vals, 384))

    def with_nan_sample(vals, n_pts):
        vals = vals.copy()
        vals[7, 1] = np.nan
        return _holder_constant(vals, n_pts)

    monkeypatch.setattr(stationary, "_holder_constant", with_nan_sample)
    rep = verify_E(r, out, np.zeros(2))
    assert np.isnan(rep.holder_constant)
    assert not rep.passed


# ---------------------------------------------------------------------------
# invariance under disc automorphisms
# ---------------------------------------------------------------------------


def test_mobius_reparametrization_stays_stationary(ellipsoid_disc):
    # composing with a(zeta) = (zeta - b)/(1 - b*zeta) must give another
    # stationary disc through f(-b); the dual data is rebuilt from scratch.
    r, out = ellipsoid_disc
    b = 0.2
    M = 512
    Z = dc.unit_grid(M)
    av = (Z - b) / (1.0 - b * Z)
    nf = FourierDisc.from_boundary_values(dc.evaluate(out.f, av), 0, 96)
    assert float(np.max(np.abs(nf.coeffs[64:]))) < 1e-14

    d2 = disc_from_f(r, nf, "direction", 1.0, nf.coefficient(1))
    assert d2.residual_norm < 1e-10
    rep = verify_E(r, d2, nf.coefficient(0))
    assert rep.passed
    renorm = normalize(d2)
    assert renorm.diagnostics["pairing_deviation"] < 1e-10


def test_reconstruction_rejects_non_stationary_f():
    r, _ = axis_disc()
    fc = np.zeros((3, 2), dtype=complex)
    fc[1, 0] = 1.0
    fc[2, 0] = 0.3  # pushes f(T) off the sphere
    with pytest.raises((NonConstantPairing, NoConvergence)):
        disc_from_f(r, FourierDisc(fc, 0), "direction", 1.0, E1)


# ---------------------------------------------------------------------------
# linearization at the axis disc
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "axis_ball_defining", "linearized_data", "contraction_solve_report",
    "solve_linearized_at_axis", "linearized_forward",
])
def test_stationary_reexports_the_linear_name(name):
    assert getattr(stationary, name) is getattr(linear, name)


def test_linear_does_not_import_stationary():
    tree = ast.parse(Path(linear.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name for a in node.names}
    assert not {m for m in modules if m.split(".")[-1] == "stationary"}


def zero_phi(n=2):
    return FourierDisc.zeros(-1, -1, (n,))


def test_linearized_completion_example():
    # eta = cos t with no other data: the first dual component is
    # zeta^2, the multiplier correction vanishes, and the gauge direction
    # is 2 - 2cos t.
    r0 = axis_ball_defining(2)
    eta = FourierDisc(np.array([0.5, 0.0, 0.5], dtype=complex), -1)
    ft, qt, mult = solve_linearized_at_axis(
        linearized_data(r0, eta, zero_phi(), np.zeros(2, dtype=complex)),
        "direction",
    )
    assert mult == pytest.approx(0.0, abs=1e-14)
    assert ft.coefficient(2)[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(ft.coefficient(1)[0]) < 1e-12
    assert float(np.max(np.abs(ft.coeffs[:, 1]))) < 1e-12
    assert qt.coefficient(0) == pytest.approx(2.0, abs=1e-12)
    assert qt.coefficient(-1) == pytest.approx(-1.0, abs=1e-12)
    assert abs(complex(qt(1.0 + 0j))) < 1e-12


def test_linearized_hatted_block_example():
    # eta = 0, phi = 0, v = e2: the solution is the constant hatted
    # direction f~ = zeta*e2 with no gauge or multiplier correction.
    r0 = axis_ball_defining(2)
    eta = FourierDisc(np.zeros(1, dtype=complex), 0)
    v = np.array([0.0, 1.0], dtype=complex)
    ft, qt, mult = solve_linearized_at_axis(
        linearized_data(r0, eta, zero_phi(), v), "direction"
    )
    assert np.allclose(ft.coefficient(1), v, atol=1e-12)
    rest = [
        float(np.max(np.abs(ft.coefficient(k))))
        for k in range(ft.k_min, ft.k_max + 1)
        if k != 1
    ]
    assert max(rest, default=0.0) < 1e-12
    assert float(np.max(np.abs(qt.coeffs))) < 1e-12 if qt.coeffs.size else True
    assert mult == pytest.approx(0.0, abs=1e-14)


def test_linearized_zero_data_gives_zero():
    r0 = axis_ball_defining(2)
    eta = FourierDisc(np.zeros(1, dtype=complex), 0)
    ft, qt, mult = solve_linearized_at_axis(
        linearized_data(r0, eta, zero_phi(), np.zeros(2, dtype=complex)),
        "direction",
    )
    assert float(np.max(np.abs(ft.coeffs))) == 0.0
    assert mult == 0.0


@pytest.mark.parametrize("mode,xi0", [("direction", None), ("two-point", 0.4)])
def test_linearized_round_trip(mode, xi0):
    rng = np.random.default_rng(29)
    r0 = perturbed_axis_ball(2, 0.4)
    K = 5
    for _ in range(5):
        eta = real_band_field(rng, K)
        phi = FourierDisc(
            rng.standard_normal((K, 2)) + 1j * rng.standard_normal((K, 2)), -K
        )
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        data = linearized_data(r0, eta, phi, v)
        ft, qt, mult = solve_linearized_at_axis(data, mode, xi0=xi0)
        eo, po, vo = linearized_forward(r0, ft, qt, mult, mode, xi0=xi0)
        M = 1024
        assert float(np.max(np.abs(eo.boundary_values(M) - eta.boundary_values(M)))) < 1e-9
        assert float(np.max(np.abs(po.boundary_values(M) - phi.boundary_values(M)))) < 1e-9
        assert float(np.max(np.abs(vo - v))) < 1e-9


def test_linearized_round_trip_three_dimensional():
    rng = np.random.default_rng(31)
    r0 = perturbed_axis_ball(3, 0.3)
    K = 3
    eta = real_band_field(rng, K)
    phi = FourierDisc(
        rng.standard_normal((K, 3)) + 1j * rng.standard_normal((K, 3)), -K
    )
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    data = linearized_data(r0, eta, phi, v)
    ft, qt, mult = solve_linearized_at_axis(data, "direction")
    eo, po, vo = linearized_forward(r0, ft, qt, mult, "direction")
    M = 1024
    assert float(np.max(np.abs(eo.boundary_values(M) - eta.boundary_values(M)))) < 1e-9
    assert float(np.max(np.abs(po.boundary_values(M) - phi.boundary_values(M)))) < 1e-9
    assert float(np.max(np.abs(vo - v))) < 1e-9


def test_linearized_margin_shrinks_with_coupling():
    r_weak = perturbed_axis_ball(2, 0.2)
    r_strong = perturbed_axis_ball(2, 0.6)
    eta = FourierDisc(np.zeros(1, dtype=complex), 0)
    weak = linearized_data(r_weak, eta, zero_phi(), np.zeros(2, dtype=complex))
    strong = linearized_data(r_strong, eta, zero_phi(), np.zeros(2, dtype=complex))
    assert 0.0 < strong.margin < weak.margin < 1.0


# ---------------------------------------------------------------------------
# contraction solver
# ---------------------------------------------------------------------------


def random_symmetric_gamma(rng, p, K, sup_target):
    Cs = rng.standard_normal((2 * K + 1, p, p)) + 1j * rng.standard_normal(
        (2 * K + 1, p, p)
    )
    Cs = 0.5 * (Cs + np.swapaxes(Cs, -1, -2))
    g = FourierDisc(Cs, -K)
    sup = float(np.max(np.linalg.svd(g.boundary_values(512), compute_uv=False)[..., 0]))
    return g * (sup_target / sup)


def reflected_defect(g, rhs, h):
    """sup over k >= 1 of |h_k - conj((rhs - g*h)_{-k})|."""
    M = 2048
    wv = rhs.boundary_values(M) - np.einsum(
        "mij,mj->mi", g.boundary_values(M), h.boundary_values(M)
    )
    spec_w = np.fft.fft(wv, axis=0) / M
    ks = np.arange(1, h.k_max + 1)
    return float(np.max(np.abs(h.coeffs[1:] - np.conj(spec_w[(-ks) % M]))))


def test_contraction_zero_gamma_is_one_projection():
    rng = np.random.default_rng(3)
    g = FourierDisc.zeros(0, 0, (2, 2))
    rhs = FourierDisc(
        rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)), -3
    )
    a = np.array([0.3, -0.1 + 0.2j])
    h, rep = contraction_solve_report(g, rhs, a)
    assert rep.iterations <= 2
    expect = np.zeros((4, 2), dtype=complex)
    expect[0] = a
    for k in range(1, 4):
        expect[k] = np.conj(rhs.coefficient(-k))
    assert float(np.max(np.abs(h.band(0, 3).coeffs - expect))) < 1e-14


def test_contraction_half_identity_zero_data():
    g = FourierDisc(np.array([[[0.5]]], dtype=complex), 0)
    h, rep = contraction_solve_report(
        g, FourierDisc.zeros(0, 0, (1,)), np.array([0.0])
    )
    assert float(np.max(np.abs(h.coeffs))) == 0.0
    assert rep.margin == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("xi0", [None, 0.4])
def test_contraction_solves_reflected_holomorphy(xi0):
    rng = np.random.default_rng(7)
    g = random_symmetric_gamma(rng, 2, 2, 0.7)
    rhs = FourierDisc(
        rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)), -3
    )
    a = np.array([0.3, -0.1 + 0.2j])
    h, rep = contraction_solve_report(g, rhs, a, xi0=xi0)
    assert reflected_defect(g, rhs, h) < 1e-10
    if xi0 is None:
        assert np.allclose(h.coefficient(0), a, atol=1e-12)
    else:
        assert np.allclose(dc.evaluate(h, np.array([xi0 + 0j]))[0], a, atol=1e-10)
    # measured ratios certify the margin/2 contraction target; the margin
    # itself is re-measured on a denser grid than the one used to scale gamma
    assert rep.margin == pytest.approx(0.3, abs=1e-3)
    assert rep.max_ratio <= 1.0 - rep.margin / 2.0 + 1e-9
    assert rep.eps >= 0.0


def test_contraction_rejects_margin_loss():
    rng = np.random.default_rng(9)
    g = random_symmetric_gamma(rng, 2, 2, 1.05)
    rhs = FourierDisc.zeros(-1, -1, (2,))
    with pytest.raises(NoConvergence):
        contraction_solve_report(g, rhs, np.zeros(2))


def test_contraction_rejects_shape_mismatch():
    g = FourierDisc.zeros(0, 0, (2, 2))
    rhs = FourierDisc.zeros(-1, -1, (2,))
    with pytest.raises(ValueError):
        contraction_solve_report(g, rhs, np.zeros(3))


def test_contraction_rejects_bad_xi0():
    g = FourierDisc.zeros(0, 0, (1, 1))
    rhs = FourierDisc.zeros(-1, -1, (1,))
    with pytest.raises(ValueError):
        contraction_solve_report(g, rhs, np.zeros(1), xi0=1.5)
