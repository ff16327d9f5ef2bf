"""Tests for ball seeding and homotopy continuation of extremal discs."""

import numpy as np
import pytest

from geodisc import continuation
from geodisc.continuation import (
    ball_seed,
    continue_path,
    mobius_ball,
    solve_extremal,
)
from geodisc.domain import DomainSpec, PolynomialDefiningFunction
from geodisc.errors import (
    DomainViolation,
    InvalidConstraint,
    NoConvergence,
    NonConstantPairing,
    StepUnderflow,
)
from geodisc.linear import axis_ball_defining
from geodisc.metrics import lempert_distance
from geodisc.stationary import Constraint, NewtonConfig, residual, verify_E


def ball_domain(n=2):
    return DomainSpec(n, "ball", PolynomialDefiningFunction.unit_ball(n))


def ellipsoid_domain(axes):
    a = np.asarray(axes, dtype=float)
    return DomainSpec(
        len(a), "ellipsoid", PolynomialDefiningFunction.ellipsoid(a), semiaxes=a
    )


def ball_residual(seed, con):
    r = PolynomialDefiningFunction.unit_ball(seed.f.target_shape[0])
    return residual(r, con, seed.f, seed.q, seed.multiplier).blended_norm()


# ---------------------------------------------------------------------------
# ball automorphisms and seeds
# ---------------------------------------------------------------------------


def test_mobius_swaps_center_and_base_point():
    z = np.array([0.3, 0.1 - 0.2j])
    assert np.allclose(mobius_ball(z, np.zeros(2)), z, atol=1e-15)
    assert np.allclose(mobius_ball(z, z), np.zeros(2), atol=1e-15)


def test_mobius_is_an_involution():
    rng = np.random.default_rng(5)
    z = np.array([0.4, -0.25j])
    for _ in range(20):
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x *= rng.uniform(0.0, 0.99) / np.linalg.norm(x)
        assert np.allclose(mobius_ball(z, mobius_ball(z, x)), x, atol=1e-13)


def test_mobius_preserves_the_sphere():
    rng = np.random.default_rng(6)
    z = np.array([0.2 + 0.3j, 0.5])
    x = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    x /= np.linalg.norm(x, axis=1)[:, None]
    y = mobius_ball(z, x)
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def test_ball_seed_center_two_point():
    w = np.array([0.3, 0.4j])
    con = Constraint("two-point", w)
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    # the seed is measured against no domain until Newton carries it
    assert np.isnan(seed.residual_norm)
    assert ball_residual(seed, con) < 1e-12
    assert seed.multiplier == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(seed.f.coefficient(1), w / 0.5, atol=1e-13)
    assert np.allclose(seed.f(0.5 + 0j), w, atol=1e-13)


def test_ball_seed_center_direction():
    v = np.array([0.3, 0.4j])
    con = Constraint("direction", v)
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    assert ball_residual(seed, con) < 1e-12
    # kappa(0; v) = |v| in the ball, so the extremal lambda is 1/|v|
    assert seed.multiplier == pytest.approx(2.0, abs=1e-13)
    assert np.allclose(seed.f.coefficient(1), seed.multiplier * v, atol=1e-13)


def test_ball_seed_off_center_is_exact():
    z = np.array([0.3, 0.1j])
    w = np.array([-0.2, 0.25])
    con = Constraint("two-point", w)
    seed = ball_seed(z, con, N=64)
    assert ball_residual(seed, con) < 1e-12
    assert np.allclose(seed.f.coefficient(0), z, atol=1e-13)
    assert np.allclose(seed.f(complex(seed.multiplier)), w, atol=1e-12)


def test_ball_seed_rejects_exterior_points():
    with pytest.raises(DomainViolation):
        ball_seed(np.array([1.2, 0.0]), Constraint("direction", np.array([1.0, 0])))
    with pytest.raises(DomainViolation):
        ball_seed(
            np.zeros(2, dtype=complex),
            Constraint("two-point", np.array([1.0, 0.5])),
        )


def test_ball_seed_rejects_coinciding_points():
    z = np.array([0.2, 0.1])
    with pytest.raises(InvalidConstraint):
        ball_seed(z, Constraint("two-point", z.copy()))


# ---------------------------------------------------------------------------
# path following
# ---------------------------------------------------------------------------


def test_constant_family_returns_in_one_step():
    r = axis_ball_defining(2)
    con = Constraint("two-point", np.array([0.25, 0.0]))
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    path = continue_path(lambda t: (r, con), seed, NewtonConfig(N=16))
    assert path.t_reached == 1.0
    # the exact seed is accepted by Newton's own first residual check
    assert path.disc.diagnostics["newton_iters"] == 0
    assert "dual_negative_tail" in path.disc.diagnostics
    assert len(path.trace) == 1
    row = path.trace[0]
    assert set(row) == {"t", "step", "newton_iters", "residual", "xi_or_lambda", "holder_C"}
    assert row["newton_iters"] == 0
    assert row["xi_or_lambda"] == pytest.approx(0.25, abs=1e-12)


def test_stalled_path_raises_step_underflow(monkeypatch):
    def refuse(*args, **kwargs):
        raise NoConvergence("forced failure")

    monkeypatch.setattr("geodisc.continuation.newton_solve", refuse)
    E = ellipsoid_domain((1.0, 1.5))
    with pytest.raises(StepUnderflow) as info:
        solve_extremal(E, np.zeros(2, dtype=complex),
                       Constraint("two-point", np.array([0.3, 0.2])))
    assert info.value.path is not None
    assert info.value.path.t_reached == 0.0


def test_continue_path_stall_carries_the_seed(monkeypatch):
    def refuse(*args, **kwargs):
        raise NoConvergence("forced failure")

    monkeypatch.setattr("geodisc.continuation.newton_solve", refuse)
    E = ellipsoid_domain((1.0, 1.5))
    con = Constraint("two-point", np.array([0.3, 0.2]))
    seed = ball_seed(np.zeros(2, dtype=complex), con, N=16)
    with pytest.raises(StepUnderflow) as info:
        continue_path(lambda t: (E.defining, con), seed, NewtonConfig(N=16))
    path = info.value.path
    assert path.t_reached == 0.0
    assert path.trace == []
    assert path.disc is seed


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------


def test_solve_ball_two_point():
    B = ball_domain()
    z = np.array([0.3, 0.1j])
    w = np.array([-0.2, 0.25 + 0.25j])
    d = solve_extremal(B, z, Constraint("two-point", w))
    assert d.residual_norm < 1e-10
    assert np.allclose(d.f.coefficient(0), z, atol=1e-13)
    assert 0.0 < d.multiplier < 1.0
    assert np.allclose(d.f(complex(d.multiplier)), w, atol=1e-10)
    assert d.diagnostics["t_reached"] == 1.0
    assert len(d.diagnostics["trace"]) >= 1
    assert verify_E(B.defining, d, z).passed


def test_solve_evaluates_the_residual_only_to_map_back(monkeypatch):
    # seeds are not measured on the ball and Newton checks its own start,
    # so the one residual left is the final one in the target coordinates
    calls = []
    real = continuation.residual

    def count(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "residual", count)
    solve_extremal(ellipsoid_domain((1.0, 2.0)), np.array([0.2, 0.6 + 0.1j]),
                   Constraint("two-point", np.array([-0.3, -0.4j])))
    assert len(calls) == 1


def test_marching_solve_ends_exactly_at_one():
    # E(1, 8) near its boundary: the direct attempt at t = 1 fails and the
    # march runs; ten steps of 0.1 must not leave a sliver step behind
    a = np.array([1.0, 8.0])
    z, w = np.array([0.71, 2.9]), np.array([-0.08, 6.37])
    res, d = lempert_distance(ellipsoid_domain(a), z, w)
    trace = d.diagnostics["trace"]
    ts = [row["t"] for row in trace]
    assert len(trace) > 1
    assert all(u > s for s, u in zip(ts, ts[1:]))
    assert ts[-1] == 1.0
    assert min(row["step"] for row in trace) >= continuation._MIN_STEP
    exact = np.arctanh(np.linalg.norm(mobius_ball(z / a, w / a)))
    assert res.value == pytest.approx(exact, abs=1e-12)
    assert res.report.passed


def test_solve_ellipsoid_axis_direction_is_exact():
    # the coordinate slice z1 = 0 of the (1, 2) ellipsoid is a geodesic,
    # so the extremal multiplier along e2 at the center is the semiaxis
    E = ellipsoid_domain((1.0, 2.0))
    d = solve_extremal(
        E, np.zeros(2, dtype=complex), Constraint("direction", np.array([0.0, 1.0]))
    )
    assert d.multiplier == pytest.approx(2.0, abs=1e-10)
    assert verify_E(E.defining, d, np.zeros(2)).passed


def test_solve_direction_off_center_hits_the_direction():
    E = ellipsoid_domain((1.0, 1.2))
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    d = solve_extremal(E, np.array([0.1, 0.2j]), Constraint("direction", v))
    assert d.residual_norm < 1e-10
    assert np.allclose(d.f.coefficient(1), d.multiplier * v, atol=1e-10)
    assert d.multiplier > 0.0


def test_solve_near_boundary_doubles_the_band():
    # at |z| = 0.75 the default band cannot keep the dual pairing constant
    # to tolerance, so the solver retries with a doubled band
    B = ball_domain()
    z = np.array([0.45, 0.6])
    d = solve_extremal(B, z, Constraint("two-point", np.array([-0.3, 0.1])))
    assert d.residual_norm < 1e-10
    assert d.f.k_max > 65
    assert d.diagnostics["pairing_deviation"] < 1e-8


def test_solve_two_point_through_origin():
    B = ball_domain()
    d = solve_extremal(
        B, np.array([0.3, 0.0]), Constraint("two-point", np.zeros(2))
    )
    assert d.multiplier == pytest.approx(0.3, abs=1e-12)
    assert float(np.max(np.abs(d.f(complex(d.multiplier))))) < 1e-12


def test_solve_rejects_bad_inputs():
    B = ball_domain()
    with pytest.raises(DomainViolation):
        solve_extremal(B, np.array([1.1, 0.0]),
                       Constraint("direction", np.array([1.0, 0.0])))
    with pytest.raises(DomainViolation):
        solve_extremal(B, np.zeros(2, dtype=complex),
                       Constraint("two-point", np.array([2.0, 0.0])))
    with pytest.raises(DomainViolation):
        solve_extremal(B, np.zeros(3, dtype=complex),
                       Constraint("direction", np.array([1.0, 0.0, 0.0])))
    z = np.array([0.2, 0.3])
    with pytest.raises(InvalidConstraint):
        solve_extremal(B, z, Constraint("two-point", z.copy()))


def record_seed_bands(monkeypatch):
    bands = []
    real = continuation.ball_seed

    def seed(z, constraint, N=64):
        bands.append(N)
        return real(z, constraint, N=N)

    monkeypatch.setattr(continuation, "ball_seed", seed)
    return bands


def test_seed_failure_moves_to_the_next_band(monkeypatch):
    # the band-32 and band-64 ball seeds miss their pairing test at
    # |z| = 0.82; band 128 meets it and the seed is already the extremal disc
    bands = record_seed_bands(monkeypatch)
    z, w = np.array([0.82, 0.0]), np.array([0.0, 0.5])
    res, d = lempert_distance(ball_domain(), z, w)
    assert bands == [32, 64, 128]
    assert d.f.k_max == 128 + 1
    expect = np.arctanh(np.sqrt(1.0 - (1.0 - 0.82**2) * (1.0 - 0.5**2)))
    assert res.value == pytest.approx(expect, abs=1e-12)
    assert res.certificate_gap < 1e-12


def test_seed_failure_raises_after_the_last_band(monkeypatch):
    # this seed needs band 512, one doubling more than the solver tries
    bands = record_seed_bands(monkeypatch)
    with pytest.raises(NonConstantPairing):
        solve_extremal(ellipsoid_domain([1.0, 2.0]), np.array([0.0, 1.9]),
                       Constraint("two-point", np.array([0.3, 0.0])))
    assert bands == [32, 64, 128, 256]


def record_newton_iters(monkeypatch):
    iters = []
    real = continuation.newton_solve

    def solve(r, constraint, seed, config=None):
        d = real(r, constraint, seed, config)
        iters.append((config.N, d.diagnostics["newton_iters"]))
        return d

    monkeypatch.setattr(continuation, "newton_solve", solve)
    return iters


def test_rejected_band_seeds_the_next_band(monkeypatch):
    # bands 64 and 128 converge but miss the pairing test at |z| = 0.85;
    # each refines the next band's Newton solve instead of a new march; the
    # coarse band-32 solve fails here, so band 64 starts from the ball
    bands = record_seed_bands(monkeypatch)
    iters = record_newton_iters(monkeypatch)
    z, w = np.array([0.85, 0.0]), np.array([-0.3, 0.0])
    res, d = lempert_distance(ellipsoid_domain([1.0, 2.0]), z, w)
    assert bands == [32, 64]
    assert d.f.k_max == 256 + 1
    assert sum(k for N, k in iters if N in (128, 256)) <= 4
    assert d.diagnostics["trace"][-1]["step"] == 0.0
    assert res.value == pytest.approx(np.arctanh(1.15 / 1.255), abs=1e-10)
    assert res.certificate_gap < 1e-7


def test_failed_refinement_falls_back_to_the_ball(monkeypatch):
    bands = record_seed_bands(monkeypatch)
    real = continuation.newton_solve

    def refuse_padded(r, constraint, seed, config=None):
        if seed.q.k_max < config.N:
            raise NoConvergence("forced failure of the refining solve")
        return real(r, constraint, seed, config)

    monkeypatch.setattr(continuation, "newton_solve", refuse_padded)
    z, w = np.array([0.8, 0.0]), np.array([-0.3, 0.0])
    res, d = lempert_distance(ellipsoid_domain([1.0, 2.0]), z, w)
    assert bands == [32, 64, 128]
    assert d.f.k_max == 128 + 1
    assert res.value == pytest.approx(np.arctanh(1.1 / 1.24), abs=1e-10)


# ---------------------------------------------------------------------------
# the coarse solve at half the first band
# ---------------------------------------------------------------------------


def ellipsoid_value(a, z, w):
    """k_E(z, w) = k_B(L^-1 z, L^-1 w) for E(a) = L B, L = diag(a)."""
    return np.arctanh(np.linalg.norm(mobius_ball(z / a, w / a)))


def record_paths(monkeypatch):
    paths = []
    real = continuation.continue_path

    def path(family, seed, newton):
        paths.append(newton.N)
        return real(family, seed, newton)

    monkeypatch.setattr(continuation, "continue_path", path)
    return paths


# gauges 0.39 and 0.36 on E(1, 2)
COARSE_A = np.array([1.0, 2.0])
COARSE_Z = np.array([0.3 - 0.1j, 0.4 + 0.2j])
COARSE_W = np.array([-0.2, -0.6 + 0.1j])


def test_coarse_solve_leaves_band_64_almost_nothing_to_do(monkeypatch):
    bands = record_seed_bands(monkeypatch)
    iters = record_newton_iters(monkeypatch)
    paths = record_paths(monkeypatch)
    res, d = lempert_distance(ellipsoid_domain(COARSE_A), COARSE_Z, COARSE_W)
    assert bands == [32]
    assert [N for N, _ in iters] == [32, 64]
    assert iters[1][1] <= 1
    assert paths == []
    assert d.f.k_max == 64 + 1
    # the one trace row is band 64's refinement, which takes no step in t
    assert [row["step"] for row in d.diagnostics["trace"]] == [0.0]
    assert res.report.passed
    assert res.value == pytest.approx(ellipsoid_value(COARSE_A, COARSE_Z, COARSE_W), abs=1e-12)


@pytest.mark.parametrize("where", ["ball_seed", "newton_solve"])
def test_failed_coarse_solve_runs_the_ladder_from_the_ball(monkeypatch, where):
    # forced to fail at band 32, the solve takes the ball seed and the direct
    # attempt of continue_path at band 64, and finds the same value
    E = ellipsoid_domain(COARSE_A)
    coarse_value = lempert_distance(E, COARSE_Z, COARSE_W)[0].value
    real = getattr(continuation, where)

    def refuse_band_32(*args, **kwargs):
        band = args[3].N if where == "newton_solve" else kwargs["N"]
        if band == 32:
            raise NonConstantPairing("forced failure of the coarse solve")
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, where, refuse_band_32)
    bands = record_seed_bands(monkeypatch)
    iters = record_newton_iters(monkeypatch)
    paths = record_paths(monkeypatch)
    res, d = lempert_distance(E, COARSE_Z, COARSE_W)
    assert bands == [32, 64]
    assert [N for N, _ in iters] == [64]
    assert paths == [64]
    assert d.f.k_max == 64 + 1
    assert res.report.passed
    assert res.value == pytest.approx(coarse_value, abs=1e-12)
    assert res.value == pytest.approx(ellipsoid_value(COARSE_A, COARSE_Z, COARSE_W), abs=1e-12)


def test_first_band_8_solves_coarse_at_band_4(monkeypatch):
    # N = 8 is the smallest band the CLI takes; its coarse band is 4
    iters = record_newton_iters(monkeypatch)
    z, w = np.zeros(2, dtype=complex), np.array([0.1, 0.1j])
    res, d = lempert_distance(ellipsoid_domain(COARSE_A), z, w, newton=NewtonConfig(N=8))
    assert [N for N, _ in iters] == [4, 8]
    assert d.f.k_max == 8 + 1
    assert res.report.passed
    assert res.value == pytest.approx(ellipsoid_value(COARSE_A, z, w), abs=1e-12)
