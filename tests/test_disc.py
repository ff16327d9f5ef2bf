"""Fourier calculus on circle maps: evaluation, products, harmonic
completion, winding."""

import tracemalloc

import numpy as np
import pytest

from geodisc import disc as dc
from geodisc.disc import (
    FourierDisc,
    analytic_completion,
    check_real,
    differentiate,
    dot_product,
    evaluate,
    real_field,
    unit_grid,
    winding,
    winding_values,
)
from geodisc.errors import AmbiguousWinding, DomainViolation, NotReal, ZeroOnCircle


def holo(*coeffs):
    """Holomorphic-type scalar disc from a₀, a₁, ..."""
    return FourierDisc(np.array(coeffs, dtype=complex), 0)


def test_evaluate_identity():
    u = holo(0.0, 1.0)  # u = zeta
    assert u(1j) == pytest.approx(1j)


def test_evaluate_polynomial():
    u = holo(1.0, 2.0)
    assert u(0.5) == pytest.approx(2.0)


def test_evaluate_boundary_field_conjugate():
    u = FourierDisc(np.array([1.0 + 0j]), -1)  # zeta^{-1} = conj on T
    z = np.exp(1j * np.pi / 4)
    assert u(z) == pytest.approx(np.exp(-1j * np.pi / 4))


def test_evaluate_rejects_interior_for_boundary_fields():
    u = FourierDisc(np.array([1.0 + 0j, 0.0, 0.0]), -1)
    with pytest.raises(DomainViolation):
        u(0.5)


def test_evaluate_rejects_outside_disc():
    u = holo(0.0, 1.0)
    with pytest.raises(DomainViolation):
        u(1.5)


def test_evaluate_matches_direct_sum_on_random_bands():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k_min = int(rng.integers(-6, 1))
        k_max = int(rng.integers(k_min, k_min + 9))
        c = rng.normal(size=(k_max - k_min + 1, 2)) + 1j * rng.normal(
            size=(k_max - k_min + 1, 2)
        )
        u = FourierDisc(c, k_min)
        z = np.exp(2j * np.pi * rng.random(5))
        direct = sum(
            c[i][None, :] * z[:, None] ** (k_min + i) for i in range(len(c))
        )
        assert np.max(np.abs(u(z) - direct)) < 1e-12


def test_boundary_values_roundtrip():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    u = FourierDisc(c, -4)
    vals = u.boundary_values(32)
    back = FourierDisc.from_boundary_values(vals, -4, 4)
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-13


def test_differentiate_power():
    u = holo(0.0, 0.0, 1.0)  # zeta^2
    du = differentiate(u)
    assert du.coefficient(1) == pytest.approx(2.0)
    assert abs(du.coefficient(0)) == 0.0


def test_differentiate_constant_is_zero():
    du = differentiate(holo(5.0))
    assert np.all(du.coeffs == 0)


def test_dot_product_no_conjugation():
    e1 = FourierDisc(np.array([[1.0, 0.0]], dtype=complex), 0)
    e2 = FourierDisc(np.array([[0.0, 1.0]], dtype=complex), 0)
    assert np.linalg.norm(dot_product(e1, e2).coeffs) == 0.0
    # (zeta, i) . (1, zeta) = (1 + i) zeta
    u = FourierDisc(np.array([[0.0, 1j], [1.0, 0.0]], dtype=complex), 0)
    v = FourierDisc(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex), 0)
    w = dot_product(u, v)
    assert w.coefficient(1) == pytest.approx(1.0 + 1j)


def loop_convolve(a, b):
    """The reference order: out[i : i + Kb] += a[i] * b for i = 0, 1, ..."""
    Ka, Kb = a.shape[0], b.shape[0]
    out = np.zeros((Ka + Kb - 1, *np.broadcast_shapes(a.shape[1:], b.shape[1:])), dtype=complex)
    for i in range(Ka):
        out[i : i + Kb] += a[i] * b
    return out


@pytest.mark.parametrize("stack", [dc._CONV_STACK, 7, 1])
def test_convolve_bands_keeps_the_loop_bits(monkeypatch, stack):
    # every chunk size, the last chunk short, one row, trailing dimensions
    monkeypatch.setattr(dc, "_CONV_STACK", stack)
    rng = np.random.default_rng(12)

    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cases = [(c(1), c(1)), (c(66), c(131)), (c(131), c(66)), (c(257), c(515)),
             (c(3, 2), c(5, 2)), (c(7, 1, 3), c(4, 2, 1)), (rng.normal(size=9), c(12))]
    for a, b in cases:
        got = dc._convolve_bands(a, b)
        assert got.shape == loop_convolve(a, b).shape
        assert np.array_equal(got, loop_convolve(a, b))


def test_convolve_bands_memory_is_bounded_at_band_1024():
    # G(z, .) at band 1024: a dense 1025 x 3075 product stack would be 50 MB
    rng = np.random.default_rng(13)
    a = rng.normal(size=1025) + 1j * rng.normal(size=1025)
    b = rng.normal(size=2051) + 1j * rng.normal(size=2051)
    tracemalloc.start()
    try:
        out = dc._convolve_bands(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert np.array_equal(out, loop_convolve(a, b))


def test_analytic_completion_cos():
    eta = FourierDisc(np.array([0.5, 0.0, 0.5], dtype=complex), -1)  # cos t
    G = analytic_completion(eta)
    assert np.linalg.norm((G + (-1.0) * holo(0.0, 1.0)).coeffs) < 1e-14


def test_analytic_completion_constant():
    G = analytic_completion(FourierDisc(np.array([1.0 + 0j]), 0))
    assert G.coefficient(0) == pytest.approx(1.0)
    assert G.k_max == 0


def test_analytic_completion_sin():
    # sin t = (zeta - zeta^{-1}) / 2i  ->  G = -i zeta
    eta = FourierDisc(np.array([0.5j, 0.0, -0.5j]), -1)
    G = analytic_completion(eta)
    assert G.coefficient(1) == pytest.approx(-1j)


def test_analytic_completion_real_part_matches():
    rng = np.random.default_rng(21)
    for _ in range(10):
        N = int(rng.integers(2, 20))
        vals = rng.normal(size=64)
        eta = real_field(vals, N)
        G = analytic_completion(eta)
        gv = G.boundary_values(128)
        ev = eta.boundary_values(128)
        assert np.max(np.abs(gv.real - ev.real)) < 1e-12
        assert G(0.0).imag == 0.0


def test_analytic_completion_rejects_nonreal():
    u = FourierDisc(np.array([1j, 0.0, 0.0], dtype=complex), -1)
    with pytest.raises(NotReal):
        analytic_completion(u)


def test_real_field_symmetry():
    vals = np.cos(2 * np.pi * np.arange(16) / 16) ** 3
    u = real_field(vals, 5)
    assert check_real(u) < 1e-14
    for k in range(1, 6):
        assert u.coefficient(-k) == pytest.approx(np.conj(u.coefficient(k)))


def test_winding_powers():
    assert winding(holo(0.0, 0.0, 0.0, 1.0)) == 3
    assert winding(FourierDisc(np.array([1.0 + 0j]), -1)) == -1
    assert winding(holo(2.0, 1.0)) == 0  # re > 0 on T


def test_winding_additive_on_products():
    rng = np.random.default_rng(9)
    for _ in range(20):
        # nonvanishing by construction: dominant leading coefficient
        k1, k2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        c1 = 0.1 * (rng.normal(size=k1 + 1) + 1j * rng.normal(size=k1 + 1))
        c2 = 0.1 * (rng.normal(size=k2 + 1) + 1j * rng.normal(size=k2 + 1))
        c1[-1] = 1.0
        c2[-1] = 1.0
        u, v = FourierDisc(c1, 0), FourierDisc(c2, 0)
        uv = FourierDisc(np.convolve(c1, c2), 0)
        assert winding(uv) == winding(u) + winding(v) == k1 + k2


def test_winding_counts_zeros_in_disc():
    # (zeta - 0.5)(zeta - 0.2): two roots inside
    u = holo(0.1, -0.7, 1.0)
    assert winding(u) == 2
    # (zeta - 2): no root inside
    assert winding(holo(-2.0, 1.0)) == 0


@pytest.mark.parametrize("root,expected", [(1 - 1e-3, 1), (1 - 1e-4, 1), (1 + 1e-4, 0)])
def test_winding_of_a_root_near_the_circle(root, expected):
    # a root this near the circle: the trapezoid rule for u'/u on 512 samples
    # reads 1/(1 - root^512) here, 20 for root = 1 - 1e-4
    assert winding(holo(-root, 1.0)) == expected


def test_winding_raises_on_an_undersampled_curve():
    # the phase of zeta - (1 - 1e-5) turns by more than pi/2 in one step at zeta = 1
    with pytest.raises(AmbiguousWinding):
        winding(holo(-(1 - 1e-5), 1.0))


def test_winding_values_raises_on_zero():
    vals = np.full(64, 1.0 + 0j)
    vals[20] = 1e-12
    with pytest.raises(ZeroOnCircle):
        winding_values(vals)


def test_winding_ambiguous_jump():
    # alternating signs: phase jumps of pi each step
    vals = np.where(np.arange(16) % 2 == 0, 1.0, -1.0).astype(complex)
    with pytest.raises(AmbiguousWinding):
        winding_values(vals)


def test_band_and_coefficient_access():
    u = FourierDisc(np.arange(1, 6, dtype=complex), -2)
    b = u.band(0, 2)
    assert b.coefficient(0) == pytest.approx(3.0)
    assert b.coefficient(-1) == 0.0
    assert u.coefficient(7) == 0.0  # outside the band


def test_entries_roundtrip():
    rng = np.random.default_rng(17)
    c = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    u = FourierDisc(c, -1)
    back = FourierDisc.from_entries(u.to_entries())
    assert back.k_min == u.k_min
    assert np.max(np.abs(back.coeffs - u.coeffs)) == 0.0


def test_entries_roundtrip_scalar_target():
    u = FourierDisc(np.array([1.0 + 2j, 0.5]), 0)
    back = FourierDisc.from_entries(u.to_entries(), target_shape=())
    assert back.target_shape == ()
    assert np.max(np.abs(back.coeffs - u.coeffs)) == 0.0


def test_entries_reject_a_duplicate_frequency():
    entries = holo(1.0, 2.0).to_entries()
    entries.append({"k": 1, "re": [5.0], "im": [0.0]})
    with pytest.raises(ValueError, match="k = 1 is listed twice"):
        FourierDisc.from_entries(entries)


@pytest.mark.parametrize("k", [2.5, True, "1"])
def test_entries_reject_a_non_integer_frequency(k):
    entries = holo(1.0, 2.0).to_entries()
    entries[1]["k"] = k
    with pytest.raises(ValueError, match=f"k = {k!r} is not an integer"):
        FourierDisc.from_entries(entries)


@pytest.mark.parametrize("re, im", [([1.0, 2.0], [0.0, 0.0]), ([1.0, 2.0], [0.0])])
def test_entries_reject_a_coefficient_of_another_length(re, im):
    entries = holo(1.0, 2.0, 3.0).to_entries()
    entries[2].update(re=re, im=im)
    with pytest.raises(ValueError, match="coefficient at k = 2 has"):
        FourierDisc.from_entries(entries)


def test_arithmetic_and_constant():
    u = FourierDisc.constant(np.array([1.0 + 0j, 2.0]), 3)
    v = u + (-0.5) * u
    z = unit_grid(8)
    assert np.max(np.abs(v(z) - 0.5 * u(z))) < 1e-14
