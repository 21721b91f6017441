"""Grid, field, block, norm, and multiplier behaviour.

Closed-form expectations are derived by hand from the coefficient
convention u_hat(xi) = (1/N) sum_j u(x_j) exp(-i xi x_j); calibrated
constants were measured once with the seeds below and then frozen.
"""

import numpy as np
import pytest

from paraburgers.errors import GridMismatch, NonFiniteMultiplier
from paraburgers.spectral import (
    Field,
    Grid,
    abs_d_pow,
    bessel_pow,
    block_profile,
    derivative,
    dispersion_symbol,
    inverse_dx,
    linf_norm,
    lp_decompose,
    lp_profiles,
    multiplier_apply,
    sobolev_norm,
    wk_inf_norm,
    zygmund_norm,
)

from helpers import random_real_field, ring_field

# Calibrated on seed 1234, N in {64, 128, 256}; frozen since.
BERNSTEIN_DERIV_C = 1.0 + 1e-12
BERNSTEIN_EMBED_C = 1.0
RING_LOWER_C = 0.05
ZYGMUND_SUM_C = 1.3


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(7)
    with pytest.raises(ValueError):
        Grid(4)
    grid = Grid(16)
    assert grid.freqs.min() == -8 and grid.freqs.max() == 7


def test_round_trip():
    grid = Grid(64)
    rng = np.random.default_rng(1234)
    values = rng.standard_normal(64)
    field = Field.from_physical(grid, values)
    # Nyquist removal is the only loss, and white input contains some
    back = field.physical()
    resampled = Field.from_physical(grid, back).physical()
    assert np.max(np.abs(back - resampled)) <= 1e-12


def test_round_trip_band_limited_exact():
    grid = Grid(64)
    rng = np.random.default_rng(7)
    field = random_real_field(grid, rng, band=20)
    values = field.physical()
    again = Field.from_physical(grid, values)
    assert np.max(np.abs(again.spectral - field.spectral)) <= 1e-12


def test_real_field_zeroes_nyquist():
    grid = Grid(16)
    values = np.cos(8 * grid.x)  # lives exactly on the Nyquist mode
    field = Field.from_physical(grid, values)
    assert field.coefficient(-8) == 0.0


def test_hermitian_validation_rejects_asymmetric():
    grid = Grid(16)
    coeffs = np.zeros(16, dtype=np.complex128)
    coeffs[grid.index_of(3)] = 1.0  # no matching conjugate at -3
    with pytest.raises(ValueError):
        Field(grid, coeffs, is_real=True)


def test_constant_sobolev_norm():
    grid = Grid(32)
    one = Field.from_physical(grid, np.ones(32))
    for s in (-1.0, 0.0, 0.5, 2.0):
        assert sobolev_norm(one, s) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-13)


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_cosine_sobolev_norm(k, s):
    grid = Grid(64)
    u = Field.from_physical(grid, np.cos(k * grid.x))
    expected = np.sqrt(np.pi) * (1 + k * k) ** (s / 2)
    assert sobolev_norm(u, s) == pytest.approx(expected, rel=1e-13)


def test_parseval():
    grid = Grid(128)
    rng = np.random.default_rng(5)
    u = random_real_field(grid, rng)
    quadrature = np.sqrt(2 * np.pi / grid.n * np.sum(u.physical() ** 2))
    assert sobolev_norm(u, 0.0) == pytest.approx(quadrature, abs=1e-12)


def test_antiderivative_of_sin():
    grid = Grid(32)
    u = Field.from_physical(grid, np.sin(2 * grid.x))
    v = multiplier_apply(u, inverse_dx())
    expected = -np.cos(2 * grid.x) / 2
    assert np.max(np.abs(v.physical() - expected)) <= 1e-14


def test_derivative_multiplier():
    grid = Grid(32)
    u = Field.from_physical(grid, np.cos(3 * grid.x))
    du = multiplier_apply(u, derivative())
    assert np.max(np.abs(du.physical() + 3 * np.sin(3 * grid.x))) <= 1e-13


def test_dispersion_symbol_values():
    m = dispersion_symbol(1.5)
    xi = np.array([-4, -1, 0, 1, 4])
    values = m(xi)
    assert values[2] == 0
    assert values[4] == pytest.approx(1j * 8.0)
    assert values[0] == pytest.approx(-1j * 8.0)


def test_negative_power_zero_mode():
    m = abs_d_pow(-0.5)
    values = m(np.array([0, 1, 4]))
    assert values[0] == 0.0
    assert values[2] == pytest.approx(0.5)


def test_non_finite_multiplier_raises():
    grid = Grid(16)
    u = Field.from_physical(grid, np.cos(grid.x))
    with pytest.raises(NonFiniteMultiplier), np.errstate(divide="ignore"):
        multiplier_apply(u, lambda xi: 1.0 / xi)


def test_grid_mismatch():
    a = Field.from_physical(Grid(16), np.zeros(16))
    b = Field.from_physical(Grid(32), np.zeros(32))
    with pytest.raises(GridMismatch):
        _ = a + b


def test_block_profile_shape():
    assert block_profile(0.5) == 1.0
    assert block_profile(1.0) == 1.0
    assert block_profile(2.0) == 0.0
    assert 0.0 < block_profile(1.5) < 1.0
    # quintic smoothstep midpoint
    assert block_profile(1.5) == pytest.approx(0.5)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_partition_of_unity(n):
    grid = Grid(n)
    total = lp_profiles(grid).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_lp_decompose_sums_to_field():
    grid = Grid(128)
    rng = np.random.default_rng(11)
    u = random_real_field(grid, rng)
    pieces = lp_decompose(u)
    total = pieces[0]
    for piece in pieces[1:]:
        total = total + piece
    assert np.max(np.abs(total.spectral - u.spectral)) <= 1e-12


def test_zygmund_single_mode():
    grid = Grid(64)
    coeffs = np.zeros(64, dtype=np.complex128)
    coeffs[grid.index_of(8)] = 1.0
    u = Field(grid, coeffs)
    # mode 8 sits in block 3 alone with profile weight one
    for s in (0.3, 1.0):
        assert zygmund_norm(u, s) == pytest.approx(2.0 ** (3 * s), rel=1e-12)


def test_wkinf_cosine():
    grid = Grid(64)
    u = Field.from_physical(grid, np.cos(grid.x))
    assert wk_inf_norm(u, 0) == pytest.approx(1.0, rel=1e-12)
    assert wk_inf_norm(u, 1) == pytest.approx(2.0, rel=1e-12)


def test_cosine_linf_and_h1_norms():
    grid = Grid(32)
    u = Field.from_physical(grid, np.cos(grid.x))
    assert linf_norm(u) == pytest.approx(1.0, rel=1e-12)
    assert sobolev_norm(u, 1.0) == pytest.approx(np.sqrt(np.pi) * 2 ** 0.5, rel=1e-12)


@pytest.mark.parametrize("lam", [4, 8, 16, 32])
def test_bernstein_derivative(lam):
    grid = Grid(128)
    rng = np.random.default_rng(1234)
    for _ in range(5):
        u = random_real_field(grid, rng, band=lam)
        du = multiplier_apply(u, derivative())
        assert linf_norm(du) <= BERNSTEIN_DERIV_C * lam * linf_norm(u)


@pytest.mark.parametrize("lam", [4, 8, 16, 32])
def test_bernstein_embedding(lam):
    grid = Grid(128)
    rng = np.random.default_rng(99)
    for _ in range(5):
        u = random_real_field(grid, rng, band=lam)
        assert linf_norm(u) <= BERNSTEIN_EMBED_C * np.sqrt(lam) * sobolev_norm(u, 0.0)


@pytest.mark.parametrize("lam", [8, 16, 32])
def test_ring_bernstein_lower_bound(lam):
    grid = Grid(128)
    rng = np.random.default_rng(4321)
    for _ in range(5):
        u = ring_field(grid, rng, lam)
        du = multiplier_apply(u, derivative())
        # exact in L^2 since |xi| >= lam/2 on the ring
        l2 = sobolev_norm(u, 0.0)
        assert sobolev_norm(du, 0.0) >= 0.5 * lam * l2 * (1 - 1e-12)
        assert linf_norm(du) >= RING_LOWER_C * lam * linf_norm(u)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.5])
def test_zygmund_summation(r):
    """Ball-supported pieces with 2^{qr}||u_q||_inf <= M sum to C^r_*."""
    grid = Grid(256)
    rng = np.random.default_rng(2024)
    total = Field(grid, np.zeros(grid.n, dtype=np.complex128), is_real=True)
    m_value = 0.0
    for q in range(7):
        piece = random_real_field(grid, rng, band=2 ** (q + 1))
        piece = piece * (2.0 ** (-q * r) / max(linf_norm(piece), 1e-30))
        m_value = max(m_value, 2.0 ** (q * r) * linf_norm(piece))
        total = total + piece
    bound = ZYGMUND_SUM_C * m_value / (1.0 - 2.0 ** (-r))
    assert zygmund_norm(total, r) <= bound


def test_bessel_multiplier():
    grid = Grid(32)
    u = Field.from_physical(grid, np.cos(2 * grid.x))
    v = multiplier_apply(u, bessel_pow(2.0))
    assert np.max(np.abs(v.physical() - 5.0 * np.cos(2 * grid.x))) <= 1e-12
