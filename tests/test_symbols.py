"""Cutoff, symbol container, regularization, and seminorm behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraburgers.errors import DomainTooSmall
from paraburgers.spectral import Field, Grid
from paraburgers.symbols import (
    Cutoff,
    Symbol,
    cutoff_mask,
    regularize,
    seminorm,
    seminorm_table,
    transport_symbol,
    x_derivative,
    xi_forward_difference,
)

from helpers import random_real_field

# Lattice maxima of |Delta^a_xi Delta^beta_eta psi| * (1+|xi|)^{a+beta},
# a+beta <= 2, measured once per (B, b, N) and frozen.
CUTOFF_DECAY_C = {
    (8, 2, 128): 4225.0,
    (2, 1, 64): 1089.0,
}


def test_cutoff_validation():
    with pytest.raises(ValueError):
        Cutoff(1.0, 2.0)
    with pytest.raises(ValueError):
        Cutoff(8.0, 0.0)


def test_cutoff_plateau_values():
    c = Cutoff(2.0, 1.0)
    # below the ramp
    assert c(3, 6.9) == 0.0
    assert c(3, 7.0) == 0.0
    # above the ramp
    assert c(3, 8.0) == 1.0
    assert c(3, 12.0) == 1.0
    # symmetric in both signs
    assert c(-3, -8.0) == 1.0


def test_cutoff_strictly_increasing_on_ramp():
    c = Cutoff(2.0, 1.0)
    xs = np.linspace(7.0, 8.0, 21)
    values = c(3.0, xs)
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) > 0)


def test_integer_cutoff_binary_on_lattice():
    grid = Grid(64)
    mask = cutoff_mask(grid, Cutoff(8.0, 2.0))
    assert np.all((mask == 0.0) | (mask == 1.0))


@pytest.mark.parametrize("big_b,little_b,n", [(8, 2, 128), (2, 1, 64)])
def test_cutoff_difference_decay(big_b, little_b, n):
    """Lattice finite differences obey |D psi| <= C (1+|xi|)^{-order}."""
    grid = Grid(n)
    c = Cutoff(float(big_b), float(little_b))
    eta = np.sort(grid.freqs).astype(np.float64)
    xi = np.sort(grid.freqs).astype(np.float64)
    table = c(eta[:, None], xi[None, :])
    limit = CUTOFF_DECAY_C[(big_b, little_b, n)]
    for d_eta in range(3):
        for d_xi in range(3 - d_eta):
            block = np.diff(table, n=d_eta, axis=0)
            block = np.diff(block, n=d_xi, axis=1)
            weight = (1.0 + np.abs(xi[: block.shape[1]])) ** (d_eta + d_xi)
            assert np.max(np.abs(block) * weight[None, :]) <= limit


def test_regularize_matches_pointwise_mask():
    grid = Grid(32)
    rng = np.random.default_rng(3)
    u = random_real_field(grid, rng)
    a = transport_symbol(u)
    c = Cutoff(2.0, 1.0)
    reg = regularize(a, c)
    expected = cutoff_mask(grid, c) * a.coeffs
    assert np.array_equal(reg.coeffs, expected)


def test_regularize_is_projection():
    grid = Grid(32)
    rng = np.random.default_rng(4)
    a = transport_symbol(random_real_field(grid, rng))
    c = Cutoff(8.0, 2.0)
    once = regularize(a, c)
    twice = regularize(once, c)
    assert twice is once  # exact projection, no second mask application


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 32).map(lambda half: 2 * half),
       seed=st.integers(0, 2 ** 32 - 1),
       big_b=st.integers(2, 10), little_b=st.integers(1, 4))
def test_regularize_is_idempotent(n, seed, big_b, little_b):
    grid = Grid(n)
    rng = np.random.default_rng(seed)
    a = Symbol(grid, rng.standard_normal((n, n))
               + 1j * rng.standard_normal((n, n)))
    c = Cutoff(big_b, little_b)
    once = regularize(a, c)
    twice = regularize(once, c)
    assert twice.cutoff == c
    assert np.array_equal(twice.coeffs, once.coeffs)
    # integer cutoffs give a 0/1 lattice mask, so masking the coefficients
    # of an unmarked copy again changes nothing either
    again = regularize(Symbol(grid, once.coeffs), c)
    assert np.array_equal(again.coeffs, once.coeffs)


def test_symbol_from_function_round_trip():
    grid = Grid(32)
    a = Symbol.from_function(grid, lambda x, xi: np.cos(x) * xi, order_m=1.0)
    values = a.x_values()
    x = grid.x[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    assert np.max(np.abs(values - np.cos(x) * xi)) <= 1e-12


def test_transport_symbol_matches_function_form():
    grid = Grid(32)
    u = Field.from_physical(grid, np.cos(grid.x))
    a = transport_symbol(u)
    b = Symbol.from_function(grid, lambda x, xi: np.cos(x) * xi)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-13


def test_seminorm_multiplier_xi():
    grid = Grid(64)
    a = Symbol.from_function(grid, lambda x, xi: xi + 0.0 * x, order_m=1.0)
    lattice = np.abs(np.sort(grid.freqs))
    expected = np.max(lattice / (1.0 + lattice))
    assert seminorm(a, 1.0, n=0, k=0) == pytest.approx(expected, rel=1e-12)
    # first forward difference of xi is exactly one
    assert seminorm(a, 1.0, n=0, k=1) == pytest.approx(1.0, rel=1e-12)


def test_seminorm_transport_cosine():
    grid = Grid(64)
    u = Field.from_physical(grid, np.cos(grid.x))
    a = transport_symbol(u)
    expected = 2.0 * (32.0 / 33.0)
    assert seminorm(a, 1.0, n=1, k=0) == pytest.approx(expected, rel=1e-12)


def test_seminorm_homogeneity():
    grid = Grid(32)
    rng = np.random.default_rng(8)
    a = transport_symbol(random_real_field(grid, rng))
    base = seminorm(a, 1.0, n=0, k=1)
    scaled = seminorm(a * 3.0, 1.0, n=0, k=1)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_seminorm_monotone_in_indices():
    grid = Grid(32)
    rng = np.random.default_rng(9)
    a = transport_symbol(random_real_field(grid, rng))
    table = seminorm_table(grid, a.coeffs, 1.0, k_max=2, n_max=2)
    for k in range(2):
        for n in range(3):
            assert table[(k, n)] <= table[(k + 1, n)] + 1e-14
    for k in range(3):
        for n in range(2):
            assert table[(k, n)] <= table[(k, n + 1)] + 1e-14


def loop_seminorm(symbol, m, n, k):
    """M^m(a; k, n) as a plain loop: one iFFT per difference and derivative."""
    grid = symbol.grid
    eta = 1j * grid.freqs.astype(np.float64)[:, None]
    best = 0.0
    for j in range(k + 1):
        coeffs, base = xi_forward_difference(symbol, j)
        keep = base != 0
        block = coeffs[:, keep]
        total = np.zeros(block.shape[1])
        for _ in range(n + 1):
            total += np.max(np.abs(np.fft.ifft(block, axis=0) * grid.n), axis=0)
            block = block * eta
        weights = (1.0 + np.abs(base[keep])) ** (-(m - j))
        best = max(best, float(np.max(total * weights)))
    return best


@pytest.mark.parametrize("k_max, n_max", [(1, 1), (2, 2), (0, 2), (2, 0)])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_seminorm_report_is_each_seminorm_exactly(n, k_max, n_max):
    grid = Grid(n)
    rng = np.random.default_rng(n + 10 * k_max + n_max)
    a = Symbol(grid, rng.standard_normal((n, n))
               + 1j * rng.standard_normal((n, n)), order_m=0.7)
    table = seminorm_table(grid, a.coeffs, 0.7, k_max=k_max, n_max=n_max)
    assert set(table) == {(k, m) for k in range(k_max + 1)
                          for m in range(n_max + 1)}
    for (k, m), value in table.items():
        assert value == seminorm(a, n=m, k=k)
        assert value == loop_seminorm(a, 0.7, m, k)


def test_seminorm_domain_too_small():
    grid = Grid(16)
    a = Symbol.from_function(grid, lambda x, xi: xi)
    with pytest.raises(DomainTooSmall):
        seminorm(a, 1.0, n=0, k=5)


def test_xi_forward_difference_bases():
    grid = Grid(16)
    a = Symbol.from_function(grid, lambda x, xi: xi)
    diff, base = xi_forward_difference(a, 1)
    assert base[0] == -8 and base[-1] == 6
    # difference of the multiplier xi is the constant-one symbol
    values = np.fft.ifft(diff, axis=0) * grid.n
    assert np.max(np.abs(values - 1.0)) <= 1e-12


def test_x_derivative():
    grid = Grid(32)
    u = Field.from_physical(grid, np.cos(grid.x))
    a = Symbol.from_field(u)
    da = x_derivative(a)
    b = Symbol.from_function(grid, lambda x, xi: -np.sin(x) + 0.0 * xi)
    assert np.max(np.abs(da.coeffs - b.coeffs)) <= 1e-13
