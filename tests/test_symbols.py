"""Cutoff, symbol container, regularization, and seminorm behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraburgers.errors import InvariantBroken
from paraburgers.spectral import Field, Grid
from paraburgers.symbols import (
    Cutoff,
    Symbol,
    cutoff_mask,
    regularize,
    column_sup,
    seminorm,
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


@pytest.mark.parametrize("big_b, little_b", [
    (float("inf"), 1.0), (2.0, float("inf")), (float("nan"), 1.0),
    (2.0, float("nan")),
])
def test_cutoff_must_be_finite(big_b, little_b):
    # B = inf made the eta = 0 row of cutoff_mask nan (inf * 0), so a
    # paralinear run read blowup "nan" after one step; b = inf made the
    # cone band's reach overflow
    with pytest.raises(ValueError, match="finite"):
        Cutoff(big_b, little_b)


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


@pytest.mark.parametrize("eta, xi", [(1, 0), (20, 5), (20, 20)])
def test_regularize_checks_the_mark(eta, xi):
    # a coefficient where psi vanishes in a symbol marked regularized with
    # the cutoff: on the band (eta = 1, xi = 0), off it (eta = 20, xi = 5),
    # and off it where xi + eta leaves the lattice (eta = 20, xi = 20)
    grid = Grid(64)
    c = Cutoff(8.0, 2.0)
    once = regularize(transport_symbol(
        random_real_field(grid, np.random.default_rng(5))), c)
    coeffs = once.coeffs.copy()
    coeffs[grid.index_of(eta), grid.index_of(xi)] = 1e-4
    mislabelled = once.copy(coeffs=coeffs)
    assert cutoff_mask(grid, c)[grid.index_of(eta), grid.index_of(xi)] == 0.0
    with pytest.raises(InvariantBroken,
                       match=r"1 coefficients nonzero where Cutoff\(B=8, b=2\)"):
        regularize(mislabelled, c)
    # a symbol marked with another cutoff is masked again, not checked
    other = regularize(mislabelled, Cutoff(2.0, 1.0))
    assert np.array_equal(other.coeffs,
                          cutoff_mask(grid, Cutoff(2.0, 1.0)) * coeffs)


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
    values = np.fft.ifft(a.coeffs, axis=0) * grid.n
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
    assert seminorm(a, 1.0) == pytest.approx(expected, rel=1e-12)


def test_seminorm_homogeneity():
    grid = Grid(32)
    rng = np.random.default_rng(8)
    a = transport_symbol(random_real_field(grid, rng))
    base = seminorm(a, 1.0)
    scaled = seminorm(a * 3.0, 1.0)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def loop_column_sups(grid, coeffs):
    """sup_x |a(x, xi)| column by column, one 1-D inverse FFT each."""
    return np.array([np.max(np.abs(np.fft.ifft(coeffs[:, col]) * grid.n))
                     for col in range(grid.n)])


def loop_seminorm(symbol, m):
    """M^m(a) as a plain loop over the columns xi != 0."""
    grid = symbol.grid
    sups = loop_column_sups(grid, symbol.coeffs)
    best = 0.0
    for col, xi in enumerate(grid.freqs):
        if xi != 0:
            best = max(best, float(sups[col] * (1.0 + abs(float(xi))) ** (-m)))
    return best


@pytest.mark.parametrize("n", [16, 32, 64])
def test_column_sup_is_each_columns_sup_exactly(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    stack = (rng.standard_normal((3, 2, n, n))
             + 1j * rng.standard_normal((3, 2, n, n)))
    sups = column_sup(grid, stack)
    assert sups.shape == (3, 2, n)
    for idx in np.ndindex(3, 2):
        np.testing.assert_array_equal(sups[idx],
                                      loop_column_sups(grid, stack[idx]))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_seminorm_is_the_loop_seminorm_exactly(n):
    grid = Grid(n)
    rng = np.random.default_rng(n + 1)
    a = Symbol(grid, rng.standard_normal((n, n))
               + 1j * rng.standard_normal((n, n)), order_m=0.7)
    assert seminorm(a) == loop_seminorm(a, 0.7)
    for m in (-0.5, 0.0, 2.5):
        assert seminorm(a, m) == loop_seminorm(a, m)


def test_xi_forward_difference_bases():
    grid = Grid(16)
    a = Symbol.from_function(grid, lambda x, xi: xi)
    diff, base = xi_forward_difference(a)
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
