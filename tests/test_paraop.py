"""Operator materialization, symbolic calculus, and order probes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraburgers.errors import DegenerateProbe, GridMismatch, InvariantBroken
from paraburgers.solver import initial_field
from paraburgers.spectral import Grid, Field, abs_d_pow, multiplier_values, \
    sobolev_norm
from paraburgers.symbols import Cutoff, Symbol, regularize, seminorm
from paraburgers import paraop

from helpers import random_real_field

# Calibrated with seeds below on N in {64, 128, 256}; regression bounds.
CONTINUITY_K = 0.36
BONY_K = 1.2


def band_field(grid, band, rng, amplitude=0.3):
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    for k in range(1, band + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[grid.index_of(k)] = amplitude * z
        coeffs[grid.index_of(-k)] = amplitude * np.conj(z)
    return Field(grid, coeffs)


class TestMaterialize:
    def test_constant_symbol_is_high_pass_diagonal(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        one = Symbol.from_field(Field.from_physical(grid, np.ones(grid.n)))
        matrix = paraop.materialize(one, cutoff)
        xi = grid.freqs.astype(np.float64)
        expected = np.diag(cutoff(np.zeros_like(xi), xi))
        np.testing.assert_allclose(matrix.entries, expected, atol=1e-15)

    def test_single_wave_symbol_single_mode(self):
        grid = Grid(64)
        cutoff = Cutoff(2.0, 1.0)
        # a = e^{i3x}, u = e^{i10x}: one term psi(3,10) e^{i13x}
        coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
        coeffs[grid.index_of(3), :] = 1.0
        a = Symbol(grid, coeffs)
        u = Field(grid, np.eye(grid.n)[grid.index_of(10)].astype(complex))
        out = paraop.materialize(a, cutoff).apply(u)
        psi = cutoff(np.array([3.0]), np.array([10.0]))[0]
        assert psi == 1.0
        assert out.coefficient(13) == psi
        others = [out.coefficient(k) for k in range(-32, 32) if k != 13]
        assert np.max(np.abs(others)) == 0.0

    def test_sparsity_pattern_matches_cutoff(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(5)
        sym = Symbol.from_field(random_real_field(grid, rng))
        matrix = paraop.materialize(sym, cutoff)
        mask = paraop.pair_mask(grid, cutoff)
        assert not np.any(matrix.entries[mask == 0.0])

    def test_regularized_symbol_not_remasked(self):
        grid = Grid(64)
        cutoff = Cutoff(1.5, 1.0)  # non-integer B: fractional mask values
        rng = np.random.default_rng(6)
        sym = Symbol.from_field(random_real_field(grid, rng))
        once = paraop.materialize(regularize(sym, cutoff), cutoff)
        direct = paraop.materialize(sym, cutoff)
        np.testing.assert_array_equal(once.entries, direct.entries)

    def test_unregularized_symbol_marked_regularized_raises(self):
        # a raised error, not an assert, so it also holds under python -O
        grid = Grid(32)
        cutoff = Cutoff(8.0, 2.0)
        fake = Symbol(grid, np.ones((grid.n, grid.n)), cutoff=cutoff)
        with pytest.raises(InvariantBroken, match="pair mask"):
            paraop.materialize(fake, cutoff)

    def test_scatter_pairs_reads_the_symbol_back(self):
        grid = Grid(64)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(7)
        sym = Symbol.from_field(random_real_field(grid, rng))
        # keep xi + eta on the lattice: columns up to 21 shift at most to 31
        low = np.abs(grid.freqs) <= 21
        sym = regularize(sym.copy(coeffs=sym.coeffs * low[None, :]), cutoff)
        back = paraop.scatter_pairs(paraop.materialize(sym, cutoff).entries, grid)
        np.testing.assert_allclose(back, sym.coeffs, atol=1e-14)


class TestApply:
    def test_mean_killed(self):
        grid = Grid(32)
        cutoff = Cutoff(8.0, 2.0)
        one = Field.from_physical(grid, np.ones(grid.n))
        out = paraop.apply(Symbol.from_field(one), cutoff, one)
        assert np.max(np.abs(out.spectral)) == 0.0

    def test_cos_on_cos_all_modes_fail_cutoff(self):
        grid = Grid(32)
        cutoff = Cutoff(2.0, 1.0)
        coeffs = np.zeros(grid.n, dtype=np.complex128)
        coeffs[grid.index_of(1)] = 0.5
        coeffs[grid.index_of(-1)] = 0.5
        u = Field(grid, coeffs, is_real=True)
        out = paraop.apply(Symbol.from_field(u), cutoff, u)
        assert np.max(np.abs(out.spectral)) == 0.0

    def test_real_in_real_out(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(11)
        a = random_real_field(grid, rng)
        u = random_real_field(grid, rng)
        out = paraop.apply(Symbol.from_field(a), cutoff, u)
        assert np.max(np.abs(out.physical().imag)) < 1e-12

    def test_grid_mismatch(self):
        cutoff = Cutoff(8.0, 2.0)
        a = Symbol.from_field(Field.from_physical(Grid(32), np.ones(32)))
        u = Field.from_physical(Grid(64), np.ones(64))
        with pytest.raises(GridMismatch):
            paraop.apply(a, cutoff, u)

    def test_unregularized_symbol_marked_regularized_raises(self):
        # materialize refuses this symbol; apply must not silently use its
        # unmasked coefficients instead
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        u = initial_field(grid, "random", 1.0)
        sym = Symbol.from_field(u)
        fake = sym.copy(cutoff=cutoff)
        with pytest.raises(InvariantBroken, match="pair mask"):
            paraop.materialize(fake, cutoff)
        with pytest.raises(InvariantBroken, match="pair mask"):
            paraop.apply(fake, cutoff, u)
        np.testing.assert_array_equal(
            paraop.apply(regularize(sym, cutoff), cutoff, u).spectral,
            paraop.apply(sym, cutoff, u).spectral)

    @pytest.mark.parametrize("seed", range(50))
    def test_fast_path_agrees_with_dense(self, seed):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(1000 + seed)
        a = Symbol.from_field(random_real_field(grid, rng))
        u = random_real_field(grid, rng)
        dense = paraop.materialize(a, cutoff).apply(u).spectral
        fast = paraop.apply(a, cutoff, u).spectral
        scale = max(np.max(np.abs(dense)), 1e-30)
        assert np.max(np.abs(dense - fast)) / scale < 1e-10


def _cutoffs():
    integer = st.builds(Cutoff, st.integers(2, 10), st.integers(1, 4))
    # B'' = B B' / (B + B' + 1) > 1 needs B, B' >= 3
    composed = st.builds(
        lambda b1, b2, s1, s2: Cutoff(b1, s1).compose(Cutoff(b2, s2)),
        st.integers(3, 10), st.integers(3, 10),
        st.integers(1, 4), st.integers(1, 4))
    return st.one_of(integer, composed)


def _field(grid, rng, real):
    if real:
        return random_real_field(grid, rng)
    return Field(grid, rng.standard_normal(grid.n)
                 + 1j * rng.standard_normal(grid.n))


def _assert_close(out, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(out - reference)) <= 1e-12 * scale


def _real_convention(grid, coeffs, real):
    """The coefficients with the Nyquist mode zeroed when real: the
    convention every real field keeps, and so T_u v of real u and v."""
    if not real:
        return coeffs
    out = coeffs.copy()
    out[grid.index_of(grid.nyquist)] = 0.0
    return out


CONE_CASES = dict(
    n=st.integers(4, 128).map(lambda half: 2 * half),
    cutoff=_cutoffs(),
    seed=st.integers(0, 2 ** 32 - 1),
    real=st.booleans(),
)


class TestConeBand:
    """The cone-band apply against the dense reference matrix."""

    @settings(max_examples=60, deadline=None)
    @given(**CONE_CASES)
    def test_paraproduct_matches_dense(self, n, cutoff, seed, real):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        dense = paraop.materialize(Symbol.from_field(u), cutoff).apply(v)
        out = paraop.paraproduct(u, v, cutoff)
        assert out.is_real == real
        _assert_close(out.spectral,
                      _real_convention(grid, dense.spectral, real))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["field", "profile", "regularized"]),
           **CONE_CASES)
    def test_apply_matches_dense(self, kind, n, cutoff, seed, real):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        if kind == "field":
            sym = Symbol.from_field(u)
        else:
            sym = Symbol.from_field(u, xi_profile=lambda xi: np.cos(xi / 7.0)
                                    + 1j * np.sin(xi / 5.0))
        if kind == "regularized":
            sym = regularize(sym, cutoff)
        dense = paraop.materialize(sym, cutoff).apply(v)
        _assert_close(paraop.apply(sym, cutoff, v).spectral, dense.spectral)

    @settings(max_examples=40, deadline=None)
    @given(**CONE_CASES)
    def test_exact_zeros(self, n, cutoff, seed, real):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        constant = Field(grid, np.eye(grid.n)[0] * rng.standard_normal())
        assert not np.any(paraop.paraproduct(u, constant, cutoff).spectral)
        assert not np.any(paraop.paraproduct(constant, constant,
                                             cutoff).spectral)
        # output modes satisfy |m| > b: the lowest ones are never reached
        low = np.abs(grid.freqs) <= np.floor(cutoff.little_b)
        assert not np.any(paraop.paraproduct(u, v, cutoff).spectral[low])
        out = paraop.apply(Symbol.from_field(u), cutoff, v)
        assert not np.any(out.spectral[low])


# reach = floor((N/2 - b) / B) at its two ends: 0 on the smallest grid with
# b = N/2, and 98 at the top of CONE_CASES (N = 256, B = 3*3/7, b = 1)
WINDOW_CORNERS = [(8, Cutoff(2, 4), 0),
                  (256, Cutoff(3, 1).compose(Cutoff(3, 1)), 98)]


class TestWindowTable:
    """The cached window tables shared by paraproduct and apply."""

    @pytest.mark.parametrize("n, cutoff, reach", WINDOW_CORNERS)
    def test_tables_are_read_only(self, n, cutoff, reach):
        band = paraop._cone_band(Grid(n), cutoff)
        slots = paraop._band_slots(Grid(n), band.reach)
        assert band.reach == reach
        assert band.weights.shape == slots.shape == (n, 2 * reach + 1)
        assert band.weights.dtype == np.complex128
        for table in (band.rows, band.weights, slots):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_caches_stay_bounded(self):
        rng = np.random.default_rng(8)
        for k in range(3 * paraop._cone_band.cache_info().maxsize):
            grid, cutoff = Grid(8 + 2 * k), Cutoff(2 + k % 3, 1 + k % 2)
            u, v = random_real_field(grid, rng), random_real_field(grid, rng)
            paraop.paraproduct(u, v, cutoff)
            paraop.apply(Symbol.from_field(u), cutoff, v)
            for table in (paraop._cone_band, paraop._band_slots):
                info = table.cache_info()
                assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n, cutoff, reach", WINDOW_CORNERS)
    def test_corners_keep_exact_zeros(self, n, cutoff, reach, real):
        grid = Grid(n)
        rng = np.random.default_rng(n + reach)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        low = np.abs(grid.freqs) <= np.floor(cutoff.little_b)
        sym = Symbol.from_field(u)
        dense = paraop.materialize(sym, cutoff).apply(v).spectral
        outputs = ((paraop.paraproduct(u, v, cutoff).spectral,
                    _real_convention(grid, dense, real)),
                   (paraop.apply(sym, cutoff, v).spectral, dense),
                   (paraop.apply(regularize(sym, cutoff), cutoff, v).spectral,
                    dense))
        for out, reference in outputs:
            assert not np.any(out[low])
            assert np.max(np.abs(out - reference)) <= 1e-12 * max(
                np.max(np.abs(reference)), 1e-300)


# the solver's paralinear grid and cutoff, then the window corners
HALF_LATTICE_CASES = [(512, Cutoff(8, 2))] + [(n, c) for n, c, _ in
                                               WINDOW_CORNERS]


class TestHalfLattice:
    """Real inputs sum only the output modes xi <= 0 and conjugate the
    rest; complex inputs take the full sum."""

    @pytest.mark.parametrize("n, cutoff", HALF_LATTICE_CASES)
    def test_real_output_is_exactly_hermitian(self, n, cutoff):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        u, v = _field(grid, rng, True), _field(grid, rng, True)
        out = paraop.paraproduct(u, v, cutoff).spectral
        half = n // 2
        assert (out[1:half].tobytes()
                == np.conj(out[:half:-1]).tobytes())
        assert out[0].imag == 0.0

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n, cutoff", HALF_LATTICE_CASES)
    def test_coeffs_are_the_field_wrapper(self, n, cutoff, real):
        grid = Grid(n)
        rng = np.random.default_rng(n + 1)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        coeffs = paraop.paraproduct_coeffs(grid, u.spectral, v.spectral,
                                           cutoff, real)
        assert coeffs.tobytes() == paraop.paraproduct(
            u, v, cutoff).spectral.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=CONE_CASES["n"], cutoff=CONE_CASES["cutoff"],
           seed=CONE_CASES["seed"])
    def test_half_sum_matches_full_sum(self, n, cutoff, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = _field(grid, rng, True), _field(grid, rng, True)
        half, full = (paraop.paraproduct_coeffs(grid, u.spectral, v.spectral,
                                                cutoff, real)
                      for real in (True, False))
        assert half[grid.index_of(grid.nyquist)] == 0.0
        _assert_close(half, _real_convention(grid, full, True))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("cutoff", [Cutoff(8, 2), Cutoff(2.5, 1.3),
                                        Cutoff(3, 1).compose(Cutoff(3, 1))])
    def test_complex_table_gives_the_float_products(self, n, cutoff, real):
        # numpy casts a float table to complex inside the products, so
        # storing it complex changes no bit of paraproduct or apply
        grid = Grid(n)
        rng = np.random.default_rng(n + 2)
        u, v = _field(grid, rng, real), _field(grid, rng, real)
        band = paraop._cone_band(grid, cutoff)
        floats = band.weights.real.copy()
        column = u.spectral[band.rows]
        assert (paraop._band_sum(band, band.weights, v.spectral, column,
                                 real).tobytes()
                == paraop._band_sum(band, floats, v.spectral, column,
                                    real).tobytes())
        sym = Symbol.from_field(u, xi_profile=lambda xi: np.cos(xi / 7.0)
                                + 1j * np.sin(xi / 5.0))
        terms = sym.coeffs.ravel()[paraop._band_slots(grid, band.reach)]
        assert (terms * band.weights).tobytes() == (terms * floats).tobytes()


class TestSpectrumLocalisation:
    def test_high_and_low_inclusions_per_entry(self):
        grid = Grid(128)
        rng = np.random.default_rng(3)
        sym = Symbol.from_field(random_real_field(grid, rng),
                                xi_profile=lambda xi: np.cos(xi / 7.0))
        for big_b, little_b in [(2.0, 1.0), (8.0, 2.0), (3.0, 1.5)]:
            matrix = paraop.materialize(sym, Cutoff(big_b, little_b))
            rows, cols = np.nonzero(matrix.entries)
            out_f = np.abs(grid.freqs[rows].astype(np.float64))
            in_f = np.abs(grid.freqs[cols].astype(np.float64))
            # output of a mode at |xi| stays inside the two-sided window
            assert np.all(out_f <= (1.0 + 1.0 / big_b) * in_f - little_b / big_b)
            assert np.all(out_f >= (1.0 - 1.0 / big_b) * in_f + little_b / big_b)

    def test_localised_input_stays_localised(self):
        grid = Grid(128)
        big_b, little_b = 4.0, 2.0
        cutoff = Cutoff(big_b, little_b)
        rng = np.random.default_rng(4)
        sym = Symbol.from_field(random_real_field(grid, rng))
        radius = 24
        inside = np.abs(grid.freqs) <= radius
        u = Field(grid, np.where(inside, rng.standard_normal(grid.n)
                                 + 1j * rng.standard_normal(grid.n), 0.0))
        out = paraop.apply(sym, cutoff, u)
        bound = (1.0 + 1.0 / big_b) * radius - little_b / big_b
        bad = np.abs(grid.freqs) > bound
        assert np.max(np.abs(out.spectral[bad])) == 0.0


class TestComposeSharp:
    def test_rho_one_is_product(self):
        grid = Grid(64)
        rng = np.random.default_rng(8)
        a = Symbol.from_field(random_real_field(grid, rng),
                              xi_profile=lambda xi: 1.0 + 0.1 * np.abs(xi))
        b = Symbol.from_field(random_real_field(grid, rng))
        sharp = paraop.compose_sharp(a, b, 1)
        np.testing.assert_allclose(sharp.coeffs, paraop.symbol_product(a, b).coeffs,
                                   atol=1e-13)

    def test_x_only_first_factor_collapses(self):
        grid = Grid(64)
        rng = np.random.default_rng(9)
        a = Symbol.from_field(random_real_field(grid, rng))
        b = Symbol.from_field(random_real_field(grid, rng),
                              xi_profile=lambda xi: xi)
        sharp = paraop.compose_sharp(a, b, 2)
        np.testing.assert_allclose(sharp.coeffs, paraop.symbol_product(a, b).coeffs,
                                   atol=1e-13)

    def test_linear_symbol_two_term_closed_form(self):
        grid = Grid(64)
        a = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * xi)
        b = Symbol.from_field(Field.from_physical(grid, np.cos(3 * grid.x)))
        sharp = paraop.compose_sharp(a, b, 2)
        ref = Symbol.from_function(
            grid, lambda x, xi: np.cos(3 * x) * xi + 3j * np.sin(3 * x))
        np.testing.assert_allclose(sharp.coeffs, ref.coeffs, atol=1e-13)

    def test_linear_symbol_composition_exact(self):
        # for a = xi the two-term expansion is exact: T_a T_b == T_{a#b}
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        a = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * xi)
        b = Symbol.from_field(Field.from_physical(grid, np.cos(3 * grid.x)))
        product = paraop.materialize(a, cutoff).compose(paraop.materialize(b, cutoff))
        sharp = paraop.materialize(paraop.compose_sharp(a, b, 2), cutoff)
        assert (product - sharp).max_entry() < 1e-13

    def test_remainder_order(self):
        # a = u xi |xi|^{-1/2} (m = 1/2), b = v xi (m' = 1), rho = 2
        grid = Grid(128)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(3)
        u = band_field(grid, 3, rng)
        v = band_field(grid, 3, rng)

        def half_profile(xi):
            out = np.zeros_like(xi)
            nonzero = xi != 0
            out[nonzero] = xi[nonzero] * np.abs(xi[nonzero]) ** -0.5
            return out

        a = Symbol.from_field(u, xi_profile=half_profile, order_m=0.5)
        b = Symbol.from_field(v, xi_profile=lambda xi: xi, order_m=1.0)
        sharp = paraop.compose_sharp(a, b, 2)
        difference = (paraop.materialize(a, cutoff).compose(paraop.materialize(b, cutoff))
                      - paraop.materialize(sharp, cutoff))
        estimate = paraop.order_probe(difference)
        assert estimate.slope <= 0.5 + 1.0 - 2.0 + 0.2


class TestAdjointStar:
    def test_real_multiplier_fixed(self):
        grid = Grid(64)
        sym = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * np.abs(xi))
        for rho in (1, 2):
            star = paraop.adjoint_star(sym, rho)
            np.testing.assert_allclose(star.coeffs, sym.coeffs, atol=1e-13)

    def test_transport_closed_form(self):
        grid = Grid(64)
        rng = np.random.default_rng(12)
        u = random_real_field(grid, rng)
        sym = Symbol.from_field(u, xi_profile=lambda xi: xi, order_m=1.0)
        star = paraop.adjoint_star(sym, 2)
        du = u.copy()
        du_spec = du.spectral * (1j * grid.freqs)
        ref_coeffs = (u.spectral[:, None] * grid.freqs[None, :]
                      + du_spec[:, None] / 1j * np.ones(grid.n)[None, :])
        np.testing.assert_allclose(star.coeffs, ref_coeffs, atol=1e-12)

    def test_rho_one_is_conjugate(self):
        grid = Grid(64)
        sym = Symbol.from_function(
            grid, lambda x, xi: (np.cos(x) + 1j * np.sin(2 * x)) * np.exp(1j * xi / 9.0))
        star = paraop.adjoint_star(sym, 1)
        ref = np.fft.fft(np.conj(sym.x_values()), axis=0) / grid.n
        np.testing.assert_allclose(star.coeffs, ref, atol=1e-13)

    @pytest.mark.parametrize("rho", [1, 2])
    def test_adjoint_remainder_order(self, rho):
        grid = Grid(128)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(3)
        v = band_field(grid, 3, rng)
        sym = Symbol.from_field(v, xi_profile=lambda xi: xi, order_m=1.0)
        star = paraop.adjoint_star(sym, rho)
        difference = (paraop.materialize(sym, cutoff).adjoint()
                      - paraop.materialize(star, cutoff))
        estimate = paraop.order_probe(difference)
        assert estimate.slope <= 1.0 - rho + 0.2


class TestOrderProbe:
    def test_half_derivative_slope(self):
        grid = Grid(128)
        half = np.diag(multiplier_values(grid, abs_d_pow(0.5)))
        estimate = paraop.order_probe(paraop.OperatorMatrix(grid, half))
        assert abs(estimate.slope - 0.5) < 0.1

    def test_identity_slope(self):
        grid = Grid(128)
        estimate = paraop.order_probe(
            paraop.OperatorMatrix(grid, np.eye(grid.n, dtype=complex)))
        assert abs(estimate.slope) < 0.05
        assert estimate.residual < 1e-10

    def test_probe_range_and_centers(self):
        grid = Grid(256)
        estimate = paraop.order_probe(
            paraop.OperatorMatrix(grid, np.eye(grid.n, dtype=complex)))
        assert estimate.centers == (8, 16, 32, 64)
        assert estimate.probe_range == (8, 64)

    def test_degenerate_probe(self):
        grid = Grid(128)
        zero = paraop.OperatorMatrix(grid, np.zeros((grid.n, grid.n)))
        with pytest.raises(DegenerateProbe):
            paraop.order_probe(zero)

    def test_callable_operator(self):
        grid = Grid(128)
        estimate = paraop.order_probe(lambda f: f, grid=grid)
        assert abs(estimate.slope) < 0.05


class TestBonyRemainder:
    def test_zero_field(self):
        grid = Grid(64)
        zero = Field.from_physical(grid, np.zeros(grid.n))
        rng = np.random.default_rng(13)
        b = random_real_field(grid, rng)
        remainder = paraop.bony_remainder(zero, b)
        assert np.max(np.abs(remainder.spectral)) == 0.0

    def test_cos_squared(self):
        grid = Grid(64)
        u = Field.from_physical(grid, np.cos(grid.x))
        remainder = paraop.bony_remainder(u, u)
        expected = 0.5 * (1.0 + np.cos(2 * grid.x))
        np.testing.assert_allclose(remainder.physical(), expected, atol=1e-13)

    def test_real_inputs_give_real_fields(self):
        grid = Grid(64)
        u = random_real_field(grid, np.random.default_rng(21))
        assert paraop.paraproduct(u, u, Cutoff(8.0, 2.0)).is_real
        remainder = paraop.bony_remainder(u, u)
        assert remainder.is_real
        assert remainder.physical().dtype == np.float64

    def test_complex_input_rejected(self):
        grid = Grid(64)
        u = Field(grid, np.eye(grid.n)[grid.index_of(3)].astype(complex))
        with pytest.raises(ValueError):
            paraop.bony_remainder(u, u)

    def test_smoothing_bound(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for n in (128, 256):
            grid = Grid(n)
            for _ in range(6):
                a = random_real_field(grid, rng, band=n // 8)
                b = random_real_field(grid, rng, band=n // 8)
                a = a * (1.0 / sobolev_norm(a, 2.0))
                b = b * (1.0 / sobolev_norm(b, 2.0))
                remainder = paraop.bony_remainder(a, b)
                worst = max(worst, sobolev_norm(remainder, 3.5))
        assert worst <= BONY_K


class TestContinuity:
    def test_sobolev_operator_norm_uniform(self):
        rng = np.random.default_rng(1234)
        cutoff = Cutoff(8.0, 2.0)
        worst = 0.0
        for n in (64, 128):
            grid = Grid(n)
            for m in (-0.5, 0.0, 1.0):
                for _ in range(3):
                    u = random_real_field(grid, rng)
                    sym = Symbol.from_field(
                        u, xi_profile=lambda xi, m=m: (1.0 + xi ** 2) ** (m / 2.0),
                        order_m=m)
                    sym = sym * (1.0 / seminorm(sym, order_m=m, n=0, k=0))
                    matrix = paraop.materialize(sym, cutoff)
                    for s in (-1.0, 0.0, 2.0):
                        worst = max(worst, matrix.operator_norm(s_out=s, s_in=s + m))
        assert worst <= CONTINUITY_K


class TestCutoffCompositionLaw:
    def test_product_sparsity_contained(self):
        grid = Grid(128)
        rng = np.random.default_rng(21)
        a = Symbol.from_field(random_real_field(grid, rng),
                              xi_profile=lambda xi: 1.0 + 0.03 * xi ** 2)
        b = Symbol.from_field(random_real_field(grid, rng),
                              xi_profile=lambda xi: np.exp(1j * xi / 11.0))
        for (b1, b2, little) in [(4.0, 4.0, 1.0), (8.0, 4.0, 2.0), (3.0, 8.0, 1.0)]:
            product = paraop.materialize(a, Cutoff(b1, little)).compose(
                paraop.materialize(b, Cutoff(b2, little)))
            combined = Cutoff(b1 * b2 / (b1 + b2 + 1.0), little)
            outside = paraop.pair_mask(grid, combined) == 0.0
            assert np.max(np.abs(product.entries[outside])) == 0.0


class TestDealias:
    def test_high_mode_junk_removed(self):
        grid = Grid(64)
        # modes at 15 and 17: raw product has mode 32 junk; 2/3 rule keeps |xi|<=21
        u = Field.from_physical(grid, np.cos(15 * grid.x))
        v = Field.from_physical(grid, np.cos(17 * grid.x))
        product = paraop.dealias_product(u, v)
        assert np.max(np.abs(product.spectral[np.abs(grid.freqs) > 21])) == 0.0
        assert abs(product.coefficient(2) - 0.25) < 1e-14

    def test_exact_on_low_band(self):
        grid = Grid(64)
        u = Field.from_physical(grid, np.cos(3 * grid.x))
        product = paraop.dealias_product(u, u)
        np.testing.assert_allclose(product.physical(), np.cos(3 * grid.x) ** 2,
                                   atol=1e-14)
