"""Operator materialization, the cone-band paraproduct, and order
probes."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraburgers.errors import DegenerateProbe, GridMismatch, InvariantBroken
from paraburgers.solver import initial_field
from paraburgers.spectral import Grid, Field, abs_d_pow, multiplier_values
from paraburgers.symbols import Cutoff, Symbol, regularize, seminorm
from paraburgers import paraop

from helpers import band_rows, operator_band_of, random_real_field

# Calibrated with seeds below on N in {64, 128, 256}; regression bound.
CONTINUITY_K = 0.36


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
        with pytest.raises(InvariantBroken, match="coefficients nonzero "
                                                  "where"):
            paraop.materialize(fake, cutoff)

    def test_band_pairs_read_the_symbol_back(self):
        grid = Grid(64)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(7)
        sym = Symbol.from_field(random_real_field(grid, rng))
        # keep xi + eta on the lattice: columns up to 21 shift at most to 31
        low = np.abs(grid.freqs) <= 21
        sym = regularize(sym.copy(coeffs=sym.coeffs * low[None, :]), cutoff)
        entries = paraop.materialize(sym, cutoff).entries
        rows = len(band_rows(grid, cutoff))
        table = paraop._band_layout(grid.n, rows // 2)
        band = np.zeros(rows * grid.n, dtype=np.complex128)
        band[table.slots] = entries.reshape(-1)[table.pairs]
        back = paraop.from_band(band.reshape(-1, grid.n), grid, cutoff)
        np.testing.assert_allclose(back, sym.coeffs, atol=1e-14)


BAND_CUTOFFS = [Cutoff(8.0, 2.0), Cutoff(2.0, 1.0), Cutoff(3.5, 1.5)]


class TestBandLayout:
    """The (..., 2 reach + 1, N) band layout of the gauge's symbol stacks,
    checked against the row formula `helpers.band_rows` writes out."""

    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(4, 128), cutoff=st.sampled_from(BAND_CUTOFFS),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trips(self, half, cutoff, seed):
        grid = Grid(2 * half)
        rows = band_rows(grid, cutoff)
        off = np.setdiff1d(np.arange(grid.n), rows)
        rng = np.random.default_rng(seed)
        shape = (2, len(rows), grid.n)
        band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = paraop.from_band(band, grid, cutoff)
        assert full.shape == (2, grid.n, grid.n)
        assert paraop.to_band(full, grid, cutoff).tobytes() == band.tobytes()
        zeros = full[:, off]
        assert np.all(zeros == 0.0)
        assert not np.any(np.signbit(zeros.real) | np.signbit(zeros.imag))
        # the cutoff support lies in the band, so N x N -> band -> N x N
        # keeps a regularized symbol
        square = rng.standard_normal((grid.n, grid.n)) + 0.5j
        sym = regularize(Symbol(grid, square), cutoff)
        assert not np.any(sym.coeffs[off])
        cut = paraop.to_band(sym.coeffs, grid, cutoff)
        assert cut.tobytes() == sym.coeffs[rows].tobytes()
        np.testing.assert_array_equal(paraop.from_band(cut, grid, cutoff),
                                      sym.coeffs)

    @pytest.mark.parametrize("n", [8, 32, 64, 256])
    @pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
    def test_gather_is_materialize(self, n, cutoff):
        # equal as values; off the band the gather writes +0.0 where the
        # dense entries may carry the -0.0 of psi = 0 times a negative
        grid = Grid(n)
        rng = np.random.default_rng(n)
        symbols = [
            regularize(Symbol.from_field(random_real_field(grid, rng)), cutoff),
            regularize(Symbol(grid, rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n))), cutoff),
        ]
        stack = paraop.to_band(np.stack([s.coeffs for s in symbols]), grid,
                               cutoff)
        placed = paraop.gather_band(stack, grid, cutoff)
        for sym, entries in zip(symbols, placed):
            np.testing.assert_array_equal(
                entries, paraop.materialize(sym, cutoff).entries)
            np.testing.assert_array_equal(
                paraop.gather_band(paraop.to_band(sym.coeffs, grid, cutoff),
                                   grid, cutoff), entries)

    def test_gather_rejects_entries_where_psi_vanishes(self):
        grid, cutoff = Grid(32), Cutoff(8.0, 2.0)
        band = np.zeros((len(band_rows(grid, cutoff)), grid.n),
                        dtype=np.complex128)
        band[0, 0] = 1.0  # eta = reach, xi = 0: psi is zero there
        with pytest.raises(InvariantBroken, match="pair mask"):
            paraop.gather_band(band, grid, cutoff)


def random_operator_band(rng, lead, n, half_width):
    """Random complex operator bands, +0.0 where xi + eta leaves the
    lattice, as `helpers.operator_band_of` cuts them from random
    matrices."""
    shape = (*lead, n, n)
    dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return operator_band_of(dense, half_width)


def assert_no_negative_zero(values):
    zeros = values[values == 0.0]
    assert not np.any(np.signbit(zeros.real) | np.signbit(zeros.imag))


class TestOperatorBand:
    """The (..., 2H + 1, N) operator band: row H - eta, column xi holds the
    entry (xi + eta, xi), against the dense matrices it stands for."""

    @settings(max_examples=60, deadline=None)
    @given(half=st.integers(4, 64), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_placement_round_trips(self, half, data, seed):
        n = 2 * half
        h = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        band = random_operator_band(rng, (2,), n, h)
        placed = paraop.place_band(band)
        assert placed.shape == (2, n, n)
        assert operator_band_of(placed, h).tobytes() == band.tobytes()
        # N x N -> band -> N x N keeps exactly the entries within H of the
        # diagonal, and writes +0.0 elsewhere
        dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        freqs = np.concatenate((np.arange(half), np.arange(-half, 0)))
        near = np.abs(freqs[:, None] - freqs[None, :]) <= h
        again = paraop.place_band(operator_band_of(dense, h))
        assert again.tobytes() == np.where(near, dense, 0.0).tobytes()
        assert_no_negative_zero(again)

    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(4, 64), data=st.data(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_band_product_is_the_matrix_product(self, half, data, seed):
        n = 2 * half
        ha = data.draw(st.integers(0, n - 1), label="H_A")
        hb = data.draw(st.integers(0, n - 1), label="H_B")
        rng = np.random.default_rng(seed)
        a = random_operator_band(rng, (2,), n, ha)
        b = random_operator_band(rng, (2,), n, hb)
        product = paraop.band_product(a, b)
        assert product.shape == (2, 2 * min(ha + hb, n - 1) + 1, n)
        dense_a, dense_b = paraop.place_band(a), paraop.place_band(b)
        reference = dense_a @ dense_b
        size = np.abs(dense_a) @ np.abs(dense_b)
        gap = np.abs(paraop.place_band(product) - reference)
        assert np.all(gap <= 4 * n * np.finfo(float).eps * size)
        # the product is itself an operator band: +0.0 off the lattice
        off = product[:, ~paraop._band_layout(n, product.shape[-2] // 2).valid]
        assert not np.any(off)
        assert_no_negative_zero(off)
        # leading axes broadcast, one member at a time
        lone = paraop.band_product(a[1], b[1])
        assert lone.tobytes() == product[1].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(4, 64), data=st.data(),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_band_adjoint_is_the_conjugate_transpose(self, half, data, lead,
                                                     seed):
        n = 2 * half
        h = data.draw(st.integers(0, n - 1), label="H")
        band = random_operator_band(np.random.default_rng(seed), lead, n, h)
        adjoint = paraop.band_adjoint(band)
        assert adjoint.shape == band.shape
        reference = np.conj(np.swapaxes(paraop.place_band(band), -1, -2))
        np.testing.assert_array_equal(paraop.place_band(adjoint), reference)
        np.testing.assert_array_equal(adjoint,
                                      operator_band_of(reference, h))
        off = adjoint[..., ~paraop._band_layout(n, h).valid]
        assert not np.any(off)
        assert_no_negative_zero(off)
        np.testing.assert_array_equal(paraop.band_adjoint(adjoint), band)

    @pytest.mark.parametrize("n,h", [(8, 0), (8, 7), (32, 3), (64, 13),
                                     (64, 63)])
    def test_band_apply_is_the_matrix_vector_product(self, n, h):
        rng = np.random.default_rng(n + h)
        band = random_operator_band(rng, (3,), n, h)
        v = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        out = paraop.band_apply(band, v)
        assert out.flags.c_contiguous
        dense = paraop.place_band(band)
        reference = np.einsum("tij,tj->ti", dense, v)
        size = np.einsum("tij,tj->ti", np.abs(dense), np.abs(v))
        assert np.all(np.abs(out - reference)
                      <= 4 * n * np.finfo(float).eps * size)

    def test_resize_band_pads_and_crops_around_eta_zero(self):
        rng = np.random.default_rng(5)
        band = random_operator_band(rng, (2,), 16, 3)
        wide = paraop.resize_band(band, 6)
        assert wide.shape == (2, 13, 16)
        assert paraop.place_band(wide).tobytes() \
            == paraop.place_band(band).tobytes()
        assert paraop.resize_band(wide, 3).tobytes() == band.tobytes()


class TestApply:
    """T_a u for a field symbol a, which `paraop.paraproduct(a, u, c)`
    computes on the cone band."""

    def test_mean_killed(self):
        grid = Grid(32)
        cutoff = Cutoff(8.0, 2.0)
        one = Field.from_physical(grid, np.ones(grid.n))
        out = paraop.paraproduct(one, one, cutoff)
        assert np.max(np.abs(out.spectral)) == 0.0

    def test_cos_on_cos_all_modes_fail_cutoff(self):
        grid = Grid(32)
        cutoff = Cutoff(2.0, 1.0)
        coeffs = np.zeros(grid.n, dtype=np.complex128)
        coeffs[grid.index_of(1)] = 0.5
        coeffs[grid.index_of(-1)] = 0.5
        u = Field(grid, coeffs, is_real=True)
        out = paraop.paraproduct(u, u, cutoff)
        assert np.max(np.abs(out.spectral)) == 0.0

    def test_real_in_real_out(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(11)
        a = random_real_field(grid, rng)
        u = random_real_field(grid, rng)
        out = paraop.paraproduct(a, u, cutoff)
        assert np.max(np.abs(out.physical().imag)) < 1e-12

    def test_complex_field_rejected(self):
        grid = Grid(32)
        real = Field.from_physical(grid, np.cos(grid.x))
        wave = Field.from_physical(grid, np.exp(1j * grid.x))
        for u, v in ((wave, real), (real, wave)):
            with pytest.raises(ValueError, match="real fields only"):
                paraop.paraproduct(u, v, Cutoff(2.0, 1.0))

    def test_grid_mismatch(self):
        cutoff = Cutoff(8.0, 2.0)
        a = Field.from_physical(Grid(32), np.ones(32))
        u = Field.from_physical(Grid(64), np.ones(64))
        with pytest.raises(GridMismatch):
            paraop.paraproduct(a, u, cutoff)

    def test_unregularized_symbol_marked_regularized_raises(self):
        # materialize refuses this symbol instead of silently using its
        # unmasked coefficients; the paraproduct takes the field and
        # applies psi itself, matching the properly regularized symbol
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        u = initial_field(grid, "random", 1.0)
        sym = Symbol.from_field(u)
        fake = sym.copy(cutoff=cutoff)
        with pytest.raises(InvariantBroken, match="coefficients nonzero "
                                                  "where"):
            paraop.materialize(fake, cutoff)
        dense = paraop.materialize(regularize(sym, cutoff), cutoff).apply(u)
        _assert_close(paraop.paraproduct(u, u, cutoff).spectral,
                      _real_convention(grid, dense.spectral))

    @pytest.mark.parametrize("seed", range(50))
    def test_fast_path_agrees_with_dense(self, seed):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(1000 + seed)
        a = random_real_field(grid, rng)
        u = random_real_field(grid, rng)
        dense = paraop.materialize(Symbol.from_field(a), cutoff).apply(u).spectral
        fast = paraop.paraproduct(a, u, cutoff).spectral
        scale = max(np.max(np.abs(dense)), 1e-30)
        assert np.max(np.abs(dense - fast)) / scale < 1e-10


def _fractional(b1, b2, s1, s2):
    """Cutoff(B'', b'') with the fractional B'' = B B' / (B + B' + 1) and
    b'' = min(b, b'), which is > 1 when B, B' >= 3."""
    return Cutoff(b1 * b2 / (b1 + b2 + 1), min(s1, s2))


def _cutoffs():
    integer = st.builds(Cutoff, st.integers(2, 10), st.integers(1, 4))
    fractional = st.builds(_fractional, st.integers(3, 10), st.integers(3, 10),
                           st.integers(1, 4), st.integers(1, 4))
    return st.one_of(integer, fractional)


def _assert_close(out, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(out - reference)) <= 1e-12 * scale


def _real_convention(grid, coeffs):
    """The coefficients with the Nyquist mode zeroed: the convention every
    real field keeps, and so T_u v of real u and v."""
    out = coeffs.copy()
    out[grid.index_of(grid.nyquist)] = 0.0
    return out


CONE_CASES = dict(
    n=st.integers(4, 128).map(lambda half: 2 * half),
    cutoff=_cutoffs(),
    seed=st.integers(0, 2 ** 32 - 1),
)


class TestConeBand:
    """The cone-band apply against the dense reference matrix."""

    @settings(max_examples=60, deadline=None)
    @given(**CONE_CASES)
    def test_paraproduct_matches_dense(self, n, cutoff, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        dense = paraop.materialize(Symbol.from_field(u), cutoff).apply(v)
        out = paraop.paraproduct(u, v, cutoff)
        assert out.is_real
        _assert_close(out.spectral, _real_convention(grid, dense.spectral))

    @settings(max_examples=40, deadline=None)
    @given(**CONE_CASES)
    def test_exact_zeros(self, n, cutoff, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        constant = Field(grid, np.eye(grid.n)[0] * rng.standard_normal(),
                         is_real=True)
        assert not np.any(paraop.paraproduct(u, constant, cutoff).spectral)
        assert not np.any(paraop.paraproduct(constant, constant,
                                             cutoff).spectral)
        # output modes satisfy |m| > b: the lowest ones are never reached
        low = np.abs(grid.freqs) <= np.floor(cutoff.little_b)
        assert not np.any(paraop.paraproduct(u, v, cutoff).spectral[low])


# reach = floor((N/2 - b) / B) at its two ends: 0 on the smallest grid with
# b = N/2, and 98 at the top of CONE_CASES (N = 256, B = 3*3/7, b = 1)
WINDOW_CORNERS = [(8, Cutoff(2, 4), 0), (256, _fractional(3, 3, 1, 1), 98)]


class TestWindowTable:
    """The cached window table of the paraproduct."""

    @pytest.mark.parametrize("n, cutoff, reach", WINDOW_CORNERS)
    def test_tables_are_read_only(self, n, cutoff, reach):
        band = paraop._cone_band(Grid(n), cutoff)
        assert band.reach == reach
        assert band.weights.shape == (n, 2 * reach + 1)
        assert band.rows.shape == (2 * reach + 1,)
        assert band.weights.dtype == np.complex128
        for table in (band.rows, band.weights):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0

    def test_caches_stay_bounded(self):
        rng = np.random.default_rng(8)
        for k in range(3 * paraop._cone_band.cache_info().maxsize):
            grid, cutoff = Grid(8 + 2 * k), Cutoff(2 + k % 3, 1 + k % 2)
            u, v = random_real_field(grid, rng), random_real_field(grid, rng)
            paraop.paraproduct(u, v, cutoff)
            info = paraop._cone_band.cache_info()
            assert info.currsize <= info.maxsize

    @pytest.mark.parametrize("n, cutoff, reach", WINDOW_CORNERS)
    def test_corners_keep_exact_zeros(self, n, cutoff, reach):
        grid = Grid(n)
        rng = np.random.default_rng(n + reach)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        low = np.abs(grid.freqs) <= np.floor(cutoff.little_b)
        out = paraop.paraproduct(u, v, cutoff).spectral
        assert not np.any(out[low])
        sym = Symbol.from_field(u)
        for symbol in (sym, regularize(sym, cutoff)):
            dense = paraop.materialize(symbol, cutoff).apply(v).spectral
            reference = _real_convention(grid, dense)
            assert np.max(np.abs(out - reference)) <= 1e-12 * max(
                np.max(np.abs(reference)), 1e-300)


# the solver's paralinear grid and cutoff, then the window corners
HALF_LATTICE_CASES = [(512, Cutoff(8, 2))] + [(n, c) for n, c, _ in
                                               WINDOW_CORNERS]


class TestHalfLattice:
    """The paraproduct sums only the output modes xi <= 0 and conjugates
    the rest."""

    @pytest.mark.parametrize("n, cutoff", HALF_LATTICE_CASES)
    def test_real_output_is_exactly_hermitian(self, n, cutoff):
        grid = Grid(n)
        rng = np.random.default_rng(n)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        out = paraop.paraproduct(u, v, cutoff).spectral
        half = n // 2
        assert (out[1:half].tobytes()
                == np.conj(out[:half:-1]).tobytes())
        assert out[0].imag == 0.0

    @pytest.mark.parametrize("n, cutoff", HALF_LATTICE_CASES)
    def test_coeffs_are_the_field_wrapper(self, n, cutoff):
        grid = Grid(n)
        rng = np.random.default_rng(n + 1)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        coeffs = paraop.paraproduct_coeffs(grid, u.spectral, v.spectral,
                                           cutoff)
        assert coeffs.tobytes() == paraop.paraproduct(
            u, v, cutoff).spectral.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=CONE_CASES["n"], cutoff=CONE_CASES["cutoff"],
           seed=CONE_CASES["seed"])
    def test_half_sum_matches_full_sum(self, n, cutoff, seed):
        # the full sum is the dense matrix's product over every output mode
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        half = paraop.paraproduct_coeffs(grid, u.spectral, v.spectral, cutoff)
        full = paraop.materialize(Symbol.from_field(u), cutoff).apply(v)
        assert half[grid.index_of(grid.nyquist)] == 0.0
        _assert_close(half, _real_convention(grid, full.spectral))

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("cutoff", [Cutoff(8, 2), Cutoff(2.5, 1.3),
                                        _fractional(3, 3, 1, 1)])
    def test_complex_table_gives_the_float_products(self, n, cutoff,
                                                     monkeypatch):
        # numpy casts a float table to complex inside the products, so
        # storing it complex changes no bit of the paraproduct
        grid = Grid(n)
        rng = np.random.default_rng(n + 2)
        u, v = random_real_field(grid, rng), random_real_field(grid, rng)
        band = paraop._cone_band(grid, cutoff)
        stored = paraop.paraproduct_coeffs(grid, u.spectral, v.spectral,
                                           cutoff)
        floats = dataclasses.replace(band, weights=band.weights.real.copy())
        monkeypatch.setattr(paraop, "_cone_band", lambda *_: floats)
        assert stored.tobytes() == paraop.paraproduct_coeffs(
            grid, u.spectral, v.spectral, cutoff).tobytes()


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
        out = paraop.materialize(sym, cutoff).apply(u)
        bound = (1.0 + 1.0 / big_b) * radius - little_b / big_b
        bad = np.abs(grid.freqs) > bound
        assert np.max(np.abs(out.spectral[bad])) == 0.0


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

def sobolev_operator_norm(grid, entries, s_out, s_in):
    """L2 operator norm of a dense matrix between Sobolev spaces
    H^{s_in} -> H^{s_out}."""
    xi = grid.freqs.astype(np.float64)
    w_out = (1.0 + xi ** 2) ** (s_out / 2.0)
    w_in = (1.0 + xi ** 2) ** (-s_in / 2.0)
    return float(np.linalg.norm(w_out[:, None] * entries * w_in[None, :], 2))


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
                    sym = sym * (1.0 / seminorm(sym, order_m=m))
                    entries = paraop.materialize(sym, cutoff).entries
                    for s in (-1.0, 0.0, 2.0):
                        worst = max(worst, sobolev_operator_norm(
                            grid, entries, s_out=s, s_in=s + m))
        assert worst <= CONTINUITY_K


class TestDealias:
    def test_high_mode_junk_removed(self):
        grid = Grid(64)
        # modes at 15 and 17: raw product has mode 32 junk; 2/3 rule keeps |xi|<=21
        u = Field.from_physical(grid, np.cos(15 * grid.x))
        v = Field.from_physical(grid, np.cos(17 * grid.x))
        product = paraop.dealias_product(u, v)
        assert np.max(np.abs(product.spectral[np.abs(grid.freqs) > 21])) == 0.0
        assert abs(product.coefficient(2) - 0.25) < 1e-14

    def test_complex_field_rejected(self):
        grid = Grid(32)
        real = Field.from_physical(grid, np.cos(grid.x))
        wave = Field.from_physical(grid, np.exp(1j * grid.x))
        for u, v in ((wave, real), (real, wave)):
            with pytest.raises(ValueError, match="real fields only"):
                paraop.dealias_product(u, v)

    def test_exact_on_low_band(self):
        grid = Grid(64)
        u = Field.from_physical(grid, np.cos(3 * grid.x))
        product = paraop.dealias_product(u, u)
        np.testing.assert_allclose(product.physical(), np.cos(3 * grid.x) ** 2,
                                   atol=1e-14)
