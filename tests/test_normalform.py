"""Resonance function, bilinear multipliers, and the normal-form transform."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paraburgers.errors import GridMismatch, NonFiniteMultiplier
from paraburgers.paraop import dealias_product
from paraburgers.spectral import Field, Grid, abs_d_pow, bessel_pow, l2_norm, \
    multiplier_apply, zygmund_norm
from paraburgers.symbols import Cutoff
from paraburgers import normalform

from helpers import dense_multilinear, random_real_field

# Ratio |Omega| / (|xi_min| |xi_max|^(alpha-1)) over 1 <= |xi_i| <= 32,
# xi1 + xi2 != 0, triple min/max.  Measured once; frozen a hair wide.
RESONANCE_BRACKETS = {
    1.25: (0.318, 0.829),
    1.5: (0.585, 1.315),
    1.75: (0.810, 1.658),
    2.0: (0.999, 1.940),
    2.5: (1.292, 2.439),
}
# sup |chi| over the lattice at s = 2, B = 8, b = 2; identical for
# N in {64, 128, 256} (the sup sits at fixed low modes), frozen ~2% up.
CHI_SUP = {
    1.25: 3.43,
    1.5: 0.35,
    1.75: 0.059,
    2.0: 0.0121,
    2.5: 0.00063,
}
# sup |delta chi| * |xi_i| over support neighbors, worse axis, same setup;
# stable across N in {128, 256}.
CHI_DIFF_SUP = {
    1.25: 37.8,
    1.5: 3.85,
    1.75: 0.66,
    2.0: 0.134,
    2.5: 0.007,
}
# ||w - v||_2 <= C ||u||_{C*} ||v||_2 over seeds 100..107, band 40,
# amplitude 0.05, N = 128; measured max 0.096 at alpha = 1.25.
NORMAL_FORM_L2_C = 0.12
# Norm equivalence constant for the same ensemble; measured max 1.001.
EQUIVALENCE_C = 1.01

ALPHAS = (1.25, 1.5, 1.75, 2.0, 2.5)


def unit_mode(grid, xi):
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    coeffs[grid.index_of(xi)] = 1.0
    return Field(grid, coeffs)


def dyadic_values(rng, shape):
    """Entries from a small dyadic set so float products stay exact."""
    return rng.choice([1.0, 0.5, -0.25, 2.0, -1.5, 0.0], size=shape)


class TestResonance:
    def test_second_argument_zero(self):
        for alpha in ALPHAS:
            for xi in (-17, -1, 0, 3, 40):
                assert normalform.resonance(alpha, xi, 0) == 0.0

    def test_opposite_pair_cancels_exactly(self):
        for alpha in ALPHAS:
            for xi in range(1, 50):
                assert normalform.resonance(alpha, xi, -xi) == 0.0

    def test_quadratic_case_closed_form(self):
        assert normalform.resonance(2.0, 1, 1) == 2.0
        for xi1 in range(1, 12):
            for xi2 in range(1, 12):
                value = normalform.resonance(2.0, xi1, xi2)
                assert value == pytest.approx(2.0 * xi1 * xi2, rel=1e-14)

    def test_array_matches_scalar(self):
        x1 = np.array([-5.0, 2.0, 9.0])
        x2 = np.array([3.0, 3.0, -4.0])
        out = normalform.resonance(1.5, x1, x2)
        for i in range(3):
            assert out[i] == normalform.resonance(1.5, x1[i], x2[i])

    def test_brackets_frozen(self):
        for alpha, (lo_ref, hi_ref) in RESONANCE_BRACKETS.items():
            lo, hi = normalform.resonance_bracket(alpha, 32)
            assert lo >= lo_ref, f"alpha={alpha}: low ratio {lo}"
            assert hi <= hi_ref, f"alpha={alpha}: high ratio {hi}"
            # the ellipticity margin dwarfs the division guard
            assert lo_ref > 1e6 * normalform.RESONANCE_FLOOR


class TestMultiplier2:
    def test_rejects_non_finite(self):
        grid = Grid(16)
        values = np.zeros((16, 16))
        values[3, 5] = np.inf
        with pytest.raises(NonFiniteMultiplier):
            normalform.Multiplier2(grid, values)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            normalform.Multiplier2(Grid(16), np.zeros((16, 8)))

    def test_values_frozen(self):
        table = normalform.Multiplier2(Grid(16), np.ones((16, 16)))
        with pytest.raises(ValueError):
            table.values[0, 0] = 2.0

    def test_support_mask(self):
        values = np.zeros((16, 16))
        values[2, 7] = 1.5
        table = normalform.Multiplier2(Grid(16), values)
        assert table.support().sum() == 1
        assert table.support()[2, 7]


class TestMultilinearApply:
    def test_grid_mismatch(self):
        chi = normalform.Multiplier2(Grid(16), np.ones((16, 16)))
        f = unit_mode(Grid(32), 1)
        with pytest.raises(GridMismatch):
            normalform.multilinear_apply(chi, f, f)

    def test_zero_multiplier(self):
        grid = Grid(32)
        rng = np.random.default_rng(0)
        chi = normalform.Multiplier2(grid, np.zeros((grid.n, grid.n)))
        f = random_real_field(grid, rng)
        out = normalform.multilinear_apply(chi, f, f)
        assert np.array_equal(out.spectral, np.zeros(grid.n))

    def test_identity_multiplier_matches_dealiased_product(self):
        grid = Grid(128)
        rng = np.random.default_rng(3)
        f = random_real_field(grid, rng, band=grid.n // 3)
        g = random_real_field(grid, rng, band=grid.n // 3)
        ones = normalform.Multiplier2(grid, np.ones((grid.n, grid.n)))
        direct = normalform.multilinear_apply(ones, f, g)
        ref = dealias_product(f, g)
        band = np.abs(grid.freqs) <= grid.n // 3
        assert np.max(np.abs(direct.spectral[band] - ref.spectral[band])) <= 1e-12
        assert np.max(np.abs(ref.spectral[~band])) == 0.0
        assert direct.is_real

    def test_single_modes_read_one_entry(self):
        grid = Grid(64)
        rng = np.random.default_rng(5)
        chi = normalform.Multiplier2(grid, rng.standard_normal((grid.n, grid.n)))
        out = normalform.multilinear_apply(chi, unit_mode(grid, 5), unit_mode(grid, 7))
        expected = chi.values[grid.index_of(5), grid.index_of(7)]
        assert out.coefficient(12) == expected
        assert np.count_nonzero(out.spectral) == 1

    def test_off_lattice_output_dropped(self):
        grid = Grid(64)
        chi = normalform.Multiplier2(grid, np.ones((grid.n, grid.n)))
        out = normalform.multilinear_apply(chi, unit_mode(grid, 25), unit_mode(grid, 20))
        assert np.count_nonzero(out.spectral) == 0

    def test_nyquist_sum_retained(self):
        grid = Grid(64)
        chi = normalform.Multiplier2(grid, np.ones((grid.n, grid.n)))
        out = normalform.multilinear_apply(chi, unit_mode(grid, -25), unit_mode(grid, -7))
        assert out.coefficient(-32) == 1.0

    def test_bilinear_exactly(self):
        grid = Grid(32)
        rng = np.random.default_rng(11)
        chi = normalform.Multiplier2(grid, dyadic_values(rng, (grid.n, grid.n)))
        f1 = Field(grid, dyadic_values(rng, grid.n) + 0.5j * dyadic_values(rng, grid.n))
        g1 = Field(grid, dyadic_values(rng, grid.n) + 0.5j * dyadic_values(rng, grid.n))
        f2 = Field(grid, dyadic_values(rng, grid.n) + 0.5j * dyadic_values(rng, grid.n))
        mixed = Field(grid, 2.0 * f1.spectral + 0.5 * g1.spectral)
        lhs = normalform.multilinear_apply(chi, mixed, f2)
        rhs = (
            2.0 * normalform.multilinear_apply(chi, f1, f2).spectral
            + 0.5 * normalform.multilinear_apply(chi, g1, f2).spectral
        )
        assert np.array_equal(lhs.spectral, rhs)


def _coefficient_stack(rng, shape, real):
    """Random coefficient rows of real fields (Hermitian, Nyquist zero)
    or of complex ones."""
    n = shape[-1]
    if real:
        coeffs = np.fft.fft(rng.standard_normal(shape), axis=-1) / n
        coeffs[..., n // 2] = 0.0
        return coeffs
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMultilinearCoeffs:
    """The cone-band row sum against the dense double sum."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 64).map(lambda half: 2 * half),
           table=st.sampled_from(["full", "chi1"]),
           s=st.sampled_from([0.0, 1.0, 2.0, 3.0]),
           alpha=st.sampled_from([1.25, 1.5, 1.75, 2.5]),
           cutoff=st.sampled_from([Cutoff(8.0, 2.0), Cutoff(2.0, 1.0)]),
           lead=st.sampled_from([(), (3,), (3, 2)]),
           real=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    # from 256 KiB on numpy elides a temporary operand of `*` and swaps a
    # complex product's factors: the dense sum's at N = 128, the stack's
    # at any N with enough rows
    @example(n=128, table="full", s=0.0, alpha=1.5, cutoff=Cutoff(8.0, 2.0),
             lead=(3, 2), real=False, seed=1)
    @example(n=64, table="full", s=0.0, alpha=1.5, cutoff=Cutoff(8.0, 2.0),
             lead=(3, 2), real=False, seed=2)
    def test_matches_the_dense_sum_bit_for_bit(self, n, table, s, alpha,
                                                cutoff, lead, real, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        if table == "full":
            # every entry nonzero, so every row is live
            values = rng.uniform(0.5, 1.5, (n, n)) * np.exp(
                2j * np.pi * rng.uniform(size=(n, n)))
            chi = normalform.Multiplier2(grid, values)
        else:
            chi = normalform.build_chi1(s, alpha, cutoff, grid)
        a = _coefficient_stack(rng, lead + (n,), real)
        b = _coefficient_stack(rng, lead + (n,), real)
        out = normalform.multilinear_coeffs(chi, a, b)
        assert out.shape == a.shape and out.dtype == np.complex128
        for index in np.ndindex(*lead):
            assert (out[index].tobytes()
                    == dense_multilinear(chi, a[index], b[index]).tobytes())

    @pytest.mark.parametrize("n, live", [(64, 6), (128, 14), (16, 0)])
    def test_chi1_has_only_its_cone_rows(self, n, live):
        # chi1 of Cutoff(8, 2) needs |xi2| > 8 |xi1| + 2 <= N/2
        grid = Grid(n)
        chi1 = normalform.build_chi1(2.0, 1.5, Cutoff(8.0, 2.0), grid)
        rows = chi1._band_rows
        assert len(rows) == live
        assert np.all(np.abs(grid.freqs[rows]) <= (n // 2 - 3) // 8)
        assert not np.any(np.delete(chi1.values, rows, axis=0))
        for table in (rows, chi1._band_cols, chi1._band_entries):
            assert not table.flags.writeable

    def test_field_wrappers_share_the_row_sum(self):
        grid = Grid(64)
        rng = np.random.default_rng(17)
        cutoff = Cutoff(8.0, 2.0)
        u = random_real_field(grid, rng, amplitude=0.1)
        v = multiplier_apply(u, bessel_pow(2.0))
        chi1 = normalform.build_chi1(2.0, 1.5, cutoff, grid)
        smoothed = multiplier_apply(v, abs_d_pow(1.0 - 1.5))
        pi = normalform.multilinear_apply(chi1, u, smoothed)
        assert pi.spectral.tobytes() == dense_multilinear(
            chi1, u.spectral, smoothed.spectral).tobytes()
        w = normalform.normal_form(u, v, 2.0, 1.5, cutoff)
        assert w.is_real
        assert w.spectral.tobytes() == (v.spectral + pi.spectral).tobytes()


class TestBuildChi:
    CUTOFF = Cutoff(8.0, 2.0)

    def test_requires_dispersion(self):
        with pytest.raises(ValueError):
            normalform.build_chi(2.0, 1.0, self.CUTOFF, Grid(32))

    def test_cache_returns_same_object(self):
        first = normalform.build_chi(2.0, 1.5, self.CUTOFF, Grid(64))
        second = normalform.build_chi(2.0, 1.5, self.CUTOFF, Grid(64))
        assert first is second
        assert normalform.build_chi1(2.0, 1.5, self.CUTOFF, Grid(64)) is \
            normalform.build_chi1(2.0, 1.5, self.CUTOFF, Grid(64))

    def test_zero_off_support_and_on_zero_line(self):
        grid = Grid(64)
        chi = normalform.build_chi(2.0, 1.5, self.CUTOFF, grid)
        x1 = grid.freqs[:, None].astype(float)
        x2 = grid.freqs[None, :].astype(float)
        off = (self.CUTOFF(x1, x2) == 0.0) | (x1 == 0.0)
        assert np.max(np.abs(chi.values[off])) == 0.0
        # the paraproduct region is genuinely populated
        assert chi.support().sum() > 100

    def test_even_symmetry_preserves_realness(self):
        grid = Grid(64)
        rng = np.random.default_rng(2)
        u = random_real_field(grid, rng, amplitude=0.1)
        chi = normalform.build_chi(2.0, 1.75, self.CUTOFF, grid)
        out = normalform.multilinear_apply(chi, u, u)
        assert out.is_real
        assert np.max(np.abs(np.imag(out.physical()))) == 0.0

    def test_sup_frozen_and_grid_independent(self):
        for alpha, cap in CHI_SUP.items():
            sups = []
            for n in (64, 128):
                chi = normalform.build_chi(2.0, alpha, self.CUTOFF, Grid(n))
                sups.append(float(np.max(np.abs(chi.values))))
            assert sups[1] <= cap, f"alpha={alpha}: sup {sups[1]}"
            assert sups[0] == pytest.approx(sups[1], rel=1e-12)

    def test_difference_bound_frozen(self):
        grid = Grid(128)
        order = np.argsort(grid.freqs)
        xi = np.sort(grid.freqs.astype(np.float64))
        for alpha, cap in CHI_DIFF_SUP.items():
            chi = normalform.build_chi(2.0, alpha, self.CUTOFF, grid)
            table = chi.values.real[np.ix_(order, order)]
            live = table != 0
            worst = 0.0
            for axis in (0, 1):
                step = np.diff(table, axis=axis)
                if axis == 0:
                    near = live[:-1, :] | live[1:, :]
                    weight = np.abs(xi)[:-1, None]
                else:
                    near = live[:, :-1] | live[:, 1:]
                    weight = np.abs(xi)[None, :-1]
                worst = max(worst, float(np.max(np.abs(step) * weight * near)))
            assert worst <= cap, f"alpha={alpha}: difference sup {worst}"

    def test_chi1_identity(self):
        # Pi_chi1(u, |D|^(1-alpha) v) must coincide with Pi_chi(v, v)
        # when v = <D>^s u; this pins the absorbed weights.
        grid = Grid(128)
        rng = np.random.default_rng(7)
        u = random_real_field(grid, rng, band=40, amplitude=0.01)
        for alpha in (1.5, 2.5):
            for s in (2.0, 3.0):
                v = multiplier_apply(u, bessel_pow(s))
                chi = normalform.build_chi(s, alpha, self.CUTOFF, grid)
                reference = normalform.multilinear_apply(chi, v, v)
                chi1 = normalform.build_chi1(s, alpha, self.CUTOFF, grid)
                smoothed = multiplier_apply(v, abs_d_pow(1.0 - alpha))
                rewritten = normalform.multilinear_apply(chi1, u, smoothed)
                scale = np.max(np.abs(reference.spectral))
                assert scale > 0
                assert np.max(np.abs(rewritten.spectral - reference.spectral)) \
                    <= 1e-12 * scale


class TestNormalForm:
    CUTOFF = Cutoff(8.0, 2.0)

    def test_zero_u_is_identity(self):
        grid = Grid(64)
        rng = np.random.default_rng(1)
        v = random_real_field(grid, rng)
        zero = Field(grid, np.zeros(grid.n), is_real=True)
        w = normalform.normal_form(zero, v, 2.0, 1.5, self.CUTOFF)
        assert np.array_equal(w.spectral, v.spectral)

    def test_correction_linear_in_u(self):
        grid = Grid(128)
        rng = np.random.default_rng(4)
        u = random_real_field(grid, rng, band=30, amplitude=0.02)
        v = multiplier_apply(u, bessel_pow(2.0))
        base = normalform.normal_form(u, v, 2.0, 1.5, self.CUTOFF) - v
        halved = normalform.normal_form(u * 0.5, v, 2.0, 1.5, self.CUTOFF) - v
        tripled = normalform.normal_form(u * 3.0, v, 2.0, 1.5, self.CUTOFF) - v
        # subtracting v back rounds each coefficient at v's ulp
        slack = 5e-16 * np.max(np.abs(v.spectral))
        np.testing.assert_allclose(
            halved.spectral, 0.5 * base.spectral, rtol=0, atol=slack
        )
        np.testing.assert_allclose(
            tripled.spectral, 3.0 * base.spectral, rtol=0, atol=4 * slack
        )

    def test_l2_estimate_calibrated(self):
        grid = Grid(128)
        for alpha in (1.25, 1.5, 1.75):
            hold = max(0.0, 1.5 - alpha)
            for seed in range(100, 108):
                rng = np.random.default_rng(seed)
                u = random_real_field(grid, rng, band=40, amplitude=0.05)
                v = multiplier_apply(u, bessel_pow(2.0))
                w = normalform.normal_form(u, v, 2.0, alpha, self.CUTOFF)
                bound = NORMAL_FORM_L2_C * zygmund_norm(u, hold) * l2_norm(v)
                assert l2_norm(w - v) <= bound

    def test_equivalence_constant_small_data(self):
        grid = Grid(128)
        for alpha in (1.25, 1.5, 1.75):
            for seed in range(100, 108):
                rng = np.random.default_rng(seed)
                u = random_real_field(grid, rng, band=40, amplitude=0.05)
                v = multiplier_apply(u, bessel_pow(2.0))
                c = normalform.equivalence_constant(u, v, 2.0, alpha, self.CUTOFF)
                assert 1.0 <= c <= EQUIVALENCE_C

    def test_equivalence_constant_degenerate_v(self):
        grid = Grid(32)
        zero = Field(grid, np.zeros(grid.n), is_real=True)
        assert normalform.equivalence_constant(
            zero, zero, 2.0, 1.5, self.CUTOFF) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(8, 32).map(lambda half: 2 * half),
           alpha=st.floats(1.1, 1.9),
           s=st.sampled_from([0.0, 1.0, 2.0]),
           cutoff=st.sampled_from([Cutoff(8.0, 2.0), Cutoff(2.0, 1.0)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_real_fields_stay_real(self, n, alpha, s, cutoff, seed):
        grid = Grid(n)
        rng = np.random.default_rng(seed)
        u = random_real_field(grid, rng, amplitude=0.1)
        v = random_real_field(grid, rng)
        w = normalform.normal_form(u, v, s, alpha, cutoff)
        assert w.is_real
        pos = w.spectral[1:n // 2]
        neg = w.spectral[-1:-(n // 2):-1]
        defect = max(abs(w.spectral[0].imag),
                     float(np.max(np.abs(neg - np.conj(pos)))))
        assert defect <= 1e-12 * float(np.max(np.abs(w.spectral)))
