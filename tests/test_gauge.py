"""Commutator-equation solves: the explicit division, its time-correction
ladder, and the Newton solves of the exponential problems."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from paraburgers.errors import (
    InvariantBroken,
    NanDetected,
    NewtonDiverged,
    SmallDivisor,
    SmallnessViolated,
    TamenessViolated,
)
from paraburgers.solver import run
from paraburgers.spectral import Grid, Field
from paraburgers.symbols import Cutoff, Symbol, regularize, seminorm, \
    transport_symbol, x_derivative
from paraburgers import experiments, gauge, normalform, paraop, symbols

from helpers import band_rows, band_symbol, lattice_commutator, \
    operator_band_of, pair_denominator, random_real_field

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "paraburgers"

# Measured at B = 8 over N in {64, 128, 256, 512}; frozen ~3% wide.
ELLIPTICITY_BRACKETS = {
    1.25: (1.19, 1.29),
    1.5: (1.40, 1.54),
    1.75: (1.61, 1.80),
    2.0: (1.81, 2.06),
    2.5: (2.19, 2.57),
}
# Slack constant in the converged transport bound; measured margins are wide.
NONLINEAR_C = 3.0


def single_row_symbol(grid, eta, profile):
    coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    coeffs[grid.index_of(eta)] = profile
    return Symbol(grid, coeffs, order_m=0.0)


def harmonic_trajectory(a0, omega, dt, count=9):
    return [a0 * np.exp(1j * omega * i * dt) for i in range(count)]


def dispersion(alpha, xi):
    return np.sign(xi) * np.abs(xi) ** alpha


def lattice_window(grid, eta):
    xi = grid.freqs
    return (xi + eta >= -grid.n // 2) & (xi + eta <= grid.n // 2 - 1)


class TestSolveCommutatorExplicit:
    def test_zero_data_zero_solution(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        sol = gauge.solve_commutator(a, 1.5)
        assert np.all(sol.p.coeffs == 0.0)
        assert sol.residual_norm == 0.0

    def test_single_mode_division(self):
        # a = e^{i3x} g(xi): p picks up psi g / (i(f(xi) - f(xi+3)))
        grid = Grid(64)
        cutoff = Cutoff(2.0, 1.0)
        alpha = 1.75
        xi = grid.freqs.astype(np.float64)
        profile = 1.0 / (1.0 + np.abs(xi))
        sol = gauge.solve_commutator(single_row_symbol(grid, 3, profile),
                                     alpha, cutoff)
        den = 1j * (dispersion(alpha, xi) - dispersion(alpha, xi + 3.0))
        psi = cutoff(np.full(grid.n, 3.0), xi)
        keep = (psi > 0.0) & lattice_window(grid, 3)
        expected = np.where(keep, psi * profile / np.where(keep, den, 1.0), 0.0)
        np.testing.assert_allclose(sol.p.coeffs[grid.index_of(3)], expected,
                                   atol=1e-15)
        others = np.delete(sol.p.coeffs, grid.index_of(3), axis=0)
        assert np.all(others == 0.0)

    def test_alpha_one_is_antiderivative(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(41)
        a = band_symbol(grid, cutoff, rng)
        sol = gauge.solve_commutator(a, 1.0, cutoff)
        a_reg = regularize(a, cutoff)
        eta = grid.freqs.astype(np.float64)[:, None]
        keep = (a_reg.coeffs != 0.0) & (eta != 0)
        keep &= np.stack([lattice_window(grid, int(e)) for e in grid.freqs])
        expected = np.where(keep, -a_reg.coeffs / np.where(keep, 1j * eta, 1.0), 0.0)
        np.testing.assert_array_equal(sol.p.coeffs, expected)

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
    def test_defining_equation_on_support(self, alpha):
        grid = Grid(128)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(7)
        a = band_symbol(grid, cutoff, rng)
        sol = gauge.solve_commutator(a, alpha, cutoff)
        assert sol.residual_norm < 1e-12
        assert sol.iterations == 1

    def test_unmasked_entry_off_the_band_is_rejected(self):
        # a symbol marked regularized whose entry at eta = 20 (off the band
        # |eta| <= 3) was never masked: `regularize` refuses it before any
        # solve reads it, also at a slot whose output xi + eta leaves the
        # lattice (xi = 20), which no matrix holds
        grid, cutoff = Grid(64), Cutoff(8.0, 2.0)
        a_reg = regularize(band_symbol(grid, cutoff,
                                       np.random.default_rng(7)), cutoff)
        gauge.solve_commutator(a_reg, 1.5, cutoff)
        for xi in (5, 20):
            coeffs = a_reg.coeffs.copy()
            coeffs[grid.index_of(20), grid.index_of(xi)] = 0.5
            with pytest.raises(InvariantBroken,
                               match="1 coefficients nonzero where"):
                gauge.solve_commutator(a_reg.copy(coeffs=coeffs), 1.5, cutoff)

    def test_mean_row_lands_in_residual(self):
        # eta = 0 data is in the kernel's cokernel: reported, not absorbed
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        profile = np.where(np.abs(grid.freqs) >= 3, 0.25, 0.0)
        a = single_row_symbol(grid, 0, profile)
        sol = gauge.solve_commutator(a, 1.5, cutoff)
        assert np.all(sol.p.coeffs == 0.0)
        assert sol.residual_norm == pytest.approx(0.25)

    def test_transport_estimate_certified(self):
        grid = Grid(128)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(19)
        for alpha in (1.1, 1.5, 2.5):
            sol = gauge.solve_commutator(band_symbol(grid, cutoff, rng),
                                         alpha, cutoff)
            est = sol.extras["estimates"]
            assert est["transport_lhs"] <= est["transport_rhs"] * (1 + 1e-12)
            assert est["xi_lhs"] <= est["xi_rhs"] * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["transport", "xi"])
    def test_broken_estimate_is_an_error(self, monkeypatch, name):
        # a raised error, not an assert, so it also holds under python -O
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        a = band_symbol(grid, cutoff, np.random.default_rng(19))
        certified = gauge.commutator_estimates

        def broken(*args):
            est = dict(certified(*args))
            est[f"{name}_lhs"] = 2.0 * est[f"{name}_rhs"]
            return est

        monkeypatch.setattr(gauge, "commutator_estimates", broken)
        with pytest.raises(InvariantBroken, match=f"{name} estimate"):
            gauge.solve_commutator(a, 1.5, cutoff)

    def test_alpha_one_estimate_is_equality(self):
        # B [1 - (1-1/B)^alpha] = 1 at alpha = 1 and division is by -i eta
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(23)
        a = single_row_symbol(grid, 1, rng.standard_normal(grid.n) + 0j)
        est = gauge.solve_commutator(a, 1.0, cutoff).extras["estimates"]
        assert est["transport_lhs"] == pytest.approx(est["transport_rhs"],
                                                     rel=1e-12)

    def test_alpha_below_one_rejected(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        with pytest.raises(ValueError):
            gauge.solve_commutator(a, 0.5)

    def test_solution_is_frozen(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        sol = gauge.solve_commutator(a, 1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.residual_norm = 0.5


def loop_homogeneous_sup(symbol, weight_order, difference=False):
    """`gauge._homogeneous_sup` as a plain loop: one 1-D inverse FFT per
    column xi != 0, or per forward difference a(., xi+1) - a(., xi) at base
    xi when `difference` is set."""
    grid = symbol.grid
    best = 0.0
    for xi in sorted(int(k) for k in grid.freqs):
        if xi == 0 or (difference and xi == grid.n // 2 - 1):
            continue
        column = symbol.coeffs[:, grid.index_of(xi)]
        if difference:
            column = symbol.coeffs[:, grid.index_of(xi + 1)] - column
        sup = np.max(np.abs(np.fft.ifft(column) * grid.n))
        best = max(best, float(sup * float(abs(xi)) ** (-float(weight_order))))
    return best


def loop_commutator_estimates(p, a_reg, alpha, big_b):
    """`gauge.commutator_estimates` from `loop_homogeneous_sup`, with a
    truncated to the slots whose output mode xi + eta stays on the lattice."""
    grid = a_reg.grid
    eta = grid.freqs[:, None]
    shifted = eta + grid.freqs[None, :]
    on_lattice = (shifted >= -grid.n // 2) & (shifted <= grid.n // 2 - 1)
    a_reg = a_reg.copy(coeffs=np.where(on_lattice, a_reg.coeffs, 0.0))
    beta = a_reg.order_m
    p_x = p.copy(coeffs=(1j * eta.astype(np.float64)) * p.coeffs)
    gain = big_b * (1.0 - (1.0 - 1.0 / big_b) ** alpha)
    cross = alpha * ((1.0 + 1.0 / big_b) ** (alpha - 1.0) - 1.0) / (
        1.0 - (1.0 - 1.0 / big_b) ** alpha)
    transport_lhs = loop_homogeneous_sup(p_x, beta + 1.0 - alpha)
    return {
        "transport_lhs": transport_lhs,
        "transport_rhs": loop_homogeneous_sup(a_reg, beta) / gain,
        "xi_lhs": loop_homogeneous_sup(p_x, beta - alpha, difference=True),
        "xi_rhs": loop_homogeneous_sup(a_reg, beta - 1.0, difference=True)
        / gain + cross * transport_lhs,
    }


class TestCommutatorEstimateReadings:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_homogeneous_sup_is_the_loop_exactly(self, n):
        grid = Grid(n)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(n)
        shape = (len(band_rows(grid, cutoff)), n)
        band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sym = Symbol(grid, paraop.from_band(band, grid, cutoff))
        for weight_order in (-1.5, 0.0, 0.5, 2.0):
            for difference in (False, True):
                assert gauge._homogeneous_sup(band, grid, cutoff,
                                              weight_order, difference) \
                    == loop_homogeneous_sup(sym, weight_order, difference)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_estimates_are_the_loop_exactly(self, n):
        grid = Grid(n)
        cutoff = Cutoff(2.0, 1.0)
        rng = np.random.default_rng(n + 1)
        for alpha in (1.0, 1.5, 2.5):
            a = band_symbol(grid, cutoff, rng, rows=2)
            p = gauge.solve_commutator(a, alpha, cutoff).p
            a_reg = regularize(a, cutoff)
            assert np.any(p.coeffs != 0.0)
            assert gauge.commutator_estimates(
                paraop.to_band(p.coeffs, grid, cutoff),
                paraop.to_band(a_reg.coeffs, grid, cutoff), a_reg.order_m,
                grid, alpha, cutoff) \
                == loop_commutator_estimates(p, a_reg, alpha, cutoff.big_b)


class TestResonanceEllipticity:
    @pytest.mark.parametrize("alpha", sorted(ELLIPTICITY_BRACKETS))
    def test_bracket(self, alpha):
        lo, hi = gauge.ellipticity_bracket(Grid(128), alpha)
        frozen_lo, frozen_hi = ELLIPTICITY_BRACKETS[alpha]
        assert frozen_lo <= lo <= hi <= frozen_hi

    def test_floor_guard_unreachable(self):
        # the elliptic lower constant sits ~8 orders above the guard
        lo, _ = gauge.ellipticity_bracket(Grid(128), 1.5)
        assert lo > 1e6 * gauge.SMALL_DIVISOR_FLOOR

    def test_small_divisor_guard_caches_nothing(self, monkeypatch):
        # a floor above every elliptic ratio flags the whole zone; the
        # guard raises while the table is built, so every call raises
        grid, cutoff = Grid(16), Cutoff(2.0, 1.0)
        monkeypatch.setattr(gauge, "SMALL_DIVISOR_FLOOR", 1e9)
        gauge._division_table.cache_clear()
        stack = np.ones((len(band_rows(grid, cutoff)), grid.n),
                        dtype=np.complex128)
        for _ in range(2):
            with pytest.raises(SmallDivisor, match="below 1000000000.0"):
                gauge._divide(stack, grid, 1.5, cutoff)
        assert gauge._division_table.cache_info().currsize == 0

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_kernel_is_exactly_the_mean_rows(self, alpha):
        counts = gauge.commutator_rank(Grid(64), alpha)
        assert counts["kernel_slots"] == counts["eta_zero_slots"]
        assert counts["rank"] + counts["kernel_slots"] == counts["support_slots"]
        assert counts["rank"] > 0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 32).map(lambda half: 2 * half),
           alpha=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True),
           big_b=st.integers(2, 8), little_b=st.integers(1, 3))
    def test_rank_counts_hold_on_every_lattice(self, n, alpha, big_b, little_b):
        counts = gauge.commutator_rank(Grid(n), alpha, Cutoff(big_b, little_b))
        assert counts["support_slots"] == counts["rank"] + counts["kernel_slots"]
        assert counts["kernel_slots"] == counts["eta_zero_slots"]

    def test_lattice_tables_stay_bounded_over_an_alpha_scan(self):
        for alpha in np.linspace(1.1, 2.9, 40):
            gauge.ellipticity_bracket(Grid(16), alpha, Cutoff(2.0, 1.0))
        # every other lattice table, with a new grid and cutoff each step so
        # the tables keyed on (grid, cutoff) or on the grid alone see 40 keys
        for i, alpha in enumerate(np.linspace(1.1, 2.9, 40)):
            grid, cutoff = Grid(16 + 2 * i), Cutoff(1.0 + alpha, 1.0)
            u = Field.from_physical(grid, 1e-3 * np.cos(grid.x))
            a = transport_symbol(u)
            paraop.materialize(a, cutoff)
            paraop._band_layout(grid.n, i)
            gauge._divide(a.coeffs[band_rows(grid, cutoff)], grid, alpha,
                          cutoff)
            gauge._pair_sets(grid, cutoff)
            gauge._band_waves(grid, cutoff)
            experiments._deep_pairs(grid, cutoff)
            paraop.product_tables(grid)
            normalform.normal_form(u, u, 1.0, alpha, cutoff)
        grid, cutoff = Grid(16), Cutoff(2.0, 1.0)
        tables = {
            gauge._division_table: (grid, 1.5, cutoff),
            symbols.cutoff_mask: (grid, cutoff),
            paraop._band_pairs: (grid, cutoff),
            paraop._band_layout: (grid.n, 3),
            paraop.product_tables: (grid,),
            gauge._pair_sets: (grid, cutoff),
            gauge._band_waves: (grid, cutoff),
            experiments._deep_pairs: (grid, cutoff),
            normalform.build_chi1: (1.0, 1.5, cutoff, grid),
        }
        # with `_cone_band` (tests/test_paraop.py) and `propagators`
        # (tests/test_solver_kernel.py), which have bound checks of their
        # own, the list names every lru_cache in the package
        listed = {(table.__module__.rsplit(".", 1)[-1], table.__name__)
                  for table in tables}
        listed |= {("paraop", "_cone_band"), ("solver", "propagators")}
        assert listed == set(cached_functions())
        for table, key in tables.items():
            assert table.cache_info().currsize <= 16, table.__name__
            value = table(*key)
            arrays = value if isinstance(value, tuple) else (value,)
            for array in arrays:
                array = getattr(array, "values", array)
                assert not array.flags.writeable, table.__name__


def cached_functions():
    """(module, name) of every function in the package decorated with
    functools.lru_cache, read with `ast`."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for decorator in node.decorator_list:
                callee = getattr(decorator, "func", decorator)
                if getattr(callee, "attr", getattr(callee, "id", None)) \
                        == "lru_cache":
                    yield path.stem, node.name


# Cutoff(8, 1.97) has band slots with 0 < psi <= SYMBOL_EXTRACTION_FLOOR
# (14 at N = 64), on the support but not sound
BAND_CUTOFFS = [Cutoff(8.0, 2.0), Cutoff(2.0, 1.0), Cutoff(3.5, 1.5),
                Cutoff(2.5, 1.3), Cutoff(8.0, 1.97)]
BAND_ALPHAS = [1.5, 2.5, 1.2, 2.9]


class TestBandTables:
    """The division, its readings and the pair extraction on the band equal
    the rows of their full-lattice definitions, bit for bit."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
    @pytest.mark.parametrize("alpha", BAND_ALPHAS)
    def test_divide_is_the_rows_of_the_full_lattice_division(self, n, cutoff,
                                                              alpha):
        grid = Grid(n)
        rows = band_rows(grid, cutoff)
        rng = np.random.default_rng(n)
        stack = (rng.standard_normal((3, n, n))
                 + 1j * rng.standard_normal((3, n, n)))
        _, _, zone, den, _ = lattice_commutator(grid, alpha, cutoff)
        full = np.where(zone, stack / np.where(zone, den, 1.0), 0.0)
        assert not np.any(np.delete(full, rows, axis=1))
        got = gauge._divide(stack[:, rows], grid, alpha, cutoff)
        assert got.tobytes() == full[:, rows].tobytes()

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
    @pytest.mark.parametrize("alpha", BAND_ALPHAS)
    def test_readings_are_those_of_the_full_lattice(self, n, cutoff, alpha):
        grid = Grid(n)
        _, support, zone, den, scale = lattice_commutator(grid, alpha,
                                                          cutoff)
        ratios = np.abs(den[zone]) / scale[zone]
        if ratios.size:
            lo, hi = gauge.ellipticity_bracket(grid, alpha, cutoff)
            assert (lo.hex(), hi.hex()) == (float(np.min(ratios)).hex(),
                                            float(np.max(ratios)).hex())
        else:
            # an empty zone (N = 16 under Cutoff(8, 2)) has no bracket
            with pytest.raises(ValueError, match=fr"zone of Grid\(n={n}\) "
                               fr"under {re.escape(repr(cutoff))} is empty"):
                gauge.ellipticity_bracket(grid, alpha, cutoff)
        eta_zero = grid.freqs[:, None] == 0
        assert gauge.commutator_rank(grid, alpha, cutoff) == {
            "support_slots": int(np.count_nonzero(support)),
            "rank": int(np.count_nonzero(support & (den != 0))),
            "kernel_slots": int(np.count_nonzero(support & (den == 0))),
            "eta_zero_slots": int(np.count_nonzero(support & eta_zero)),
        }

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
    def test_extraction_is_the_divide_and_scatter(self, n, cutoff):
        grid = Grid(n)
        rows = band_rows(grid, cutoff)
        rng = np.random.default_rng(n + 1)
        entries = (rng.standard_normal((2, n, n))
                   + 1j * rng.standard_normal((2, n, n)))
        psi = paraop.pair_mask(grid, cutoff)
        sound = psi > gauge.SYMBOL_EXTRACTION_FLOOR
        divided = np.divide(entries, psi, out=np.zeros_like(entries),
                            where=sound)
        # pair (out, in) holds the slot (eta, xi) = (out - in, in)
        out_idx, in_idx = np.nonzero(sound)
        eta = grid.freqs[out_idx] - grid.freqs[in_idx]
        expected = np.zeros_like(entries)
        expected[:, np.mod(eta, n), in_idx] = divided[:, out_idx, in_idx]
        assert not np.any(np.delete(expected, rows, axis=1))
        # the matrix pair of every band slot that has one
        layout = paraop._band_layout(n, len(rows) // 2)
        pair_of = np.full(layout.valid.size, -1)
        pair_of[layout.slots] = layout.pairs
        sets = gauge._pair_sets(grid, cutoff)
        np.testing.assert_array_equal(np.sort(pair_of[sets.slots]),
                                      np.flatnonzero(sound))
        np.testing.assert_array_equal(
            np.sort(pair_of[sets.support.ravel()]), np.flatnonzero(psi > 0.0))
        got = gauge._extract_pairs(
            entries.reshape(2, -1)[:, pair_of[sets.slots]], grid, cutoff)
        assert got.tobytes() == expected[:, rows].tobytes()


class TestOffSupportNorms:
    def test_reads_only_where_psi_vanishes(self):
        # the slots with 0 < psi <= SYMBOL_EXTRACTION_FLOOR are on the
        # support: large entries there must not be read, though they are
        # not among the sound pairs of `_pair_sets`
        grid, cutoff = Grid(64), Cutoff(8.0, 1.97)
        psi = paraop.pair_mask(grid, cutoff).reshape(-1)
        faint = np.flatnonzero((psi > 0.0)
                               & (psi <= gauge.SYMBOL_EXTRACTION_FLOOR))
        assert faint.size == 14
        layout = paraop._band_layout(grid.n, len(band_rows(grid, cutoff)) // 2)
        sound = layout.pairs[np.searchsorted(
            layout.slots, gauge._pair_sets(grid, cutoff).slots)]
        assert not np.isin(faint, sound).any()
        off = np.flatnonzero(psi == 0.0)[100]
        matrices = np.zeros((2, grid.n * grid.n), dtype=np.complex128)
        matrices[:, faint] = 1e6
        matrices[:, np.flatnonzero(psi > gauge.SYMBOL_EXTRACTION_FLOOR)] = 1e3
        matrices[0, off] = 3.0 - 4.0j
        bands = operator_band_of(matrices.reshape(2, grid.n, grid.n),
                                 grid.n - 1)
        norms = gauge._off_support_norms(bands, grid, cutoff)
        assert norms.tolist() == [5.0, 0.0]
        assert gauge._off_support_norms(bands[0], grid, cutoff) == 5.0


class TestTimeDependent:
    """The correction ladder of `gauge._time_chain`, on harmonic samples
    a(t) = a0 e^{i omega t} of a stationary right-hand side."""

    J_MAX = 8

    def setup_method(self):
        self.grid = Grid(128)
        self.cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(17)
        self.a0 = band_symbol(self.grid, self.cutoff, rng)
        self.dt = 0.05

    def chain(self, samples, alpha, j_max=J_MAX):
        """(p stack, increments, largest residual of
        L(p) - sigma_{d_t p} - sigma_a over the samples).

        The ladder runs on band stacks cut with the test's own row formula;
        p is put back in N x N layout and the residual read on the whole
        lattice.
        """
        grid = samples[0].grid
        rows = band_rows(grid, self.cutoff)
        a_stack = np.stack([regularize(s, self.cutoff).coeffs for s in samples])
        order_p = samples[0].order_m + 1.0 - alpha
        band, increments = gauge._time_chain(
            a_stack[:, rows], self.dt, grid, alpha, self.cutoff, order_p,
            j_max, 1e-8
        )
        p_stack = np.zeros_like(a_stack)
        p_stack[:, rows] = band
        dp_stack = gauge._time_derivative_stack(p_stack, self.dt)
        valid, _, _, den, _ = lattice_commutator(grid, alpha, self.cutoff)
        residual = max(
            float(np.max(np.abs(np.where(valid, p * den - a - dp, 0.0))))
            for p, dp, a in zip(p_stack, dp_stack, a_stack)
        )
        return p_stack, increments, residual

    def test_constant_data_degenerates_exactly(self):
        p_stack, increments, residual = self.chain([self.a0] * 9, 1.5)
        stationary = gauge.solve_commutator(self.a0, 1.5, self.cutoff)
        for p in p_stack:
            np.testing.assert_array_equal(p, stationary.p.coeffs)
        assert increments == []
        assert residual < 1e-15

    def test_residual_decays_geometrically_in_depth(self):
        traj = harmonic_trajectory(self.a0, 0.2, self.dt)
        residuals = [self.chain(traj, 1.5, j_max)[2] for j_max in range(3)]
        # contraction ~ omega / denominator scale ~ 0.04 per layer
        assert residuals[1] / residuals[0] < 0.08
        assert residuals[2] / residuals[1] < 0.08

    def test_growth_ratio_measures_frequency(self):
        # slow data, omega = 0.2: the full ladder leaves a small residual
        traj = harmonic_trajectory(self.a0, 0.2, self.dt)
        _, _, residual = self.chain(traj, 1.5)
        assert residual < 1e-4

    def test_fast_growth_measured_without_stall(self):
        # high-frequency columns: large denominators keep the ladder
        # contracting while the data oscillates faster than alpha
        grid = Grid(256)
        rng = np.random.default_rng(5)
        coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
        cols = [grid.index_of(k) for k in range(55, 65)]
        cols += [grid.index_of(-k) for k in range(55, 65)]
        for eta in (1, -1):
            row = np.zeros(grid.n, dtype=np.complex128)
            row[cols] = rng.standard_normal(len(cols)) + 1j * rng.standard_normal(len(cols))
            coeffs[grid.index_of(eta)] = row
        b0 = Symbol(grid, coeffs, order_m=0.0)
        b0 = b0 * (1.0 / seminorm(regularize(b0, self.cutoff), order_m=0.0))
        _, _, residual = self.chain(harmonic_trajectory(b0, 2.0, self.dt), 1.5)
        assert residual < 1e-2

    def test_divergent_tail_truncates_quietly(self):
        # omega = 40: the first correction jumps past _DIVERGENT_TAIL of
        # layer zero, so it is dropped and layer zero, the per-sample
        # division, is returned alone
        traj = harmonic_trajectory(self.a0, 40.0, self.dt)
        p_stack, increments, _ = self.chain(traj, 1.5)
        assert increments == []
        for p, a in zip(p_stack, traj):
            stationary = gauge.solve_commutator(a, 1.5, self.cutoff)
            np.testing.assert_array_equal(p, stationary.p.coeffs)

    def test_slow_denominators_stall(self):
        # alpha near 1 leaves denominators ~ omega: no ladder contraction,
        # and the plateau ends the chain well before j_max
        traj = harmonic_trajectory(self.a0, 2.0, self.dt)
        p_stack, increments, _ = self.chain(traj, 1.25)
        assert 2 <= len(increments) < self.J_MAX
        assert min(increments) > gauge._NOISE_FLOOR_DECAY * increments[0]
        assert np.all(np.isfinite(p_stack))


@pytest.mark.parametrize("n", [16, 32, 64])
def test_stack_seminorm_is_the_max_over_samples_exactly(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    stack = (rng.standard_normal((11, n, n))
             + 1j * rng.standard_normal((11, n, n)))
    for order_m in (-0.5, 0.0, 2.5):
        expected = max(seminorm(Symbol(grid, coeffs), order_m=order_m)
                       for coeffs in stack)
        assert symbols.stack_seminorm(grid, stack, order_m) == expected


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
def test_band_seminorm_reads_the_symbol_layout(n, cutoff):
    # sup_x from the band's rows by one matmul, against the zero-padded
    # N-point inverse FFT of `stack_seminorm`
    grid = Grid(n)
    rows = len(band_rows(grid, cutoff))
    rng = np.random.default_rng(n + rows)
    shape = (4, rows, n)
    band = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        * 10.0 ** rng.integers(-8, 3, shape)
    for order_m in (-1.5, 0.0, 1.0, 2.5):
        got = gauge._band_seminorm(band, grid, cutoff, order_m)
        reference = symbols.stack_seminorm(
            grid, paraop.from_band(band, grid, cutoff), order_m)
        assert abs(got - reference) <= 1e-13 * reference
        assert gauge._band_seminorm(band[2], grid, cutoff, order_m) \
            <= got


def full_band_seminorm(band, grid, cutoff, order_m):
    """`gauge._band_seminorm` read on every column: the matmul of the whole
    band against `_band_waves`."""
    values = gauge._band_waves(grid, cutoff) @ band
    return symbols.sup_seminorm(grid, np.max(np.abs(values), axis=-2),
                                order_m)


class TestBandSeminormColumns:
    """`_band_seminorm` reads sup_x only on the columns that can hold the
    maximum; its reading is that of the full matmul up to the rounding of
    the matmul."""

    @settings(max_examples=80, deadline=None)
    @given(half=st.integers(4, 64), cutoff=st.sampled_from(BAND_CUTOFFS),
           lead=st.sampled_from([(), (2,), (3, 2)]),
           order_m=st.floats(-2.0, 3.0), spread=st.integers(0, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reading_is_the_full_matmul(self, half, cutoff, lead, order_m,
                                        spread, seed):
        grid = Grid(2 * half)
        rng = np.random.default_rng(seed)
        shape = (*lead, len(band_rows(grid, cutoff)), grid.n)
        band = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.integers(-spread, 1, shape)
        got = gauge._band_seminorm(band, grid, cutoff, order_m)
        reference = full_band_seminorm(band, grid, cutoff, order_m)
        rows = shape[-2]
        assert abs(got - reference) \
            <= 4 * rows * np.finfo(np.float64).eps * reference

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("cutoff", BAND_CUTOFFS, ids=repr)
    def test_flat_band_reads_every_column(self, n, cutoff):
        # every column has the same l1 and l2 norms, so none is skipped
        grid = Grid(n)
        band = np.ones((3, len(band_rows(grid, cutoff)), n),
                       dtype=np.complex128)
        got = gauge._band_seminorm(band, grid, cutoff, 0.0)
        assert got == pytest.approx(band.shape[-2], rel=1e-14)
        assert got == pytest.approx(
            full_band_seminorm(band, grid, cutoff, 0.0), rel=1e-14)

    def test_nan_band_is_read_whole(self):
        grid, cutoff = Grid(64), Cutoff(2.0, 1.0)
        rng = np.random.default_rng(3)
        shape = (2, len(band_rows(grid, cutoff)), grid.n)
        band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        band[1, 0, 5] = np.nan
        assert np.isnan(gauge._band_seminorm(band, grid, cutoff, 1.0))
        assert np.isnan(full_band_seminorm(band, grid, cutoff, 1.0))
        # a NaN in the column xi = 0, which M^m skips, is skipped as well
        band[1, 0, 5] = 1.0
        band[0, 2, 0] = np.nan
        assert gauge._band_seminorm(band, grid, cutoff, 1.0) \
            == pytest.approx(full_band_seminorm(band, grid, cutoff, 1.0),
                             rel=1e-14)


def stencil_reference(stack, dt):
    """The time stencil written as whole-array expressions."""
    out = np.zeros_like(stack)
    out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * dt)
    out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * dt)
    out[1] = (stack[2] - stack[0]) / (2.0 * dt)
    out[-2] = (stack[-1] - stack[-3]) / (2.0 * dt)
    out[2:-2] = (
        -stack[4:] + 8.0 * stack[3:-1] - 8.0 * stack[1:-3] + stack[:-4]
    ) / (12.0 * dt)
    return out


@pytest.mark.parametrize("tail", [(), (7,), (16, 16)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_time_stencil_is_the_array_expression_bit_for_bit(tail, dtype):
    rng = np.random.default_rng(len(tail))
    for count in range(5, 14):
        shape = (count, *tail)
        stack = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 5, shape)
        if dtype is np.complex128:
            stack = stack + 1j * rng.standard_normal(shape)
        got = gauge._time_derivative_stack(stack, 0.002)
        assert got.dtype == stack.dtype
        assert got.tobytes() == stencil_reference(stack, 0.002).tobytes()


class TestTrapezoidIntegral:
    """The sweep's diagonal integral is scipy's cumulative_trapezoid with
    initial=0, byte for byte."""

    @staticmethod
    def reference(stack, dt):
        return cumulative_trapezoid(stack, dx=dt, axis=0, initial=0)

    @pytest.mark.parametrize("count", [5, 11])
    def test_complex_stacks(self, count):
        rng = np.random.default_rng(count)
        shape = (count, 32)
        stack = (rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 5, shape)
                 + 1j * rng.standard_normal(shape))
        for dt in (0.002, 1.0 / 3.0):
            got = gauge._trapezoid_integral(stack, dt)
            assert got.dtype == stack.dtype
            assert got.tobytes() == self.reference(stack, dt).tobytes()

    @pytest.mark.parametrize("row", [0, 2, -1])
    def test_negative_zero_rows(self, row):
        stack = np.random.default_rng(3).standard_normal((11, 16)) * (1 + 2j)
        stack[row] = complex(-0.0, -0.0)
        stack[1, :4] = complex(-0.0, 0.0)
        got = gauge._trapezoid_integral(stack, 0.002)
        assert got.tobytes() == self.reference(stack, 0.002).tobytes()

    @pytest.mark.parametrize("count", [5, 11])
    def test_the_sweeps_diagonal_slice(self, count):
        # solve_conjugating integrates rhs[:, 0, :], a strided view of the
        # (T, N, N) right-hand side
        rng = np.random.default_rng(40 + count)
        shape = (count, 32, 32)
        rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        diagonal = rhs[:, 0, :]
        assert not diagonal.flags.c_contiguous
        got = gauge._trapezoid_integral(diagonal, 0.002)
        assert got.tobytes() == self.reference(diagonal, 0.002).tobytes()


class TestTaylorExponential:
    """`gauge._expm` on full-width operator bands (half-width N - 1, which
    hold every matrix entry), placed back in N x N."""

    N = 64

    def generator(self, kind, norm):
        """iH for hermitian H, or a non-normal complex matrix, at ||.||_1,
        as a full-width band."""
        rng = np.random.default_rng(61)
        m = (rng.standard_normal((self.N, self.N))
             + 1j * rng.standard_normal((self.N, self.N)))
        a = 1j * (m + m.conj().T) if kind == "hermitian" else m + 3.0 * np.triu(m)
        a = a * (norm / np.max(np.sum(np.abs(a), axis=0)))
        return a, operator_band_of(a, self.N - 1)

    @pytest.mark.parametrize("norm", [1e-12, 3.6e-6, 1e-3, 0.15, 1.0, 5.0])
    @pytest.mark.parametrize("kind", ["hermitian", "nonnormal"])
    def test_matches_scipy(self, kind, norm):
        a, band = self.generator(kind, norm)
        reference = expm(a)
        gap = np.max(np.abs(paraop.place_band(gauge._expm(band)) - reference))
        assert gap <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("norm", [1e-12, 3.6e-6, 1e-3, 0.15, 1.0, 5.0])
    def test_hermitian_generator_gives_a_unitary(self, norm):
        band = self.generator("hermitian", norm)[1]
        u = paraop.place_band(gauge._expm(band))
        gap = np.max(np.abs(u.conj().T @ u - np.eye(self.N)))
        assert gap <= 1e-14

    def test_zero_gives_the_identity_exactly(self):
        zero = np.zeros((2 * self.N - 1, self.N), dtype=np.complex128)
        assert np.array_equal(paraop.place_band(gauge._expm(zero)),
                              np.eye(self.N))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        # a nan norm used to skip the scaling and the degree loop and
        # return the identity; an infinite one raised OverflowError
        a = self.generator("nonnormal", 1.0)[0]
        a[3, 5] = bad
        with pytest.raises(NanDetected, match="1-norm"):
            gauge._expm(operator_band_of(a, self.N - 1))

    def test_a_batched_member_is_a_lone_call(self):
        # members with their own degrees and squaring counts, one of them
        # zero: each is the bytes of its lone exponential, widened with
        # +0.0 rows to the batch's half-width
        grid, cutoff = Grid(64), Cutoff(8.0, 2.0)
        rng = np.random.default_rng(67)
        rows = len(band_rows(grid, cutoff))
        shape = (5, rows, grid.n)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack = paraop.operator_band(
            stack * paraop.to_band(symbols.cutoff_mask(grid, cutoff), grid,
                                   cutoff), grid, cutoff)
        norms = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
        stack *= (np.array([3.6e-6, 0.0, 1e-3, 2.0, 3.6e-6])
                  / norms)[:, None, None]
        batched = gauge._expm(stack.reshape(5, 1, rows, grid.n))
        assert batched.shape[:2] == (5, 1)
        half = batched.shape[-2] // 2
        widths = set()
        for member, band in zip(batched[:, 0], stack):
            lone = gauge._expm(band)
            widths.add(lone.shape[-2])
            assert member.tobytes() == \
                paraop.resize_band(lone, half).tobytes()
        assert len(widths) == 4


class TestNonlinearExp:
    def setup_method(self):
        self.grid = Grid(64)
        self.cutoff = Cutoff(8.0, 2.0)

    def test_zero_data_zero_iterations(self):
        a = Symbol(self.grid, np.zeros((64, 64), dtype=np.complex128))
        sol = gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)
        assert sol.iterations == 0
        assert np.all(sol.p.coeffs == 0.0)
        assert sol.residual_norm == 0.0

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_tiny_data_reproduces_linear_solve(self, alpha):
        rng = np.random.default_rng(43)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=1e-6)
        nonlinear = gauge.solve_nonlinear_exp(a, alpha, self.cutoff)
        linear = gauge.solve_commutator(a, alpha, self.cutoff)
        diff = float(np.max(np.abs(nonlinear.p.coeffs - linear.p.coeffs)))
        assert diff <= 1e-11
        assert nonlinear.iterations == 1

    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_converged_transport_bound(self, alpha):
        rng = np.random.default_rng(47)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=1e-2)
        sol = gauge.solve_nonlinear_exp(a, alpha, self.cutoff)
        eps = sol.extras["smallness"]["measured"]
        bound = (1.0 + NONLINEAR_C * eps) / alpha * eps
        assert sol.residual_norm < 1e-9
        transport = seminorm(x_derivative(sol.p), order_m=sol.p.order_m + 1.0)
        assert transport <= bound

    def test_smallness_guard(self):
        rng = np.random.default_rng(53)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=0.1)
        with pytest.raises(SmallnessViolated):
            gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)

    def test_mean_row_data_diverges(self):
        # the exponential commutator has zero diagonal: eta = 0 data is
        # unreachable and Newton must report that instead of hiding it
        coeffs = np.zeros((64, 64), dtype=np.complex128)
        coeffs[0] = np.where(np.abs(self.grid.freqs) >= 3, 0.04, 0.0)
        a = Symbol(self.grid, coeffs, order_m=0.0)
        with pytest.raises(NewtonDiverged):
            gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)

    def test_non_finite_residual_stops_at_once(self, monkeypatch):
        # a nan residual never passes NEWTON_TOL; the loop used to run all
        # NEWTON_MAX_ITERATIONS steps on it before it gave up
        calls = []

        def nan_expm(a):
            calls.append(None)
            return np.full_like(a, np.nan)

        monkeypatch.setattr(gauge, "_expm", nan_expm)
        rng = np.random.default_rng(59)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=1e-2)
        with pytest.raises(NewtonDiverged, match="nan at Newton step 0"):
            gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)
        assert len(calls) == 1

    def test_growing_residual_stops_the_newton_loop(self):
        # under Cutoff(2.5, 1.3) this iterate grows until `_expm` overflows;
        # the loop gives up at the first residual above that of step 0, as
        # the conjugating sweep does, before any overflow warning.  The
        # mean mode is zeroed: on the kernel row it would stop the loop
        # before its first step
        u = random_real_field(Grid(16), np.random.default_rng(16),
                              amplitude=1e-3)
        u = Field(u.grid, np.where(u.grid.freqs == 0, 0.0, u.spectral),
                  is_real=True)
        with pytest.raises(NewtonDiverged, match="at Newton step 2 exceeds"):
            gauge.solve_nonlinear_exp(transport_symbol(u) * 1j, 1.5,
                                      Cutoff(2.5, 1.3))

    @staticmethod
    def kernel_data(amplitude, zero_mean=False):
        """i u xi of a random real field at N = 64 whose mean mode, 1.2e-5
        (amplitude / 1e-3), puts data on the kernel row eta = 0."""
        grid = Grid(64)
        u = random_real_field(grid, np.random.default_rng(64),
                              amplitude=amplitude)
        if zero_mean:
            u = Field(grid, np.where(grid.freqs == 0, 0.0, u.spectral),
                      is_real=True)
        return transport_symbol(u) * 1j

    @pytest.mark.parametrize("amplitude", [1e-3, 1e-7])
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_data_in_the_kernel_stops_at_once(self, alpha, amplitude,
                                              monkeypatch):
        # den vanishes on the eta = 0 row, so the residual there is the
        # data at every step: the loop used to run all 25 steps (26 `_expm`
        # calls) before it gave up
        expm_band = gauge._expm
        calls = []

        def counted(a):
            calls.append(None)
            return expm_band(a)

        monkeypatch.setattr(gauge, "_expm", counted)
        with pytest.raises(NewtonDiverged,
                           match=r"data of size \S+ on the kernel row "
                                 r"eta = 0 reach NEWTON_TOL"):
            gauge.solve_nonlinear_exp(self.kernel_data(amplitude), alpha,
                                      self.cutoff)
        assert len(calls) <= 1

    # at 1e-7 the residual of step 1 is already quadratic in the data
    @pytest.mark.parametrize("amplitude,steps", [(1e-3, 2), (1e-7, 1)])
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_data_off_the_kernel_converges(self, alpha, amplitude, steps):
        sol = gauge.solve_nonlinear_exp(
            self.kernel_data(amplitude, zero_mean=True), alpha, self.cutoff)
        assert sol.iterations == steps
        assert sol.residual_norm < gauge.NEWTON_TOL

    def test_unmasked_data_is_rejected_as_regularize_rejects_it(self):
        # entries of a symbol marked regularized that was not: on the band
        # where psi = 0 (eta = 1, xi = 0), off the band on the lattice
        # (eta = 20, xi = 5), and off the band at a slot that never
        # materializes (eta = 20, xi = 20, where xi + eta leaves it); all
        # three are refused by the one check, that of `regularize`
        a_reg = regularize(band_symbol(self.grid, self.cutoff,
                                       np.random.default_rng(59),
                                       amplitude=1e-2), self.cutoff)
        assert regularize(a_reg, self.cutoff) is a_reg
        gauge.solve_nonlinear_exp(a_reg, 1.5, self.cutoff)
        for eta, xi in ((1, 0), (20, 5), (20, 20)):
            coeffs = a_reg.coeffs.copy()
            coeffs[self.grid.index_of(eta), self.grid.index_of(xi)] = 1e-4
            mislabelled = a_reg.copy(coeffs=coeffs)
            for reader in (regularize, paraop.materialize,
                           lambda a, c: gauge.solve_nonlinear_exp(a, 1.5, c)):
                with pytest.raises(InvariantBroken,
                                   match="1 coefficients nonzero where"):
                    reader(mislabelled, self.cutoff)

    def test_off_support_reported(self):
        rng = np.random.default_rng(59)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=1e-2)
        sol = gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)
        assert np.isfinite(sol.extras["off_support_norm"])
        assert sol.extras["smallness"]["margin"] > 0.0

    def test_off_support_norm_reads_the_converged_commutator(self):
        rng = np.random.default_rng(59)
        a = band_symbol(self.grid, self.cutoff, rng, amplitude=1e-2)
        sol = gauge.solve_nonlinear_exp(a, 1.5, self.cutoff)
        assert sol.iterations > 0
        commutator = paraop.place_band(sol.extras["transform"]) \
            * pair_denominator(self.grid, 1.5)
        off = np.where(paraop.pair_mask(self.grid, self.cutoff) == 0.0,
                       commutator, 0.0)
        assert sol.extras["off_support_norm"] == float(np.max(np.abs(off)))


# the (what, unit) of `_newton_exp` and of the `solve_conjugating` sweep
NEWTON_LOOPS = [("residual", "step"), ("conjugating residual", "sweep")]


class TestNewtonStop:
    """`gauge._newton_stop`, the stop rule of both Newton loops, on each of
    its five outcomes."""

    @pytest.mark.parametrize("what,unit", NEWTON_LOOPS)
    def test_converged(self, what, unit):
        for step in (0, 3, gauge.NEWTON_MAX_ITERATIONS):
            assert gauge._newton_stop(1e-10, step, 1e-3, 1e-9, what, unit)

    @pytest.mark.parametrize("what,unit", NEWTON_LOOPS)
    def test_continue(self, what, unit):
        # a residual equal to that of step 0 is not growth
        for residual, step in ((1e-3, 0), (1e-4, 3), (1e-3, 3)):
            assert gauge._newton_stop(residual, step, 1e-3, 1e-9, what,
                                      unit) is False

    @pytest.mark.parametrize("what,unit", NEWTON_LOOPS)
    @pytest.mark.parametrize("residual", [np.nan, np.inf])
    def test_non_finite(self, what, unit, residual):
        with pytest.raises(NewtonDiverged) as raised:
            gauge._newton_stop(residual, 4, 1e-3, 1e-9, what, unit)
        assert str(raised.value) == f"{what} {residual} at Newton {unit} 4"

    @pytest.mark.parametrize("what,unit", NEWTON_LOOPS)
    def test_growth_past_step_zero(self, what, unit):
        with pytest.raises(NewtonDiverged) as raised:
            gauge._newton_stop(2e-3, 2, 1e-3, 1e-9, what, unit)
        assert str(raised.value) == \
            f"{what} 2.000e-03 at Newton {unit} 2 exceeds 1.000e-03 of {unit} 0"

    @pytest.mark.parametrize("what,unit", NEWTON_LOOPS)
    def test_last_step(self, what, unit):
        last = gauge.NEWTON_MAX_ITERATIONS
        with pytest.raises(NewtonDiverged) as raised:
            gauge._newton_stop(1e-4, last, 1e-3, 1e-9, what, unit)
        assert str(raised.value) == \
            f"{what} 1.000e-04 after {last} Newton {unit}s"

    def test_newton_loop_gives_up_at_its_last_step(self, monkeypatch):
        # this data converges at step 2 (`test_data_off_the_kernel_converges`)
        monkeypatch.setattr(gauge, "NEWTON_MAX_ITERATIONS", 1)
        data = TestNonlinearExp.kernel_data(1e-3, zero_mean=True)
        with pytest.raises(NewtonDiverged,
                           match=r"^residual \S+ after 1 Newton steps$"):
            gauge.solve_nonlinear_exp(data, 1.5, Cutoff(8.0, 2.0))

    def test_sweep_gives_up_at_its_last_sweep(self, monkeypatch):
        # no residual passes a zero tolerance; the per-sample Newton solves
        # of these samples converge at step 2, so only the sweep gives up
        monkeypatch.setattr(gauge, "NEWTON_MAX_ITERATIONS", 2)
        monkeypatch.setattr(gauge, "CONJUGATING_TOL", 0.0)
        grid = Grid(64)
        fields = [Field.from_physical(grid, 1e-3 * np.cos(grid.x - 0.05 * i))
                  for i in range(9)]
        with pytest.raises(NewtonDiverged, match=r"^conjugating residual "
                                                 r"\S+ after 2 Newton sweeps$"):
            gauge.solve_conjugating(fields, 0.05, 2.5, Cutoff(8.0, 2.0))


class TestConjugating:
    def setup_method(self):
        self.grid = Grid(64)
        self.cutoff = Cutoff(8.0, 2.0)
        self.alpha = 2.5
        self.dt = 0.05

    def cosine_fields(self, amplitude, speed=1.0, count=9, grid=None, dt=None):
        grid = grid or self.grid
        dt = dt or self.dt
        return [
            Field.from_physical(grid, amplitude * np.cos(grid.x - speed * i * dt))
            for i in range(count)
        ]

    def test_zero_trajectory(self):
        zero = Field.from_physical(self.grid, np.zeros(self.grid.n))
        sols = gauge.solve_conjugating([zero] * 5, self.dt, self.alpha,
                                       self.cutoff)
        assert all(np.all(s.p.coeffs == 0.0) for s in sols)
        assert sols[0].iterations == 0

    def test_stationary_tiny_matches_nonlinear_route(self):
        u = Field.from_physical(self.grid, 1e-5 * np.cos(self.grid.x))
        sols = gauge.solve_conjugating([u] * 9, self.dt, self.alpha,
                                       self.cutoff)
        transport = Symbol(
            self.grid,
            1j * u.spectral[:, None] * self.grid.freqs.astype(np.float64)[None, :],
            order_m=1.0,
        )
        reference = gauge.solve_nonlinear_exp(1j * transport, self.alpha,
                                              self.cutoff)
        for sol in sols:
            diff = float(np.max(np.abs(sol.p.coeffs - reference.p.coeffs)))
            assert diff <= 1e-9
        assert max(s.residual_norm for s in sols) < 1e-8

    def test_traveling_wave_converges(self):
        sols = gauge.solve_conjugating(self.cosine_fields(1e-3), self.dt,
                                       self.alpha, self.cutoff)
        assert max(s.residual_norm for s in sols) < 1e-8
        assert sols[0].iterations <= 3
        report = sols[0].extras["tameness"]
        for j in (1, 2):
            measured, bound = report[j]
            assert measured <= bound

    def test_readings_are_the_per_sample_maxima_of_the_residual(self):
        sols = gauge.solve_conjugating(self.cosine_fields(1e-3), self.dt,
                                       self.alpha, self.cutoff)
        psi = paraop.pair_mask(self.grid, self.cutoff)
        support = psi > gauge.SYMBOL_EXTRACTION_FLOOR
        for sol, g in zip(sols, paraop.place_band(sols[0].extras["g_stack"])):
            assert sol.residual_norm == float(np.max(np.abs(g[support])))
            off = np.where(psi == 0.0, g, 0.0)
            assert sol.extras["off_support_norm"] == float(np.max(np.abs(off)))

    def test_nan_in_a_later_sample_is_not_converged(self, monkeypatch):
        # the sweep read its worst residual with Python's max, which skips
        # a nan after the first sample: a sweep whose later samples read nan
        # passed as converged
        fields = self.cosine_fields(1e-3)
        expm = gauge._expm
        calls = []

        def counted(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(gauge, "_expm", counted)
        sols = gauge.solve_conjugating(fields, self.dt, self.alpha,
                                       self.cutoff)
        assert sols[0].iterations >= 1
        # the last call exponentiates the 9 samples of the final sweep at
        # once; a nan W_6 reaches g_4 .. g_8 through the time stencil and
        # leaves g_0 .. g_3 converged
        assert calls[-1][0] == len(fields)
        poisoned = len(calls)
        calls.clear()

        def poisoning(a):
            calls.append(a.shape)
            out = expm(a)
            if len(calls) == poisoned:
                out[6] = np.nan
            return out

        monkeypatch.setattr(gauge, "_expm", poisoning)
        with pytest.raises(NewtonDiverged,
                           match=f"nan at Newton sweep {sols[0].iterations}"):
            gauge.solve_conjugating(fields, self.dt, self.alpha, self.cutoff)

    def test_growing_residual_stops_the_sweep(self):
        # the cos1 member at a = 1e-2 reads 6.5e-4 at sweep 0, falls once
        # and then grows about x7 per sweep; it used to run all 25 sweeps
        # to a nan residual
        cfg = experiments.standard_ensemble(64, 2.5, 0.02, dt=0.002,
                                            amplitudes=(1e-2,))[0]
        assert cfg.init == "cos1"
        states = run(cfg).states
        with pytest.raises(NewtonDiverged,
                           match=r"at Newton sweep [1-6] exceeds .* of "
                                 r"sweep 0"):
            gauge.solve_conjugating(states, 0.002, 2.5, cfg.cutoff)

    def test_p_vanishes_off_the_band(self):
        for grid in (Grid(64), Grid(128)):
            off = np.setdiff1d(np.arange(grid.n), band_rows(grid, self.cutoff))
            sols = gauge.solve_conjugating(
                self.cosine_fields(1e-3, grid=grid), self.dt, self.alpha,
                self.cutoff)
            assert sols[0].iterations >= 1
            for sol in sols:
                zeros = sol.p.coeffs[off]
                assert np.all(zeros == 0.0)
                assert not np.any(np.signbit(zeros.real)
                                  | np.signbit(zeros.imag))

    def test_tighter_tolerance_drives_deeper(self, monkeypatch):
        monkeypatch.setattr(gauge, "CONJUGATING_TOL", 1e-10)
        sols = gauge.solve_conjugating(self.cosine_fields(1e-3), self.dt,
                                       self.alpha, self.cutoff)
        assert max(s.residual_norm for s in sols) < 1e-10

    def test_time_rough_trajectory_rejected(self):
        fields = [
            Field.from_physical(self.grid, ((-1) ** i) * 1e-3 * np.cos(self.grid.x))
            for i in range(9)
        ]
        with pytest.raises(TamenessViolated):
            gauge.solve_conjugating(fields, 2e-4, self.alpha, self.cutoff)

    def test_alpha_guard(self):
        u = Field.from_physical(self.grid, 1e-4 * np.cos(self.grid.x))
        with pytest.raises(ValueError):
            gauge.solve_conjugating([u] * 5, self.dt, 1.5, self.cutoff)

    @pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -0.05])
    def test_dt_must_be_finite_and_positive(self, dt):
        # dt = inf used to pass `dt > 0` and fail later in `gather_band`
        # with an InvariantBroken about the pair mask
        with pytest.raises(ValueError, match="need a finite dt > 0"):
            gauge.solve_conjugating(self.cosine_fields(1e-3), dt, self.alpha,
                                    self.cutoff)

    def test_residual_operator_tail_is_low_order(self):
        # the defining equation applied to the cutoff-masked gauge psi W:
        # whatever it leaves must act like an operator of order <= 0.2
        grid = Grid(128)
        fields = self.cosine_fields(1e-3, grid=grid)
        sols = gauge.solve_conjugating(fields, self.dt, self.alpha,
                                       self.cutoff)
        masked = paraop.pair_mask(grid, self.cutoff) \
            * paraop.place_band(sols[0].extras["w_stack"])
        mid = len(sols) // 2
        transport = paraop.materialize(
            regularize(transport_symbol(fields[mid]) * 1j, self.cutoff),
            self.cutoff,
        ).entries
        probe = (
            gauge._time_derivative_stack(masked, self.dt)[mid]
            - masked[mid] * pair_denominator(grid, self.alpha)
            - masked[mid] @ transport
        )
        logs_xi, logs_norm = [], []
        for xi in range(grid.n // 8, grid.n // 2):
            e = np.zeros(grid.n, dtype=np.complex128)
            e[grid.index_of(xi)] = 1.0
            norm = float(np.linalg.norm(probe @ e))
            if norm > 0.0:
                logs_xi.append(np.log(1.0 + xi))
                logs_norm.append(np.log(norm))
        slope = np.polyfit(logs_xi, logs_norm, 1)[0]
        assert slope <= 0.2
