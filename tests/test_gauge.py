"""Commutator-equation solves: explicit, Neumann, time-dependent, Newton."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from paraburgers.errors import (
    InvariantBroken,
    NeumannDivergence,
    NewtonDiverged,
    SeriesStalled,
    SmallnessViolated,
    TamenessViolated,
)
from paraburgers.spectral import Grid, Field, lp_profiles, zygmund_norm
from paraburgers.symbols import Cutoff, Symbol, regularize, seminorm, \
    transport_symbol, x_derivative
from paraburgers import gauge, normalform, paraop, symbols

# Measured at B = 8 over N in {64, 128, 256, 512}; frozen ~3% wide.
ELLIPTICITY_BRACKETS = {
    1.25: (1.19, 1.29),
    1.5: (1.40, 1.54),
    1.75: (1.61, 1.80),
    2.0: (1.81, 2.06),
    2.5: (2.19, 2.57),
}
# Remainder contraction constant; measured B * ratio <= 0.60 at B in {4, 8, 16}.
COLE_HOPF_C = 0.7
# Slack constant in the converged transport bound; measured margins are wide.
NONLINEAR_C = 3.0


def band_symbol(grid, cutoff, rng, rows=4, amplitude=1.0):
    """Random order-zero symbol on rows 1..rows, unit regularized seminorm."""
    coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for eta in range(1, rows + 1):
        for signed in (eta, -eta):
            coeffs[grid.index_of(signed)] = (
                rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            )
    sym = Symbol(grid, coeffs, order_m=0.0)
    scale = seminorm(regularize(sym, cutoff), order_m=0.0)
    return sym * (amplitude / scale)


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
        assert sol.route == "explicit_formula"
        assert sol.iterations == 1

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

    def test_unknown_route_rejected(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        with pytest.raises(ValueError):
            gauge.solve_commutator(a, 1.5, route="bisection")

    def test_solution_is_frozen(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        sol = gauge.solve_commutator(a, 1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.residual_norm = 0.5


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
            gauge.cole_hopf_parametrix(a, alpha, cutoff)
            paraop.materialize(a, cutoff)
            paraop.pair_mask(grid, cutoff)
            gauge._pair_denominator(grid, alpha)
            zygmund_norm(u, 1.0)
            normalform.normal_form(u, u, 1.0, alpha, cutoff)
        grid, cutoff = Grid(16), Cutoff(2.0, 1.0)
        tables = {
            gauge._denominator_table: (grid, 1.5),
            gauge._resonance_scale: (grid, 1.5),
            gauge._lattice_valid: (grid,),
            gauge._pair_denominator: (grid, 1.5),
            gauge._cole_hopf_weight: (grid, 1.5),
            symbols.cutoff_mask: (grid, cutoff),
            paraop.pair_mask: (grid, cutoff),
            paraop._pair_slots: (grid,),
            lp_profiles: (grid,),
            normalform.build_chi: (1.0, 1.5, cutoff, grid),
            normalform.build_chi1: (1.0, 1.5, cutoff, grid),
        }
        for table, key in tables.items():
            assert table.cache_info().currsize <= 16, table.__name__
            value = table(*key)
            arrays = value if isinstance(value, tuple) else (value,)
            for array in arrays:
                array = getattr(array, "values", array)
                assert not array.flags.writeable, table.__name__


class TestColeHopfParametrix:
    def test_zero(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        assert np.all(gauge.cole_hopf_parametrix(a, 2.0).coeffs == 0.0)

    def test_alpha_two_closed_form(self):
        # a = e^{i3x} 1(xi) -> E = psi e^{i3x} / (2 |xi| 3i) away from xi = 0
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        a = single_row_symbol(grid, 3, np.ones(grid.n))
        e = gauge.cole_hopf_parametrix(a, 2.0, cutoff)
        xi = grid.freqs.astype(np.float64)
        psi = cutoff(np.full(grid.n, 3.0), xi)
        expected = np.where(xi != 0,
                            psi / (2.0 * np.abs(np.where(xi != 0, xi, 1.0)) * 3j),
                            0.0)
        np.testing.assert_allclose(e.coeffs[grid.index_of(3)], expected,
                                   atol=1e-16)

    def test_mean_row_and_zero_column_vanish(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((grid.n, grid.n)) + 0j
        e = gauge.cole_hopf_parametrix(Symbol(grid, coeffs), 1.5, cutoff)
        assert np.all(e.coeffs[0] == 0.0)
        assert np.all(e.coeffs[:, 0] == 0.0)

    @pytest.mark.parametrize("big_b", [4.0, 8.0, 16.0])
    @pytest.mark.parametrize("alpha", [1.5, 2.5])
    def test_remainder_contraction(self, big_b, alpha):
        grid = Grid(128)
        cutoff = Cutoff(big_b, 2.0)
        rng = np.random.default_rng(13)
        a = band_symbol(grid, cutoff, rng)
        r = gauge.parametrix_remainder(a, alpha, cutoff)
        assert seminorm(r, order_m=0.0) <= COLE_HOPF_C / big_b

    def test_alpha_one_rejected(self):
        grid = Grid(64)
        a = Symbol(grid, np.zeros((64, 64), dtype=np.complex128))
        with pytest.raises(ValueError):
            gauge.cole_hopf_parametrix(a, 1.0)


class TestNeumannRoute:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75, 2.5])
    def test_agrees_with_explicit(self, alpha):
        grid = Grid(128)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(29)
        a = band_symbol(grid, cutoff, rng)
        explicit = gauge.solve_commutator(a, alpha, cutoff)
        series = gauge.solve_commutator(a, alpha, cutoff, route="neumann_series")
        scale = float(np.max(np.abs(explicit.p.coeffs)))
        diff = float(np.max(np.abs(explicit.p.coeffs - series.p.coeffs)))
        assert diff <= 1e-8 * scale
        assert series.route == "neumann_series"
        assert series.iterations >= 2
        assert series.extras["increments"][-1] < 1e-10

    def test_divergence_when_cutoff_barely_separates(self):
        # data hugging the cutoff line: per-term gain above one
        grid = Grid(64)
        cutoff = Cutoff(1.05, 1.0)
        rng = np.random.default_rng(31)
        coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
        for eta in (11, 12, -11, -12):
            coeffs[grid.index_of(eta)] = (
                rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
            )
        a = Symbol(grid, coeffs, order_m=0.0)
        with pytest.raises(NeumannDivergence):
            gauge.solve_commutator(a, 3.0, cutoff, route="neumann_series")

    def test_newton_route_delegates(self):
        grid = Grid(64)
        cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(37)
        a = band_symbol(grid, cutoff, rng, amplitude=1e-6)
        newton = gauge.solve_commutator(a, 1.5, cutoff, route="newton")
        explicit = gauge.solve_commutator(a, 1.5, cutoff)
        assert newton.route == "newton"
        diff = float(np.max(np.abs(newton.p.coeffs - explicit.p.coeffs)))
        assert diff <= 1e-11


class TestTimeDependent:
    def setup_method(self):
        self.grid = Grid(128)
        self.cutoff = Cutoff(8.0, 2.0)
        rng = np.random.default_rng(17)
        self.a0 = band_symbol(self.grid, self.cutoff, rng)
        self.dt = 0.05

    def test_constant_data_degenerates_exactly(self):
        sols = gauge.solve_time_dependent([self.a0] * 9, self.dt, 1.5,
                                          self.cutoff)
        stationary = gauge.solve_commutator(self.a0, 1.5, self.cutoff)
        for sol in sols:
            np.testing.assert_array_equal(sol.p.coeffs, stationary.p.coeffs)
        assert sols[0].extras["increments"] == ()
        assert sols[0].extras["growth_ratio"] == 0.0
        assert max(s.residual_norm for s in sols) < 1e-15

    def test_single_sample_degenerates(self):
        sols = gauge.solve_time_dependent([self.a0], self.dt, 1.5, self.cutoff)
        stationary = gauge.solve_commutator(self.a0, 1.5, self.cutoff)
        assert len(sols) == 1
        np.testing.assert_array_equal(sols[0].p.coeffs, stationary.p.coeffs)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            gauge.solve_time_dependent([self.a0] * 3, self.dt, 1.5, self.cutoff)
        with pytest.raises(ValueError):
            gauge.solve_time_dependent([self.a0] * 9, 0.0, 1.5, self.cutoff)

    def test_residual_decays_geometrically_in_depth(self):
        traj = harmonic_trajectory(self.a0, 0.2, self.dt)
        residuals = []
        for j_max in range(3):
            sols = gauge.solve_time_dependent(traj, self.dt, 1.5, self.cutoff,
                                              j_max=j_max)
            residuals.append(max(s.residual_norm for s in sols))
        # contraction ~ omega / denominator scale ~ 0.04 per layer
        assert residuals[1] / residuals[0] < 0.08
        assert residuals[2] / residuals[1] < 0.08

    def test_growth_ratio_measures_frequency(self):
        traj = harmonic_trajectory(self.a0, 0.2, self.dt)
        sols = gauge.solve_time_dependent(traj, self.dt, 1.5, self.cutoff)
        extras = sols[0].extras
        assert extras["growth_ratios"][0] == pytest.approx(0.2, rel=1e-3)
        assert extras["growth_ratio"] < 1.5
        assert not extras["growth_flagged"]
        assert max(s.residual_norm for s in sols) < 1e-4

    def test_fast_growth_flagged_without_stall(self):
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
        traj = harmonic_trajectory(b0, 2.0, self.dt)
        sols = gauge.solve_time_dependent(traj, self.dt, 1.5, self.cutoff)
        extras = sols[0].extras
        assert extras["growth_ratios"][0] == pytest.approx(2.0, rel=1e-2)
        assert extras["growth_flagged"]
        assert max(s.residual_norm for s in sols) < 1e-2

    def test_stall_raises(self):
        traj = harmonic_trajectory(self.a0, 40.0, self.dt)
        with pytest.raises(SeriesStalled):
            gauge.solve_time_dependent(traj, self.dt, 1.5, self.cutoff)

    def test_slow_denominators_stall(self):
        # alpha near 1 leaves denominators ~ omega: no ladder contraction
        traj = harmonic_trajectory(self.a0, 2.0, self.dt)
        with pytest.raises(SeriesStalled):
            gauge.solve_time_dependent(traj, self.dt, 1.25, self.cutoff)

    def test_bprime_config_reported(self):
        traj = harmonic_trajectory(self.a0, 0.2, self.dt)
        sols = gauge.solve_time_dependent(traj, self.dt, 1.5, self.cutoff,
                                          bprime_factor=3.0)
        assert sols[0].extras["bprime_factor"] == 3.0
        assert sols[0].extras["predicted_contraction"] < 1.0


@pytest.mark.parametrize("n", [16, 32, 64])
def test_stack_seminorm_is_the_max_over_samples_exactly(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    stack = (rng.standard_normal((11, n, n))
             + 1j * rng.standard_normal((11, n, n)))
    for order_m in (-0.5, 0.0, 2.5):
        expected = max(seminorm(Symbol(grid, coeffs), order_m=order_m)
                       for coeffs in stack)
        assert gauge._stack_seminorm(stack, grid, order_m) == expected


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


class TestTaylorExponential:
    N = 64

    def generator(self, kind, norm):
        """iH for hermitian H, or a non-normal complex matrix, at ||.||_1."""
        rng = np.random.default_rng(61)
        m = (rng.standard_normal((self.N, self.N))
             + 1j * rng.standard_normal((self.N, self.N)))
        a = 1j * (m + m.conj().T) if kind == "hermitian" else m + 3.0 * np.triu(m)
        return a * (norm / np.max(np.sum(np.abs(a), axis=0)))

    @pytest.mark.parametrize("norm", [1e-12, 3.6e-6, 1e-3, 0.15, 1.0, 5.0])
    @pytest.mark.parametrize("kind", ["hermitian", "nonnormal"])
    def test_matches_scipy(self, kind, norm):
        a = self.generator(kind, norm)
        reference = expm(a)
        gap = np.max(np.abs(gauge._expm(a) - reference))
        assert gap <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("norm", [1e-12, 3.6e-6, 1e-3, 0.15, 1.0, 5.0])
    def test_hermitian_generator_gives_a_unitary(self, norm):
        u = gauge._expm(self.generator("hermitian", norm))
        gap = np.max(np.abs(u.conj().T @ u - np.eye(self.N)))
        assert gap <= 1e-14

    def test_zero_gives_the_identity_exactly(self):
        zero = np.zeros((self.N, self.N), dtype=np.complex128)
        assert np.array_equal(gauge._expm(zero), np.eye(self.N))


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
        commutator = sol.extras["transform"] * \
            gauge._pair_denominator(self.grid, 1.5)
        off = np.where(paraop.pair_mask(self.grid, self.cutoff) == 0.0,
                       commutator, 0.0)
        assert sol.extras["off_support_norm"] == float(np.max(np.abs(off)))


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
        for sol, g in zip(sols, sols[0].extras["g_stack"]):
            assert sol.residual_norm == float(np.max(np.abs(g[support])))
            off = np.where(psi == 0.0, g, 0.0)
            assert sol.extras["off_support_norm"] == float(np.max(np.abs(off)))

    def test_tighter_tolerance_drives_deeper(self):
        sols = gauge.solve_conjugating(self.cosine_fields(1e-3), self.dt,
                                       self.alpha, self.cutoff, tol=1e-10)
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

    def test_residual_operator_tail_is_low_order(self):
        # the defining equation applied to the cutoff-masked gauge psi W:
        # whatever it leaves must act like an operator of order <= 0.2
        grid = Grid(128)
        fields = self.cosine_fields(1e-3, grid=grid)
        sols = gauge.solve_conjugating(fields, self.dt, self.alpha,
                                       self.cutoff)
        masked = paraop.pair_mask(grid, self.cutoff) * sols[0].extras["w_stack"]
        mid = len(sols) // 2
        transport = paraop.materialize(
            regularize(transport_symbol(fields[mid]) * 1j, self.cutoff),
            self.cutoff,
        ).entries
        probe = (
            gauge._time_derivative_stack(masked, self.dt)[mid]
            - masked[mid] * gauge._pair_denominator(grid, self.alpha)
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
