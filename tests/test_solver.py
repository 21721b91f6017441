"""Integrating-factor RK4 stepping, blow-up detection, and the scaling map."""

import dataclasses

import numpy as np
import pytest

from paraburgers import solver
from paraburgers.errors import InvariantBroken, NanDetected, SpectrumOverflow
from paraburgers.paraop import materialize
from paraburgers.solver import SimConfig, Trajectory, default_dt, \
    initial_field, propagators, rescale, run, step
from paraburgers.spectral import Field, Grid, derivative, dispersion_profile, \
    homogeneous_sobolev_norm, l2_norm, linf_norm, multiplier_apply
from paraburgers.symbols import Cutoff, Symbol

# Solution error against a dt/8 reference at N = 128, alpha = 1.5,
# amplitude 0.5, t_end = 1.0: err(0.02) = 2.29e-10, err(0.01) = 1.43e-11,
# ratio 16.05.  The scheme is classical fourth order.
FOURTH_ORDER_BRACKET = (13.0, 20.0)

# Conservation drift at u0 = 0.01 cos x, N = 256, t in [0, 1], dt = 0.1:
#   alpha = 1.5: mass 2.00e-13, H 3.59e-13
#   alpha = 2.0: mass 6.92e-12, H 1.68e-11
# and halving dt shrinks both by 20x-32x (at least the fourth-order 16x
# up to round-off; we require 8x with the alpha = 2.0 pair, which sits
# two decades above the drift floor).
MASS_DRIFT_BOUND = 1e-8
ENERGY_DRIFT_BOUND = 1e-6
HALVING_FACTOR = 8.0


def hamiltonian(u, alpha):
    """The conserved energy: quadratic dispersive part plus a cubic term."""
    quad = homogeneous_sobolev_norm(u, 0.5 * (alpha - 1.0)) ** 2
    cubic = 2.0 * np.pi / u.grid.n * float(np.sum(u.physical() ** 3)) / 3.0
    return quad + cubic


def relative_drift(series):
    series = np.asarray(series)
    return float(np.max(np.abs(series - series[0])) / np.abs(series[0]))


def dense_paraproduct(grid, u, v, cutoff):
    """T_u v through the dense reference matrix, for coefficient arrays."""
    return materialize(Symbol.from_field(Field(grid, u)), cutoff).entries @ v


def free_flow(u, alpha, t):
    """The exact linear flow of u for time t: each mode turns by its
    phase exp(-i t f(xi))."""
    phase = np.exp(-1j * t * dispersion_profile(u.grid, alpha))
    return Field(u.grid, phase * u.spectral, True, _validate=False)


class TestSimConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            SimConfig(n_points=64, alpha=1.0, t_end=1.0)
        with pytest.raises(ValueError, match="alpha"):
            SimConfig(n_points=64, alpha=3.5, t_end=1.0)

    def test_unknown_enums(self):
        with pytest.raises(ValueError, match="equation"):
            SimConfig(n_points=64, alpha=1.5, t_end=1.0, equation="weak")
        with pytest.raises(ValueError, match="family"):
            SimConfig(n_points=64, alpha=1.5, t_end=1.0, init="soliton")

    def test_bad_steps(self):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(n_points=64, alpha=1.5, t_end=1.0, dt=-0.1)
        with pytest.raises(ValueError, match="shorter than one step"):
            SimConfig(n_points=64, alpha=1.5, t_end=0.05, dt=0.1)
        with pytest.raises(ValueError, match="t_end"):
            SimConfig(n_points=64, alpha=1.5, t_end=0.0)
        with pytest.raises(ValueError, match="stride"):
            SimConfig(n_points=64, alpha=1.5, t_end=1.0, stride=0)

    @pytest.mark.parametrize("stride", [2.5, 2.0, "2", None])
    def test_stride_must_be_an_integer(self, stride):
        # stride 2.5 used to record every 5th step: a run of N = 32, dt =
        # 0.01, t_end = 0.1 sampled t = 0, 0.05, 0.1
        with pytest.raises(ValueError, match="stride must be an integer"):
            SimConfig(n_points=32, alpha=1.5, t_end=0.1, dt=0.01,
                      stride=stride)
        cfg = SimConfig(n_points=32, alpha=1.5, t_end=0.1, dt=0.01,
                        stride=np.int64(2))
        np.testing.assert_allclose(run(cfg).times, np.arange(6) * 0.02,
                                   atol=1e-12)

    @pytest.mark.parametrize("n_points", ["64", 64.0, 63, 6, 0, -64, None])
    def test_n_points_must_be_an_even_integer_of_at_least_8(self, n_points):
        # "64" used to reach `run` as a TypeError from string formatting
        with pytest.raises(ValueError, match="n_points must be an even"):
            SimConfig(n_points=n_points, alpha=1.5, t_end=0.01, dt=0.005)
        cfg = SimConfig(n_points=np.int64(8), alpha=1.5, t_end=0.01,
                        dt=0.005)
        assert run(cfg).states[0].grid == Grid(8)

    @pytest.mark.parametrize("equation", ["full", "paralinear"])
    @pytest.mark.parametrize("cutoff", ["x", None, (8.0, 2.0)])
    def test_cutoff_must_be_a_cutoff(self, cutoff, equation):
        # "x" used to raise AttributeError in a paralinear run and pass
        # silently through a full one
        with pytest.raises(ValueError, match="cutoff must be a Cutoff"):
            SimConfig(n_points=32, alpha=1.5, t_end=0.01, dt=0.005,
                      equation=equation, cutoff=cutoff)

    @pytest.mark.parametrize("init", ["random", "cos1"])
    @pytest.mark.parametrize("seed", [1.5, -1, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed, init):
        # seed 1.5 used to reach numpy's SeedSequence as a TypeError, and
        # -1 as a ValueError, once a random run started; cos1, which draws
        # nothing, accepted both
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(n_points=32, alpha=1.5, t_end=0.01, dt=0.005,
                      seed=seed, init=init)
        cfg = SimConfig(n_points=32, alpha=1.5, t_end=0.01, dt=0.005,
                        seed=np.int64(3), init=init)
        np.testing.assert_array_equal(
            run(cfg).states[0].spectral,
            initial_field(Grid(32), init, 0.01, 3).spectral)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["amplitude", "t_end"])
    def test_non_finite_inputs(self, name, value):
        # a nan amplitude used to run to outcome 'none' with nan growth
        # factors, and t_end = inf to an OverflowError in the stepping loop
        for dt in (None, 0.01):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SimConfig(n_points=32, alpha=1.5, dt=dt,
                          **{"t_end": 1.0, name: value})

    def test_defaults(self):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0)
        assert cfg.equation == "full"
        assert cfg.dt is None


class TestTrajectory:
    def _states(self, count, n=16):
        grid = Grid(n)
        return tuple(Field.from_physical(grid, np.cos(grid.x) * (k + 1))
                     for k in range(count))

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Trajectory(np.array([]), ())

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at t = 0"):
            Trajectory(np.array([0.5, 1.0]), self._states(2))

    def test_times_increase(self):
        with pytest.raises(ValueError, match="increase"):
            Trajectory(np.array([0.0, 0.2, 0.2]), self._states(3))

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.2, 0.3, np.nan],
                                       [0.0, np.nan, 0.2],
                                       [0.0, 0.1, np.inf]])
    def test_times_finite(self, times):
        # a nan difference compares False both ways, so only a check that
        # nan fails can catch it; inf increases strictly but is no time
        with pytest.raises(ValueError, match="finite and increase"):
            Trajectory(np.array(times), self._states(len(times)))

    def test_one_state_per_time(self):
        with pytest.raises(ValueError, match="one state per sample"):
            Trajectory(np.array([0.0, 0.1]), self._states(3))

    def test_no_mixed_grids(self):
        states = self._states(1) + self._states(1, n=32)
        with pytest.raises(ValueError, match="mixed grids"):
            Trajectory(np.array([0.0, 0.1]), states)

    def test_states_finite(self):
        grid = Grid(16)
        bad = Field(grid, np.full(16, np.nan, dtype=np.complex128),
                    is_real=True, _validate=False)
        with pytest.raises(ValueError, match="finite"):
            Trajectory(np.array([0.0]), (bad,))

    def test_states_real(self):
        grid = Grid(16)
        wave = Field.from_physical(grid, np.exp(1j * grid.x))
        with pytest.raises(ValueError, match="real"):
            Trajectory(np.array([0.0, 0.1]), self._states(1) + (wave,))


class TestInitialField:
    @pytest.mark.parametrize("name", ["cos1", "cos_mix", "bump", "random"])
    def test_peak_normalized(self, name):
        field = initial_field(Grid(128), name, 0.3, seed=5)
        assert field.is_real
        assert abs(linf_norm(field) - 0.3) <= 1e-12
        assert abs(field.coefficient(0)) <= 1e-12

    def test_cos1_closed_form(self):
        grid = Grid(64)
        field = initial_field(grid, "cos1", 0.25)
        np.testing.assert_allclose(field.physical(), 0.25 * np.cos(grid.x),
                                   atol=1e-14)

    def test_bump_band_limited(self):
        grid = Grid(96)
        field = initial_field(grid, "bump", 1.0)
        tail = np.abs(grid.freqs) > grid.n // 3
        assert np.all(field.spectral[tail] == 0.0)

    def test_random_deterministic(self):
        grid = Grid(256)
        one = initial_field(grid, "random", 0.1, seed=7)
        two = initial_field(grid, "random", 0.1, seed=7)
        other = initial_field(grid, "random", 0.1, seed=8)
        np.testing.assert_array_equal(one.spectral, two.spectral)
        assert np.max(np.abs(one.spectral - other.spectral)) > 1e-6
        # the band is capped at 24 modes regardless of resolution
        assert np.all(one.spectral[np.abs(grid.freqs) > 24] == 0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            initial_field(Grid(64), "chirp", 1.0)


class TestStep:
    def test_zero_field_fixed(self):
        grid = Grid(64)
        zero = Field(grid, np.zeros(64, dtype=np.complex128),
                     is_real=True, _validate=False)
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0, dt=0.1)
        out = step(zero, cfg)
        np.testing.assert_array_equal(out.spectral, zero.spectral)

    def test_free_flow_exact_phase(self):
        # measured gap after four steps: 1.6e-16
        grid = Grid(64)
        cfg = SimConfig(n_points=64, alpha=1.75, t_end=1.0, dt=0.25)
        state = initial_field(grid, "cos_mix", 0.4).spectral
        for _ in range(4):
            state = propagators(grid, cfg.alpha, cfg.dt)[1] * state
        expected = np.exp(-1j * 1.0 * dispersion_profile(grid, 1.75)) \
            * initial_field(grid, "cos_mix", 0.4).spectral
        assert np.max(np.abs(state - expected)) <= 1e-12

    def test_one_step_l2(self):
        # the propagator is unimodular and the nonlinearity is a transport
        # term, so even one step moves the L2 norm by round-off only
        # (measured 2e-16 relative)
        grid = Grid(64)
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0, dt=0.01)
        u0 = initial_field(grid, "cos1", 0.01)
        u1 = step(u0, cfg)
        assert u1.is_real
        assert abs(l2_norm(u1) / l2_norm(u0) - 1.0) <= 1e-10

    def test_complex_state_rejected(self):
        grid = Grid(32)
        cfg = SimConfig(n_points=32, alpha=1.5, t_end=1.0, dt=0.01)
        wave = Field.from_physical(grid, 0.1 * np.exp(1j * grid.x))
        with pytest.raises(ValueError, match="real fields only"):
            step(wave, cfg)

    def test_needs_positive_dt(self):
        grid = Grid(32)
        cfg = SimConfig(n_points=32, alpha=1.5, t_end=1.0)
        with pytest.raises(ValueError, match="positive step"):
            step(initial_field(grid, "cos1", 0.1), cfg)

    def test_nan_detected(self):
        grid = Grid(64)
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0, dt=0.1,
                        amplitude=1e160)
        huge = initial_field(grid, "cos1", 1e160)
        with np.errstate(all="ignore"):
            with pytest.raises(NanDetected):
                step(huge, cfg)


class TestDefaultDt:
    def test_resolution_formula(self):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0)
        state = initial_field(Grid(64), "cos1", 0.01)
        h = default_dt(cfg, state)
        assert np.isclose(h, 0.5 * 32.0 ** -1.5 * 2.0 * np.pi, rtol=1e-12)

    def test_step_doubling_accepts(self):
        cfg = SimConfig(n_points=64, alpha=2.5, t_end=1.0)
        state = initial_field(Grid(64), "cos_mix", 0.05)
        h = default_dt(cfg, state)
        coarse = step(state, cfg, dt=h)
        fine = step(step(state, cfg, dt=0.5 * h), cfg, dt=0.5 * h)
        assert np.max(np.abs(coarse.spectral - fine.spectral)) <= 1e-8

    def test_non_finite_trial_step_halves_the_step(self):
        # every trial overflows at amplitude 1e160, so all 20 halvings run
        cfg = SimConfig(n_points=32, alpha=1.5, t_end=0.01, amplitude=1e160)
        state = initial_field(Grid(32), "cos1", 1e160)
        with np.errstate(all="ignore"):
            h = default_dt(cfg, state)
        assert h == 0.5 * 16.0 ** -1.5 * 2.0 * np.pi * 0.5 ** 20

    def test_run_with_default_step_reports_non_finite_blowup(self):
        with np.errstate(all="ignore"):
            traj = run(SimConfig(32, 1.5, t_end=0.01, amplitude=1e160))
        assert traj.blowup == "nan"
        assert len(traj.states) == 1


class TestRun:
    def test_recording_and_stride(self):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.1, dt=0.01, stride=4)
        traj = run(cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.04, 0.08, 0.1],
                                   atol=1e-12)
        assert len(traj.states) == 4
        assert traj.blowup is None
        assert traj.final() is traj.states[-1]

    def test_diagnose_callback(self):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.05, dt=0.01,
                        amplitude=0.2)
        traj = run(cfg, diagnose=linf_norm)
        assert len(traj.diagnostics) == len(traj.times)
        assert abs(traj.diagnostics[0] - 0.2) <= 1e-12

    def test_custom_initial(self):
        grid = Grid(64)
        u0 = initial_field(grid, "bump", 0.05)
        cfg = SimConfig(n_points=64, alpha=2.0, t_end=0.02, dt=0.01)
        traj = run(cfg, initial=u0)
        assert traj.states[0] is u0
        with pytest.raises(ValueError, match="n_points"):
            run(cfg, initial=initial_field(Grid(32), "bump", 0.05))
        wave = Field.from_physical(grid, 0.05 * np.exp(1j * grid.x))
        for dt in (0.01, None):
            with pytest.raises(ValueError, match="real fields only"):
                run(dataclasses.replace(cfg, dt=dt), initial=wave)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_conservation(self, alpha):
        cfg = SimConfig(n_points=256, alpha=alpha, t_end=1.0, dt=0.1)
        traj = run(cfg, diagnose=lambda u: (l2_norm(u) ** 2,
                                            hamiltonian(u, alpha)))
        mass = [d[0] for d in traj.diagnostics]
        energy = [d[1] for d in traj.diagnostics]
        assert relative_drift(mass) <= MASS_DRIFT_BOUND
        assert relative_drift(energy) <= ENERGY_DRIFT_BOUND

    def test_drift_is_fourth_order(self):
        drifts = {}
        for dt in (0.1, 0.05):
            cfg = SimConfig(n_points=256, alpha=2.0, t_end=1.0, dt=dt)
            traj = run(cfg, diagnose=lambda u: (l2_norm(u) ** 2,
                                                hamiltonian(u, 2.0)))
            drifts[dt] = (relative_drift([d[0] for d in traj.diagnostics]),
                          relative_drift([d[1] for d in traj.diagnostics]))
        assert drifts[0.1][0] / drifts[0.05][0] >= HALVING_FACTOR
        assert drifts[0.1][1] / drifts[0.05][1] >= HALVING_FACTOR

    def test_solution_fourth_order(self):
        def final_at(dt):
            cfg = SimConfig(n_points=128, alpha=1.5, t_end=1.0, dt=dt,
                            amplitude=0.5, stride=10 ** 6)
            return run(cfg).final().spectral

        reference = final_at(0.00125)
        coarse = np.max(np.abs(final_at(0.02) - reference))
        fine = np.max(np.abs(final_at(0.01) - reference))
        lo, hi = FOURTH_ORDER_BRACKET
        assert coarse <= 1e-9
        assert lo <= coarse / fine <= hi

    def test_nan_truncates(self):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=1.0, dt=0.1,
                        amplitude=1e160)
        with np.errstate(all="ignore"):
            traj = run(cfg)
        assert traj.blowup == "nan"
        np.testing.assert_array_equal(traj.times, [0.0])

    def test_sup_norm_truncates(self):
        cfg = SimConfig(n_points=64, alpha=1.1, t_end=2.0, dt=0.05,
                        amplitude=10.0)
        with np.errstate(all="ignore"):
            traj = run(cfg)
        assert traj.blowup == "sup_norm"
        assert traj.times[-1] < 2.0
        assert all(np.all(np.isfinite(s.spectral)) for s in traj.states)

    def test_lipschitz_truncates(self):
        # wave breaking at huge amplitude: the gradient passes the absolute
        # bar near amp * N / 2 while the sup norm never leaves O(amp)
        cfg = SimConfig(n_points=256, alpha=1.1, t_end=3e-7, dt=1e-10,
                        amplitude=1e7, stride=100)
        traj = run(cfg)
        assert traj.blowup == "lipschitz"
        last = traj.final()
        assert linf_norm(last) <= 2e7
        assert linf_norm(multiplier_apply(last, derivative())) <= 1e8

    def test_paralinear_low_modes_free(self):
        # modes at or below the cutoff floor never meet the transport term;
        # measured residual 6e-17
        cfg = SimConfig(n_points=128, alpha=1.5, t_end=0.2, dt=2e-3,
                        equation="paralinear", amplitude=0.05, stride=20)
        traj = run(cfg)
        assert traj.blowup is None
        assert traj.low_mode_residual <= 1e-12
        c0 = traj.states[0].coefficient(1)
        c1 = traj.final().coefficient(1)
        assert abs(c1 - np.exp(-0.2j) * c0) <= 1e-12

    def test_low_mode_certificate_is_an_error(self, monkeypatch):
        # a raised error, not an assert, so it also holds under python -O
        monkeypatch.setattr(solver, "LOW_MODE_TOL", -1.0)
        cfg = SimConfig(n_points=32, alpha=2.0, t_end=0.003, dt=1e-3,
                        equation="paralinear", init="random")
        with pytest.raises(InvariantBroken, match="low modes"):
            run(cfg)

    def test_band_paraproduct_matches_dense_trajectory(self, monkeypatch):
        # a non-integer cutoff, so the band carries fractional weights; with
        # the default Cutoff(8, 2) the N = 64 initial families are too
        # narrow for T_u d_x u to be nonzero at all
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.05, dt=1e-3,
                        equation="paralinear", cutoff=Cutoff(2.5, 1.3),
                        init="bump", amplitude=0.5, stride=10)
        band = run(cfg)
        monkeypatch.setattr(solver, "paraproduct_coeffs", dense_paraproduct)
        dense = run(cfg)
        assert len(band.states) == len(dense.states) == 6
        for a, b in zip(band.states, dense.states):
            assert linf_norm(a - b) <= 1e-12 * linf_norm(b)
        assert band.low_mode_residual <= 1e-12
        assert dense.low_mode_residual <= 1e-12
        # the transport term moved the state far beyond the agreement bound
        free = free_flow(band.states[0], cfg.alpha, cfg.t_end)
        assert linf_norm(band.final() - free) > 1e-4 * linf_norm(free)

    def test_windowed_paraproduct_matches_dense_under_default_cutoff(
            self, monkeypatch):
        # random data at N = 256 has modes above B + b = 10, so the default
        # Cutoff(8, 2) moves it off the free flow (measured gap 2.8e-4)
        cfg = SimConfig(n_points=256, alpha=1.5, t_end=0.02, dt=2e-3,
                        equation="paralinear", init="random", amplitude=1e-2,
                        stride=5)
        assert cfg.cutoff == Cutoff(8, 2)
        windowed = run(cfg)
        monkeypatch.setattr(solver, "paraproduct_coeffs", dense_paraproduct)
        dense = run(cfg)
        assert len(windowed.states) == len(dense.states) == 3
        for a, b in zip(windowed.states, dense.states):
            assert linf_norm(a - b) <= 1e-12 * linf_norm(b)
        free = free_flow(windowed.states[0], cfg.alpha, cfg.t_end)
        assert linf_norm(windowed.final() - free) > 1e-5 * linf_norm(free)

    def test_paralinear_real_run_keeps_the_nyquist_mode_zero(self):
        # while the real paraproduct still wrote the Nyquist mode, this
        # run ended with the coefficient 4.3e-13 + 6.5e-13j there
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.05, dt=2e-3,
                        equation="paralinear", cutoff=Cutoff(2.5, 1.3),
                        init="bump", amplitude=0.5)
        final = run(cfg).final()
        assert final.is_real
        assert final.coefficient(-32) == 0.0
        assert np.max(np.abs(final.spectral)) > 0.01



class TestRescale:
    def test_identity(self):
        u = initial_field(Grid(64), "cos_mix", 0.3)
        assert rescale(u, 1, 1.7) is u

    def test_single_mode_closed_form(self):
        # lam = 2, alpha = 3/2: the prefactor lam^(alpha - 3/2) is 1, so
        # cos 2x maps to cos 4x and the homogeneous H^1 norm doubles
        grid = Grid(128)
        u = Field.from_physical(grid, np.cos(2.0 * grid.x))
        v = rescale(u, 2, 1.5)
        assert abs(v.coefficient(4) - 0.5) <= 1e-12
        assert abs(v.coefficient(2)) <= 1e-12
        np.testing.assert_allclose(v.physical(), np.cos(4.0 * grid.x),
                                   atol=1e-12)
        ratio = homogeneous_sobolev_norm(v, 1.0) / homogeneous_sobolev_norm(u, 1.0)
        assert abs(ratio - 2.0 ** (1.5 + 1.0 - 1.5)) <= 1e-10

    def test_downscale(self):
        grid = Grid(128)
        u = Field.from_physical(grid, np.cos(4.0 * grid.x))
        v = rescale(u, 0.5, 2.0)
        assert abs(v.coefficient(2) - 0.5 ** 0.5 * 0.5) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.25, 1.75])
    def test_critical_norm_invariant(self, alpha):
        u = initial_field(Grid(128), "cos_mix", 0.2)
        v = rescale(u, 4, alpha)
        s_c = 1.5 - alpha
        ratio = homogeneous_sobolev_norm(v, s_c) / homogeneous_sobolev_norm(u, s_c)
        assert abs(ratio - 1.0) <= 1e-10

    def test_fractional_target(self):
        grid = Grid(128)
        u = Field.from_physical(grid, np.cos(3.0 * grid.x))
        with pytest.raises(SpectrumOverflow, match="fractional"):
            rescale(u, 0.5, 1.5)

    def test_off_lattice_target(self):
        grid = Grid(128)
        u = Field.from_physical(grid, np.cos(40.0 * grid.x))
        with pytest.raises(SpectrumOverflow, match="off the lattice"):
            rescale(u, 2, 1.5)

    def test_scaling_law_certificate_is_an_error(self, monkeypatch):
        # a raised error, not an assert, so it also holds under python -O
        u = initial_field(Grid(64), "cos1", 0.1)
        measured = solver.homogeneous_sobolev_norm
        monkeypatch.setattr(
            solver, "homogeneous_sobolev_norm",
            lambda f, s: measured(f, s) * (1.0 if f is u else 1.5))
        with pytest.raises(InvariantBroken, match="scaling law"):
            rescale(u, 2, 1.5)

    def test_power_of_two_required(self):
        u = initial_field(Grid(64), "cos1", 0.1)
        for lam in (3, 0, -2):
            with pytest.raises(ValueError, match="power of two"):
                rescale(u, lam, 1.5)
