"""The array-level RK4 kernel: bit for bit the Field-level step it
replaced, the detector readings a trajectory keeps, and its cached tables."""

import numpy as np
import pytest

from paraburgers import experiments, solver
from paraburgers.paraop import dealias_product, paraproduct, product_tables
from paraburgers.solver import SimConfig, initial_field, propagators, run, \
    step
from paraburgers.spectral import Field, Grid, check_same_grid, derivative, \
    dispersion_profile, linf_norm, multiplier_apply
from paraburgers.symbols import Cutoff


# -- the Field-level kernel, kept as the reference --------------------------

def reference_dealias_product(u, v):
    grid = check_same_grid(u, v)
    keep = np.abs(grid.freqs) <= grid.n // 3
    a = Field(grid, np.where(keep, u.spectral, 0.0), u.is_real, _validate=False)
    b = Field(grid, np.where(keep, v.spectral, 0.0), v.is_real, _validate=False)
    product = Field.from_physical(grid, a.physical() * b.physical())
    return Field(grid, np.where(keep, product.spectral, 0.0),
                 u.is_real and v.is_real, _validate=False)


def reference_nonlinearity(cfg, grid):
    dx = derivative()
    if cfg.equation == "full":
        if cfg.dealias:
            def rhs(u):
                return reference_dealias_product(
                    u, multiplier_apply(u, dx)) * (-1.0)
        else:
            def rhs(u):
                ux = multiplier_apply(u, dx)
                return Field.from_physical(
                    grid, u.physical() * ux.physical()) * (-1.0)
    else:
        cutoff = cfg.cutoff

        def rhs(u):
            return paraproduct(u, multiplier_apply(u, dx), cutoff) * (-1.0)
    return rhs


def reference_step(state, cfg, dt=None, nonlinear=True):
    grid = state.grid
    h = cfg.dt if dt is None else dt
    phase = dispersion_profile(grid, cfg.alpha)
    half = np.exp(-0.5j * h * phase)
    full = np.exp(-1.0j * h * phase)

    v = state.spectral
    if not nonlinear:
        out = full * v
    else:
        rhs = reference_nonlinearity(cfg, grid)

        def lift(coeffs):
            return Field(grid, coeffs, state.is_real, _validate=False)

        n1 = rhs(state).spectral
        n2 = rhs(lift(half * (v + 0.5 * h * n1))).spectral
        n3 = rhs(lift(half * v + 0.5 * h * n2)).spectral
        n4 = rhs(lift(full * v + h * half * n3)).spectral
        out = full * v + (h / 6.0) * (full * n1 + 2.0 * half * (n2 + n3) + n4)
    return Field(grid, out, state.is_real, _validate=False)


# -- states ------------------------------------------------------------------

def real_state(grid):
    return initial_field(grid, "bump", 2.0)


def complex_state(grid):
    """A bump times a complex constant plus one unpaired mode."""
    coeffs = real_state(grid).spectral * (1.0 + 0.5j)
    coeffs[grid.index_of(3)] += 0.2 - 0.1j
    return Field(grid, coeffs, is_real=False)


STATES = {"real": real_state, "complex": complex_state}
FORMS = {
    "full_dealiased": dict(equation="full", dealias=True),
    "full_aliased": dict(equation="full", dealias=False),
    "paralinear": dict(equation="paralinear", cutoff=Cutoff(2.5, 1.3)),
}


class TestBitIdenticalKernel:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("kind", sorted(STATES))
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_steps_match_the_field_level_kernel(self, n, kind, form):
        cfg = SimConfig(n_points=n, alpha=1.3, t_end=1.0, dt=3e-3,
                        **FORMS[form])
        new = ref = STATES[kind](Grid(n))
        for dt in (3e-3, 3e-3, 1.7e-3):
            new = step(new, cfg, dt=dt)
            ref = reference_step(ref, cfg, dt=dt)
            assert new.is_real == ref.is_real
            assert new.spectral.tobytes() == ref.spectral.tobytes()

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("kind", sorted(STATES))
    def test_free_step_matches(self, n, kind):
        cfg = SimConfig(n_points=n, alpha=1.7, t_end=1.0, dt=0.01)
        state = STATES[kind](Grid(n))
        new = step(state, cfg, nonlinear=False)
        ref = reference_step(state, cfg, nonlinear=False)
        assert new.spectral.tobytes() == ref.spectral.tobytes()

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("left, right", [("real", "real"),
                                             ("real", "complex"),
                                             ("complex", "real"),
                                             ("complex", "complex")])
    def test_dealias_product_matches(self, n, left, right):
        grid = Grid(n)
        u = STATES[left](grid)
        v = multiplier_apply(STATES[right](grid), derivative())
        new = dealias_product(u, v)
        ref = reference_dealias_product(u, v)
        assert new.is_real == ref.is_real
        assert new.spectral.tobytes() == ref.spectral.tobytes()


def detector_readings(u):
    return linf_norm(multiplier_apply(u, derivative())), linf_norm(u)


class TestPeaks:
    @pytest.mark.parametrize("equation", ["full", "paralinear"])
    def test_one_reading_per_recorded_state(self, equation):
        cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.05, dt=1e-3,
                        equation=equation, cutoff=Cutoff(2.5, 1.3),
                        init="bump", amplitude=0.5, stride=7)
        traj = run(cfg)
        assert traj.blowup is None
        assert len(traj.peaks) == len(traj.times) == 9
        for u, reading in zip(traj.states, traj.peaks):
            assert reading == detector_readings(u)

    @pytest.mark.parametrize("amplitude, dt, reason, samples", [
        (60.0, 5e-3, "sup_norm", 4),
        (100.0, 1e-2, "lipschitz", 1),
    ])
    def test_tripped_run_keeps_readings_of_recorded_states(
            self, amplitude, dt, reason, samples):
        # an explicit step far beyond stability at alpha = 1.2 trips the
        # detector; the tripping state is not recorded, nor its reading
        cfg = SimConfig(n_points=64, alpha=1.2, t_end=0.5, init="cos1",
                        amplitude=amplitude, dt=dt, stride=2)
        traj = run(cfg)
        assert traj.blowup == reason
        assert len(traj.peaks) == len(traj.times) == samples
        for u, reading in zip(traj.states, traj.peaks):
            assert reading == detector_readings(u)

    def test_mismatched_readings_rejected(self):
        grid = Grid(16)
        states = (real_state(grid), real_state(grid))
        with pytest.raises(ValueError):
            solver.Trajectory(np.array([0.0, 0.1]), states,
                              peaks=((1.0, 1.0),))

    def test_scan_builds_its_initial_field_once_per_grid(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].n)
            return initial_field(*args, **kwargs)

        monkeypatch.setattr(experiments, "initial_field", counted)
        monkeypatch.setattr(solver, "initial_field", counted)
        cells = experiments.blowup_scan("cos1", (1.5,), (1.0,),
                                        n_pair=(16, 32), t_end=0.3)
        assert calls == [16, 32]
        assert cells[0].outcome == "none"


class TestTables:
    def test_propagator_cache_stays_bounded(self):
        # every t_end below gives its run a distinct final step
        for k in range(3 * propagators.cache_info().maxsize):
            run(SimConfig(n_points=16, alpha=1.5, t_end=0.01 + 1e-5 * (k + 1),
                          dt=2e-3, init="cos1"))
            info = propagators.cache_info()
            assert info.currsize <= info.maxsize

    def test_tables_are_read_only(self):
        grid = Grid(16)
        half, full = propagators(grid, 1.5, 0.01)
        ixi, keep = product_tables(grid)
        for table in (half, full, ixi, keep):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0
