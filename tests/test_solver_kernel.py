"""The array-level RK4 kernel: bit for bit the Field-level step it
replaced, the detector readings a trajectory keeps, its cached tables, and
the stacked loop that advances many runs at once."""

import dataclasses
import math

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


# -- the stacked loop --------------------------------------------------------

def stacked_runs(cfgs, states=None):
    """(times, states, peaks, blowup, low_mode_residual) of each config, all
    run as the rows of one stack from their initial fields or states."""
    grid = Grid(cfgs[0].n_points)
    if states is None:
        states = [initial_field(grid, c.init, c.amplitude, c.seed)
                  for c in cfgs]
    samples = [[] for _ in cfgs]

    def keep(row, t, coeffs, reading):
        samples[row].append((t, coeffs.copy(), reading))

    with np.errstate(all="ignore"):
        ends = solver._advance(cfgs, states, [c.dt for c in cfgs], keep)
    return [([t for t, _, _ in rows], [v for _, v, _ in rows],
             [p for _, _, p in rows], blowup, gap)
            for rows, (blowup, gap) in zip(samples, ends)]


def assert_row_is_run(row, cfg, initial=None):
    times, states, peaks, blowup, gap = row
    with np.errstate(all="ignore"):
        traj = run(cfg, initial=initial)
    assert times == traj.times.tolist()
    assert len(states) == len(traj.states)
    for v, u in zip(states, traj.states):
        assert v.tobytes() == u.spectral.tobytes()
    assert peaks == list(traj.peaks)
    assert blowup == traj.blowup
    assert gap == traj.low_mode_residual


# a quiet row whose t_end ends on a short step, a quiet row with another
# alpha and step, one that trips the Lipschitz detector (after 11 steps at
# N = 64), one that trips the sup-norm detector (after 7) and one that
# overflows in its first step, with different strides
FULL_ROWS = (
    SimConfig(n_points=64, alpha=1.5, t_end=0.0205, dt=1e-3, init="bump",
              amplitude=0.5, stride=3),
    SimConfig(n_points=64, alpha=2.0, t_end=0.01, dt=7e-4, init="random",
              amplitude=0.3, seed=4),
    SimConfig(n_points=64, alpha=1.2, t_end=0.3, dt=3e-3, init="cos_mix",
              amplitude=80.0, stride=2),
    SimConfig(n_points=64, alpha=1.2, t_end=0.5, dt=5e-3, init="cos1",
              amplitude=60.0, stride=2),
    SimConfig(n_points=64, alpha=1.5, t_end=0.1, dt=1e-3, init="bump",
              amplitude=1e150),
)
PARALINEAR_ROWS = (
    SimConfig(n_points=64, alpha=1.5, t_end=0.013, dt=2e-3, init="bump",
              amplitude=0.5, equation="paralinear", cutoff=Cutoff(2.5, 1.3),
              stride=2),
    SimConfig(n_points=64, alpha=2.5, t_end=0.01, dt=1e-3, init="random",
              amplitude=0.2, equation="paralinear"),
)


class TestStackEqualsRows:
    @pytest.mark.parametrize("n", [48, 64])
    def test_full_rows_match_their_runs(self, n):
        cfgs = [dataclasses.replace(cfg, n_points=n) for cfg in FULL_ROWS]
        rows = stacked_runs(cfgs)
        assert [row[3] for row in rows] == [None, None, "lipschitz",
                                            "sup_norm", "nan"]
        assert cfgs[0].t_end / cfgs[0].dt % 1.0 > 0.0
        for row, cfg in zip(rows, cfgs):
            assert_row_is_run(row, cfg)

    def test_complex_rows_match_their_runs(self):
        states = [complex_state(Grid(64)) for _ in FULL_ROWS]
        rows = stacked_runs(FULL_ROWS, states)
        for row, cfg, state in zip(rows, FULL_ROWS, states):
            assert_row_is_run(row, cfg, state)

    def test_row_order_does_not_matter(self):
        forward = stacked_runs(FULL_ROWS)
        backward = stacked_runs(FULL_ROWS[::-1])[::-1]
        for a, b in zip(forward, backward):
            assert a[0] == b[0] and a[2:] == b[2:]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a[1], b[1]))

    def test_paralinear_rows_match_their_runs(self):
        rows = stacked_runs(PARALINEAR_ROWS)
        assert all(row[4] > 0.0 for row in rows)
        for row, cfg in zip(rows, PARALINEAR_ROWS):
            assert_row_is_run(row, cfg)

    def test_rows_must_share_the_equation_and_realness(self):
        with pytest.raises(ValueError, match="share"):
            stacked_runs((FULL_ROWS[0], PARALINEAR_ROWS[0]))
        grid = Grid(64)
        with pytest.raises(ValueError, match="share"):
            stacked_runs(FULL_ROWS[:2], [real_state(grid),
                                         complex_state(grid)])

    @pytest.mark.parametrize("dt, fine_labels", [
        (None, {"none"}),
        # a step too long for the amplitude-80 cells on the fine grid
        (3e-3, {"none", "lipschitz"}),
    ])
    def test_scan_cells_are_classified_per_cell_runs(self, dt, fine_labels):
        family, t_end, n_pair = "cos_mix", 0.1, (32, 64)
        cells = experiments.blowup_scan(family, (1.2, 1.5), (1.0, 80.0),
                                        n_pair=n_pair, t_end=t_end, dt=dt)
        assert {c.fine for c in cells} == fine_labels
        for cell in cells:
            labels = []
            for n in n_pair:
                base = SimConfig(n_points=n, alpha=cell.alpha, t_end=t_end,
                                 init=family, amplitude=cell.amplitude)
                h = dt if dt is not None else solver.default_dt(
                    base, initial_field(Grid(n), family, cell.amplitude))
                stride = max(1, math.ceil(t_end / h) // 256)
                traj = run(dataclasses.replace(base, dt=h, stride=stride))
                labels.append(experiments._growth_classification(
                    traj.peaks, traj.blowup))
            coarse, fine = labels
            assert (cell.coarse, cell.fine) == (coarse[0], fine[0])
            assert (cell.lip_growth, cell.sup_growth) == fine[1:]
