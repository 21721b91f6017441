"""Studies, diagnostics and scans: certificates, closed forms, pinned results."""

import csv
import io
import math
import threading

import numpy as np
import pytest
from scipy.linalg import expm

from paraburgers import experiments
from paraburgers.errors import InvariantBroken
from paraburgers.gauge import (
    _expm, _time_derivative_stack, solve_conjugating, solve_nonlinear_exp
)
from paraburgers.normalform import build_chi1
from paraburgers.paraop import DEFAULT_CUTOFF_ARGS, OperatorMatrix, \
    dealias_product, gather_pairs, materialize, order_probe
from paraburgers.solver import SimConfig, initial_field, run
from paraburgers.spectral import Field, Grid, abs_d_pow, bessel_pow, \
    derivative, dispersion_profile, linf_norm, multiplier_apply
from paraburgers.symbols import Cutoff, transport_symbol

from helpers import dense_multilinear, gauss_nodes

CUTOFF = Cutoff(*DEFAULT_CUTOFF_ARGS)

# energy_estimate_study(ensemble at amplitude 1e-5, s = 2, alpha), with the
# ensemble run at N = 32, alpha = 1.5, t_end = 0.02, dt = 0.002
GOLDEN = {
    1.2: (0.00930485458658225, 0.0021051265935910354),
    1.5: (0.010908796097996453, 0.002591714845083418),
}

# conjugation_study(ensemble at amplitude 1e-6, alpha = 2.5), with the
# ensemble run at N = 32, alpha = 2.5, t_end = 0.02, dt = 0.002.  These pin
# current behaviour only: whether `bounded` is the right verdict for this
# study is still open (ROADMAP item 2, "Suspect verdict").
CONJUGATION_GOLDEN = (4638183.769614202, 1.4673745040652433, "bounded")
# Newton sweeps solve_conjugating takes per member of that ensemble
CONJUGATION_SWEEPS = (1, 1, 1, 0)


def ensemble(amplitude, alpha=1.5):
    configs = experiments.standard_ensemble(32, alpha, 0.02, dt=0.002,
                                            amplitudes=(amplitude,))
    return [run(cfg) for cfg in configs]


@pytest.fixture(scope="module")
def small_ensemble():
    return ensemble(1e-5)


@pytest.fixture(scope="module")
def conjugation_ensemble():
    return ensemble(1e-6, alpha=2.5)


def certificate_inputs(family, alpha, amplitude):
    u = initial_field(Grid(32), family, amplitude)
    gauge, sigma = experiments._gauge_generator(u, alpha, CUTOFF)
    half = materialize(sigma, CUTOFF).entries
    return gauge, half + half.conj().T


def quadrature_skew_gap(gauge, transported):
    """The conjugated bracket integrated by 32-node Gauss quadrature."""
    bracket = gauge @ transported - transported @ gauge
    nodes, weights = gauss_nodes(0.0, 1.0, 2)
    conjugated = sum(
        w * (expm(-1j * r * gauge) @ bracket @ expm(1j * r * gauge))
        for r, w in zip(nodes, weights)
    )
    return float(np.max(np.abs(conjugated + conjugated.conj().T)))


class TestSkewGap:
    @pytest.mark.parametrize("amplitude", [1e-6, 1e-2])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.75])
    @pytest.mark.parametrize("family", experiments.ENSEMBLE_FAMILIES)
    def test_closed_form_matches_quadrature(self, family, alpha, amplitude):
        gauge, transported = certificate_inputs(family, alpha, amplitude)
        reference = quadrature_skew_gap(gauge, transported)
        assert reference > 0.0
        gap = experiments._skew_gap(gauge, transported)
        assert abs(gap - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("family", experiments.ENSEMBLE_FAMILIES)
    def test_gap_scales_like_amplitude_squared(self, family):
        small = experiments._skew_gap(*certificate_inputs(family, 1.5, 1e-6))
        large = experiments._skew_gap(*certificate_inputs(family, 1.5, 1e-2))
        assert large / small == pytest.approx(1e8, rel=1e-2)


class TestEnergyStudy:
    @pytest.mark.parametrize("alpha", sorted(GOLDEN))
    def test_golden_numbers(self, small_ensemble, alpha):
        report = experiments.energy_estimate_study(small_ensemble, 2.0, alpha)
        fitted, top = GOLDEN[alpha]
        assert report.fitted_constant == pytest.approx(fitted, rel=1e-10)
        assert report.max_ratio == pytest.approx(top, rel=1e-10)
        assert report.ensemble_size == 4
        assert report.verdict == "bounded"

    def test_skewness_certificate_fires(self):
        # gap 2.5e-7 against SKEW_TOL = 1e-8; a skew-by-construction form,
        # one built from the hermitian part of the generator, reads ~0
        with pytest.raises(InvariantBroken, match="skewness"):
            experiments.energy_estimate_study(ensemble(1e-4), 2.0, 1.5)

    def test_hermiticity_certificate_fires(self, small_ensemble, monkeypatch):
        monkeypatch.setattr(experiments, "HERMITIAN_TOL", -1.0)
        with pytest.raises(InvariantBroken, match="hermiticity"):
            experiments.energy_estimate_study(small_ensemble, 2.0, 1.5)


# -- the per-sample energy cell, kept as the reference ----------------------

def reference_l2(coeffs):
    return float(np.sqrt(2.0 * np.pi * np.sum(np.abs(coeffs) ** 2)))


def reference_energy_cell(traj, s, alpha, cutoff):
    """The energy cell one sample at a time, with the dense double sum
    for the normal form's correction."""
    h = experiments._sample_spacing(traj.times)
    states = traj.states
    chi1 = build_chi1(s, alpha, cutoff, states[0].grid)
    v_fields = [multiplier_apply(u, bessel_pow(s)) for u in states]
    w_coeffs = []
    for u, v in zip(states, v_fields):
        smoothed = multiplier_apply(v, abs_d_pow(1.0 - alpha))
        w_coeffs.append(v.spectral + dense_multilinear(
            chi1, u.spectral, smoothed.spectral))
    v_norms = np.array([reference_l2(v.spectral) for v in v_fields])
    w_norms = np.array([reference_l2(w) for w in w_coeffs])

    critical = max(0.0, 1.5 - alpha) + 0.01
    weights = (1.0 + states[0].grid.freqs.astype(np.float64) ** 2) ** critical
    smallness = max(
        float(np.sqrt(2.0 * np.pi * np.sum(weights * np.abs(u.spectral) ** 2)))
        for u in states)
    if smallness <= experiments.SMALLNESS:
        for vn, wn in zip(v_norms, w_norms):
            if vn == 0.0:
                continue
            equivalence = max(wn / vn, vn / wn)
            if equivalence > experiments.EQUIVALENCE_BOUND:
                raise InvariantBroken(
                    f"transform equivalence constant {equivalence:.3f} "
                    f"exceeds {experiments.EQUIVALENCE_BOUND:g} on small data"
                )

    rates = _time_derivative_stack(w_norms, h)
    ratios = []
    for u, vn, rate in zip(states, v_norms, rates):
        smoothed = multiplier_apply(dealias_product(u, u),
                                    abs_d_pow(1.0 - alpha))
        weight = linf_norm(multiplier_apply(smoothed, derivative())) * vn
        if weight == 0.0:
            ratios.append(0.0 if rate == 0.0 else np.inf)
        else:
            ratios.append(abs(rate) / weight)

    experiments._cancellation_check(states[len(states) // 2], alpha, cutoff)
    return ratios


def complex_trajectory():
    """A paralinear run from a bump times a complex constant plus one
    unpaired mode, so no state is marked real."""
    grid = Grid(64)
    coeffs = initial_field(grid, "bump", 1e-6).spectral * (1.0 + 0.5j)
    coeffs[grid.index_of(3)] += 2e-7 - 1e-7j
    cfg = SimConfig(n_points=64, alpha=1.5, t_end=0.02, dt=0.002,
                    equation="paralinear")
    return run(cfg, initial=Field(grid, coeffs))


ENSEMBLE_INDEX = {family: i for i, family
                  in enumerate(experiments.ENSEMBLE_FAMILIES)}


def hex_ratios(ratios):
    return [float(r).hex() for r in ratios]


class TestStackedEnergyCell:
    """The (T, N) stacked cell gives the per-sample cell's ratios bit for
    bit."""

    @pytest.mark.parametrize("study_alpha", [1.5, 1.75])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_ratios_match_the_per_sample_cell(self, n, study_alpha):
        # at N = 128 the random member is transport-active
        configs = experiments.standard_ensemble(n, 1.5, 0.02, dt=0.002,
                                                amplitudes=(1e-6,))
        for cfg in configs:
            traj = run(cfg)
            assert traj.states[0].is_real
            stacked = experiments._energy_cell(traj, 2.0, study_alpha, CUTOFF)
            reference = reference_energy_cell(traj, 2.0, study_alpha, CUTOFF)
            assert len(stacked) == len(traj.states) == 11
            assert hex_ratios(stacked) == hex_ratios(reference)

    @pytest.mark.parametrize("study_alpha", [1.5, 1.75])
    def test_complex_states_match_the_per_sample_cell(self, study_alpha):
        traj = complex_trajectory()
        assert not any(u.is_real for u in traj.states)
        stacked = experiments._energy_cell(traj, 2.0, study_alpha, CUTOFF)
        reference = reference_energy_cell(traj, 2.0, study_alpha, CUTOFF)
        assert np.count_nonzero(stacked) >= 10
        assert hex_ratios(stacked) == hex_ratios(reference)

    def test_equivalence_certificate_fires_alike(self, monkeypatch):
        # every transform that moves w off v now exceeds the bound
        monkeypatch.setattr(experiments, "EQUIVALENCE_BOUND", 1.0)
        configs = experiments.standard_ensemble(64, 1.5, 0.02, dt=0.002,
                                                amplitudes=(1e-6,))
        traj = run(configs[ENSEMBLE_INDEX["bump"]])
        messages = []
        for cell in (experiments._energy_cell, reference_energy_cell):
            with pytest.raises(InvariantBroken, match="equivalence") as err:
                cell(traj, 2.0, 1.5, CUTOFF)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestConjugationStudy:
    def test_golden_numbers(self, conjugation_ensemble):
        report = experiments.conjugation_study(conjugation_ensemble, 2.5)
        fitted, top, verdict = CONJUGATION_GOLDEN
        assert report.fitted_constant == pytest.approx(fitted, rel=1e-10)
        assert report.max_ratio == pytest.approx(top, rel=1e-10)
        assert report.ensemble_size == 4
        assert report.verdict == verdict

    def test_newton_hands_on_its_exponential(self, conjugation_ensemble):
        u = conjugation_ensemble[0].states[-1]
        sol = solve_nonlinear_exp(transport_symbol(u) * -1.0, 2.5, CUTOFF)
        placed = gather_pairs(sol.p.coeffs, u.grid)
        assert np.array_equal(sol.extras["transform"], _expm(1j * placed))

    def test_conjugating_stacks_are_the_defining_equation(
            self, conjugation_ensemble):
        # the study reads W_i and g_i off these stacks, so they must equal
        # the exponential of the returned p_i and the residual rebuilt from
        # scratch out of W, D and the materialized transport; the sweep
        # counts pin that the Newton exponentials seed the first sweep
        profile = dispersion_profile(Grid(32), 2.5)
        den = 1j * (profile[None, :] - profile[:, None])
        for traj, sweeps in zip(conjugation_ensemble, CONJUGATION_SWEEPS):
            h = float(traj.times[1] - traj.times[0])
            sols = solve_conjugating(traj.states, h, 2.5, CUTOFF)
            assert sols[0].iterations == sweeps
            extras = sols[0].extras
            w_dot = _time_derivative_stack(extras["w_stack"], h)
            for i, (sol, u) in enumerate(zip(sols, traj.states)):
                assert sol.extras["w_stack"] is extras["w_stack"]
                w = extras["w_stack"][i]
                placed = gather_pairs(sol.p.coeffs, u.grid)
                assert np.array_equal(w, _expm(1j * placed))
                transport = materialize(transport_symbol(u) * 1j,
                                        CUTOFF).entries
                assert np.array_equal(extras["g_stack"][i],
                                      w_dot[i] - w * den - w @ transport)


class TestDiagnostics:
    # a cos x on Grid(32): the cubic term of the Hamiltonian sums to zero,
    # x = pi/2 is a node, and |D|^(2-alpha) of u^2 = a^2/2 (1 + cos 2x) keeps
    # only the cos 2x mode, scaled by 2^(2-alpha)
    AMPLITUDE = 0.3
    ALPHA = 1.5

    def record(self, t=0.0):
        grid = Grid(32)
        u = Field.from_physical(grid, self.AMPLITUDE * np.cos(grid.x))
        return experiments.diagnostics(u, self.ALPHA, s_list=(1.0, 2.0), t=t)

    def test_closed_forms_for_a_cosine(self):
        a, alpha = self.AMPLITUDE, self.ALPHA
        rec = self.record(t=0.5)
        assert rec.t == 0.5
        assert rec.mass == pytest.approx(math.pi * a ** 2, rel=1e-12)
        assert rec.hamiltonian == pytest.approx(math.pi * a ** 2, rel=1e-12)
        for s in (1.0, 2.0):
            assert rec.sobolev_norms[s] == pytest.approx(
                math.sqrt(2.0 ** s * math.pi) * a, rel=1e-12)
        assert rec.sup_norm == pytest.approx(a, rel=1e-12)
        assert rec.lipschitz == pytest.approx(a, rel=1e-12)
        assert rec.weak_criterion == pytest.approx(
            a ** 2 * 2.0 ** (1.0 - alpha), rel=1e-12)

    def test_csv_round_trips(self):
        records = [self.record(t=0.1 * i) for i in range(3)]
        rows = list(csv.reader(io.StringIO(
            experiments.diagnostics_csv(records, times=[1.0, 2.0, 3.0]))))
        assert rows[0] == ["t", "mass", "hamiltonian", "H1", "H2",
                           "lipschitz", "weak_criterion", "sup"]
        assert len(rows) == 1 + len(records)
        for row, rec, t in zip(rows[1:], records, (1.0, 2.0, 3.0)):
            expected = (t, rec.mass, rec.hamiltonian, rec.sobolev_norms[1.0],
                        rec.sobolev_norms[2.0], rec.lipschitz,
                        rec.weak_criterion, rec.sup_norm)
            assert tuple(float(v) for v in row) == expected
        stored = list(csv.reader(io.StringIO(
            experiments.diagnostics_csv(records))))
        assert [float(row[0]) for row in stored[1:]] == [r.t for r in records]


def cell(amplitude, outcome, family="cos1", alpha=1.5):
    return experiments.ScanCell(family=family, alpha=alpha,
                                amplitude=amplitude, coarse=outcome,
                                fine=outcome, outcome=outcome,
                                lip_growth=1.0, sup_growth=1.0)


class TestScans:
    def test_one_cell_scan_and_its_csv(self):
        cells = experiments.blowup_scan("cos1", (1.5,), (1.0,),
                                        n_pair=(32, 64), t_end=0.05)
        assert len(cells) == 1
        (only,) = cells
        assert (only.family, only.alpha, only.amplitude) == ("cos1", 1.5, 1.0)
        labels = ("none", "lipschitz", "sup_norm")
        assert only.coarse in labels and only.fine in labels
        expected = only.coarse if only.coarse == only.fine else "inconclusive"
        assert only.outcome == expected
        assert only.lip_growth > 0.0 and only.sup_growth > 0.0

        rows = list(csv.reader(io.StringIO(experiments.scan_csv(cells))))
        assert rows[0] == ["family", "alpha", "amplitude", "coarse", "fine",
                           "outcome", "lip_growth", "sup_growth"]
        assert len(rows) == 1 + len(cells)
        family, alpha, amplitude, coarse, fine, outcome, lip, sup = rows[1]
        assert (family, coarse, fine, outcome) == (
            only.family, only.coarse, only.fine, only.outcome)
        assert (float(alpha), float(amplitude), float(lip), float(sup)) == (
            only.alpha, only.amplitude, only.lip_growth, only.sup_growth)

    def test_monotonicity_violations_skip_inconclusive_cells(self):
        cells = [
            cell(1.0, "lipschitz"), cell(1.5, "inconclusive"),
            cell(2.0, "none"), cell(3.0, "sup_norm"),
            # an inconclusive cell neither blows up nor stays quiet
            cell(1.0, "inconclusive", alpha=1.8), cell(2.0, "none", alpha=1.8),
            cell(1.0, "sup_norm", alpha=1.2),
            cell(2.0, "inconclusive", alpha=1.2),
            # a quiet cell under a blowing one is no violation
            cell(1.0, "none", family="bump"), cell(2.0, "lipschitz",
                                                   family="bump"),
        ]
        assert experiments.monotonicity_violations(cells) == [
            ("cos1", 1.5, 1.0, 2.0)
        ]
        assert experiments.monotonicity_violations(
            [c for c in cells if c.outcome != "inconclusive"]
        ) == [("cos1", 1.5, 1.0, 2.0)]


class TestCellsRunInOrder:
    def test_every_cell_runs_on_the_callers_thread(
            self, small_ensemble, conjugation_ensemble, monkeypatch):
        seen = {}
        for name in ("_energy_cell", "_conjugation_cell", "_scan_run"):
            def recording(*args, _name=name,
                          _original=getattr(experiments, name)):
                seen.setdefault(_name, []).append(threading.get_ident())
                return _original(*args)

            monkeypatch.setattr(experiments, name, recording)

        experiments.energy_estimate_study(small_ensemble, 2.0, 1.5)
        experiments.conjugation_study(conjugation_ensemble, 2.5)
        cells = experiments.blowup_scan("cos1", (1.5,), (0.5, 1.0),
                                        n_pair=(32, 64), t_end=0.05)
        assert [c.amplitude for c in cells] == [0.5, 1.0]
        # one call per member, and one stacked run per grid of the scan
        assert {name: len(ids) for name, ids in seen.items()} == {
            "_energy_cell": 4, "_conjugation_cell": 4, "_scan_run": 2}
        main = threading.main_thread().ident
        assert all(ident == main for ids in seen.values() for ident in ids)


def diagonal_operator(n, order=0.5):
    grid = Grid(n)
    weights = (1.0 + np.abs(grid.freqs).astype(np.float64)) ** order
    return OperatorMatrix(grid, np.diag(weights).astype(np.complex128))


class TestResidualOrder:
    @pytest.mark.parametrize("n", [32, 64])
    def test_small_grid_falls_back_to_the_default_probe(self, n):
        # the cutoff's first probe band, ceil(B + b) + 6 = 16, leaves no
        # room for a second band below n/2 - 16 at these sizes
        operator = diagonal_operator(n)
        assert experiments.residual_order(operator, CUTOFF) == \
            order_probe(operator)

    def test_probe_bands_sit_above_the_cutoff(self):
        operator = diagonal_operator(128)
        estimate = experiments.residual_order(operator, CUTOFF)
        assert estimate.centers == (16, 32)
        assert experiments.residual_order(operator) == order_probe(operator)
