"""Studies, diagnostics and scans: certificates, closed forms, pinned results."""

import csv
import io
import math
import re
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
from paraburgers.paraop import OperatorMatrix, band_adjoint, band_apply, \
    dealias_product, materialize, operator_band, order_probe, pair_mask, \
    place_band, to_band
from paraburgers.solver import initial_field, run
from paraburgers.spectral import Field, Grid, abs_d_pow, bessel_pow, \
    derivative, dispersion_profile, linf_norm, multiplier_apply, sobolev_norm
from paraburgers.symbols import DEFAULT_CUTOFF, Cutoff, transport_symbol

from helpers import band_rows, dense_cancellation_check, \
    dense_multilinear, gauss_nodes, pair_denominator, random_real_field

CUTOFF = DEFAULT_CUTOFF

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
# conjugation_study(standard_ensemble(n, 2.5, 0.02, dt=0.002,
# amplitudes=(1e-6,), seed=seed), 2.5) as (fitted_constant, max_ratio,
# verdict) per (n, seed): the inputs of the benchmark's conjugation_study
# workload at seeds 0 and 1, and at N = 128, recorded at c362332
BENCHMARK_CONJUGATION_GOLDENS = {
    (64, 0): (0.0, 19.08144009026442, "violated"),
    (64, 1): (0.0, 26.033069747407342, "violated"),
    (128, 0): (0.0, 2555.5999728791403, "violated"),
}
# perfbench/workloads.py: RATIO_RTOL, relative; a zero must be met exactly
RATIO_RTOL = 1e-10


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
    gauge, half = experiments._gauge_generator(u, alpha, CUTOFF)
    return gauge, half + band_adjoint(half)


def p_operator_band(p, cutoff):
    """The operator band of a gauge symbol p, which the gauge exponentiates."""
    return operator_band(to_band(p.coeffs, p.grid, cutoff), p.grid, cutoff)


def quadrature_skew_gap(gauge, transported):
    """The conjugated bracket integrated by 32-node Gauss quadrature."""
    bracket = gauge @ transported - transported @ gauge
    nodes, weights = gauss_nodes(0.0, 1.0, 2)
    conjugated = sum(
        w * (expm(-1j * r * gauge) @ bracket @ expm(1j * r * gauge))
        for r, w in zip(nodes, weights)
    )
    return float(np.max(np.abs(conjugated + conjugated.conj().T)))


# 64 ulp of float64, relative to the largest entry compared
ROUNDING_TOL = 64 * np.finfo(np.float64).eps

GENERATOR_CASES = [pytest.param(n, Cutoff(big_b, little_b),
                                id=f"{n}-B{big_b:g}-b{little_b:g}")
                   for n in (32, 64, 128)
                   for big_b, little_b in ((8, 2), (2, 1), (3.5, 1.5))]


def spy_on_division(monkeypatch):
    """The calls of `_certified_division` from `experiments`, each as its
    (arguments, result)."""
    calls, divide = [], experiments._certified_division

    def spy(*args):
        calls.append((args, divide(*args)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, "_certified_division", spy)
    return calls


def generator_parts(n, cutoff, monkeypatch):
    """(u, right-hand side, generator, deep pairs) of `_gauge_generator` on
    a random real state at alpha = 1.5, as N x N matrices; the right-hand
    side is the band it hands to `_certified_division`, placed."""
    grid = Grid(n)
    u = random_real_field(grid, np.random.default_rng(n))
    calls = spy_on_division(monkeypatch)
    gauge, _ = experiments._gauge_generator(u, 1.5, cutoff)
    rhs = place_band(operator_band(calls[0][0][0], grid, cutoff))
    psi = pair_mask(grid, cutoff)
    return u, rhs, place_band(gauge), (psi == 1.0) & (psi.T == 1.0)


class TestGaugeGenerator:
    """The generator's right-hand side is -(sigma + sigma*), sigma = u xi,
    written in closed form; on the deep pairs, where the cutoff weighs
    both orderings of a pair at one, it must be minus the hermitian part
    of the dense transport matrix, for integer and non-integer cutoffs."""

    @pytest.mark.parametrize("n,cutoff", GENERATOR_CASES)
    def test_right_hand_side_is_the_dense_symmetrisation(self, n, cutoff,
                                                         monkeypatch):
        u, closed, _, deep = generator_parts(n, cutoff, monkeypatch)
        half = materialize(transport_symbol(u), cutoff).entries
        gap = np.max(np.abs((closed + half + half.conj().T)[deep]))
        assert np.count_nonzero(deep) > 0
        assert gap <= ROUNDING_TOL * np.max(np.abs(half))

    @pytest.mark.parametrize("n,cutoff", GENERATOR_CASES)
    def test_generator_is_hermitian_on_the_deep_pairs(self, n, cutoff,
                                                      monkeypatch):
        _, _, gauge, deep = generator_parts(n, cutoff, monkeypatch)
        gap = np.max(np.abs((gauge - gauge.conj().T)[deep]))
        assert gap <= ROUNDING_TOL * np.max(np.abs(gauge))


class TestDenseCheck:
    """The band check against `helpers.dense_cancellation_check`, the same
    check on N x N matrices: the hermitian gap and the four certificate
    sides equal, the skew gap within the 1e-12 of `TestSkewGap`."""

    @pytest.mark.parametrize("n,cutoff", GENERATOR_CASES)
    def test_hermitian_gap_and_certificates_are_the_dense_ones(
            self, n, cutoff, monkeypatch):
        # at an amplitude the study passes, so the check returns its gaps
        u = random_real_field(Grid(n), np.random.default_rng(n),
                              amplitude=1e-6)
        calls = spy_on_division(monkeypatch)
        hermitian_gap, _ = experiments._cancellation_check(u, 1.5, cutoff)
        dense_hermitian, _, estimates = dense_cancellation_check(u, 1.5,
                                                                 cutoff)
        assert hermitian_gap == dense_hermitian
        assert calls[0][1][1] == estimates

    @pytest.mark.parametrize("n,cutoff", GENERATOR_CASES)
    def test_skew_gap_is_the_dense_one(self, n, cutoff):
        # at unit amplitude, where the gap (quadratic in the state) stands
        # far above the rounding of T (linear in it)
        u = random_real_field(Grid(n), np.random.default_rng(n))
        gauge, half = experiments._gauge_generator(u, 1.5, cutoff)
        assert place_band(half).tobytes() \
            == materialize(transport_symbol(u), cutoff).entries.tobytes()
        skew_gap = experiments._skew_gap(gauge, half + band_adjoint(half))
        dense_skew = dense_cancellation_check(u, 1.5, cutoff)[1]
        assert dense_skew > 0.0
        assert abs(skew_gap - dense_skew) <= 1e-12 * dense_skew

    @pytest.mark.parametrize("n,cutoff,message", [
        (128, Cutoff(8, 2), "3.763128e-01 > 3.693582e-01"),
        (32, Cutoff(2, 1), "1.191566e+00 > 1.169585e+00"),
    ])
    def test_alpha_1_2_transport_break_is_kept(self, n, cutoff, message):
        # the certified transport bound fails on this data at alpha = 1.2
        # (CHANGES.md), on the bands as on the dense matrices
        u = random_real_field(Grid(n), np.random.default_rng(n))
        estimates = dense_cancellation_check(u, 1.2, cutoff)[2]
        assert (f"{estimates['transport_lhs']:.6e} > "
                f"{estimates['transport_rhs']:.6e}") == message
        with pytest.raises(InvariantBroken,
                           match="^" + re.escape(
                               f"transport estimate broken: {message}") + "$"):
            experiments._cancellation_check(u, 1.2, cutoff)


class TestSkewGap:
    @pytest.mark.parametrize("amplitude", [1e-6, 1e-2])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.75])
    @pytest.mark.parametrize("family", experiments.ENSEMBLE_FAMILIES)
    def test_closed_form_matches_quadrature(self, family, alpha, amplitude):
        gauge, transported = certificate_inputs(family, alpha, amplitude)
        reference = quadrature_skew_gap(place_band(gauge),
                                        place_band(transported))
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

    def test_empty_ensemble_rejected(self):
        # it used to read EstimateReport(0.0, 0.0, 0, 'bounded')
        with pytest.raises(ValueError, match="at least one trajectory"):
            experiments.energy_estimate_study([], 2.0, 1.5)

    def test_zero_ensemble_is_inconclusive(self):
        # every ratio of a zero state is 0/0 read as 0; it used to read
        # EstimateReport(0.0, 0.0, 4, 'bounded')
        report = experiments.energy_estimate_study(ensemble(0.0), 2.0, 1.5)
        assert report == experiments.EstimateReport(0.0, 0.0, 4,
                                                    "inconclusive")


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


# -- the per-sample conjugation norms, kept as the reference ----------------

def reference_conjugation_ratios(traj, alpha, cutoff, s_probes, elliptic_c):
    """The conjugation cell's ratios and certificates one sample and one
    s at a time, each norm a `sobolev_norm` of a lone field."""
    h = experiments._sample_spacing(traj.times)
    states = traj.states
    grid = states[0].grid
    extras = solve_conjugating(states, h, alpha, cutoff)[0].extras
    u_stack = np.stack([u.spectral for u in states])
    w_stack = band_apply(extras["w_stack"], u_stack)
    r_stack = (_time_derivative_stack(w_stack, h)
               + w_stack * (1j * dispersion_profile(grid, alpha))[None, :])
    ratios = []
    for u, w, r in zip(states, w_stack, r_stack):
        w_field, r_field = Field(grid, w), Field(grid, r)
        mean_mass = math.sqrt(2.0 * math.pi) * abs(u.coefficient(0))
        for s in s_probes:
            w_size = sobolev_norm(w_field, s)
            r_size = sobolev_norm(r_field, s)
            if w_size == 0.0:
                if r_size > 0.0:
                    raise InvariantBroken("residual without a transform")
                continue
            ratios.append(r_size / w_size)
            recovery = sobolev_norm(u, s) / (w_size + mean_mass)
            if recovery > elliptic_c:
                raise InvariantBroken(
                    f"ellipticity constant {recovery:.3f} exceeds "
                    f"{elliptic_c:g} at s = {s:g}"
                )
    return ratios


class TestStackedConjugationCell:
    """The conjugation cell's stacked norms give the per-sample ratios bit
    for bit, in the same sample-major order, and fail alike."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_ratios_match_the_per_sample_cell(self, n):
        configs = experiments.standard_ensemble(n, 2.5, 0.02, dt=0.002,
                                                amplitudes=(1e-6,))
        for cfg in configs:
            traj = run(cfg)
            stacked, _ = experiments._conjugation_cell(traj, 2.5, CUTOFF)
            reference = reference_conjugation_ratios(
                traj, 2.5, CUTOFF, experiments.S_PROBES,
                experiments.ELLIPTIC_C)
            assert len(stacked) == 3 * len(traj.states)
            assert hex_ratios(stacked) == hex_ratios(reference)

    # at N = 64 the bump member's recovery constants sit at 1 up to
    # rounding: the first to exceed 1 is at s = 0, the first to exceed
    # 1 + 1e-12 at s = 2 of a later sample
    @pytest.mark.parametrize("elliptic_c,first_s", [(1.0, "0"),
                                                    (1.0 + 1e-12, "2")])
    def test_ellipticity_certificate_fires_alike(self, elliptic_c, first_s,
                                                 monkeypatch):
        monkeypatch.setattr(experiments, "ELLIPTIC_C", elliptic_c)
        configs = experiments.standard_ensemble(64, 2.5, 0.02, dt=0.002,
                                                amplitudes=(1e-6,))
        traj = run(configs[ENSEMBLE_INDEX["bump"]])
        messages = []
        with pytest.raises(InvariantBroken, match="ellipticity") as err:
            experiments._conjugation_cell(traj, 2.5, CUTOFF)
        messages.append(str(err.value))
        with pytest.raises(InvariantBroken, match="ellipticity") as err:
            reference_conjugation_ratios(traj, 2.5, CUTOFF,
                                         experiments.S_PROBES, elliptic_c)
        messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith(f"at s = {first_s}")


class TestConjugationStudy:
    def test_golden_numbers(self, conjugation_ensemble):
        report = experiments.conjugation_study(conjugation_ensemble, 2.5)
        fitted, top, verdict = CONJUGATION_GOLDEN
        assert report.fitted_constant == pytest.approx(fitted, rel=1e-10)
        assert report.max_ratio == pytest.approx(top, rel=1e-10)
        assert report.ensemble_size == 4
        assert report.verdict == verdict

    def test_empty_ensemble_rejected(self):
        # it used to read EstimateReport(0.0, 0.0, 0, 'bounded')
        with pytest.raises(ValueError, match="at least one trajectory"):
            experiments.conjugation_study([], 2.5)

    def test_zero_ensemble_is_inconclusive(self):
        # a zero state has a zero transform and takes no ratio; it used to
        # read EstimateReport(0.0, 0.0, 4, 'bounded')
        report = experiments.conjugation_study(ensemble(0.0, alpha=2.5), 2.5)
        assert report == experiments.EstimateReport(0.0, 0.0, 4,
                                                    "inconclusive")

    def test_grid_without_a_probe_packet_is_a_value_error(self):
        # at N = 16 the default order probe has no packet
        configs = experiments.standard_ensemble(16, 2.5, 0.02, dt=0.002,
                                                amplitudes=(1e-2,))
        with pytest.raises(ValueError,
                           match=r"no wave packet to probe on Grid\(n=16\)"):
            experiments.conjugation_study([run(c) for c in configs], 2.5)

    @pytest.mark.parametrize("n,seed", sorted(BENCHMARK_CONJUGATION_GOLDENS))
    def test_benchmark_golden_numbers(self, n, seed):
        configs = experiments.standard_ensemble(n, 2.5, 0.02, dt=0.002,
                                                amplitudes=(1e-6,), seed=seed)
        report = experiments.conjugation_study([run(c) for c in configs], 2.5)
        fitted, top, verdict = BENCHMARK_CONJUGATION_GOLDENS[n, seed]
        assert abs(report.fitted_constant - fitted) <= RATIO_RTOL * fitted
        assert abs(report.max_ratio - top) <= RATIO_RTOL * top
        assert report.ensemble_size == 4
        assert report.verdict == verdict

    def test_newton_hands_on_its_exponential(self, conjugation_ensemble):
        u = conjugation_ensemble[0].states[-1]
        sol = solve_nonlinear_exp(transport_symbol(u) * -1.0, 2.5, CUTOFF)
        band = p_operator_band(sol.p, CUTOFF)
        assert np.array_equal(sol.extras["transform"], _expm(1j * band))

    def test_every_p_vanishes_off_the_band(self, conjugation_ensemble):
        grid = conjugation_ensemble[0].states[0].grid
        off = np.setdiff1d(np.arange(grid.n), band_rows(grid, CUTOFF))
        for traj in conjugation_ensemble:
            h = float(traj.times[1] - traj.times[0])
            for sol in solve_conjugating(traj.states, h, 2.5, CUTOFF):
                zeros = sol.p.coeffs[off]
                assert np.all(zeros == 0.0)
                assert not np.any(np.signbit(zeros.real)
                                  | np.signbit(zeros.imag))

    def test_conjugating_stacks_are_the_defining_equation(
            self, conjugation_ensemble):
        # the study reads W_i and g_i off these stacks, so they must equal
        # the exponential of the returned p_i and the residual rebuilt from
        # scratch out of the dense W, D and the materialized transport; the
        # sweep counts pin that the Newton exponentials seed the first
        # sweep.  The band product sums W T in another order than the dense
        # product does, so g matches the rebuild to 64 ulp of the sum of
        # |terms| entry by entry
        den = pair_denominator(Grid(32), 2.5)
        for traj, sweeps in zip(conjugation_ensemble, CONJUGATION_SWEEPS):
            h = float(traj.times[1] - traj.times[0])
            sols = solve_conjugating(traj.states, h, 2.5, CUTOFF)
            assert sols[0].iterations == sweeps
            extras = sols[0].extras
            w_stack = place_band(extras["w_stack"])
            g_stack = place_band(extras["g_stack"])
            w_dot = _time_derivative_stack(w_stack, h)
            for i, (sol, u) in enumerate(zip(sols, traj.states)):
                assert sol.extras["w_stack"] is extras["w_stack"]
                w = w_stack[i]
                lone = _expm(1j * p_operator_band(sol.p, CUTOFF))
                assert np.array_equal(w, place_band(lone))
                transport = materialize(transport_symbol(u) * 1j,
                                        CUTOFF).entries
                rebuilt = w_dot[i] - w * den - w @ transport
                size = np.abs(w_dot[i]) + np.abs(w * den) \
                    + np.abs(w) @ np.abs(transport)
                assert np.all(np.abs(g_stack[i] - rebuilt)
                              <= ROUNDING_TOL * size)


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


class TestEstimateReport:
    @pytest.mark.parametrize("top", [0.5, 1.0, 2.0, np.inf])
    def test_verdicts_on_both_sides_of_the_envelope(self, top):
        within = top <= 1.0
        judged = "bounded" if within else "violated"
        contradicted = "violated" if within else "bounded"
        for verdict in (judged, "inconclusive"):
            report = experiments.EstimateReport(1.0, top, 4, verdict)
            assert report.verdict == verdict
        with pytest.raises(ValueError, match="contradicts"):
            experiments.EstimateReport(1.0, top, 4, contradicted)

    def test_unknown_verdict(self):
        with pytest.raises(ValueError, match="unknown verdict"):
            experiments.EstimateReport(1.0, 0.5, 4, "fine")

    def test_order_failure_report_is_violated(self):
        # conjugation_study voids the envelope of a failed order fit
        report = experiments.EstimateReport(0.0, np.finfo(float).tiny, 4,
                                            "violated")
        assert report.fitted_constant == 0.0


class TestScans:
    def test_nan_amplitude_is_rejected(self):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            experiments.blowup_scan("cos1", [1.5], [np.nan], n_pair=(32, 64),
                                    t_end=0.01, dt=0.001)

    def test_zero_amplitude_is_rejected(self):
        with pytest.raises(ValueError, match="amplitude 0"):
            experiments.blowup_scan("cos1", [1.5], [1.0, 0.0], n_pair=(32, 64),
                                    t_end=0.01, dt=0.001)

    @pytest.mark.parametrize("dt", [None, 0.001])
    def test_overflowing_amplitude_reads_sup_norm(self, dt):
        # the default step's trials overflow too; they halve the step
        # instead of raising NanDetected out of the scan
        with np.errstate(all="ignore"):
            cells = experiments.blowup_scan("cos1", [1.5], [1e160],
                                            n_pair=(32, 64), t_end=0.01, dt=dt)
        assert [cell.outcome for cell in cells] == ["sup_norm"]

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
