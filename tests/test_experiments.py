"""Energy-estimate study: the cancellation certificate and pinned results."""

import numpy as np
import pytest
from scipy.linalg import expm

from paraburgers import experiments
from paraburgers.errors import InvariantBroken
from paraburgers.flow import gauss_nodes
from paraburgers.paraop import DEFAULT_CUTOFF_ARGS, materialize
from paraburgers.solver import initial_field, run
from paraburgers.spectral import Grid
from paraburgers.symbols import Cutoff

CUTOFF = Cutoff(*DEFAULT_CUTOFF_ARGS)

# energy_estimate_study(ensemble at amplitude 1e-5, s = 2, alpha), with the
# ensemble run at N = 32, alpha = 1.5, t_end = 0.02, dt = 0.002
GOLDEN = {
    1.2: (0.00930485458658225, 0.0021051265935910354),
    1.5: (0.010908796097996453, 0.002591714845083418),
}


def ensemble(amplitude):
    configs = experiments.standard_ensemble(32, 1.5, 0.02, dt=0.002,
                                            amplitudes=(amplitude,))
    return [run(cfg) for cfg in configs]


@pytest.fixture(scope="module")
def small_ensemble():
    return ensemble(1e-5)


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
