"""Flow operators, conjugation factorizations, and BCH truncation."""

import numpy as np
import pytest
import scipy.linalg

from paraburgers.errors import GeneratorUnstable
from paraburgers.spectral import Grid, Field, sobolev_norm, zygmund_norm
from paraburgers.symbols import Cutoff, Symbol, seminorm
from paraburgers import flow, paraop

from helpers import random_real_field

# Calibrated with the seeds used below on N in {64, 128}; regression bounds.
FLOW_DIFFERENCE_C = 0.4
ZYGMUND_FLOW_K = 1.1

CUTOFF = Cutoff(8.0, 2.0)
NARROW = Cutoff(2.0, 1.0)


def order_zero_symbol(grid, rng, band=5):
    return Symbol.from_field(random_real_field(grid, rng, band=band))


class TestFlowBuild:
    def test_zero_symbol_gives_identity(self):
        grid = Grid(64)
        zero = Symbol(grid, np.zeros((grid.n, grid.n), dtype=complex))
        built = flow.flow_build(zero, CUTOFF, 0.7)
        assert np.max(np.abs(built.matrix.entries - np.eye(grid.n))) == 0.0

    def test_constant_symbol_scalar_phase(self):
        grid = Grid(64)
        const = Symbol.from_field(Field.from_physical(grid, 2.0 * np.ones(grid.n)))
        built = flow.flow_build(const, CUTOFF, 0.3)
        u = Field(grid, np.eye(grid.n)[grid.index_of(10)].astype(complex))
        out = built.apply(u)
        assert abs(out.coefficient(10) - np.exp(0.6j)) < 1e-14

    def test_hermitian_generator_preserves_l2(self):
        grid = Grid(64)
        rng = np.random.default_rng(42)
        generator = paraop.materialize(order_zero_symbol(grid, rng), CUTOFF)
        herm, dropped = flow.hermitian_part(generator)
        assert dropped > 0.0
        built = flow.flow_from_matrix(herm, 0.5)
        u = random_real_field(grid, rng)
        assert abs(sobolev_norm(built.apply(u), 0.0) - sobolev_norm(u, 0.0)) < 1e-9

    def test_group_law(self):
        grid = Grid(64)
        rng = np.random.default_rng(42)
        p = order_zero_symbol(grid, rng)
        f_a = flow.flow_build(p, CUTOFF, 0.3)
        f_b = flow.flow_build(p, CUTOFF, 0.2)
        f_ab = flow.flow_build(p, CUTOFF, 0.5)
        gap = (f_a.matrix.compose(f_b.matrix) - f_ab.matrix).max_entry()
        assert gap < 1e-9

    def test_inverse_law(self):
        grid = Grid(64)
        rng = np.random.default_rng(43)
        built = flow.flow_build(order_zero_symbol(grid, rng), CUTOFF, 0.4)
        product = built.matrix.compose(built.inverse_matrix()).entries
        assert np.max(np.abs(product - np.eye(grid.n))) < 1e-9

    def test_adjoint_law(self):
        grid = Grid(64)
        rng = np.random.default_rng(45)
        p = order_zero_symbol(grid, rng)
        built = flow.flow_build(p, CUTOFF, 0.5)
        from_adjoint = flow.flow_from_matrix(built.generator.adjoint(), -0.5)
        gap = np.max(np.abs(built.matrix.adjoint().entries
                            - from_adjoint.matrix.entries))
        assert gap < 1e-9

    def test_generator_unstable_raised(self):
        grid = Grid(64)
        rng = np.random.default_rng(46)
        re = random_real_field(grid, rng, band=6)
        im = random_real_field(grid, rng, band=6)
        values = re.physical() + 1j * im.physical()
        coeffs = (np.fft.fft(values) / grid.n)[:, None] * np.ones(grid.n)[None, :]
        p = Symbol(grid, coeffs)
        with pytest.raises(GeneratorUnstable):
            flow.flow_build(p, CUTOFF, 4.0, stability_c=1e-4)
        flow.flow_build(p, CUTOFF, 4.0)  # default constant: no raise

    def test_stability_bound_honest(self):
        # growth rate stays under the shipped constant on fresh draws
        rng = np.random.default_rng(77)
        for n in (64, 128):
            grid = Grid(n)
            for _ in range(2):
                re = random_real_field(grid, rng, band=8)
                im = random_real_field(grid, rng, band=8)
                values = re.physical() + 1j * im.physical()
                coeffs = (np.fft.fft(values) / grid.n)[:, None] \
                    * np.ones(grid.n)[None, :]
                p = Symbol(grid, coeffs)
                growth = seminorm(flow.imaginary_part_symbol(p),
                                  order_m=0.0, n=0, k=0)
                for tau in (0.25, 1.0):
                    built = flow.flow_build(p, CUTOFF, tau)
                    norm = np.linalg.norm(built.matrix.entries, 2)
                    assert norm <= 2.0 * np.exp(flow.FLOW_STABILITY_C * tau * growth)


class TestConjugate:
    def test_multipliers_commute(self):
        grid = Grid(64)
        p = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * np.abs(xi) ** 0.5)
        b = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * (1 + xi ** 2))
        conjugated = flow.conjugate(p, b, CUTOFF, 0.5)
        assert (conjugated - paraop.materialize(b, CUTOFF)).max_entry() < 1e-9

    def test_tau_zero_is_t_b(self):
        grid = Grid(64)
        rng = np.random.default_rng(47)
        p = order_zero_symbol(grid, rng)
        b = Symbol.from_field(random_real_field(grid, rng, band=4))
        conjugated = flow.conjugate(p, b, CUTOFF, 0.0)
        assert (conjugated - paraop.materialize(b, CUTOFF)).max_entry() < 1e-12

    def test_order_preserved(self):
        grid = Grid(128)
        rng = np.random.default_rng(17)
        p = Symbol.from_field(random_real_field(grid, rng, band=4))
        b = Symbol.from_field(random_real_field(grid, rng, band=4),
                              xi_profile=lambda xi: np.sqrt(1 + xi ** 2),
                              order_m=1.0)
        conjugated = flow.conjugate(p, b, NARROW, 0.4)
        assert abs(paraop.order_probe(conjugated).slope - 1.0) <= 0.2


class TestCommutatorFactor:
    def test_tau_zero(self):
        grid = Grid(64)
        rng = np.random.default_rng(48)
        p = order_zero_symbol(grid, rng)
        b = Symbol.from_field(random_real_field(grid, rng, band=4))
        assert flow.commutator_factor(p, b, CUTOFF, 0.0).max_entry() < 1e-12

    def test_multipliers_give_zero(self):
        grid = Grid(64)
        p = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * np.abs(xi) ** 0.5)
        b = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * (1 + xi ** 2))
        assert flow.commutator_factor(p, b, CUTOFF, 0.5).max_entry() < 1e-9

    def test_factorization_identity(self):
        grid = Grid(64)
        rng = np.random.default_rng(49)
        p = order_zero_symbol(grid, rng)
        b = Symbol.from_field(random_real_field(grid, rng, band=5),
                              xi_profile=lambda xi: np.sqrt(1 + xi ** 2),
                              order_m=1.0)
        tau = 0.4
        factor = flow.commutator_factor(p, b, CUTOFF, tau)
        front = flow.flow_build(p, CUTOFF, tau).matrix
        t_b = paraop.materialize(b, CUTOFF)
        commutator = front.compose(t_b) - t_b.compose(front)
        assert (commutator - front.compose(factor)).max_entry() < 1e-9

    def test_integral_form_agrees(self):
        grid = Grid(64)
        rng = np.random.default_rng(49)
        p = order_zero_symbol(grid, rng)
        b = Symbol.from_field(random_real_field(grid, rng, band=5),
                              xi_profile=lambda xi: np.sqrt(1 + xi ** 2),
                              order_m=1.0)
        direct = flow.commutator_factor(p, b, CUTOFF, 0.4)
        quad = flow.commutator_factor_quadrature(p, b, CUTOFF, 0.4)
        assert (direct - quad).max_entry() < 1e-6

    def test_order_drops_by_one(self):
        grid = Grid(128)
        rng = np.random.default_rng(17)
        p = Symbol.from_field(random_real_field(grid, rng, band=4))
        b = Symbol.from_field(random_real_field(grid, rng, band=4),
                              xi_profile=lambda xi: np.sqrt(1 + xi ** 2),
                              order_m=1.0)
        factor = flow.commutator_factor(p, b, NARROW, 0.4)
        assert paraop.order_probe(factor).slope <= 1.0 + 0.0 - 1.0 + 0.2


class TestBchTruncation:
    def test_multipliers_exact(self):
        grid = Grid(64)
        p = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * np.abs(xi) ** 0.5)
        b = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * (1 + xi ** 2) ** 0.25)
        assert flow.bch_truncation(p, b, NARROW, 0.3, 4, band=16) < 1e-12

    def test_tau_zero(self):
        grid = Grid(64)
        rng = np.random.default_rng(9)
        p = Symbol.from_field(random_real_field(grid, rng, band=4))
        b = Symbol.from_field(random_real_field(grid, rng, band=4))
        assert flow.bch_truncation(p, b, NARROW, 0.0, 0, band=16) == 0.0

    @pytest.mark.parametrize("truncation_k", [1, 2, 3])
    def test_decay_exponent(self, truncation_k):
        grid = Grid(64)
        rng = np.random.default_rng(9)
        p = Symbol.from_field(random_real_field(grid, rng, band=4))
        b = Symbol.from_field(random_real_field(grid, rng, band=4),
                              xi_profile=lambda xi: np.sqrt(1 + xi ** 2),
                              order_m=1.0)
        taus = np.array([0.1, 0.05, 0.025])
        defects = np.array([
            flow.bch_truncation(p, b, NARROW, t, truncation_k, band=grid.n // 4)
            for t in taus])
        exponent = np.polyfit(np.log(taus), np.log(defects), 1)[0]
        assert exponent >= truncation_k + 1 - 0.3


class TestFlowCompose:
    def test_second_flow_zero(self):
        grid = Grid(64)
        rng = np.random.default_rng(13)
        p = Symbol.from_field(random_real_field(grid, rng, band=5))
        zero = Symbol(grid, np.zeros((grid.n, grid.n), dtype=complex))
        assert flow.flow_compose_check(p, zero, CUTOFF, 0.5) <= 1e-9

    def test_multipliers_commute(self):
        grid = Grid(64)
        p = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) * np.abs(xi) ** 0.5)
        q = Symbol.from_function(grid, lambda x, xi: np.ones_like(x) / (1 + xi ** 2) ** 0.25)
        assert flow.flow_compose_check(p, q, CUTOFF, 0.5) <= 1e-9

    def test_generic_pair(self):
        grid = Grid(128)
        rng = np.random.default_rng(13)
        p = Symbol.from_field(random_real_field(grid, rng, band=5))
        q = Symbol.from_field(random_real_field(grid, rng, band=5))
        assert flow.flow_compose_check(p, q, CUTOFF, 0.5) <= 1e-6

    def test_difference_residual(self):
        grid = Grid(64)
        rng = np.random.default_rng(14)
        p = Symbol.from_field(random_real_field(grid, rng, band=5))
        q = Symbol.from_field(random_real_field(grid, rng, band=5))
        assert flow.flow_difference_residual(p, q, CUTOFF, 0.5) <= 1e-6


class TestFlowSymbolIdentity:
    @pytest.mark.parametrize("center", [16, 32])
    def test_residual_on_high_probes(self, center):
        grid = Grid(128)
        rng = np.random.default_rng(17)
        p = Symbol.from_field(random_real_field(grid, rng, band=4))
        packet = paraop.wave_packet(grid, center)
        # restrict the probe to modes where psi(0, xi) = 1
        spec = np.where(np.abs(grid.freqs) <= NARROW.little_b, 0.0,
                        packet.spectral)
        probe = Field(grid, spec, _validate=False)
        probe = probe * (1.0 / sobolev_norm(probe, 0.0))
        assert flow.flow_symbol_residual(p, NARROW, 0.4, probe) <= 1e-6


class TestFlowDifferenceEstimate:
    def test_calibrated_constant(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for n in (64, 128):
            grid = Grid(n)
            for _ in range(4):
                u1 = random_real_field(grid, rng, band=6)
                u2 = random_real_field(grid, rng, band=6)
                p1 = Symbol.from_field(u1, xi_profile=lambda xi: xi, order_m=1.0)
                p2 = Symbol.from_field(u2, xi_profile=lambda xi: xi, order_m=1.0)
                h1, _ = flow.hermitian_part(paraop.materialize(p1, CUTOFF))
                h2, _ = flow.hermitian_part(paraop.materialize(p2, CUTOFF))
                gap = seminorm(Symbol(grid, p1.coeffs - p2.coeffs),
                               order_m=1.0, n=0, k=0)
                for tau in (0.1, 0.5):
                    f1 = flow.flow_from_matrix(h1, tau)
                    f2 = flow.flow_from_matrix(h2, tau)
                    for _ in range(3):
                        u = random_real_field(grid, rng)
                        diff = (f1.matrix.entries - f2.matrix.entries) @ u.spectral
                        lhs = sobolev_norm(Field(grid, diff, _validate=False), 0.0)
                        worst = max(worst, lhs / (tau * gap * sobolev_norm(u, 1.0)))
        assert worst <= FLOW_DIFFERENCE_C


class TestZygmundBoundedness:
    def test_calibrated_constant(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for n in (64, 128):
            grid = Grid(n)
            for _ in range(4):
                p = Symbol.from_field(random_real_field(grid, rng, band=6))
                herm, _ = flow.hermitian_part(paraop.materialize(p, CUTOFF))
                built = flow.flow_from_matrix(herm, 0.5)
                for _ in range(3):
                    u = random_real_field(grid, rng)
                    out = Field(grid, built.matrix.entries @ u.spectral,
                                _validate=False)
                    for s in (0.5, 1.5):
                        worst = max(worst, zygmund_norm(out, s) / zygmund_norm(u, s))
        assert worst <= ZYGMUND_FLOW_K
