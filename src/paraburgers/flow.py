"""Gauge flows e^{i tau T_p} and their algebraic factorizations.

Every flow is the dense matrix exponential of the materialized
generator: it satisfies the group and inverse laws to rounding error,
which the identity checks in this module lean on.
"""

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import GeneratorUnstable
from .paraop import OperatorMatrix, materialize
from .spectral import Field
from .symbols import Symbol, seminorm

# Growth-rate constant in the L2 stability bound exp(C |tau| M(Im p));
# calibrated over seeded order-0 draws, with headroom (see tests).
FLOW_STABILITY_C = 2.0

GAUSS_POINTS = 16
# Composite panels of the flow-symbol quadrature: 64 nodes on [0, tau].
QUADRATURE_PANELS = 4


def gauss_nodes(a, b, panels=1):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    base_x, base_w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
    nodes, weights = [], []
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_x + 0.5 * (hi + lo))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def imaginary_part_symbol(p):
    """Symbol of Im p, taken pointwise in (x, xi) values."""
    values = p.x_values()
    imag = (values - np.conj(values)) / 2j
    return Symbol(p.grid, np.fft.fft(imag, axis=0) / p.grid.n)


def hermitian_part(matrix):
    """(M + M^dagger)/2 and the spectral norm of the dropped half."""
    sym = 0.5 * (matrix.entries + matrix.entries.conj().T)
    dropped = float(np.linalg.norm(matrix.entries - sym, 2))
    return OperatorMatrix(matrix.grid, sym, f"herm({matrix.descriptor})"), dropped


@dataclass
class FlowOperator:
    """Solution operator of d/dtau h = i T_p h at time tau."""

    generator: OperatorMatrix
    tau: float
    matrix: OperatorMatrix

    def apply(self, field):
        return self.matrix.apply(field)

    def inverse_matrix(self):
        return _propagator(self.generator, -self.tau)


def _block_integral(a, b, c, tau):
    """int_0^tau e^{(tau-r) a} b e^{r c} dr, exactly.

    It is the upper-right block of expm(tau [[a, b], [0, c]]) (Van Loan,
    IEEE Trans. Automat. Control 23, 1978), so no quadrature is needed.
    """
    n = a.shape[0]
    block = np.block([[a, b], [np.zeros_like(a), c]])
    return scipy.linalg.expm(tau * block)[:n, n:]


def _propagator(generator, tau):
    entries = scipy.linalg.expm(1j * tau * generator.entries)
    return OperatorMatrix(generator.grid, entries, "flow[expm]")


def flow_from_matrix(generator, tau, stability_bound=None):
    """Flow of an arbitrary generator matrix; stability_bound, when given,
    is the L2 norm above which GeneratorUnstable is raised."""
    matrix = _propagator(generator, tau)
    if stability_bound is not None:
        norm = float(np.linalg.norm(matrix.entries, 2))
        if norm > stability_bound:
            raise GeneratorUnstable(
                f"flow norm {norm:.3e} exceeds bound {stability_bound:.3e}")
    return FlowOperator(generator, float(tau), matrix)


def flow_build(p, c, tau, stability_c=FLOW_STABILITY_C):
    """Flow operator e^{i tau T_p} for the symbol p under cutoff c.

    Raises GeneratorUnstable when the L2 norm of the flow exceeds twice
    exp(stability_c * |tau| * M(Im p)); the margin factor 2 absorbs the
    discrete constant.
    """
    generator = materialize(p, c)
    growth = seminorm(imaginary_part_symbol(p), order_m=0.0, n=0, k=0)
    bound = 2.0 * np.exp(stability_c * abs(tau) * growth)
    return flow_from_matrix(generator, tau, stability_bound=bound)


def conjugate(p, b, c, tau, **flow_args):
    """Conjugated operator e^{i tau T_p} T_b e^{-i tau T_p}."""
    flow = flow_build(p, c, tau, **flow_args)
    middle = materialize(b, c)
    return flow.matrix.compose(middle).compose(flow.inverse_matrix())


def commutator_factor(p, b, c, tau, **flow_args):
    """The factor F with [e^{i tau T_p}, T_b] = e^{i tau T_p} F.

    F = T_b - e^{-i tau T_p} T_b e^{i tau T_p}, equivalently the integral
    int_0^tau e^{-i r T_p} [i T_p, T_b] e^{i r T_p} dr.
    """
    return materialize(b, c) - conjugate(p, b, c, -tau, **flow_args)


def commutator_factor_quadrature(p, b, c, tau):
    """Integral form of commutator_factor, int_0^tau e^{-irG} K e^{irG} dr
    with G = T_p and K = i [G, T_b].

    Writing e^{-irG} = e^{-i tau G} e^{i(tau-r)G} makes the integral
    e^{-i tau G} times a block-exponential integral.
    """
    g = materialize(p, c).entries
    t_b = materialize(b, c).entries
    bracket = 1j * (g @ t_b - t_b @ g)
    total = (scipy.linalg.expm(-1j * tau * g)
             @ _block_integral(1j * g, bracket, 1j * g, tau))
    return OperatorMatrix(p.grid, total, "commutator[integral]")


def bch_terms(p, b, c, tau, count):
    """Partial sums sum_{k<=K} (tau^k/k!) ad^k_{iT_p}(T_b) as matrices."""
    x = 1j * materialize(p, c).entries
    term = materialize(b, c).entries
    total = term.copy()
    factorial = 1.0
    for k in range(1, count + 1):
        term = x @ term - term @ x
        factorial *= k
        total = total + (tau ** k / factorial) * term
    return OperatorMatrix(p.grid, total, f"bch[{count}]")


def bch_truncation(p, b, c, tau, truncation_k, band=None, **flow_args):
    """Operator-norm defect of the K-term BCH expansion of the conjugation,
    measured on the band-limited subspace |xi| <= band (default N/8)."""
    grid = p.grid
    if band is None:
        band = grid.n // 8
    conjugated = conjugate(p, b, c, tau, **flow_args)
    partial = bch_terms(p, b, c, tau, truncation_k)
    projector = (np.abs(grid.freqs) <= band).astype(np.float64)
    defect = (conjugated.entries - partial.entries) * projector[None, :]
    return float(np.linalg.norm(defect, 2))


def flow_difference_residual(p, p_other, c, tau):
    """Residual of the two-flow difference identity.

    e^{i tau T_p} - e^{i tau T_p'} =
        int_0^tau e^{i(tau-r) T_p} i T_{p-p'} e^{i r T_p'} dr.
    The left side takes the two flows separately, the right side the
    block-exponential integral, so the check does not reuse one for the
    other.
    """
    g1 = materialize(p, c).entries
    g2 = materialize(p_other, c).entries
    left = (scipy.linalg.expm(1j * tau * g1)
            - scipy.linalg.expm(1j * tau * g2))
    right = _block_integral(1j * g1, 1j * (g1 - g2), 1j * g2, tau)
    return float(np.max(np.abs(left - right)))


def flow_compose_check(p, p_other, c, tau, rtol=1e-10, atol=1e-12):
    """Self-consistency of the composed-flow generator of two flows.

    Integrates dY/dr = i(T_p + e^{irT_p} T_p' e^{-irT_p}) Y alongside the
    two auxiliary propagators and compares Y(tau) against the product
    e^{i tau T_p} e^{i tau T_p'}; returns the larger of that max-entry
    discrepancy and the two-flow difference residual.
    """
    n = p.grid.n
    g1 = materialize(p, c).entries
    g2 = materialize(p_other, c).entries
    eye = np.eye(n, dtype=np.complex128)

    def rhs(_, state):
        y, u, v = (state[: n * n].reshape(n, n),
                   state[n * n: 2 * n * n].reshape(n, n),
                   state[2 * n * n:].reshape(n, n))
        conj = u @ g2 @ v
        return np.concatenate([(1j * ((g1 + conj) @ y)).ravel(),
                               (1j * (g1 @ u)).ravel(),
                               (-1j * (v @ g1)).ravel()])

    state0 = np.concatenate([eye.ravel()] * 3)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, tau), state0, method="DOP853",
                                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"composed-flow integration failed: {sol.message}")
    composed = sol.y[: n * n, -1].reshape(n, n)
    product = scipy.linalg.expm(1j * tau * g1) @ scipy.linalg.expm(1j * tau * g2)
    discrepancy = float(np.max(np.abs(composed - product)))
    return max(discrepancy, flow_difference_residual(p, p_other, c, tau))


def flow_symbol_residual(p, c, tau, probe):
    """Residual of the flow-symbol identity on one probe field.

    e^{i tau T_p} T_1 u = T_{e^{i tau p}} u
        + int_0^tau e^{i(tau-s) T_p} (T_{ip} T_{e^{isp}} - T_{ip e^{isp}}) u ds
    with the exponentials of symbols taken pointwise.  On probes whose
    spectrum lies where psi(0, xi) = 1 the left side is the flow itself.
    """
    grid = p.grid
    generator = materialize(p, c)
    p_values = p.x_values()

    def exp_symbol_matrix(s):
        return materialize(
            Symbol(grid, np.fft.fft(np.exp(1j * s * p_values), axis=0) / grid.n), c)

    t_ip = materialize(Symbol(grid, 1j * p.coeffs), c)
    left = scipy.linalg.expm(1j * tau * generator.entries) @ probe.spectral
    total = exp_symbol_matrix(tau).entries @ probe.spectral
    nodes, weights = gauss_nodes(0.0, tau, QUADRATURE_PANELS)
    for s, w in zip(nodes, weights):
        exp_s = np.exp(1j * s * p_values)
        inner = (t_ip.entries @ exp_symbol_matrix(s).entries
                 - materialize(Symbol(
                     grid, np.fft.fft(1j * p_values * exp_s, axis=0) / grid.n),
                     c).entries)
        total += w * (scipy.linalg.expm(1j * (tau - s) * generator.entries)
                      @ (inner @ probe.spectral))
    from .spectral import sobolev_norm

    return sobolev_norm(Field(grid, left - total, _validate=False), 0.0)
