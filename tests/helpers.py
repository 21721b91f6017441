"""Shared construction helpers for the test suite."""

import numpy as np

from paraburgers.gauge import _expm
from paraburgers.paraop import _band_pairs, from_band, materialize, \
    pair_mask, place_band, to_band
from paraburgers.spectral import Field
from paraburgers.symbols import Symbol, column_sup, regularize, seminorm, \
    transport_symbol, x_derivative, xi_forward_difference


def random_real_field(grid, rng, band=None, amplitude=1.0):
    """Random real field with spectrum inside |xi| <= band (default N/3)."""
    if band is None:
        band = grid.n // 3
    band = int(min(band, grid.n // 2 - 1))
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    for xi in range(1, band + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[grid.index_of(xi)] = c
        coeffs[grid.index_of(-xi)] = np.conj(c)
    coeffs[0] = rng.standard_normal()
    field = Field(grid, coeffs, is_real=True)
    peak = np.max(np.abs(field.physical()))
    if peak > 0:
        field = field * (amplitude / peak)
    return field


def ring_field(grid, rng, lam):
    """Random real field with spectrum in the ring lam/2 <= |xi| <= lam."""
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    for xi in range(max(1, lam // 2), lam + 1):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[grid.index_of(xi)] = c
        coeffs[grid.index_of(-xi)] = np.conj(c)
    return Field(grid, coeffs, is_real=True)


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


def gauss_nodes(a, b, panels=1):
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b]."""
    base_x, base_w = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_x + 0.5 * (hi + lo))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def dense_multilinear(chi, a, b):
    """Pi_chi(f1, f2) by the direct double sum over the lattice, from the
    (N,) coefficient arrays a of f1 and b of f2: every pair (xi1, xi2)
    whose sum stays on the lattice adds chi(xi1, xi2) a(xi1) b(xi2) into
    mode xi1 + xi2, pairs in FFT row order.  The oracle of
    `normalform.multilinear_coeffs`.

    Each term is chi (a b), by np.multiply: `chi.values * np.outer(a, b)`
    lets numpy elide the outer product's temporary from N = 128 on and
    multiply in the other order, which rounds complex chi differently.
    """
    grid = chi.grid
    terms = np.multiply(chi.values, np.outer(a, b))
    total = grid.freqs[:, None] + grid.freqs[None, :]
    keep = (total >= grid.nyquist) & (total <= -grid.nyquist - 1)
    out = np.zeros(grid.n, dtype=np.complex128)
    np.add.at(out, total[keep] % grid.n, terms[keep])
    return out


def band_rows(grid, cutoff):
    """FFT rows of the cone band, written out from its definition: row j
    holds eta = reach - j, reach = floor((N/2 - b) / B), clipped at 0."""
    reach = max(int(np.floor((grid.n / 2 - cutoff.little_b) / cutoff.big_b)),
                0)
    return np.mod(reach - np.arange(2 * reach + 1), grid.n)


def dispersion(x, alpha):
    """f(x) = x |x|^(alpha-1), as sign(x) |x|^alpha."""
    return np.sign(x) * np.abs(x) ** float(alpha)


def lattice_commutator(grid, alpha, cutoff):
    """The commutator map on the full (eta, xi) lattice, FFT order both
    axes, written out from its definitions, as (valid, support, zone, den,
    scale).

    valid marks the slots whose output mode xi + eta stays on the lattice,
    support the valid slots where psi > 0, and zone the support off the
    eta = 0 row; den(eta, xi) = i (f(xi) - f(xi + eta)) with f(x) =
    x |x|^(alpha-1), and scale = |eta| max(|xi|, |xi + eta|)^(alpha-1).
    """
    eta = grid.freqs.astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    out = xi + eta
    valid = (out >= -grid.n // 2) & (out <= grid.n // 2 - 1)
    support = valid & (cutoff(eta, xi) > 0.0)
    zone = support & (eta != 0)
    den = 1j * (dispersion(xi, alpha) - dispersion(out, alpha))
    big = np.maximum(np.abs(xi), np.abs(out))
    with np.errstate(divide="ignore"):
        scale = np.abs(eta) * np.where(big > 0, big ** (alpha - 1.0), 0.0)
    return valid, support, zone, den, scale


def pair_denominator(grid, alpha):
    """`lattice_commutator`'s den on every (output, input) pair of the
    N x N matrix, FFT order both axes: pair (xi + eta, xi) holds den(eta,
    xi) = i (f(xi) - f(xi + eta)), for every eta, also the |eta| >= N/2
    that the symbol lattice folds."""
    xi = grid.freqs.astype(np.float64)
    return 1j * (dispersion(xi[None, :], alpha) - dispersion(xi[:, None],
                                                            alpha))


def operator_band_of(matrices, half_width):
    """The (..., 2H + 1, N) operator band of (..., N, N) matrices, written
    out from its definition: row H - eta, column xi holds the entry (xi +
    eta, xi), +0.0 where xi + eta leaves the lattice.  Entries farther than
    H from the diagonal are dropped."""
    n = matrices.shape[-1]
    freqs = np.concatenate((np.arange(n // 2), np.arange(-(n // 2), 0)))
    out = np.zeros((*matrices.shape[:-2], 2 * half_width + 1, n),
                   dtype=np.complex128)
    for row, eta in enumerate(range(half_width, -half_width - 1, -1)):
        columns = np.flatnonzero((freqs + eta >= -(n // 2))
                                 & (freqs + eta < n // 2))
        out[..., row, columns] = matrices[..., (freqs[columns] + eta) % n,
                                          columns]
    return out


def dense_commutator_estimates(p, a_reg, alpha, cutoff):
    """`gauge.commutator_estimates` on the N x N symbols p and a_reg, as it
    read them before they became bands: a truncated to its band slots
    whose output mode stays on the lattice, and each sup_x from
    `symbols.column_sup` of the symbol's columns xi != 0."""
    grid = a_reg.grid
    big_b = cutoff.big_b
    band = to_band(a_reg.coeffs, grid, cutoff).reshape(-1)
    slots = _band_pairs(grid, cutoff).slots
    kept = np.zeros_like(band)
    kept[slots] = band[slots]
    a_reg = a_reg.copy(coeffs=from_band(kept.reshape(-1, grid.n), grid,
                                        cutoff))

    def homogeneous_sup(symbol, weight_order, difference=False):
        if difference:
            coeffs, base = xi_forward_difference(grid, symbol.coeffs)
        else:
            coeffs, base = symbol.coeffs, grid.freqs
        keep = base != 0
        norms = column_sup(grid, coeffs[:, keep])
        weights = np.abs(base[keep]).astype(np.float64) \
            ** (-float(weight_order))
        return float(np.max(norms * weights))

    beta = a_reg.order_m
    gain = big_b * (1.0 - (1.0 - 1.0 / big_b) ** alpha)
    p_x = x_derivative(p)
    transport_lhs = homogeneous_sup(p_x, beta + 1.0 - alpha)
    cross = alpha * ((1.0 + 1.0 / big_b) ** (alpha - 1.0) - 1.0) / (
        1.0 - (1.0 - 1.0 / big_b) ** alpha
    )
    return {
        "transport_lhs": transport_lhs,
        "transport_rhs": homogeneous_sup(a_reg, beta) / gain,
        "xi_lhs": homogeneous_sup(p_x, beta - alpha, difference=True),
        "xi_rhs": homogeneous_sup(a_reg, beta - 1.0, difference=True) / gain
        + cross * transport_lhs,
    }


def dense_cancellation_check(u, alpha, cutoff):
    """The energy study's cancellation check on N x N matrices, as
    `experiments._cancellation_check` read it before its operators became
    bands: (hermitian gap, skew gap, commutator estimates), none of them
    checked against a bound.

    The generator is the division of the regularized dense right-hand side
    -(2 xi + eta) u_hat(eta) by `lattice_commutator`'s den, with the
    estimates of `dense_commutator_estimates`; the hermitian gap reads the
    dense matrix on the deep pairs of `paraop.pair_mask`, and the skew gap
    conjugates T = H + H^* by the placed exponentials with two dense
    matmuls.
    """
    grid = u.grid
    sigma = transport_symbol(u)
    eta = grid.freqs.astype(np.float64)[:, None]
    rhs = regularize(sigma.copy(
        coeffs=-(2.0 * sigma.coeffs + eta * u.spectral[:, None])), cutoff)
    _, _, zone, den, _ = lattice_commutator(grid, alpha, cutoff)
    p = Symbol(grid, np.where(zone, rhs.coeffs / np.where(zone, den, 1.0),
                              0.0), order_m=2.0 - alpha, cutoff=cutoff)
    estimates = dense_commutator_estimates(p, rhs, alpha, cutoff)
    gauge = materialize(p, cutoff).entries
    psi = pair_mask(grid, cutoff)
    deep = (psi == 1.0) & (psi.T == 1.0)
    hermitian_gap = float(np.max(np.abs((gauge - gauge.conj().T)[deep])))
    half = materialize(sigma, cutoff).entries
    transported = half + half.conj().T
    band = operator_band_of(gauge, len(band_rows(grid, cutoff)) // 2)
    minus, plus = place_band(_expm(np.stack((-1j * band, 1j * band))))
    conjugated = 1j * (minus @ transported @ plus - transported)
    skew_gap = float(np.max(np.abs(conjugated + conjugated.conj().T)))
    return hermitian_gap, skew_gap, estimates
