"""Shared construction helpers for the test suite."""

import numpy as np

from paraburgers.spectral import Field
from paraburgers.symbols import Symbol, regularize, seminorm


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
