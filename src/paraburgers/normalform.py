"""Resonance analysis and the quadratic normal-form transform.

The resonance function

    Omega(xi1, xi2) = f(xi1 + xi2) - f(xi1) - f(xi2),  f(xi) = xi |xi|^(alpha-1)

is the phase mismatch a quadratic interaction accumulates under the
dispersive flow.  Closing the triple with xi3 = -(xi1 + xi2), |Omega| is
comparable to |xi_min| |xi_max|^(alpha-1) once no frequency vanishes, so
off the trivial resonances it is an admissible denominator.

The bilinear multiplier chi built here divides a transport-type source
by Omega twice and stays bounded on the paraproduct region |xi2| >=
B|xi1| + b.  The payoff is the change of unknown

    w = v + Pi_chi1(u, |D|^(1-alpha) v),    v = <D>^s u,

which cancels the non-resonant quadratic terms ahead of the gauge
transform.  chi1 is chi with the <xi1>^s and |xi2|^(alpha-1) weights
absorbed into the multiplier, so Pi_chi1(u, |D|^(1-alpha) v) equals
Pi_chi(v, v) whenever v = <D>^s u.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteMultiplier, SmallDivisor
from .spectral import Field, Grid, abs_d_pow, check_same_grid, \
    dispersion_phase, multiplier_values
from .symbols import cutoff_mask

RESONANCE_FLOOR = 1e-8


def resonance(alpha, xi1, xi2):
    """Omega_alpha(xi1, xi2) = f(xi1+xi2) - f(xi1) - f(xi2).

    Scalar inputs give a float, arrays broadcast.  At xi1 + xi2 = 0 the
    oddness of f cancels the last two terms exactly, so no special case
    is needed.
    """
    x1 = np.asarray(xi1, dtype=np.float64)
    x2 = np.asarray(xi2, dtype=np.float64)
    out = dispersion_phase(x1 + x2, alpha) - dispersion_phase(x1, alpha) \
        - dispersion_phase(x2, alpha)
    if out.ndim == 0:
        return float(out)
    return out


def resonance_bracket(alpha, band):
    """Range of |Omega| / (|xi_min| |xi_max|^(alpha-1)) over a lattice box.

    The sample is 1 <= |xi1|, |xi2| <= band with xi1 + xi2 != 0; min and
    max run over the interaction triple |xi1|, |xi2|, |xi1 + xi2|.
    Returns (lowest, highest) observed ratio.
    """
    k = np.arange(-band, band + 1, dtype=np.int64)
    x1, x2 = np.meshgrid(k, k, indexing="ij")
    keep = (x1 != 0) & (x2 != 0) & (x1 + x2 != 0)
    x1 = x1[keep].astype(np.float64)
    x2 = x2[keep].astype(np.float64)
    mags = np.stack([np.abs(x1), np.abs(x2), np.abs(x1 + x2)])
    scale = mags.min(axis=0) * mags.max(axis=0) ** (float(alpha) - 1.0)
    ratio = np.abs(resonance(alpha, x1, x2)) / scale
    return float(ratio.min()), float(ratio.max())


@dataclass(frozen=True)
class Multiplier2:
    """A bilinear Fourier multiplier tabulated on the mode lattice.

    values[i, j] holds chi(freqs[i], freqs[j]), both axes in FFT order.
    The table also keeps its cone band for `multilinear_coeffs`: the live
    rows (those with a nonzero entry), and for live row xi1 and output
    mode xi the column of xi - xi1 and the entry there, zero where
    xi - xi1 leaves the lattice.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        n = self.grid.n
        if values.shape != (n, n):
            raise ValueError(
                f"expected a {n} x {n} table, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteMultiplier("bilinear multiplier has non-finite entries")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_real_pairing", _conjugation_even(self.grid, values))
        rows, cols, entries = _live_rows(self.grid, values)
        object.__setattr__(self, "_band_rows", rows)
        object.__setattr__(self, "_band_cols", cols)
        object.__setattr__(self, "_band_entries", entries)

    def support(self):
        """Boolean mask of nonzero entries."""
        return self.values != 0


def _conjugation_even(grid, values):
    # chi(-xi1, -xi2) == conj(chi(xi1, xi2)) makes Pi preserve realness;
    # the unpaired Nyquist mode is ignored (real fields zero it anyway).
    paired = grid.freqs != grid.nyquist
    perm = (-grid.freqs) % grid.n
    perm = perm[paired]
    sub = values[np.ix_(paired, paired)]
    flipped = values[np.ix_(perm, perm)]
    scale = max(float(np.max(np.abs(sub))), 1.0)
    return bool(np.max(np.abs(flipped - np.conj(sub))) <= 1e-12 * scale)


def _live_rows(grid, values):
    # at N = 64 the chi1 table of Cutoff(8, 2) has 6 live rows, |xi1| <= 3
    rows = np.flatnonzero(np.any(values != 0, axis=1))
    partner = grid.freqs[None, :] - grid.freqs[rows, None]
    on = (partner >= grid.nyquist) & (partner <= -grid.nyquist - 1)
    cols = np.mod(partner, grid.n)
    entries = np.where(on, values[rows[:, None], cols], 0.0)
    for table in (rows, cols, entries):
        table.setflags(write=False)
    return rows, cols, entries


def multilinear_coeffs(chi, a, b):
    """Coefficients of Pi_chi(f1, f2) from the coefficient arrays a of f1
    and b of f2, (..., N) stacks taken row by row.

    Output mode xi sums chi(xi1, xi - xi1) a(xi1) b(xi - xi1) over the
    live rows xi1 of chi only, each term as chi (a b), adding the rows in
    FFT order from +0.  The direct double sum over the lattice adds in
    that same order, and its other rows add exact zeros, so the two agree
    bit for bit; pairs whose xi - xi1 leaves the lattice are dropped,
    never aliased.
    """
    # np.multiply, not *, fixes the order chi (a b) at every size: numpy
    # elides a temporary operand of 256 KiB or more and then multiplies in
    # the other order, and complex products round differently in each
    pairs = np.multiply(np.take(a, chi._band_rows, axis=-1)[..., None],
                        np.take(b, chi._band_cols, axis=-1))
    terms = np.multiply(chi._band_entries, pairs)
    out = np.zeros(terms.shape[:-2] + terms.shape[-1:], dtype=np.complex128)
    for r in range(terms.shape[-2]):
        out += terms[..., r, :]
    return out


def _output_field(grid, coeffs, is_real):
    """Wrap fresh output coefficients; a real output's unpaired Nyquist
    mode, which the sum writes, is zeroed as for every real field."""
    if is_real:
        coeffs[grid.index_of(grid.nyquist)] = 0.0
    return Field(grid, coeffs, is_real, _validate=False)


def multilinear_apply(chi, f1, f2):
    """Pi_chi(f1, f2): modes xi1 + xi2 accumulate chi(xi1, xi2) f1^ f2^.

    Computed as the cone-band row sum of `multilinear_coeffs`, which
    visits only the rows xi1 where chi is nonzero; the direct double sum
    over the lattice is its oracle in the tests (`dense_multilinear` in
    tests/helpers.py).  Output modes falling off the lattice are dropped,
    never aliased.
    """
    grid = check_same_grid(chi, f1, f2)
    is_real = f1.is_real and f2.is_real and chi._real_pairing
    coeffs = multilinear_coeffs(chi, f1.spectral, f2.spectral)
    return _output_field(grid, coeffs, is_real)


def build_chi(s, alpha, cutoff, grid):
    """Tabulate the raw normal-form multiplier chi on the lattice.

    chi is a product of two factors sharing the Omega denominator: a
    weight transfer moving <xi>^s across the interaction, and a cutoff
    difference measuring how far the paraproduct is from a plain
    product.  Entries off the cutoff support, and the whole xi1 = 0
    line (an exact 0/0 where both numerator factors vanish), are zero.

    Not cached: the studies read chi only through the cached
    `build_chi1`, so each table is built once per `build_chi1` key.
    """
    if not alpha > 1:
        raise ValueError(f"need alpha > 1, got {alpha}")
    x1 = grid.freqs.astype(np.float64)[:, None]
    x2 = grid.freqs.astype(np.float64)[None, :]
    psi = cutoff_mask(grid, cutoff)
    psi_shifted = cutoff(x1, x2 - x1)
    omega = resonance(alpha, x1, x2)
    live = (psi > 0.0) & (x1 != 0.0)

    mags = np.stack([np.abs(x1 + 0 * x2), np.abs(x2 + 0 * x1), np.abs(x1 + x2)])
    scale = mags.min(axis=0) * mags.max(axis=0) ** (float(alpha) - 1.0)
    floor = RESONANCE_FLOOR * scale
    if np.any(live & (np.abs(omega) < floor)):
        worst = np.argwhere(live & (np.abs(omega) < floor))[0]
        raise SmallDivisor(
            f"resonance below floor at (xi1, xi2) = "
            f"({grid.freqs[worst[0]]}, {grid.freqs[worst[1]]})"
        )

    bracket1 = (1.0 + x1 ** 2) ** (-s / 2.0)
    bracket2 = (1.0 + x2 ** 2) ** (-s / 2.0)
    transfer = (1.0 + x2 ** 2) ** (s / 2.0) - (1.0 + (x1 + x2) ** 2) ** (s / 2.0)
    first = psi * bracket1 * bracket2 * x2 * transfer
    second = psi_shifted * (x2 - x1) - psi * x2
    values = np.zeros((grid.n, grid.n))
    values[live] = first[live] * second[live] / (2.0 * omega[live] ** 2)

    return Multiplier2(grid, values)


@functools.lru_cache(maxsize=16)
def build_chi1(s, alpha, cutoff, grid):
    """chi1 = chi * <xi1>^s * |xi2|^(alpha-1), the multiplier applied to u.

    With v = <D>^s u these weights turn Pi_chi(v, v) into
    Pi_chi1(u, |D|^(1-alpha) v); the |xi2|^(alpha-1) factor vanishes on
    the zero column, where chi is already zero.
    """
    chi = build_chi(s, alpha, cutoff, grid)
    xi = grid.freqs.astype(np.float64)
    lift = (1.0 + xi ** 2) ** (s / 2.0)
    lower = np.where(np.abs(xi) > 0, np.abs(xi) ** (float(alpha) - 1.0), 0.0)
    return Multiplier2(grid, chi.values * lift[:, None] * lower[None, :])


def normal_form_coeffs(grid, u, v, s, alpha, cutoff):
    """Coefficients of w = v + Pi_chi1(u, |D|^(1-alpha) v) from the
    coefficient arrays of u and v, (..., N) stacks taken row by row."""
    chi1 = build_chi1(s, alpha, cutoff, grid)
    smoothed = multiplier_values(grid, abs_d_pow(1.0 - float(alpha))) * v
    return v + multilinear_coeffs(chi1, u, smoothed)


def normal_form(u, v, s, alpha, cutoff):
    """The transformed unknown w = v + Pi_chi1(u, |D|^(1-alpha) v)."""
    grid = check_same_grid(u, v)
    is_real = u.is_real and v.is_real and \
        build_chi1(s, alpha, cutoff, grid)._real_pairing
    coeffs = normal_form_coeffs(grid, u.spectral, v.spectral, s, alpha, cutoff)
    return _output_field(grid, coeffs, is_real)
