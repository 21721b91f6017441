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
    dispersion_phase, l2_norm, multiplier_apply
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


def multilinear_apply(chi, f1, f2):
    """Pi_chi(f1, f2): modes xi1 + xi2 accumulate chi(xi1, xi2) f1^ f2^.

    The reference semantics is the direct double sum over the lattice;
    output modes falling off the lattice are dropped, never aliased.
    """
    grid = check_same_grid(chi, f1, f2)
    terms = chi.values * np.outer(f1.spectral, f2.spectral)
    total = grid.freqs[:, None] + grid.freqs[None, :]
    keep = (total >= grid.nyquist) & (total <= -grid.nyquist - 1)
    out = np.zeros(grid.n, dtype=np.complex128)
    np.add.at(out, total[keep] % grid.n, terms[keep])
    is_real = f1.is_real and f2.is_real and chi._real_pairing
    return Field(grid, out, is_real, _validate=False)


@functools.lru_cache(maxsize=16)
def build_chi(s, alpha, cutoff, grid):
    """Tabulate the raw normal-form multiplier chi on the lattice.

    chi is a product of two factors sharing the Omega denominator: a
    weight transfer moving <xi>^s across the interaction, and a cutoff
    difference measuring how far the paraproduct is from a plain
    product.  Entries off the cutoff support, and the whole xi1 = 0
    line (an exact 0/0 where both numerator factors vanish), are zero.
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


def normal_form(u, v, s, alpha, cutoff):
    """The transformed unknown w = v + Pi_chi1(u, |D|^(1-alpha) v)."""
    grid = check_same_grid(u, v)
    chi1 = build_chi1(s, alpha, cutoff, grid)
    smoothed = multiplier_apply(v, abs_d_pow(1.0 - float(alpha)))
    return v + multilinear_apply(chi1, u, smoothed)


def equivalence_constant(u, v, s, alpha, cutoff):
    """Smallest C with C^-1 ||v||_2 <= ||w||_2 <= C ||v||_2 at this sample.

    For small u the transform is a perturbation of the identity and C
    stays close to 1; callers enforce their own threshold.
    """
    scale = l2_norm(v)
    if scale == 0.0:
        return 1.0
    ratio = l2_norm(normal_form(u, v, s, alpha, cutoff)) / scale
    return max(ratio, 1.0 / ratio)
