"""Symbols a(x, xi) on the grid, admissible cutoffs, and the seminorm.

A symbol is stored by its x-Fourier coefficients a_hat(eta, xi) on the
(eta, xi) lattice, both axes in FFT order.  The cutoff

    psi(eta, xi) = ramp(|xi| - B*|eta| - b),   ramp = quintic smoothstep,

vanishes for |xi| < B|eta| + b and equals one for |xi| > B|eta| + b + 1.
With integer B and b the transition band misses the integer lattice, so
lattice masks are exactly 0/1 and regularization is an exact projection.
A regularized symbol carries its cutoff as the `Symbol.cutoff` mark, and
`regularize` is the one reader of that mark: it checks that a marked
symbol is zero wherever psi is before trusting it.
`DEFAULT_CUTOFF`, Cutoff(8, 2), is the cutoff of every entry point that
is not handed one.

The package reads one seminorm, in the operator-norm convention

    M^m(a) = sup_{xi != 0} (1+|xi|)^{-m} sup_x |a(x, xi)|,

which serves the gauge's smallness guard, its tameness check and the
increments of its correction ladder.  The gauge's commutator estimates
(`gauge.commutator_estimates`) read cone bands, weigh columns by
|xi|^{-m} instead and take forward differences Delta_xi on the integer
lattice (`xi_forward_difference`); their sup_x is `column_sup` of the
band's rows zero-padded to the N x N layout.
"""

import functools

import numpy as np

from .errors import InvariantBroken
from .spectral import smoothstep


class Cutoff:
    """Admissible paradifferential cutoff psi^{B,b}."""

    def __init__(self, big_b, little_b):
        if not 1 < big_b < np.inf:
            raise ValueError(f"need finite B > 1, got {big_b}")
        if not 0 < little_b < np.inf:
            raise ValueError(f"need finite b > 0, got {little_b}")
        self.big_b = float(big_b)
        self.little_b = float(little_b)

    def __call__(self, eta, xi):
        eta = np.asarray(eta, dtype=np.float64)
        xi = np.asarray(xi, dtype=np.float64)
        return smoothstep(np.abs(xi) - self.big_b * np.abs(eta) - self.little_b)

    def __eq__(self, other):
        return (
            isinstance(other, Cutoff)
            and other.big_b == self.big_b
            and other.little_b == self.little_b
        )

    def __hash__(self):
        return hash(("Cutoff", self.big_b, self.little_b))

    def __repr__(self):
        return f"Cutoff(B={self.big_b:g}, b={self.little_b:g})"


DEFAULT_CUTOFF = Cutoff(8.0, 2.0)


@functools.lru_cache(maxsize=16)
def cutoff_mask(grid, cutoff):
    """psi evaluated on the full (eta, xi) lattice, FFT order both axes."""
    eta = grid.freqs.astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    mask = cutoff(eta, xi)
    mask.setflags(write=False)
    return mask


class Symbol:
    """x-periodic symbol tabulated by coefficients a_hat(eta, xi)."""

    def __init__(self, grid, coeffs, order_m=0.0, cutoff=None):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n, grid.n):
            raise ValueError(f"expected {(grid.n, grid.n)} coefficients")
        self.grid = grid
        self.coeffs = coeffs
        self.order_m = float(order_m)
        self.cutoff = cutoff

    @classmethod
    def from_function(cls, grid, fn, order_m=0.0):
        """Tabulate a(x_j, xi) columnwise; fn must broadcast over arrays."""
        x = grid.x[:, None]
        xi = grid.freqs.astype(np.float64)[None, :]
        values = np.asarray(fn(x, xi), dtype=np.complex128)
        values = np.broadcast_to(values, (grid.n, grid.n))
        coeffs = np.fft.fft(values, axis=0) / grid.n
        return cls(grid, coeffs, order_m=order_m)

    @classmethod
    def from_field(cls, field, xi_profile=None, order_m=None):
        """Symbol u(x) * g(xi); g defaults to 1 (a paraproduct symbol)."""
        grid = field.grid
        if xi_profile is None:
            profile = np.ones(grid.n)
        else:
            profile = np.asarray(xi_profile(grid.freqs.astype(np.float64)),
                                 dtype=np.complex128)
        coeffs = field.spectral[:, None] * profile[None, :]
        return cls(grid, coeffs, order_m=0.0 if order_m is None else order_m)

    def copy(self, coeffs=None, **overrides):
        return Symbol(
            self.grid,
            self.coeffs.copy() if coeffs is None else coeffs,
            order_m=overrides.get("order_m", self.order_m),
            cutoff=overrides.get("cutoff", self.cutoff),
        )

    def __mul__(self, scalar):
        return Symbol(self.grid, self.coeffs * complex(scalar),
                      order_m=self.order_m, cutoff=self.cutoff)

    __rmul__ = __mul__


def transport_symbol(field):
    """The symbol u(x) * xi of the transport operator T_u d_x."""
    grid = field.grid
    coeffs = field.spectral[:, None] * grid.freqs.astype(np.float64)[None, :]
    return Symbol(grid, coeffs, order_m=1.0)


def regularize(symbol, cutoff):
    """Multiply coefficients by psi^{B,b}; projection, idempotent per cutoff.

    The one reader of the `cutoff` mark: a symbol already marked with this
    cutoff is returned as it is, once its coefficients are checked to be
    zero wherever psi is; a nonzero one raises InvariantBroken.
    """
    mask = cutoff_mask(symbol.grid, cutoff)
    if symbol.cutoff != cutoff:
        return symbol.copy(coeffs=mask * symbol.coeffs, cutoff=cutoff)
    outside = np.count_nonzero(symbol.coeffs[mask == 0.0])
    if outside:
        raise InvariantBroken(
            f"{outside} coefficients nonzero where {cutoff!r} vanishes; a "
            f"symbol marked regularized was not"
        )
    return symbol


def x_derivative(symbol):
    """d_x a: coefficients times i eta."""
    eta = 1j * symbol.grid.freqs.astype(np.float64)
    return symbol.copy(coeffs=eta[:, None] * symbol.coeffs)


def xi_forward_difference(grid, coeffs):
    """Forward difference Delta_xi a(x, xi) = a(x, xi + 1) - a(x, xi) of
    coefficient arrays whose last axis is xi in FFT order.

    Returns (coeffs, base_freqs): coeffs has one column per base frequency
    xi with xi and xi + 1 both on the lattice, in increasing order of xi;
    the column past the top of the lattice is dropped.
    """
    out = coeffs[..., np.argsort(grid.freqs, kind="stable")]
    return out[..., 1:] - out[..., :-1], np.sort(grid.freqs)[: grid.n - 1]


def column_sup(grid, coeffs):
    """sup_x |a(x, xi)| of each column of (..., N, N) coefficient stacks;
    the eta axis is the second to last, leading axes are samples."""
    values = np.fft.ifft(coeffs, axis=-2)
    values *= grid.n
    return np.max(np.abs(values), axis=-2)


def sup_seminorm(grid, sups, order_m):
    """M^m from column sups sup_x |a(x, xi)|, (..., N) in FFT order: the
    max over the samples and the columns xi != 0 of (1+|xi|)^{-m} sup."""
    keep = grid.freqs != 0
    weights = (1.0 + np.abs(grid.freqs[keep])) ** (-float(order_m))
    return float(np.max(sups[..., keep] * weights))


def stack_seminorm(grid, coeffs, order_m):
    """M^m over (..., N, N) coefficient stacks: the max over the samples
    of M^m(a_i), from one batched inverse FFT."""
    return sup_seminorm(grid, column_sup(grid, coeffs), order_m)


def seminorm(symbol, order_m=None):
    """M^m(a), see the module docstring; m defaults to the symbol's order."""
    m = symbol.order_m if order_m is None else order_m
    return stack_seminorm(symbol.grid, symbol.coeffs, m)
