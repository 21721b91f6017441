"""Symbols a(x, xi) on the grid, admissible cutoffs, and seminorms.

A symbol is stored by its x-Fourier coefficients a_hat(eta, xi) on the
(eta, xi) lattice, both axes in FFT order.  The cutoff

    psi(eta, xi) = ramp(|xi| - B*|eta| - b),   ramp = quintic smoothstep,

vanishes for |xi| < B|eta| + b and equals one for |xi| > B|eta| + b + 1.
With integer B and b the transition band misses the integer lattice, so
lattice masks are exactly 0/1 and regularization is an exact projection.

Seminorms follow the operator-norm convention

    M^m(a; k, n) = sup_{j<=k} sup_{xi != 0} (1+|xi|)^{-(m-j)}
                   * || Delta_xi^j a(., xi) ||_{W^{n,inf}}

with forward differences Delta_xi on the integer lattice.
"""

import functools

import numpy as np

from .errors import DomainTooSmall
from .spectral import smoothstep


class Cutoff:
    """Admissible paradifferential cutoff psi^{B,b}."""

    def __init__(self, big_b, little_b):
        if not big_b > 1:
            raise ValueError(f"need B > 1, got {big_b}")
        if not little_b > 0:
            raise ValueError(f"need b > 0, got {little_b}")
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

    def x_values(self):
        """Physical tabulation a(x_j, xi), columns indexed by FFT order."""
        return np.fft.ifft(self.coeffs, axis=0) * self.grid.n

    def copy(self, coeffs=None, **overrides):
        return Symbol(
            self.grid,
            self.coeffs.copy() if coeffs is None else coeffs,
            order_m=overrides.get("order_m", self.order_m),
            cutoff=overrides.get("cutoff", self.cutoff),
        )

    def __add__(self, other):
        if self.grid != other.grid:
            raise ValueError("symbols on different grids")
        cut = self.cutoff if self.cutoff == other.cutoff else None
        return Symbol(self.grid, self.coeffs + other.coeffs,
                      order_m=max(self.order_m, other.order_m), cutoff=cut)

    def __sub__(self, other):
        return self + (other * (-1.0))

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
    """Multiply coefficients by psi^{B,b}; projection, idempotent per cutoff."""
    if symbol.cutoff == cutoff:
        return symbol
    mask = cutoff_mask(symbol.grid, cutoff)
    return symbol.copy(coeffs=mask * symbol.coeffs, cutoff=cutoff)


def x_derivative(symbol, order=1):
    eta = 1j * symbol.grid.freqs.astype(np.float64)
    factor = eta[:, None] ** order
    return symbol.copy(coeffs=factor * symbol.coeffs)


def monotone_order(grid):
    """Indices that sort FFT-ordered axes into increasing frequency."""
    return np.argsort(grid.freqs, kind="stable")


def xi_forward_difference(symbol, order=1):
    """Forward difference in xi; columns past the lattice edge are dropped.

    Returns (coeffs, base_freqs): coeffs has one column per base frequency
    xi with xi ... xi+order all on the lattice, in increasing order of xi.
    """
    return _xi_difference(symbol.grid, symbol.coeffs, order)


def _xi_difference(grid, coeffs, order):
    """xi_forward_difference on coefficients; leading axes are samples."""
    out = coeffs[..., monotone_order(grid)]
    for _ in range(order):
        out = out[..., 1:] - out[..., :-1]
    base = np.sort(grid.freqs)[: grid.n - order]
    return out, base


def _column_wk_ladder(grid, coeffs, n_max):
    """W^{n,inf} norms of each column for n = 0 .. n_max, one iFFT per n.

    The block's eta axis is the second to last; leading axes are samples.
    """
    totals = []
    total = np.zeros(coeffs.shape[:-2] + coeffs.shape[-1:])
    eta = 1j * grid.freqs.astype(np.float64)[:, None]
    block = coeffs
    for n in range(n_max + 1):
        if n:
            block = block * eta
        values = np.fft.ifft(block, axis=-2)
        values *= grid.n
        total = total + np.max(np.abs(values), axis=-2)
        totals.append(total)
    return totals


def column_wk_inf(grid, coeffs, n):
    """W^{n,inf} norm of each column of an (eta, column) coefficient block."""
    return _column_wk_ladder(grid, coeffs, n)[-1]


def seminorm_table(grid, coeffs, order_m, k_max=0, n_max=0):
    """Every entry M^m(a; k, n) with k <= k_max, n <= n_max, as a dict.

    Entry (k, n) is the running max over j <= k of the weighted W^{n,inf}
    norms of Delta_xi^j a, so one iFFT per distinct (Delta_xi^j, eta^l)
    block serves the whole table.  Leading axes of coeffs are samples;
    the sup then runs over them too.
    """
    if k_max > grid.n // 4:
        raise DomainTooSmall(
            f"{k_max} xi-differences need more lattice than n={grid.n} offers"
        )
    m = float(order_m)
    best = [0.0] * (n_max + 1)
    table = {}
    for j in range(k_max + 1):
        # the sup ignores column order, so j = 0 reads the columns in place;
        # columns are independent, so xi = 0 is dropped from the norms
        if j == 0:
            diffs, base = coeffs, grid.freqs
        else:
            diffs, base = _xi_difference(grid, coeffs, j)
        keep = base != 0
        if np.any(keep):
            weights = (1.0 + np.abs(base[keep])) ** (-(m - j))
            for n, norms in enumerate(_column_wk_ladder(grid, diffs, n_max)):
                best[n] = max(best[n], float(np.max(norms[..., keep] * weights)))
        for n in range(n_max + 1):
            table[(j, n)] = best[n]
    return table


def seminorm(symbol, order_m=None, n=0, k=0):
    """Single seminorm entry M^m(a; k, n); see the module docstring."""
    m = symbol.order_m if order_m is None else float(order_m)
    return seminorm_table(symbol.grid, symbol.coeffs, m, k_max=k, n_max=n)[(k, n)]
