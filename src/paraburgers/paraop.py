"""Paradifferential operators: dense reference matrices and the cone band.

The materialization convention: for a symbol with coefficients a_hat(eta, xi)
and cutoff psi, the operator matrix has

    entries[xi + eta, xi] = psi(eta, xi) * a_hat(eta, xi)

with rows and columns in FFT order and entries dropped when xi + eta leaves
the retained lattice (no wrap-around: on the cutoff support |eta| is far
below N/2 anyway).  Dense matrices (`materialize`) are the reference
semantics and serve the gauge and study layers, which need the operator
itself.

Applying an operator to a field never needs the matrix.  psi vanishes
unless |xi| > B|eta| + b, so only the rows |eta| <= reach =
floor((N/2 - b)/B) of the symbol can contribute, and output mode xi_m
reads only the 2 reach + 1 inputs xi_m - eta.  Those are one sliding
window over the xi-sorted input, zero-padded by reach on each side so
that inputs off the lattice read as zero, and a cached complex table
holds psi on the windows.  `paraproduct_coeffs` multiplies the windows
by that table and contracts them with the band of u_hat in one
matrix-vector product; `apply` gathers a general symbol onto the same
windows and takes one row-wise sum.  When u and v are both real
(`Field.is_real`), T_u v is Hermitian, because psi(eta, xi) =
psi(-eta, -xi): only the N/2 + 1 output modes xi <= 0 are summed, an
((N/2 + 1) x (2 reach + 1)) multiply, and xi in [1, N/2 - 1] takes the
conjugates of -xi.  Other inputs take the full (N x (2 reach + 1)) sum.
Neither path forms an N x N array, and both agree with the dense matrix
to rounding error for every cutoff, except that the output of real
inputs is a real field and zeroes its unpaired Nyquist mode, as every
real field does.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbe, GridMismatch, InvariantBroken
from .spectral import Field, check_same_grid, derivative, multiplier_values, \
    sobolev_norm
from .symbols import Cutoff, Symbol, cutoff_mask, regularize, x_derivative, \
    xi_forward_difference


@functools.lru_cache(maxsize=16)
def _pair_slots(grid):
    """Symbol slot of each (output, input) pair, as (valid, rows, cols).

    Pair (out, in) holds the slot (eta, xi) = (out - in, in): row eta mod N,
    column the input's own position.  Pairs whose eta leaves the lattice
    are not valid and have no slot.
    """
    eta = grid.freqs[:, None] - grid.freqs[None, :]
    valid = (eta >= -grid.n // 2) & (eta <= grid.n // 2 - 1)
    rows = np.mod(eta, grid.n)
    cols = np.broadcast_to(np.arange(grid.n)[None, :], rows.shape)
    valid.setflags(write=False)
    rows.setflags(write=False)
    return valid, rows, cols


def gather_pairs(coeffs, grid):
    """Symbol-layout coefficients as matrix entries, no cutoff factor:
    entries[xi + eta, xi] = coeffs[eta, xi], zero where eta is off the
    lattice."""
    valid, rows, cols = _pair_slots(grid)
    return np.where(valid, coeffs[rows, cols], 0.0)


def scatter_pairs(entries, grid):
    """Matrix entries back to symbol layout, the inverse of gather_pairs;
    entries at pairs whose eta is off the lattice are dropped."""
    valid, rows, cols = _pair_slots(grid)
    coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    coeffs[rows[valid], cols[valid]] = entries[valid]
    return coeffs


@functools.lru_cache(maxsize=16)
def pair_mask(grid, cutoff):
    """psi(out-in, in) over all (output, input) index pairs, FFT order."""
    mask = gather_pairs(cutoff_mask(grid, cutoff), grid)
    mask.setflags(write=False)
    return mask


@dataclass
class OrderEstimate:
    """Least-squares fit of log output norm against log<k> over packets.

    residual is the root-mean-square misfit of the fit; probe_range is the
    (lowest, highest) packet center used.
    """

    slope: float
    intercept: float
    residual: float
    probe_range: tuple
    centers: tuple
    norms: tuple


class OperatorMatrix:
    """Dense spectral-space operator with provenance string."""

    def __init__(self, grid, entries, descriptor=""):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (grid.n, grid.n):
            raise ValueError(f"expected {(grid.n, grid.n)} entries")
        self.grid = grid
        self.entries = entries
        self.descriptor = descriptor

    def apply(self, field):
        if field.grid != self.grid:
            raise GridMismatch(f"operator on {self.grid}, field on {field.grid}")
        return Field(self.grid, self.entries @ field.spectral, _validate=False)

    def adjoint(self):
        return OperatorMatrix(self.grid, self.entries.conj().T,
                              f"adjoint({self.descriptor})")

    def compose(self, other):
        check_same_grid(self, other)
        return OperatorMatrix(self.grid, self.entries @ other.entries,
                              f"({self.descriptor})({other.descriptor})")

    def __add__(self, other):
        check_same_grid(self, other)
        return OperatorMatrix(self.grid, self.entries + other.entries)

    def __sub__(self, other):
        check_same_grid(self, other)
        return OperatorMatrix(self.grid, self.entries - other.entries)

    def __mul__(self, scalar):
        return OperatorMatrix(self.grid, self.entries * complex(scalar),
                              self.descriptor)

    __rmul__ = __mul__

    def operator_norm(self, s_out=0.0, s_in=0.0):
        """L2 operator norm between Sobolev spaces H^{s_in} -> H^{s_out}."""
        xi = self.grid.freqs.astype(np.float64)
        w_out = (1.0 + xi ** 2) ** (s_out / 2.0)
        w_in = (1.0 + xi ** 2) ** (-s_in / 2.0)
        return float(np.linalg.norm(w_out[:, None] * self.entries * w_in[None, :], 2))

    def max_entry(self):
        return float(np.max(np.abs(self.entries)))


def _regularized_entries(coeffs, grid, cutoff):
    """gather_pairs(coeffs) of a symbol regularized with cutoff; raises
    InvariantBroken if an entry is nonzero where psi vanishes."""
    entries = gather_pairs(coeffs, grid)
    outside = entries[pair_mask(grid, cutoff) == 0.0]
    if np.any(outside):
        raise InvariantBroken(
            f"{np.count_nonzero(outside)} entries outside the {cutoff!r} "
            f"pair mask; a symbol marked regularized was not"
        )
    return entries


def materialize(symbol, cutoff):
    """Dense matrix of T_a for the given cutoff.

    A symbol already regularized with this cutoff is used as-is, so
    materialize(regularize(a, c), c) == materialize(a, c) exactly.
    """
    grid = symbol.grid
    entries = _regularized_entries(regularize(symbol, cutoff).coeffs, grid,
                                   cutoff)
    return OperatorMatrix(grid, entries, f"T[{cutoff!r}]")


@dataclass(frozen=True)
class _ConeBand:
    """The rows |eta| <= reach of the symbol lattice that psi can reach, as
    a window table.

    Output mode xi_m (m = 0 .. N-1, increasing xi) reads the inputs
    xi_m - eta_j with eta_j = reach - j, j = 0 .. 2 reach: row m of the
    sliding windows over the xi-sorted input, zero-padded by reach on each
    side.  weights[m, j] = psi(eta_j, xi_m - eta_j), zero where
    xi_m - eta_j leaves the lattice, stored as complex128 so that its
    products with complex windows and symbols need no cast; rows holds the
    FFT positions of the eta_j.  At N = 512 and Cutoff(8, 2) the table is
    512 x 63 complex values, 516 KB.
    """

    reach: int
    rows: np.ndarray
    weights: np.ndarray


def _band_eta_xi(grid, reach):
    # (eta_j, xi_m - eta_j) of every window slot, and whether xi is on
    # the lattice
    eta = reach - np.arange(2 * reach + 1)
    xi = np.arange(-(grid.n // 2), grid.n // 2)[:, None] - eta[None, :]
    return eta, xi, (xi >= -(grid.n // 2)) & (xi < grid.n // 2)


@functools.lru_cache(maxsize=16)
def _cone_band(grid, cutoff):
    # psi(eta, xi) > 0 needs B|eta| + b < |xi| <= N/2
    reach = max(int(np.floor((grid.n / 2 - cutoff.little_b) / cutoff.big_b)), 0)
    eta, xi, on = _band_eta_xi(grid, reach)
    weights = np.where(on, cutoff(eta[None, :], xi), 0.0)
    band = _ConeBand(reach, np.mod(eta, grid.n),
                     weights.astype(np.complex128))
    band.rows.setflags(write=False)
    band.weights.setflags(write=False)
    return band


@functools.lru_cache(maxsize=16)
def _band_slots(grid, reach):
    """Flat symbol-layout index of slot (eta_j, xi_m - eta_j) for every
    window entry; where xi leaves the lattice the slot wraps, and meets a
    zero of the padded input."""
    eta, xi, _ = _band_eta_xi(grid, reach)
    slots = np.mod(eta, grid.n) * grid.n + np.mod(xi, grid.n)
    slots.setflags(write=False)
    return slots


def _band_sum(band, terms, spectral, column, real):
    """Output mode xi_m gets sum_j terms[m, j] v(xi_m - eta_j) column[j];
    inputs off the lattice read as zero.

    The windows are a strided view of the zero-padded, xi-sorted input,
    so the only temporary is their product with terms, contracted by one
    matrix-vector product.  With real, v and column are coefficients of
    real fields, whose Nyquist mode is zero, and terms[m, j] is even
    under (eta, xi) -> (-eta, -xi), as psi is, so the output is
    Hermitian: only the rows xi_m in [-N/2, 0] are summed, and xi in
    [1, N/2 - 1] takes the conjugate of the sum at -xi.
    """
    n, reach = spectral.shape[0], band.reach
    half = n // 2
    padded = np.zeros(n + 2 * reach, dtype=np.complex128)
    padded[reach: reach + half] = spectral[half:]
    padded[reach + half: reach + n] = spectral[:half]
    rows = half + 1 if real else n
    # windows[m, j] = padded[m + j]; built directly, as
    # sliding_window_view would, without its per-call Python overhead
    step = padded.itemsize
    windows = np.ndarray((rows, 2 * reach + 1), np.complex128, padded,
                         strides=(step, step))
    total = (windows * terms[:rows]) @ column
    if real:
        return np.concatenate((total[half:], total[half - 1: 0: -1].conj(),
                               total[:half]))
    return np.concatenate((total[half:], total[:half]))


def apply(symbol, cutoff, field):
    """T_a u on the cone band; equals materialize(symbol, cutoff).apply(field).

    psi is applied unless the symbol is already regularized with this
    cutoff, in which case its coefficients are used as they are, after
    the check `materialize` makes: they must vanish wherever psi does, or
    InvariantBroken is raised.
    """
    grid = check_same_grid(symbol, field)
    band = _cone_band(grid, cutoff)
    terms = symbol.coeffs.ravel()[_band_slots(grid, band.reach)]
    if symbol.cutoff == cutoff:
        _regularized_entries(symbol.coeffs, grid, cutoff)
    else:
        terms = terms * band.weights
    # a row-wise sum: the symbol varies along both axes of the window
    ones = np.ones(2 * band.reach + 1)
    return Field(grid, _band_sum(band, terms, field.spectral, ones, False),
                 _validate=False)


def paraproduct_coeffs(grid, u, v, cutoff, real):
    """Coefficients of T_u v from the (N,) coefficient arrays u and v;
    real says both are coefficients of real fields, and then only the
    output modes xi <= 0 are summed, the rest are their conjugates, and
    the unpaired Nyquist mode -N/2 is zero, as for every real field."""
    band = _cone_band(grid, cutoff)
    out = _band_sum(band, band.weights, v, u[band.rows], real)
    if real:
        out[grid.index_of(grid.nyquist)] = 0.0
    return out


def paraproduct(u, v, cutoff):
    """T_u v for a field u: apply(Symbol.from_field(u), cutoff, v) without
    tabulating the symbol, as one matrix-vector product.  The output of
    real u and v is marked real."""
    grid = check_same_grid(u, v)
    real = u.is_real and v.is_real
    return Field(grid, paraproduct_coeffs(grid, u.spectral, v.spectral,
                                          cutoff, real),
                 real, _validate=False)


def _xi_difference_symbol(symbol, j):
    """Delta_xi^j as a same-shape symbol, FFT column order.

    At the top of the lattice, where the forward stencil would leave the
    retained modes, the last available difference is repeated (a one-sided
    stencil of the same order), so symbols polynomial in xi of degree <= j
    difference exactly.
    """
    grid = symbol.grid
    if j == 0:
        return symbol
    diff, _ = xi_forward_difference(symbol, j)
    block = np.empty((grid.n, grid.n), dtype=np.complex128)
    block[:, : grid.n - j] = diff
    block[:, grid.n - j:] = diff[:, -1:]
    inverse_order = np.argsort(np.argsort(grid.freqs, kind="stable"), kind="stable")
    return Symbol(grid, block[:, inverse_order], order_m=symbol.order_m - j)


def _term_count(rho):
    terms = int(rho) if rho == int(rho) else int(np.ceil(rho))
    return max(terms, 1)


def compose_sharp(a, b, rho):
    """Symbolic composition a#b truncated below rho.

    Sum over j < rho of (1/(i^j j!)) Delta_xi^j a * d_x^j b with forward
    xi-differences; for rho <= 1 this is the plain symbol product.
    """
    if a.grid != b.grid:
        raise GridMismatch("symbols on different grids")
    grid = a.grid
    total = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for j in range(_term_count(rho)):
        da = _xi_difference_symbol(a, j)
        db = x_derivative(b, j) if j else b
        product = symbol_product(da, db)
        total += product.coeffs / ((1j ** j) * math.factorial(j))
    return Symbol(grid, total, order_m=a.order_m + b.order_m)


def symbol_product(a, b):
    """Pointwise product a(x, xi) b(x, xi), columnwise in x-space."""
    values = a.x_values() * b.x_values()
    coeffs = np.fft.fft(values, axis=0) / a.grid.n
    return Symbol(a.grid, coeffs, order_m=a.order_m + b.order_m)


def adjoint_star(a, rho):
    """Adjoint symbol expansion truncated below rho.

    Sum over j < rho of (1/(i^j j!)) Delta_xi^j d_x^j conj(a); conj acts on
    symbol values at fixed (x, xi).
    """
    grid = a.grid
    conj_values = np.conj(a.x_values())
    conj_sym = Symbol(grid, np.fft.fft(conj_values, axis=0) / grid.n,
                      order_m=a.order_m)
    total = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for j in range(_term_count(rho)):
        term = x_derivative(conj_sym, j) if j else conj_sym
        total += _xi_difference_symbol(term, j).coeffs / ((1j ** j) * math.factorial(j))
    return Symbol(grid, total, order_m=a.order_m)


def wave_packet(grid, center, width=4.0):
    """L2-normalized Gaussian packet centered at mode `center`."""
    xi = grid.freqs.astype(np.float64)
    coeffs = np.exp(-((xi - center) ** 2) / (2.0 * width ** 2))
    field = Field(grid, coeffs, _validate=False)
    return field * (1.0 / sobolev_norm(field, 0.0))


def order_probe(operator, grid=None, centers=None, width=4.0):
    """Fit the operator's order from output norms on dyadic wave packets."""
    if isinstance(operator, OperatorMatrix):
        apply_fn = operator.apply
        grid = operator.grid
    else:
        apply_fn = operator
        if grid is None:
            raise ValueError("grid required for callable operators")
    if centers is None:
        centers = []
        k = 8
        while k <= grid.n // 4:
            centers.append(k)
            k *= 2
    norms = []
    for k in centers:
        out = apply_fn(wave_packet(grid, k, width))
        norms.append(sobolev_norm(out, 0.0))
    norms = np.array(norms)
    if np.all(norms < 1e-14):
        raise DegenerateProbe(f"all probe outputs below 1e-14: {norms}")
    k = np.array(centers, dtype=np.float64)
    log_k = np.log(np.sqrt(1.0 + k ** 2))
    log_n = np.log(np.maximum(norms, 1e-300))
    slope, intercept = np.polyfit(log_k, log_n, 1)
    fit = slope * log_k + intercept
    residual = float(np.sqrt(np.mean((log_n - fit) ** 2)))
    return OrderEstimate(float(slope), float(intercept), residual,
                         (min(centers), max(centers)),
                         tuple(centers), tuple(norms))


@functools.lru_cache(maxsize=16)
def product_tables(grid):
    """Read-only (i xi, keep) of a grid: the derivative symbol and the 2/3
    rule's mask |xi| <= N/3, the two tables of the product u d_x u."""
    ixi = multiplier_values(grid, derivative())
    keep = np.abs(grid.freqs) <= grid.n // 3
    ixi.setflags(write=False)
    keep.setflags(write=False)
    return ixi, keep


def product_coeffs(grid, a, b, real, dealias=True):
    """Coefficients of the physical-space product of the fields with
    coefficient arrays a and b; real = (a_real, b_real).

    a and b may carry leading sample axes, (..., N), and are multiplied
    sample by sample.  Every inverse FFT runs in one batch over the
    (..., 2, N) stack and every forward FFT in another, one transform per
    row.  With dealias the 2/3 rule is applied to both inputs and to the
    output.
    """
    pair = np.stack((a, b), axis=-2)
    if dealias:
        keep = product_tables(grid)[1]
        pair = np.where(keep, pair, 0.0)
    rows = np.fft.ifft(pair, axis=-1) * grid.n
    x, y = (rows[..., i, :].real if row_real else rows[..., i, :]
            for i, row_real in enumerate(real))
    out = np.fft.fft(x * y, axis=-1) / grid.n
    if all(real):
        out[..., grid.index_of(grid.nyquist)] = 0.0
    return np.where(keep, out, 0.0) if dealias else out


def dealias_product(u, v):
    """Physical-space product with the 2/3 rule on both inputs and output."""
    grid = check_same_grid(u, v)
    real = (u.is_real, v.is_real)
    return Field(grid, product_coeffs(grid, u.spectral, v.spectral, real),
                 all(real), _validate=False)


DEFAULT_CUTOFF_ARGS = (8.0, 2.0)


def bony_remainder(a, b, cutoff=None):
    """Bony decomposition remainder ab - T_a b - T_b a for real fields,
    itself a real field.

    The pointwise product uses 2/3 dealiasing; the paraproducts need none
    (their cutoff already truncates the convolution).
    """
    check_same_grid(a, b)
    if not (a.is_real and b.is_real):
        raise ValueError("bony_remainder expects real fields")
    if cutoff is None:
        cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS)
    product = dealias_product(a, b)
    return product - paraproduct(a, b, cutoff) - paraproduct(b, a, cutoff)
