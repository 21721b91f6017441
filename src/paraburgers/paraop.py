"""Paradifferential operators: dense reference matrices and the cone band.

The materialization convention: for a symbol with coefficients a_hat(eta, xi)
and cutoff psi, the operator matrix has

    entries[xi + eta, xi] = psi(eta, xi) * a_hat(eta, xi)

with rows and columns in FFT order and entries dropped when xi + eta leaves
the retained lattice (no wrap-around: on the cutoff support |eta| is far
below N/2 anyway).  Dense matrices (`materialize`) are the reference
semantics and serve the studies, which need the operator itself.  They
are placed from the cone band below, as the gauge places its own bands:
psi is zero off it, where B|eta| + b > N/2.

The paraproduct T_u v of two real fields (`Field.is_real`) never needs
the matrix.  psi vanishes unless |xi| > B|eta| + b, so only the modes
|eta| <= reach = floor((N/2 - b)/B) of u can contribute, and output mode
xi_m reads only the 2 reach + 1 inputs xi_m - eta.  Those are one sliding
window over the xi-sorted v, zero-padded by reach on each side so that
inputs off the lattice read as zero, and a cached complex table holds psi
on the windows.  `paraproduct_coeffs` multiplies the windows by that
table and contracts them with the band of u_hat in one matrix-vector
product.  T_u v is Hermitian, because psi(eta, xi) = psi(-eta, -xi): only
the N/2 + 1 output modes xi <= 0 are summed, an ((N/2 + 1) x (2 reach +
1)) multiply with no N x N array, and xi in [1, N/2 - 1] takes the
conjugates of -xi.  The result agrees with the dense matrix of the
symbol u(x) to rounding error for every cutoff, except that it is a real
field and zeroes its unpaired Nyquist mode, as every real field does.
The pointwise product of two real fields is always 2/3-dealiased
(`product_coeffs`).  `paraproduct` and `dealias_product` raise
ValueError for a field that is not real.  No other symbol has a fast
path: a general symbol is applied through `materialize`.

Band layouts.  A symbol regularized with the cutoff lives on the rows
|eta| <= reach, so the gauge keeps its symbol stacks as (..., 2 reach + 1,
N) bands: row j holds eta = reach - j (FFT row reach - j mod N), the
columns are the N modes xi in FFT order.  `to_band` and `from_band` convert
to and from the (..., N, N) symbol layout, which is +0.0 off the band.

An operator is stored the same way, as a (..., 2H + 1, N) operator band:
row H - eta, column xi holds the matrix entry (xi + eta, xi), and the
band holds +0.0 where xi + eta leaves the lattice.  N and H are read off
the shape, so H can be anything from 0 to N - 1, where every entry of the
matrix has its slot.  The symbol band of a regularized symbol is its
operator band with H = reach once the slots off the lattice are zeroed
(`operator_band`, which also raises InvariantBroken for a nonzero slot
where psi vanishes).  `band_product` multiplies two operator bands, with
half-width min(H_A + H_B, N - 1), `band_adjoint` gives the operator band
of A^*, `band_apply` applies one to vectors, and `place_band` is the one
placement into N x N, through a cached index table per (N, H);
`gather_band` and `materialize` are that placement of the operator band
of a symbol band.  A symbol marked regularized is checked where the mark
is read, in `regularize`.  The public API stays N x N: `Symbol` and
`materialize` are dense, and `pair_mask`, psi on every (output, input)
pair, is the dense reference the tests check the bands against.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateProbe, GridMismatch, InvariantBroken
from .spectral import Field, check_same_grid, derivative, multiplier_values, \
    sobolev_norm
from .symbols import cutoff_mask, regularize


def pair_mask(grid, cutoff):
    """psi(out-in, in) over all (output, input) index pairs, FFT order: the
    dense reference of which entries a materialized matrix may hold."""
    freqs = grid.freqs
    return cutoff(freqs[:, None] - freqs[None, :], freqs[None, :])


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
    """Dense spectral-space operator."""

    def __init__(self, grid, entries):
        entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (grid.n, grid.n):
            raise ValueError(f"expected {(grid.n, grid.n)} entries")
        self.grid = grid
        self.entries = entries

    def apply(self, field):
        if field.grid != self.grid:
            raise GridMismatch(f"operator on {self.grid}, field on {field.grid}")
        return Field(self.grid, self.entries @ field.spectral, _validate=False)


def materialize(symbol, cutoff):
    """Dense matrix of T_a for the given cutoff.

    A symbol already regularized with this cutoff is used as-is, once
    `regularize` has checked it, so materialize(regularize(a, c), c) ==
    materialize(a, c) exactly.
    """
    grid = symbol.grid
    band = to_band(regularize(symbol, cutoff).coeffs, grid, cutoff)
    return OperatorMatrix(grid, gather_band(band, grid, cutoff))


@dataclass(frozen=True)
class _ConeBand:
    """The rows |eta| <= reach of the symbol lattice that psi can reach, as
    a window table.

    Output mode xi_m (m = 0 .. N-1, increasing xi) reads the inputs
    xi_m - eta_j with eta_j = reach - j, j = 0 .. 2 reach: row m of the
    sliding windows over the xi-sorted input, zero-padded by reach on each
    side.  weights[m, j] = psi(eta_j, xi_m - eta_j), zero where
    xi_m - eta_j leaves the lattice, stored as complex128 so that its
    product with the complex windows needs no cast; rows holds the FFT
    positions of the eta_j.  At N = 512 and Cutoff(8, 2) the table is
    512 x 63 complex values, 516 KB.
    """

    reach: int
    rows: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=16)
def _cone_band(grid, cutoff):
    # psi(eta, xi) > 0 needs B|eta| + b < |xi| <= N/2
    reach = max(int(np.floor((grid.n / 2 - cutoff.little_b) / cutoff.big_b)), 0)
    # (eta_j, xi_m - eta_j) of every window slot; zero where xi leaves the
    # lattice
    eta = reach - np.arange(2 * reach + 1)
    xi = np.arange(-(grid.n // 2), grid.n // 2)[:, None] - eta[None, :]
    on = (xi >= -(grid.n // 2)) & (xi < grid.n // 2)
    weights = np.where(on, cutoff(eta[None, :], xi), 0.0)
    band = _ConeBand(reach, np.mod(eta, grid.n),
                     weights.astype(np.complex128))
    band.rows.setflags(write=False)
    band.weights.setflags(write=False)
    return band


def to_band(coeffs, grid, cutoff):
    """The rows |eta| <= reach of (..., N, N) symbol-layout coefficients,
    as a (..., 2 reach + 1, N) band: row j holds eta = reach - j."""
    return coeffs[..., _cone_band(grid, cutoff).rows, :]


def from_band(band, grid, cutoff):
    """A (..., 2 reach + 1, N) band back in (..., N, N) symbol layout,
    +0.0 off the band."""
    out = np.zeros((*band.shape[:-2], grid.n, grid.n), dtype=np.complex128)
    out[..., _cone_band(grid, cutoff).rows, :] = band
    return out


class _BandLayout(NamedTuple):
    """Where the slots of a (2H + 1, N) operator band sit in the matrix.

    valid marks the slots whose output xi + eta stays on the lattice;
    slots are their flat band positions j N + c, pairs the flat matrix
    positions (xi + eta) N + c of the same slots.
    """

    valid: np.ndarray
    slots: np.ndarray
    pairs: np.ndarray


@functools.lru_cache(maxsize=16)
def _band_layout(n, half_width):
    eta = half_width - np.arange(2 * half_width + 1)
    columns = np.arange(n)
    out = np.where(columns < n // 2, columns, columns - n)[None, :] \
        + eta[:, None]
    valid = (out >= -(n // 2)) & (out < n // 2)
    slots = np.flatnonzero(valid)
    pairs = (np.mod(out, n) * n + columns[None, :]).ravel()[slots]
    layout = _BandLayout(valid, slots, pairs)
    for array in layout:
        array.setflags(write=False)
    return layout


def resize_band(band, half_width):
    """A (..., 2H + 1, N) band recentred at `half_width`: its rows |eta| <=
    half_width, with rows of +0.0 where it has none.  Cropping returns a
    view."""
    h = band.shape[-2] // 2
    if half_width <= h:
        return band[..., h - half_width: h + half_width + 1, :]
    out = np.zeros((*band.shape[:-2], 2 * half_width + 1, band.shape[-1]),
                   dtype=band.dtype)
    out[..., half_width - h: half_width + h + 1, :] = band
    return out


def band_product(a, b):
    """The operator band of A B, for operator bands a and b whose leading
    sample axes broadcast; its half-width is min(H_A + H_B, N - 1).

    Entry (xi + eta_a + eta_b, xi) sums a at (xi + eta_b + eta_a, xi +
    eta_b) times b at (xi + eta_b, xi).  With i = H_A - eta_a and j = H_B
    - eta_b that term lands in row i + j, so each row j of b adds one slab
    of 2 H_A + 1 rows: a with its columns shifted by eta_b, a slice of a
    extended periodically by H_B columns on each side, times the row.  A
    shift that wraps past the Nyquist mode meets a +0.0 slot of b, and
    every term that lands where xi + eta leaves the lattice has a +0.0
    factor, so those slots keep the +0.0 they start from.  Rows past N - 1
    hold only such slots and are cropped.
    """
    n = a.shape[-1]
    ha, hb = a.shape[-2] // 2, b.shape[-2] // 2
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros((*lead, 2 * (ha + hb) + 1, n), dtype=np.complex128)
    # extended[..., k] = a[..., (k - hb) mod N]
    extended = np.concatenate((a[..., n - hb:], a, a[..., :hb]), axis=-1)
    term = np.empty((*lead, 2 * ha + 1, n), dtype=np.complex128)
    for j in range(2 * hb + 1):
        np.multiply(extended[..., 2 * hb - j: 2 * hb - j + n],
                    b[..., j, None, :], out=term)
        out[..., j: j + 2 * ha + 1, :] += term
    return resize_band(out, min(ha + hb, n - 1))


def band_apply(band, v):
    """A v for operator bands (..., 2H + 1, N) and coefficient arrays
    (..., N) with the same leading sample axes: output mode xi + eta sums
    band[H - eta, xi] v[xi] over the rows, in row order."""
    n = band.shape[-1]
    rows = np.arange(band.shape[-2])[:, None]
    terms = band * v[..., None, :]
    # row j (eta_j = H - j) feeds output column k from input column
    # k - eta_j, mod N: a wrap meets a +0.0 slot
    sources = rows * n + np.mod(np.arange(n)[None, :] + rows
                                - band.shape[-2] // 2, n)
    return np.sum(np.take(terms.reshape(*terms.shape[:-2], -1), sources,
                          axis=-1), axis=-2)


def band_adjoint(band):
    """The operator band of A^* for (..., 2H + 1, N) operator bands of A:
    slot (eta, xi) holds conj A(xi, xi + eta), which sits in row H + eta,
    column xi + eta of the band, and +0.0 where xi + eta leaves the
    lattice."""
    n = band.shape[-1]
    h = band.shape[-2] // 2
    rows = np.arange(2 * h + 1)[:, None]
    # row j (eta_j = H - j) reads row 2H - j, columns shifted by eta_j; a
    # wrap lands on a slot off the lattice, which is zeroed
    sources = (2 * h - rows) * n + np.mod(np.arange(n)[None, :] + h - rows, n)
    mirrored = np.take(band.reshape(*band.shape[:-2], -1), sources, axis=-1)
    return np.where(_band_layout(n, h).valid, mirrored.conj(), 0.0)


def place_band(band):
    """The (..., N, N) matrices of (..., 2H + 1, N) operator bands: entry
    (xi + eta, xi) = band[H - eta, xi], +0.0 off the band."""
    n = band.shape[-1]
    layout = _band_layout(n, band.shape[-2] // 2)
    lead = band.shape[:-2]
    out = np.zeros((*lead, n * n), dtype=np.complex128)
    out[..., layout.pairs] = band.reshape(*lead, -1)[..., layout.slots]
    return out.reshape(*lead, n, n)


class _BandPairs(NamedTuple):
    """The cone band's slots whose pair stays on the lattice, in band
    order.

    slots are their flat positions j N + c in the band, psi the cutoff on
    them, and vanish the flat band positions of the on-lattice slots where
    psi is zero.
    """

    slots: np.ndarray
    psi: np.ndarray
    vanish: np.ndarray


@functools.lru_cache(maxsize=16)
def _band_pairs(grid, cutoff):
    band = _cone_band(grid, cutoff)
    layout = _band_layout(grid.n, band.reach)
    psi = cutoff_mask(grid, cutoff)[band.rows].ravel()
    table = _BandPairs(layout.slots, psi[layout.slots],
                       np.flatnonzero(layout.valid.ravel() & (psi == 0.0)))
    for array in table:
        array.setflags(write=False)
    return table


def operator_band(band, grid, cutoff):
    """The operator band of (..., 2 reach + 1, N) symbol-band coefficients
    regularized with cutoff: the same rows, +0.0 where xi + eta leaves the
    lattice.  Raises InvariantBroken if a slot where psi vanishes holds a
    nonzero entry."""
    table = _band_pairs(grid, cutoff)
    outside = band.reshape(*band.shape[:-2], -1)[..., table.vanish]
    if np.any(outside):
        raise InvariantBroken(
            f"{np.count_nonzero(outside)} band entries outside the "
            f"{cutoff!r} pair mask; a band regularized with it was not"
        )
    valid = _band_layout(grid.n, _cone_band(grid, cutoff).reach).valid
    return np.where(valid, band, 0.0)


def gather_band(band, grid, cutoff):
    """Matrix entries of band-layout coefficients regularized with cutoff,
    (..., 2 reach + 1, N) to (..., N, N): `place_band` of their
    `operator_band`."""
    return place_band(operator_band(band, grid, cutoff))


def paraproduct_coeffs(grid, u, v, cutoff):
    """Coefficients of T_u v from the (N,) coefficient arrays u and v of
    real fields, whose Nyquist mode is zero.

    Output mode xi_m gets sum_j psi(eta_j, xi_m - eta_j) v(xi_m - eta_j)
    u(eta_j); inputs off the lattice read as zero.  The windows are a
    strided view of the zero-padded, xi-sorted v, so the only temporary
    is their product with the cutoff table, contracted with the band of
    u by one matrix-vector product.  psi is even under (eta, xi) ->
    (-eta, -xi), so the output is Hermitian: only the rows xi_m in
    [-N/2, 0] are summed, xi in [1, N/2 - 1] takes the conjugate of the
    sum at -xi, and the unpaired Nyquist mode -N/2 is zero, as for every
    real field.
    """
    band = _cone_band(grid, cutoff)
    n, reach = grid.n, band.reach
    half = n // 2
    padded = np.zeros(n + 2 * reach, dtype=np.complex128)
    padded[reach: reach + half] = v[half:]
    padded[reach + half: reach + n] = v[:half]
    # windows[m, j] = padded[m + j]; built directly, as
    # sliding_window_view would, without its per-call Python overhead
    step = padded.itemsize
    windows = np.ndarray((half + 1, 2 * reach + 1), np.complex128, padded,
                         strides=(step, step))
    total = (windows * band.weights[:half + 1]) @ u[band.rows]
    out = np.concatenate((total[half:], total[half - 1: 0: -1].conj(),
                          total[:half]))
    out[grid.index_of(grid.nyquist)] = 0.0
    return out


def _check_real(*fields):
    if not all(field.is_real for field in fields):
        raise ValueError("products are taken of real fields only")


def paraproduct(u, v, cutoff):
    """T_u v for real fields u and v: materialize(Symbol.from_field(u),
    cutoff) applied to v, as one matrix-vector product on the cone band,
    marked real."""
    grid = check_same_grid(u, v)
    _check_real(u, v)
    return Field(grid, paraproduct_coeffs(grid, u.spectral, v.spectral,
                                          cutoff), True, _validate=False)


def wave_packet(grid, center):
    """L2-normalized Gaussian packet of width 4 centered at mode `center`."""
    xi = grid.freqs.astype(np.float64)
    coeffs = np.exp(-((xi - center) ** 2) / (2.0 * 4.0 ** 2))
    field = Field(grid, coeffs, _validate=False)
    return field * (1.0 / sobolev_norm(field, 0.0))


def order_probe(operator, centers=None):
    """Fit an OperatorMatrix's order from output norms on dyadic wave
    packets; ValueError when there is no packet to probe."""
    grid = operator.grid
    if centers is None:
        centers = []
        k = 8
        while k <= grid.n // 4:
            centers.append(k)
            k *= 2
    if not centers:
        raise ValueError(f"no wave packet to probe on {grid}: no centers, "
                         f"and the default 8, 16, ... <= N/4 need N >= 32")
    norms = []
    for k in centers:
        out = operator.apply(wave_packet(grid, k))
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


def product_coeffs(grid, a, b):
    """Coefficients of the 2/3-dealiased physical-space product of the
    real fields with coefficient arrays a and b.

    a and b may carry leading sample axes, (..., N), and are multiplied
    sample by sample.  Every inverse FFT runs in one batch over the
    (..., 2, N) stack and every forward FFT in another, one transform per
    row; the product is taken of the real parts.  The 2/3 rule is applied
    to both inputs and to the output, whose Nyquist mode it zeroes.
    """
    keep = product_tables(grid)[1]
    pair = np.where(keep, np.stack((a, b), axis=-2), 0.0)
    rows = (np.fft.ifft(pair, axis=-1) * grid.n).real
    out = np.fft.fft(rows[..., 0, :] * rows[..., 1, :], axis=-1) / grid.n
    return np.where(keep, out, 0.0)


def dealias_product(u, v):
    """Physical-space product of real fields with the 2/3 rule on both
    inputs and output."""
    grid = check_same_grid(u, v)
    _check_real(u, v)
    return Field(grid, product_coeffs(grid, u.spectral, v.spectral), True,
                 _validate=False)

