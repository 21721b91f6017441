"""Implicit symbol constructions behind the dispersive gauge transform.

Everything here revolves around the commutator equation

    Op(p) D - D Op(p) = Op(a),    D = the multiplier i xi |xi|^(alpha-1).

D is diagonal, so the equation acts entrywise on materialized matrices:
the (xi+eta, xi) entry of the left side is the p coefficient times

    den(eta, xi) = i (f(xi) - f(xi+eta)),    f(xi) = xi |xi|^(alpha-1).

On the cutoff support with eta != 0 the denominator is elliptic (the
resonance bound), so the discrete solve is one exact division and the
eta = 0 rows are the kernel.  The Newton solves for the exponential
problems and the correction ladder of the conjugating gauge all reduce
to that division.

Sign conventions worth stating once: the alpha = 1 solution is p =
-d_x^{-1} a, and the nonlinear problem is normalized as
F(p) = -i [expm(i T_p), D] so that its differential at p = 0 is exactly
the linear map above; with that normalization the tiny-data Newton
solution coincides with the linear solve to second order.

Layouts.  A symbol regularized with the cutoff vanishes off the rows
|eta| <= reach = floor((N/2 - b)/B), so the symbol-layout work runs on
(..., 2 reach + 1, N) bands (`paraop.to_band`; row j holds eta = reach -
j): the commutator map's tables (`_band_lattice`), `_divide`, the
`_time_chain` layers, the `_check_tameness` stacks, the transport symbols
and p stacks of `solve_conjugating`, and the Newton iterate of
`_newton_exp`.  The operators are (..., 2H + 1, N) operator bands
(`paraop`: row H - eta, column xi holds the entry (xi + eta, xi), +0.0
where xi + eta leaves the lattice), multiplied by `paraop.band_product`:
W = e^{i T_p} and `_expm`, the time stencil of W, W den, W T and the
residual g.  den has one definition, `_band_denominator`, at any
half-width.  The Newton solves read an operator band only on the sound
pairs of `_pair_sets`, where psi exceeds SYMBOL_EXTRACTION_FLOOR, and
`_extract_pairs` writes those straight into a band; their off-support
norms read the band outside the cone band slots with psi > 0
(`_off_support_norms`).  The seminorm readings (`_band_seminorm`) take
sup_x from the band's rows by a matmul, on the columns that can hold the
maximum, so no N x N symbol is padded.  The division of
`solve_commutator` and its certificates run on the band too
(`_certified_division`, which the energy study's generator calls with a
band it builds itself); `commutator_estimates` reads its sup_x by the
zero-padded inverse FFT along eta of `symbols.column_sup`, so each side
is the reading of the dense symbol bit for bit.  Data handed in is read
through `symbols.regularize`, which is where a symbol marked regularized
is checked to vanish wherever psi does, off the band too; nothing here
repeats that check.  Only the public results are N x N: a returned p is
its band padded with +0.0; the operators in a solution's extras stay
bands, and `paraop.place_band` places them.

The exponentials of the gauge, e^{i T_p} here and e^{-+iG} of the
operator band of G in the energy study's skew check (one `_expm` call for
both signs), are small: on the N=64 study inputs ||i T_p||_1 is
about 3.6e-6, and over the test suite the gauge's generators stay below
1.2e-3 (median 1.1e-7) and the skew check's below 0.15.  `_expm` is
therefore a truncated Taylor series (Moler & Van Loan, SIAM Rev. 2003):
scale B = A / 2^s to ||B||_1 <= 1/2, take the least degree m with
e^{2||B||} ||B||^{m+1} / (m+1)! <= 2^-53, evaluate by Horner and square s
times.  Since ||e^B|| >= e^{-||B||}, that degree bounds the truncation
error relative to e^B.  At ||A||_1 = 3.6e-6 it is degree 2, one band
product, where a Pade approximant pays a degree search, about ten
products and an LU solve.  Past ||A||_1 of about 0.1 Pade is the cheaper
of the two, but no study sends such a generator.  A polynomial of degree
m in a band of half-width H has half-width m H, so W - I of a study
generator is a band of half-width 2 reach: 13 rows at N = 64.
"""

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvariantBroken,
    NanDetected,
    NewtonDiverged,
    SmallDivisor,
    SmallnessViolated,
    TamenessViolated,
)
from .paraop import _band_layout, _band_pairs, _cone_band, band_product, \
    from_band, operator_band, resize_band, to_band
from .spectral import dispersion_profile
from .symbols import DEFAULT_CUTOFF, Symbol, column_sup, cutoff_mask, \
    regularize, xi_forward_difference

# Read when `_division_table` builds a (grid, alpha, cutoff) table and
# `_pair_sets` a (grid, cutoff) table; a table already cached keeps the
# floor it was built under.
SMALL_DIVISOR_FLOOR = 1e-8
SYMBOL_EXTRACTION_FLOOR = 1e-3
TAMENESS_C = 1.0
SMALLNESS = 0.05
NEWTON_TOL = 1e-9
NEWTON_MAX_ITERATIONS = 25
CONJUGATING_TOL = 1e-8
CHAIN_MAX_LAYERS = 8

# An increment upturn counts as the differencing noise floor, not a stall,
# only after the ladder has decayed by this factor.
_NOISE_FLOOR_DECAY = 0.1
_DIVERGENT_TAIL = 4.0
# `_live_columns` skips columns only above this weighted reading, where
# the rounding of its bounds and of sup_x is relative
_PRUNE_FLOOR = 1e-250


def _band_denominator(grid, alpha, half_width):
    """den on a (2 half_width + 1, N) operator band: row half_width - eta,
    column xi holds den(eta, xi) = i (f(xi) - f(xi + eta)), +0.0 where xi
    + eta leaves the lattice.

    The one definition of den: the lattice tables read it at half-width
    reach, the sweeps at the half-width of W.
    """
    layout = _band_layout(grid.n, half_width)
    f = dispersion_profile(grid, alpha)
    den = np.zeros(layout.valid.size, dtype=np.complex128)
    den[layout.slots] = 1j * (f[layout.slots % grid.n]
                              - f[layout.pairs // grid.n])
    return den.reshape(layout.valid.shape)


@functools.lru_cache(maxsize=16)
def _cole_hopf_weight(grid, alpha):
    """|xi|^(1-alpha) / (i alpha eta) on the symbol lattice, zero on the
    eta = 0 row and the xi = 0 column."""
    eta = grid.freqs.astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    inv_eta = np.where(eta != 0, 1.0 / (1j * np.where(eta != 0, eta, 1.0)), 0.0)
    lift = np.abs(np.where(xi != 0, xi, 1.0)) ** (1.0 - alpha)
    table = np.where(xi != 0, lift, 0.0) / alpha * inv_eta
    table.setflags(write=False)
    return table


def _band_lattice(grid, alpha, cutoff):
    """The commutator map as (2 reach + 1, N) band tables (support, zone,
    den, scale): the slots with psi > 0 whose output xi + eta stays on the
    lattice, those of them off the kernel row eta = 0 (the slots the
    equation constrains), den from `_band_denominator` (zero where xi +
    eta leaves the lattice), and its elliptic size |eta| max(|xi|,
    |xi+eta|)^(alpha-1)."""
    band = _cone_band(grid, cutoff)
    eta = grid.freqs[band.rows].astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    support = _pair_sets(grid, cutoff).support
    big = np.maximum(np.abs(xi), np.abs(xi + eta))
    with np.errstate(divide="ignore"):
        scale = np.abs(eta) * np.where(big > 0, big ** (alpha - 1.0), 0.0)
    return support, support & (eta != 0), \
        _band_denominator(grid, alpha, band.reach), scale


def ellipticity_bracket(grid, alpha, cutoff=DEFAULT_CUTOFF):
    """(min, max) of |den| / (|eta| max(|xi|,|xi+eta|)^(alpha-1)) on the
    division zone, the support slots with eta != 0; ValueError when the
    zone is empty."""
    _, zone, den, scale = _band_lattice(grid, alpha, cutoff)
    if not np.any(zone):
        raise ValueError(f"the division zone of {grid} under {cutoff!r} "
                         f"is empty, so it has no ellipticity bracket")
    ratios = np.abs(den[zone]) / scale[zone]
    return float(np.min(ratios)), float(np.max(ratios))


def commutator_rank(grid, alpha, cutoff=DEFAULT_CUTOFF):
    """Counts behind the uniqueness statement: on the support the discrete
    commutator map is diagonal with entries den(eta, xi), so its kernel is
    exactly the set of support slots where den vanishes."""
    support, zone, den, _ = _band_lattice(grid, alpha, cutoff)
    return {
        "support_slots": int(np.count_nonzero(support)),
        "rank": int(np.count_nonzero(support & (den != 0))),
        "kernel_slots": int(np.count_nonzero(support & (den == 0))),
        "eta_zero_slots": int(np.count_nonzero(support & ~zone)),
    }


@dataclass(frozen=True)
class GaugeSolution:
    """A solved gauge symbol plus the numbers that certify it.

    residual_norm is the largest defect of the solved equation on the
    cutoff support, iterations the Newton steps or sweeps it took (1 for
    the division); extras holds the solve's certificates and the
    intermediates its callers reuse.
    """

    p: Symbol
    residual_norm: float
    iterations: int
    extras: dict = dataclass_field(default_factory=dict)


@functools.lru_cache(maxsize=16)
def _division_table(grid, alpha, cutoff):
    """(zone, den set to 1 off the zone) of `_band_lattice`, for `_divide`.

    The small-divisor guard runs here: a zone slot with |den| below
    SMALL_DIVISOR_FLOOR of its elliptic scale raises SmallDivisor, so no
    table is cached and every later division raises again.
    """
    _, zone, den, scale = _band_lattice(grid, alpha, cutoff)
    tiny = zone & (np.abs(den) < SMALL_DIVISOR_FLOOR * scale)
    if np.any(tiny):
        row, col = np.nonzero(tiny)
        eta = int(grid.freqs[_cone_band(grid, cutoff).rows[row[0]]])
        xi = int(grid.freqs[col[0]])
        raise SmallDivisor(
            f"|den({eta}, {xi})| below {SMALL_DIVISOR_FLOOR} of its elliptic "
            f"scale; the cutoff does not separate frequencies"
        )
    den = np.where(zone, den, 1.0)
    zone.setflags(write=False)
    den.setflags(write=False)
    return zone, den


def _divide(stack, grid, alpha, cutoff):
    """a_hat / den on the division zone, zero elsewhere, for a
    (..., 2 reach + 1, N) band stack whose leading axes are samples."""
    zone, den = _division_table(grid, alpha, cutoff)
    return np.where(zone, stack / den, 0.0)


class _PairSets(NamedTuple):
    """Where the Newton solves read a band.

    slots and psi are the sound pairs, where psi exceeds
    SYMBOL_EXTRACTION_FLOOR (the pairs a residual is read on and a symbol
    extracted from), as flat positions in the (2 reach + 1, N) cone band
    and psi on them; kernel marks those of them on the eta = 0 row, where
    den vanishes.  support is the (2 reach + 1, N) mask of the cone band
    slots with psi > 0 whose pair stays on the lattice, which the
    off-support norms skip (`_off_support_norms`).
    """

    slots: np.ndarray
    psi: np.ndarray
    kernel: np.ndarray
    support: np.ndarray


@functools.lru_cache(maxsize=16)
def _pair_sets(grid, cutoff):
    band = _band_pairs(grid, cutoff)
    reach = _cone_band(grid, cutoff).reach
    sound = band.psi > SYMBOL_EXTRACTION_FLOOR
    support = np.zeros((2 * reach + 1) * grid.n, dtype=bool)
    support[band.slots[band.psi > 0.0]] = True
    slots = band.slots[sound]
    sets = _PairSets(slots, band.psi[sound], slots // grid.n == reach,
                     support.reshape(2 * reach + 1, grid.n))
    for array in sets:
        array.setflags(write=False)
    return sets


def _off_support_norms(bands, grid, cutoff):
    """Largest |entry| of each (..., 2H + 1, N) operator band over the
    pairs where psi vanishes: every pair off the cone band, and the cone
    band pairs with psi = 0.  Pairs off the operator band hold zero.

    The pairs with psi > 0 are zeroed, not just the sound pairs of
    `_pair_sets`: a pair with 0 < psi <= SYMBOL_EXTRACTION_FLOOR is on the
    support, so it is never read here.
    """
    reach = _cone_band(grid, cutoff).reach
    half = max(bands.shape[-2] // 2, reach)
    magnitudes = np.abs(resize_band(bands, half))
    cone = magnitudes[..., half - reach: half + reach + 1, :]
    cone[..., _pair_sets(grid, cutoff).support] = 0.0
    return np.max(magnitudes, axis=(-2, -1))


def _support_residual(p_band, a_band, grid, alpha, cutoff):
    """Max entry of (L(p) - sigma_a) over the band slots that materialize,
    for band p from `_divide` and band data a: p vanishes off the division
    zone, where the table's den is 1, and a regularized a vanishes off the
    band."""
    residual = p_band * _division_table(grid, alpha, cutoff)[1] - a_band
    return float(np.max(np.abs(
        residual.reshape(-1)[_band_pairs(grid, cutoff).slots])))


def _homogeneous_sup(band, grid, cutoff, weight_order, difference=False):
    """sup over xi != 0 of |xi|^(-weight_order) ||column||_inf of a (2 reach
    + 1, N) cone-band symbol.

    sup_x is `symbols.column_sup` of the band's rows placed in the
    zero-padded symbol layout, so each column has the inverse FFT of the
    dense symbol's column, read only on the columns that can hold the
    maximum (`_live_columns`).  With `difference` the columns are forward
    xi-differences, weighted at their base frequency; the top lattice
    column has no difference and the sup ranges over the bases where one
    is defined.
    """
    if difference:
        coeffs, base = xi_forward_difference(grid, band)
    else:
        coeffs, base = band, grid.freqs
    keep = base != 0
    weights = np.abs(base[keep]).astype(np.float64) ** (-float(weight_order))
    columns = coeffs[:, keep]
    live = _live_columns(columns.T, weights, grid)
    padded = np.zeros((grid.n, np.count_nonzero(live)), dtype=np.complex128)
    padded[_cone_band(grid, cutoff).rows] = columns[:, live]
    norms = column_sup(grid, padded)
    return float(np.max(norms * weights[live]))


def commutator_estimates(p_band, a_band, beta, grid, alpha, cutoff):
    """Both seminorm bounds tied to the solve, as one report, for the (2
    reach + 1, N) cone bands of the solution p and of the regularized data
    a of order beta.

    transport: M^{beta+1-alpha}(d_x p) <= M^beta(a) / (B [1 - (1-1/B)^alpha])
    xi:        M^{beta-alpha}(D_xi d_x p) <= M^{beta-1}(D_xi a) / (same)
               + alpha ((1+1/B)^(alpha-1) - 1) / (1 - (1-1/B)^alpha)
               * M^{beta+1-alpha}(d_x p)

    Both sides use the homogeneous weight |xi|^(-m), for which the
    denominator B [1 - (1-1/B)^alpha] is the sharp chord bound; under the
    inhomogeneous (1+|xi|)^(-m) weight of `seminorm` the lowest support
    column picks up ((1+|xi|)/|xi|)^(alpha-1), which outgrows the chord
    slack once B is large, so no bound on those values is certified.

    Both sides are compared on the data the division reads: p only exists
    at pairs whose output frequency stays on the lattice, so a is
    truncated to those slots, else the xi differences at the lattice edge
    compare an entry of p against a structural zero and the certificate
    breaks.
    """
    big_b = cutoff.big_b
    band = _cone_band(grid, cutoff)
    a_band = np.where(_band_layout(grid.n, band.reach).valid, a_band, 0.0)
    p_x = (1j * grid.freqs[band.rows].astype(np.float64))[:, None] * p_band
    gain = big_b * (1.0 - (1.0 - 1.0 / big_b) ** alpha)
    transport_lhs = _homogeneous_sup(p_x, grid, cutoff, beta + 1.0 - alpha)
    transport_rhs = _homogeneous_sup(a_band, grid, cutoff, beta) / gain
    cross = alpha * ((1.0 + 1.0 / big_b) ** (alpha - 1.0) - 1.0) / (
        1.0 - (1.0 - 1.0 / big_b) ** alpha
    )
    xi_lhs = _homogeneous_sup(p_x, grid, cutoff, beta - alpha,
                              difference=True)
    xi_rhs = _homogeneous_sup(a_band, grid, cutoff, beta - 1.0,
                              difference=True) / gain \
        + cross * transport_lhs
    return {
        "transport_lhs": transport_lhs,
        "transport_rhs": transport_rhs,
        "xi_lhs": xi_lhs,
        "xi_rhs": xi_rhs,
    }


def _certified_division(a_band, beta, grid, alpha, cutoff):
    """(p band, estimates) of the commutator equation for the (2 reach + 1,
    N) cone band of regularized data a of order beta: p = a / den on the
    division zone, and both bounds of `commutator_estimates`, certified;
    a miss raises InvariantBroken."""
    p_band = _divide(a_band, grid, alpha, cutoff)
    estimates = commutator_estimates(p_band, a_band, beta, grid, alpha,
                                     cutoff)
    for name in ("transport", "xi"):
        lhs, rhs = estimates[f"{name}_lhs"], estimates[f"{name}_rhs"]
        if not lhs <= rhs * (1.0 + 1e-12):
            raise InvariantBroken(
                f"{name} estimate broken: {lhs:.6e} > {rhs:.6e}"
            )
    return p_band, estimates


def solve_commutator(a, alpha, cutoff=DEFAULT_CUTOFF):
    """Solve Op(p) D - D Op(p) = Op(a) for p on the cutoff support.

    The eta = 0 rows of a cannot be matched (they are the kernel of the
    commutator map) and land in residual_norm instead.  Both bounds of
    `commutator_estimates` are certified; a miss raises InvariantBroken.
    """
    if not alpha >= 1:
        raise ValueError(f"need alpha >= 1, got {alpha:g}")
    grid = a.grid
    a_reg = regularize(a, cutoff)
    a_band = to_band(a_reg.coeffs, grid, cutoff)
    p_band, estimates = _certified_division(a_band, a_reg.order_m, grid,
                                            alpha, cutoff)
    residual = _support_residual(p_band, a_band, grid, alpha, cutoff)
    p = Symbol(grid, from_band(p_band, grid, cutoff),
               order_m=a_reg.order_m + 1.0 - alpha, cutoff=cutoff)
    return GaugeSolution(
        p=p,
        residual_norm=residual,
        iterations=1,
        extras={"estimates": estimates},
    )


def cole_hopf_parametrix(a, alpha, cutoff=DEFAULT_CUTOFF):
    """E(a) = (|xi|^(1-alpha) / alpha) d_x^{-1} sigma_a.

    The x-antiderivative zeroes the eta = 0 row (P_0 of d_x^{-1} is zero by
    convention) and the |xi|^(1-alpha) weight zeroes the xi = 0 column.
    """
    if not alpha > 1:
        raise ValueError(f"parametrix needs alpha > 1, got {alpha:g}")
    grid = a.grid
    a_reg = regularize(a, cutoff)
    coeffs = _cole_hopf_weight(grid, alpha) * a_reg.coeffs
    return Symbol(grid, coeffs, order_m=a_reg.order_m + 1.0 - alpha, cutoff=cutoff)


def parametrix_remainder(a, alpha, cutoff=DEFAULT_CUTOFF):
    """r(a) = a + L(E(a)): the part of a that -E leaves unsolved, of size
    O(1/B) on the cutoff support, read on its slots that materialize."""
    grid = a.grid
    a_reg = regularize(a, cutoff)
    e = cole_hopf_parametrix(a_reg, alpha, cutoff)
    support, _, den, _ = _band_lattice(grid, alpha, cutoff)
    remainder = to_band(a_reg.coeffs, grid, cutoff) \
        + to_band(e.coeffs, grid, cutoff) * den
    return Symbol(grid, from_band(np.where(support, remainder, 0.0), grid,
                                  cutoff), order_m=a_reg.order_m, cutoff=cutoff)


def _time_derivative_stack(stack, dt):
    """d_t along axis 0: 4th-order centered inside, 2nd-order at the edges."""
    out = np.zeros_like(stack)
    count = stack.shape[0]
    if count == 1:
        return out
    if count < 5:
        raise ValueError(f"need 1 or >= 5 time samples, got {count}")
    out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * dt)
    out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * dt)
    out[1] = (stack[2] - stack[0]) / (2.0 * dt)
    out[-2] = (stack[-1] - stack[-3]) / (2.0 * dt)
    # (-s[4:] + 8 s[3:-1] - 8 s[1:-3] + s[:-4]) / (12 dt), built in place
    # with the same operations in the same order
    interior = out[2:-2]
    np.multiply(8.0, stack[3:-1], out=interior)
    interior -= stack[4:]
    interior -= 8.0 * stack[1:-3]
    interior += stack[:-4]
    interior /= 12.0 * dt
    return out


def _trapezoid_integral(stack, dt):
    """Cumulative trapezoid sum along axis 0, zero at the first row.

    Row i is the sum over k < i of dt (s[k+1] + s[k]) / 2: each term is
    formed in that order and the terms are added left to right by one
    cumsum (tests/test_gauge.py, `TestTrapezoidIntegral`, pins the bits).
    """
    out = np.zeros_like(stack)
    out[1:] = np.cumsum(dt * (stack[1:] + stack[:-1]) / 2.0, axis=0)
    return out


def _time_chain(a_stack, dt, grid, alpha, cutoff, order_p, j_max, tol):
    """Stationary solve per sample plus the d_t correction ladder.

    Layer zero inverts den per sample; layer j+1 solves L(p_{j+1}) =
    sigma_{d_t p_j}.  The plain sum then satisfies L(p) - sigma_{d_t p} =
    sigma_a up to the derivative of the last layer.

    Each candidate layer is measured before it joins the sum: below tol it
    is dropped and the chain stops.  Repeated differencing of the sample
    stack amplifies the endpoint-stencil error by roughly 1/dt per layer,
    so once the increments have decayed past _NOISE_FLOOR_DECAY of the
    first one an upturn marks that noise floor and the sum is truncated
    quietly.  A jump past _DIVERGENT_TAIL of the previous layer can never
    be a plateau; the candidate is discarded unconditionally, since adding
    even one amplified layer feeds differenced round-off back into the
    iteration that called us.  An upturn between those two readings is a
    genuine plateau, and a second one in a row stops the chain too.  No
    stop raises: the sum so far is returned, and the Newton sweep that
    called us reads the residual it leaves.

    a_stack and the returned total are (samples, 2 reach + 1, N) band
    stacks.  Returns (total, increments): the summed stack, and the
    M^{order_p} stack reading of each correction layer that joined it, in
    order.  Layer zero is not among them.
    """
    layer = _divide(a_stack, grid, alpha, cutoff)
    total = layer.copy()
    increments = []
    stall_run = 0
    for _ in range(j_max):
        candidate = _divide(_time_derivative_stack(layer, dt), grid, alpha,
                            cutoff)
        inc = _band_seminorm(candidate, grid, cutoff, order_p)
        if inc < tol:
            break
        prev = increments[-1] if increments else \
            _band_seminorm(layer, grid, cutoff, order_p)
        if prev > 0.0 and inc >= _DIVERGENT_TAIL * prev:
            break
        if increments and inc >= 0.95 * increments[-1]:
            if min(increments) <= _NOISE_FLOOR_DECAY * increments[0]:
                break
            stall_run += 1
            if stall_run >= 2:
                break
        else:
            stall_run = 0
        total += candidate
        layer = candidate
        increments.append(inc)
    return total, increments


@functools.lru_cache(maxsize=16)
def _band_waves(grid, cutoff):
    """(N, 2 reach + 1) table e^{2 pi i (eta_j k mod N) / N}: the cone
    band's rows eta_j on the grid points x_k, so that a band's values
    a(x_k, xi) are `table @ band`."""
    band = _cone_band(grid, cutoff)
    eta = grid.freqs[band.rows]
    phase = np.mod(np.arange(grid.n)[:, None] * eta[None, :], grid.n)
    waves = np.exp(2j * np.pi * phase / grid.n)
    waves.setflags(write=False)
    return waves


def _live_columns(columns, weights, grid):
    """Mask of the (k, rows) band columns, weighted by weights (k,), whose
    weighted sup_x over the grid points can be the largest.

    The rows are distinct modes mod N, so by discrete Parseval a column's
    sup_x is at least its l2 norm over the rows, and it is at most its l1
    norm: a column whose weighted l1 norm is below the largest weighted l2
    norm by more than the rounding of the readings (an N-term sum each)
    cannot hold the maximum.  Every column is live when a reading is not
    finite, or too small for that rounding to be relative.
    """
    magnitudes = np.abs(columns)
    lower = np.sqrt(np.sum(magnitudes * magnitudes, axis=-1)) * weights
    top = float(np.max(lower, initial=0.0))
    if not (math.isfinite(top) and top >= _PRUNE_FLOOR):
        return np.ones(len(columns), dtype=bool)
    slack = 8.0 * grid.n * np.finfo(np.float64).eps
    upper = np.sum(magnitudes, axis=-1) * weights
    return upper * (1.0 + slack) >= top * (1.0 - slack)


def _band_seminorm(band, grid, cutoff, order_m):
    """M^m of a (..., 2 reach + 1, N) band stack, the max over its samples:
    `symbols.stack_seminorm` of its symbol layout, with sup_x read from
    the band's rows by a matmul against `_band_waves` in place of a
    zero-padded N-point inverse FFT, on the columns that can hold the
    maximum (`_live_columns`)."""
    rows = band.shape[-2]
    keep = grid.freqs != 0
    weights = (1.0 + np.abs(grid.freqs[keep])) ** (-float(order_m))
    # every column xi != 0 of every sample, as (columns, rows)
    columns = np.swapaxes(band[..., keep], -1, -2).reshape(-1, rows)
    weights = np.broadcast_to(weights, (len(columns) // weights.size,
                                        weights.size)).reshape(-1)
    live = _live_columns(columns, weights, grid)
    values = _band_waves(grid, cutoff) @ columns[live].T
    return float(np.max(np.max(np.abs(values), axis=0) * weights[live]))


def _extract_pairs(sound, grid, cutoff):
    """Band-layout symbol of operator entries given on the sound pairs of
    `_pair_sets` (leading axes are samples): each divided by psi, zero on
    every other slot.

    Entries on the other pairs belong to the residual report, not to the
    symbol.
    """
    rows = 2 * _cone_band(grid, cutoff).reach + 1
    out = np.zeros((*sound.shape[:-1], rows * grid.n), dtype=np.complex128)
    sets = _pair_sets(grid, cutoff)
    out[..., sets.slots] = sound / sets.psi
    return out.reshape(*sound.shape[:-1], rows, grid.n)


def _taylor_plan(norm):
    """(squarings s, degree m) of `_expm` for a generator of 1-norm norm."""
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    size = norm / 2.0 ** squarings
    degree, bound = 0, math.exp(2.0 * size) * size
    while bound > 2.0 ** -53:
        degree += 1
        bound *= size / (degree + 1)
    return squarings, degree


def _taylor_minus_identity(a, squarings, degree):
    """X = e^a - I of a (k, 2H + 1, N) stack of operator bands that share
    one plan, as a band stack of half-width min(degree 2^s H, N - 1)."""
    if degree == 0:
        return np.zeros((len(a), 1, a.shape[-1]), dtype=np.complex128)
    b = a / 2.0 ** squarings
    x = b / degree
    for k in range(degree - 1, 0, -1):
        x[..., x.shape[-2] // 2, :] += 1.0
        x = band_product(b, x)
        x /= k
    for _ in range(squarings):
        square = band_product(x, x)
        x = resize_band(2.0 * x, square.shape[-2] // 2) + square
    return x


def _expm(a):
    """e^a of (..., 2H + 1, N) operator bands by a scaled, truncated Taylor
    series, as operator bands of one half-width.

    Each member, over the leading sample axes, keeps its own plan: B = a /
    2^s with ||B||_1 <= 1/2 (s = 0 when a is already that small); the
    degree m is the least with e^{2b} b^{m+1} / (m+1)! <= 2^-53, b =
    ||B||_1, which bounds the truncation error relative to e^B because
    ||e^B|| >= e^{-b}.  The 1-norm is the largest column sum of |a|, and a
    band column is the matrix column.  The polynomial is evaluated by
    Horner and squared s times, with `paraop.band_product`.  Both work on X
    = P(B) - I, squared as (I + X)^2 = I + (2X + X^2): adding the identity
    early would round X to the identity's precision, and each squaring
    doubles that error.  The identity is added once, at the end, to the
    eta = 0 row.  X has half-width min(m 2^s H, N - 1); the members are
    computed in groups that share a plan, so each is the bytes of a lone
    call, and are widened with +0.0 rows to the widest.  The zero band
    gives exactly the identity (half-width 0 alone); a band with a
    non-finite entry raises NanDetected.
    """
    n = a.shape[-1]
    stack = a.reshape(-1, *a.shape[-2:])
    norms = np.max(np.sum(np.abs(stack), axis=-2), axis=-1)
    if not np.all(np.isfinite(norms)):
        bad = norms[~np.isfinite(norms)][0]
        raise NanDetected(f"exponential of a matrix with 1-norm {bad}")
    groups = {}
    for i, norm in enumerate(norms.tolist()):
        groups.setdefault(_taylor_plan(norm), []).append(i)
    parts = [(members, _taylor_minus_identity(stack[members], *plan))
             for plan, members in groups.items()]
    half = max(part.shape[-2] for _, part in parts) // 2
    out = np.empty((len(stack), 2 * half + 1, n), dtype=np.complex128)
    for members, part in parts:
        out[members] = resize_band(part, half)
    out[:, half, :] += 1.0
    return out.reshape(*a.shape[:-2], 2 * half + 1, n)


def solve_nonlinear_exp(a, alpha, cutoff=DEFAULT_CUTOFF):
    """Newton solve of F(p) = sigma_a with F(p) = -i [expm(i T_p), D].

    The normalization makes D_0 F the linear commutator map, so each step
    is one explicit solve_commutator division and tiny data reproduces the
    linear solution to second order.  The off-support part of the
    commutator is reported, never driven to zero.  M^m_0(a) must not
    exceed SMALLNESS; Newton stops below NEWTON_TOL, and gives up before
    its first step when the data on the kernel row eta = 0 reach
    NEWTON_TOL, at the first non-finite residual, at the first step whose
    residual exceeds that of step 0, or after NEWTON_MAX_ITERATIONS steps.

    extras["transform"] is expm(i T_p) for the returned p as a (2H + 1, N)
    operator band (`paraop` layout; `paraop.place_band` gives the N x N
    matrix): the very band the converged Newton step exponentiated, handed
    on so that callers do not exponentiate the same p again.
    extras["off_support_norm"] is the largest |entry| of its commutator
    with D where psi vanishes.
    """
    if not alpha >= 1:
        raise ValueError(f"need alpha >= 1, got {alpha:g}")
    grid = a.grid
    a_reg = regularize(a, cutoff)
    a_band = to_band(a_reg.coeffs, grid, cutoff)
    measured = _smallness(a_band, grid, cutoff, a_reg.order_m)
    p_band, transform, residual, iterations = _newton_exp(
        a_band.reshape(-1)[_pair_sets(grid, cutoff).slots], grid, alpha,
        cutoff
    )
    den = _band_denominator(grid, alpha, transform.shape[-2] // 2)
    extras = {
        "off_support_norm": float(_off_support_norms(transform * den, grid,
                                                     cutoff)),
        "smallness": {
            "threshold": SMALLNESS,
            "measured": measured,
            "margin": SMALLNESS - measured,
        },
        "transform": transform,
    }
    return GaugeSolution(
        p=Symbol(grid, from_band(p_band, grid, cutoff),
                 order_m=a_reg.order_m + 1.0 - alpha, cutoff=cutoff),
        residual_norm=residual,
        iterations=iterations,
        extras=extras,
    )


def _smallness(band, grid, cutoff, order_m):
    """M^m_0 of a (..., 2 reach + 1, N) band stack, the max over its
    samples; SmallnessViolated past SMALLNESS."""
    measured = _band_seminorm(band, grid, cutoff, order_m)
    if measured > SMALLNESS:
        raise SmallnessViolated(
            f"M^{order_m:g}_0(a) = {measured:.3e} exceeds the smallness "
            f"threshold {SMALLNESS:g}"
        )
    return measured


def _newton_exp(a_sound, grid, alpha, cutoff, initial=None, transform=None):
    """The Newton loop of `solve_nonlinear_exp`, on the band.

    a_sound is the regularized data on the sound pairs of `_pair_sets`,
    the only pairs the loop reads it on.  den vanishes on the eta = 0 row,
    so the residual there is the data at every step: data of size
    NEWTON_TOL there raise NewtonDiverged before any exponential.  The
    loop starts from the band p initial (zero when None); transform, when
    given, is the operator band of expm(i T_p) for that p, which a
    warm-starting caller already holds, and step 0 uses it instead of
    exponentiating the same band again.  Returns (p band, expm(i T_p) as
    an operator band, residual, Newton steps).
    """
    sets = _pair_sets(grid, cutoff)
    if np.any(sets.kernel):
        kernel = float(np.max(np.abs(a_sound[sets.kernel])))
        if kernel >= NEWTON_TOL:
            raise NewtonDiverged(
                f"data of size {kernel:.3e} on the kernel row eta = 0 reach "
                f"NEWTON_TOL = {NEWTON_TOL:g}; den vanishes there, so no "
                f"Newton step can reduce them"
            )
    reach = _cone_band(grid, cutoff).reach
    # the division table's den is den on the zone; the sound slots off it
    # are the kernel's
    den = _division_table(grid, alpha, cutoff)[1].reshape(-1)[sets.slots]
    den_sound = np.where(sets.kernel, 0.0, den)
    if initial is None:
        initial = np.zeros((2 * reach + 1, grid.n), dtype=np.complex128)
    p_band = initial
    for step in range(NEWTON_MAX_ITERATIONS + 1):
        # every p here is a sum of `_divide` outputs, zero off the division
        # zone, so its band is already its operator band
        if step or transform is None:
            transform = _expm(1j * p_band)
        w_sound = resize_band(transform, reach).reshape(-1)[sets.slots]
        r_sound = -1j * (w_sound * den_sound) - a_sound
        residual = float(np.max(np.abs(r_sound)))
        if not math.isfinite(residual):
            raise NewtonDiverged(f"residual {residual} at Newton step {step}")
        if residual < NEWTON_TOL:
            return p_band, transform, residual, step
        if step == 0:
            first = residual
        elif residual > first:
            raise NewtonDiverged(
                f"residual {residual:.3e} at Newton step {step} exceeds "
                f"{first:.3e} of step 0"
            )
        if step == NEWTON_MAX_ITERATIONS:
            raise NewtonDiverged(
                f"residual {residual:.3e} after {NEWTON_MAX_ITERATIONS} "
                f"Newton steps"
            )
        p_band = p_band - _divide(_extract_pairs(r_sound, grid, cutoff),
                                  grid, alpha, cutoff)


def _check_tameness(a_stack, dt, grid, alpha, cutoff, u_sup):
    """Time derivatives of the transport symbol must cost alpha orders
    each; a_stack is a band stack."""
    report = {}
    stack = a_stack
    for j in (1, 2):
        stack = _time_derivative_stack(stack, dt)
        order_j = (j + 1) * alpha - 1.0
        measured = _band_seminorm(stack, grid, cutoff, order_j)
        bound = TAMENESS_C * u_sup * (2.0 ** j + 1.0)
        report[j] = (measured, bound)
        if measured > bound:
            raise TamenessViolated(
                f"M^{order_j:g}_0(d_t^{j} sigma) = {measured:.3e} exceeds "
                f"{bound:.3e} (ratio {measured / bound:.2f})"
            )
    return report


def _transport_band(u, cutoff):
    """The band of regularize(transport_symbol(u) * 1j, cutoff), each slot
    computed as the dense symbol computes it."""
    grid = u.grid
    rows = _cone_band(grid, cutoff).rows
    coeffs = u.spectral[rows][:, None] * grid.freqs.astype(np.float64)[None, :]
    return to_band(cutoff_mask(grid, cutoff), grid, cutoff) * (coeffs * 1j)


def _conjugating_residual(w_stack, transport, dt, grid, alpha):
    """g = d_t W + [D, W] - W T of (T, 2H + 1, N) operator band stacks W
    and (T, 2 reach + 1, N) transport bands T, as a band stack of
    half-width min(H + reach, N - 1): the time stencil, minus W den, minus
    the band product, in that order for every entry."""
    product = band_product(w_stack, transport)
    half = product.shape[-2] // 2
    g_stack = resize_band(_time_derivative_stack(w_stack, dt), half)
    den = _band_denominator(grid, alpha, w_stack.shape[-2] // 2)
    g_stack -= resize_band(w_stack * den, half)
    g_stack -= product
    return g_stack


def solve_conjugating(u_fields, dt, alpha, cutoff=DEFAULT_CUTOFF):
    """Full gauge for the paralinear transport term along a trajectory.

    Finds p(t) with W = expm(i T_{p(t)}) satisfying

        d_t W + [D, W] - W T_{i u xi} = 0    on the cutoff support.

    Newton steps solve the time-dependent linear problem for -i times the
    extracted residual symbol.  The per-sample Newton solve of sample i
    starts from p_{i-1} and from the exponential of p_{i-1} that the solve
    of sample i-1 returned, so the warm start costs no expm.  Every sweep
    after the first exponentiates all samples in one `_expm` call.

    W, d_t W, W den, W T and g are kept as (T, 2H + 1, N) operator band
    stacks (`paraop` layout: row H - eta, column xi holds the entry (xi +
    eta, xi); `paraop.place_band` gives the N x N matrices).  Every
    solution carries, shared and uncopied, the two stacks the final sweep
    computed, one member per sample: extras["w_stack"] holds the unmasked
    W_i = expm(i T_{p_i}), of half-width H (2 reach on the study inputs),
    and extras["g_stack"] the defining residual g_i = d_t W_i + [D, W_i] -
    W_i T_{i u_i xi} on all pairs, of half-width min(H + reach, N - 1).
    The first sweep reuses the exponentials of the per-sample Newton
    solves instead of recomputing them.  extras["off_support_norm"] is the
    largest |g_i| where psi vanishes, and extras["tameness"] the tameness
    check's (measured, bound) pair for each time derivative j = 1, 2.

    The numerical settings are module constants, not options: the sweeps
    stop once every sample's residual is below CONJUGATING_TOL, and give
    up at the first non-finite residual, at the first sweep whose worst
    residual exceeds that of sweep 0, or after NEWTON_MAX_ITERATIONS
    sweeps; each correction ladder (`_time_chain`) has at most
    CHAIN_MAX_LAYERS layers and drops layers below CONJUGATING_TOL / 10,
    the per-sample Newton solves keep the SMALLNESS, NEWTON_TOL and
    NEWTON_MAX_ITERATIONS of `solve_nonlinear_exp`, and the tameness bounds
    scale with TAMENESS_C.
    """
    if not alpha > 2:
        raise ValueError(f"conjugating gauge needs alpha > 2, got {alpha:g}")
    fields = list(u_fields)
    if len(fields) < 5:
        raise ValueError(f"need >= 5 trajectory samples, got {len(fields)}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"need a finite dt > 0, got {dt:g}")
    grid = fields[0].grid
    a_stack = np.stack([_transport_band(u, cutoff) for u in fields])
    u_sup = max(float(np.max(np.abs(u.physical()))) for u in fields)
    tameness = _check_tameness(a_stack, dt, grid, alpha, cutoff, u_sup)
    transport = operator_band(a_stack, grid, cutoff)
    sets = _pair_sets(grid, cutoff)
    order_p = 2.0 - alpha
    reach = _cone_band(grid, cutoff).reach
    data = a_stack * 1j
    # the smallness of `solve_nonlinear_exp`, at the transport's order 1
    _smallness(data, grid, cutoff, 1.0)

    guess = guess_transform = None
    p_stack = np.empty_like(a_stack)
    transforms = []
    for i, sample in enumerate(data):
        # sample i starts from p_{i-1}, whose exponential is already known
        guess, guess_transform, _, _ = _newton_exp(
            sample.reshape(-1)[sets.slots], grid, alpha, cutoff, guess,
            guess_transform
        )
        p_stack[i] = guess
        transforms.append(guess_transform)
    half = max(w.shape[-2] for w in transforms) // 2
    w_stack = np.stack([resize_band(w, half) for w in transforms])

    iterations = 0
    residuals = None
    g_stack = None
    for step in range(NEWTON_MAX_ITERATIONS + 1):
        g_stack = _conjugating_residual(w_stack, transport, dt, grid, alpha)
        g_sound = resize_band(g_stack, reach).reshape(len(fields), -1)[
            :, sets.slots]
        residuals = np.max(np.abs(g_sound), axis=1)
        worst = float(np.max(residuals))
        if not math.isfinite(worst):
            raise NewtonDiverged(
                f"conjugating residual {worst} at Newton sweep {step}"
            )
        if worst < CONJUGATING_TOL:
            iterations = step
            break
        if step == 0:
            first = worst
        elif worst > first:
            raise NewtonDiverged(
                f"conjugating residual {worst:.3e} at Newton sweep {step} "
                f"exceeds {first:.3e} of sweep 0"
            )
        if step == NEWTON_MAX_ITERATIONS:
            raise NewtonDiverged(
                f"conjugating residual {worst:.3e} after "
                f"{NEWTON_MAX_ITERATIONS} Newton sweeps"
            )
        rhs = -1j * _extract_pairs(g_sound, grid, cutoff)
        correction, _ = _time_chain(
            rhs, dt, grid, alpha, cutoff, order_p, CHAIN_MAX_LAYERS,
            CONJUGATING_TOL * 0.1
        )
        # W A feeds the diagonal pairs at second order, where the commutator
        # vanishes and the linearization is the ODE -d_t h = rhs.  Integrate
        # it by the cumulative trapezoid sum of `_trapezoid_integral`, with
        # h = 0 at the first sample (the x-mean gauge choice there);
        # repeated sweeps tighten the integral to stencil consistency.  The
        # eta = 0 row is row `reach` of the band.
        correction[:, reach, :] -= _trapezoid_integral(rhs[:, reach, :], dt)
        p_stack = p_stack + correction
        w_stack = _expm(1j * operator_band(p_stack, grid, cutoff))

    off_support = _off_support_norms(g_stack, grid, cutoff).tolist()
    solutions = []
    for i in range(len(fields)):
        p = Symbol(grid, from_band(p_stack[i], grid, cutoff), order_m=order_p,
                   cutoff=cutoff)
        extras = {
            "off_support_norm": off_support[i],
            "tameness": tameness,
            "w_stack": w_stack,
            "g_stack": g_stack,
        }
        solutions.append(
            GaugeSolution(
                p=p,
                residual_norm=float(residuals[i]),
                iterations=iterations,
                extras=extras,
            )
        )
    return solutions
