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
j): the commutator map's tables (`_band_lattice`, which reads den from
its one definition on the pairs), `_divide`, the `_time_chain` layers,
the `_check_tameness` stacks, the transport symbols and p stacks of
`solve_conjugating`, and the Newton iterate of `_newton_exp`.  The
Newton solves read the pair matrix only on the sound pairs of
`_pair_sets`, where psi exceeds SYMBOL_EXTRACTION_FLOOR, and
`_extract_pairs` writes those straight into a band.  Dense (N x N, or
(T, N, N) stacks of them) are the operators: W = e^{i T_p}, the residual
g, the transport matrices, `_expm` and the products with W, placed from
bands by `paraop.gather_band`, and the checks of a symbol's data on
every pair, where one marked regularized that was not shows off the
band.  The seminorm readings zero-pad a band along eta to N
(`_band_seminorm`), so they read the same FFT as the N x N layout.
Every public result is N x N: a returned p is its band padded with +0.0.

The exponentials of the gauge, e^{i T_p} here and e^{-+iG} in the energy
study's skew check, are small: on the N=64 study inputs ||i T_p||_1 is
about 3.6e-6, and over the test suite the gauge's generators stay below
1.2e-3 (median 1.1e-7) and the skew check's below 0.15.  `_expm` is
therefore a truncated Taylor series (Moler & Van Loan, SIAM Rev. 2003):
scale B = A / 2^s to ||B||_1 <= 1/2, take the least degree m with
e^{2||B||} ||B||^{m+1} / (m+1)! <= 2^-53, evaluate by Horner and square s
times.  Since ||e^B|| >= e^{-||B||}, that degree bounds the truncation
error relative to e^B.  At ||A||_1 = 3.6e-6 it is degree 2, one matrix
product, where a Pade approximant pays a degree search, about ten
products and an LU solve.  Past ||A||_1 of about 0.1 Pade is the cheaper
of the two, but no study sends such a generator.
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
from .paraop import _band_pairs, _cone_band, from_band, gather_band, \
    gather_pairs, materialize, pair_mask, to_band
from .spectral import dispersion_profile
from .symbols import DEFAULT_CUTOFF, Symbol, column_sup, cutoff_mask, \
    regularize, stack_seminorm, x_derivative, xi_forward_difference

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


@functools.lru_cache(maxsize=16)
def _pair_denominator(grid, alpha):
    """den on every (output, input) pair: i (f(in) - f(out)).

    The one definition of den: pair (xi + eta, xi) holds den(eta, xi).
    The band reads it at its slots' pairs, the sweeps read every pair.
    """
    f = dispersion_profile(grid, alpha)
    table = 1j * (f[None, :] - f[:, None])
    table.setflags(write=False)
    return table


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
    equation constrains), den read from `_pair_denominator` (zero where
    xi + eta leaves the lattice), and its elliptic size |eta| max(|xi|,
    |xi+eta|)^(alpha-1)."""
    pairs = _band_pairs(grid, cutoff)
    eta = grid.freqs[_cone_band(grid, cutoff).rows].astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    support = np.zeros(eta.size * grid.n, dtype=bool)
    support[pairs.slots] = pairs.psi > 0.0
    den = np.zeros(eta.size * grid.n, dtype=np.complex128)
    den[pairs.slots] = _pair_denominator(grid, alpha).reshape(-1)[pairs.pairs]
    big = np.maximum(np.abs(xi), np.abs(xi + eta))
    with np.errstate(divide="ignore"):
        scale = np.abs(eta) * np.where(big > 0, big ** (alpha - 1.0), 0.0)
    support = support.reshape(scale.shape)
    return support, support & (eta != 0), den.reshape(scale.shape), scale


def ellipticity_bracket(grid, alpha, cutoff=DEFAULT_CUTOFF):
    """(min, max) of |den| / (|eta| max(|xi|,|xi+eta|)^(alpha-1)) on support."""
    _, zone, den, scale = _band_lattice(grid, alpha, cutoff)
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
    """Where the Newton solves read the pair matrix.

    pairs, slots and psi are the sound pairs, where psi exceeds
    SYMBOL_EXTRACTION_FLOOR (the pairs a residual is read on and a symbol
    extracted from), as flat positions in the pair matrix and in the band
    and psi on them; off holds the flat matrix positions where psi is
    zero.
    """

    pairs: np.ndarray
    slots: np.ndarray
    psi: np.ndarray
    off: np.ndarray


@functools.lru_cache(maxsize=16)
def _pair_sets(grid, cutoff):
    band = _band_pairs(grid, cutoff)
    sound = band.psi > SYMBOL_EXTRACTION_FLOOR
    sets = _PairSets(band.pairs[sound], band.slots[sound], band.psi[sound],
                     np.flatnonzero(pair_mask(grid, cutoff) == 0.0))
    for array in sets:
        array.setflags(write=False)
    return sets


def _support_residual(p_band, a_coeffs, grid, alpha, cutoff):
    """Max entry of (L(p) - sigma_a) over materializable slots, for a band p
    from `_divide`: p vanishes off the division zone, where the table's den
    is 1, and off the band, where a symbol marked regularized that was not
    shows in full."""
    residual = np.negative(a_coeffs)
    residual[_cone_band(grid, cutoff).rows] += \
        p_band * _division_table(grid, alpha, cutoff)[1]
    return float(np.max(np.abs(gather_pairs(residual, grid))))


def _homogeneous_sup(symbol, weight_order, difference=False):
    """sup over xi != 0 of |xi|^(-weight_order) ||column||_inf.

    With `difference` the columns are forward xi-differences, weighted at
    their base frequency; the top lattice column has no difference and the
    sup ranges over the bases where one is defined.
    """
    if difference:
        coeffs, base = xi_forward_difference(symbol)
    else:
        coeffs, base = symbol.coeffs, symbol.grid.freqs
    keep = base != 0
    norms = column_sup(symbol.grid, coeffs[:, keep])
    weights = np.abs(base[keep]).astype(np.float64) ** (-float(weight_order))
    return float(np.max(norms * weights))


def commutator_estimates(p, a_reg, alpha, cutoff):
    """Both seminorm bounds tied to the solve, as one report.

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
    on the band, at pairs whose output frequency stays on the lattice, so
    a is truncated to those slots, else the xi differences at the lattice
    edge compare an entry of p against a structural zero and the
    certificate breaks.
    """
    grid = a_reg.grid
    big_b = cutoff.big_b
    beta = a_reg.order_m
    band = to_band(a_reg.coeffs, grid, cutoff).reshape(-1)
    slots = _band_pairs(grid, cutoff).slots
    kept = np.zeros_like(band)
    kept[slots] = band[slots]
    a_reg = a_reg.copy(coeffs=from_band(kept.reshape(-1, grid.n), grid,
                                        cutoff))
    gain = big_b * (1.0 - (1.0 - 1.0 / big_b) ** alpha)
    p_x = x_derivative(p)
    transport_lhs = _homogeneous_sup(p_x, beta + 1.0 - alpha)
    transport_rhs = _homogeneous_sup(a_reg, beta) / gain
    cross = alpha * ((1.0 + 1.0 / big_b) ** (alpha - 1.0) - 1.0) / (
        1.0 - (1.0 - 1.0 / big_b) ** alpha
    )
    xi_lhs = _homogeneous_sup(p_x, beta - alpha, difference=True)
    xi_rhs = _homogeneous_sup(a_reg, beta - 1.0, difference=True) / gain \
        + cross * transport_lhs
    return {
        "transport_lhs": transport_lhs,
        "transport_rhs": transport_rhs,
        "xi_lhs": xi_lhs,
        "xi_rhs": xi_rhs,
    }


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
    p_band = _divide(to_band(a_reg.coeffs, grid, cutoff), grid, alpha, cutoff)
    residual = _support_residual(p_band, a_reg.coeffs, grid, alpha, cutoff)
    order_p = a_reg.order_m + 1.0 - alpha
    p = Symbol(grid, from_band(p_band, grid, cutoff), order_m=order_p,
               cutoff=cutoff)
    estimates = commutator_estimates(p, a_reg, alpha, cutoff)
    for name in ("transport", "xi"):
        lhs, rhs = estimates[f"{name}_lhs"], estimates[f"{name}_rhs"]
        if not lhs <= rhs * (1.0 + 1e-12):
            raise InvariantBroken(
                f"{name} estimate broken: {lhs:.6e} > {rhs:.6e}"
            )
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


def _band_seminorm(band, grid, cutoff, order_m):
    """`stack_seminorm` of a band stack, read on its zero-padded N x N
    layout."""
    return stack_seminorm(grid, from_band(band, grid, cutoff), order_m)


def _extract_pairs(sound, grid, cutoff):
    """Band-layout symbol of matrix entries given on the sound pairs of
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


def _expm(a):
    """e^a of a square matrix by a scaled, truncated Taylor series.

    B = a / 2^s with ||B||_1 <= 1/2 (s = 0 when a is already that small);
    the degree m is the least with e^{2b} b^{m+1} / (m+1)! <= 2^-53, b =
    ||B||_1, which bounds the truncation error relative to e^B because
    ||e^B|| >= e^{-b}.  The polynomial is evaluated by Horner and squared
    s times.  Both work on X = P(B) - I, squared as (I + X)^2 = I + (2X +
    X^2): adding the identity early would round X to the identity's
    precision, and each squaring doubles that error.  The identity is added
    once, at the end.  The zero matrix gives exactly the identity; a
    matrix with a non-finite entry raises NanDetected.
    """
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if not math.isfinite(norm):
        raise NanDetected(f"exponential of a matrix with 1-norm {norm}")
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    b = a / 2.0 ** squarings
    size = norm / 2.0 ** squarings
    degree, bound = 0, math.exp(2.0 * size) * size
    while bound > 2.0 ** -53:
        degree += 1
        bound *= size / (degree + 1)
    if degree == 0:
        return np.eye(n, dtype=a.dtype)
    x = b / degree
    for k in range(degree - 1, 0, -1):
        x.flat[::n + 1] += 1.0
        x = b @ x
        x /= k
    for _ in range(squarings):
        x = 2.0 * x + x @ x
    x.flat[::n + 1] += 1.0
    return x


def solve_nonlinear_exp(a, alpha, cutoff=DEFAULT_CUTOFF):
    """Newton solve of F(p) = sigma_a with F(p) = -i [expm(i T_p), D].

    The normalization makes D_0 F the linear commutator map, so each step
    is one explicit solve_commutator division and tiny data reproduces the
    linear solution to second order.  The off-support part of the
    commutator is reported, never driven to zero.  M^m_0(a) must not
    exceed SMALLNESS; Newton stops below NEWTON_TOL, and gives up at the
    first non-finite residual or after NEWTON_MAX_ITERATIONS steps.

    extras["transform"] is expm(i T_p) for the returned p: the very matrix
    the converged Newton step exponentiated, handed on so that callers do
    not exponentiate the same placement again.
    """
    if not alpha >= 1:
        raise ValueError(f"need alpha >= 1, got {alpha:g}")
    grid = a.grid
    a_reg = regularize(a, cutoff)
    measured = _smallness(a_reg.coeffs, grid, a_reg.order_m)
    # only for its pair-mask check, which reads every pair, off the band too
    materialize(a_reg, cutoff)
    sets = _pair_sets(grid, cutoff)
    a_sound = to_band(a_reg.coeffs, grid, cutoff).reshape(-1)[sets.slots]
    p_band, transform, residual, iterations = _newton_exp(
        a_sound, grid, alpha, cutoff
    )
    off = (transform.reshape(-1)[sets.off]
           * _pair_denominator(grid, alpha).reshape(-1)[sets.off])
    extras = {
        "off_support_norm": float(np.max(np.abs(off), initial=0.0)),
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


def _smallness(coeffs, grid, order_m):
    """M^m_0 of symbol-layout coefficients; SmallnessViolated past
    SMALLNESS."""
    measured = stack_seminorm(grid, coeffs, order_m)
    if measured > SMALLNESS:
        raise SmallnessViolated(
            f"M^{order_m:g}_0(a) = {measured:.3e} exceeds the smallness "
            f"threshold {SMALLNESS:g}"
        )
    return measured


def _newton_exp(a_sound, grid, alpha, cutoff, initial=None, transform=None):
    """The Newton loop of `solve_nonlinear_exp`, on the band.

    a_sound is the regularized data's matrix on the sound pairs of
    `_pair_sets`, the only pairs the loop reads it on.  The loop starts
    from the band p initial (zero when None); transform, when given, is
    expm(i T_p) of that placement, which a warm-starting caller already
    holds, and step 0 uses it instead of exponentiating the same matrix
    again.  Returns (p band, expm(i T_p), residual, Newton steps).
    """
    sets = _pair_sets(grid, cutoff)
    den_sound = _pair_denominator(grid, alpha).reshape(-1)[sets.pairs]
    if initial is None:
        initial = np.zeros((2 * _cone_band(grid, cutoff).reach + 1, grid.n),
                           dtype=np.complex128)
    p_band = initial
    for step in range(NEWTON_MAX_ITERATIONS + 1):
        if step or transform is None:
            transform = _expm(1j * gather_band(p_band, grid, cutoff))
        r_sound = -1j * (transform.reshape(-1)[sets.pairs] * den_sound) \
            - a_sound
        residual = float(np.max(np.abs(r_sound)))
        if not math.isfinite(residual):
            raise NewtonDiverged(f"residual {residual} at Newton step {step}")
        if residual < NEWTON_TOL:
            return p_band, transform, residual, step
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


def solve_conjugating(u_fields, dt, alpha, cutoff=DEFAULT_CUTOFF):
    """Full gauge for the paralinear transport term along a trajectory.

    Finds p(t) with W = expm(i T_{p(t)}) satisfying

        d_t W + [D, W] - W T_{i u xi} = 0    on the cutoff support.

    Newton steps solve the time-dependent linear problem for -i times the
    extracted residual symbol.  The per-sample Newton solve of sample i
    starts from p_{i-1} and from the exponential of p_{i-1} that the solve
    of sample i-1 returned, so the warm start costs no expm.

    Every solution carries, shared and uncopied, the two stacks the final
    sweep computed, one row per sample: extras["w_stack"] holds the
    unmasked W_i = expm(i T_{p_i}) and extras["g_stack"] the defining
    residual g_i = d_t W_i + [D, W_i] - W_i T_{i u_i xi} on all pairs.  The
    first sweep reuses the exponentials of the per-sample Newton solves
    (`solve_nonlinear_exp`'s extras["transform"]) instead of recomputing
    them.  extras["off_support_norm"] is the largest |g_i| where psi
    vanishes, and extras["tameness"] the tameness check's (measured, bound)
    pair for each time derivative j = 1, 2.

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
    if not dt > 0:
        raise ValueError(f"need dt > 0, got {dt:g}")
    grid = fields[0].grid
    a_stack = np.stack([_transport_band(u, cutoff) for u in fields])
    u_sup = max(float(np.max(np.abs(u.physical()))) for u in fields)
    tameness = _check_tameness(a_stack, dt, grid, alpha, cutoff, u_sup)
    transport_mats = gather_band(a_stack, grid, cutoff)
    sets = _pair_sets(grid, cutoff)
    den_pair = _pair_denominator(grid, alpha)
    order_p = 2.0 - alpha
    reach = _cone_band(grid, cutoff).reach

    guess = guess_transform = None
    p_stack = np.empty_like(a_stack)
    w_stack = np.empty((len(fields), grid.n, grid.n), dtype=np.complex128)
    for i, a in enumerate(a_stack):
        # sample i starts from p_{i-1}, whose exponential is already known
        data = a * 1j
        # the smallness of `solve_nonlinear_exp`, at the transport's order 1
        _smallness(from_band(data, grid, cutoff), grid, 1.0)
        guess, guess_transform, _, _ = _newton_exp(
            data.reshape(-1)[sets.slots], grid, alpha, cutoff, guess,
            guess_transform
        )
        p_stack[i] = guess
        w_stack[i] = guess_transform

    iterations = 0
    residuals = None
    g_stack = None
    for step in range(NEWTON_MAX_ITERATIONS + 1):
        g_stack = _time_derivative_stack(w_stack, dt)
        for i, w in enumerate(w_stack):
            g_stack[i] -= w * den_pair
            g_stack[i] -= w @ transport_mats[i]
        g_sound = g_stack.reshape(len(fields), -1)[:, sets.pairs]
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
        for i, placed in enumerate(gather_band(p_stack, grid, cutoff)):
            w_stack[i] = _expm(1j * placed)

    off_support = np.max(
        np.abs(g_stack.reshape(len(fields), -1)[:, sets.off]), axis=1,
        initial=0.0
    ).tolist()
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
