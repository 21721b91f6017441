"""Implicit symbol constructions behind the dispersive gauge transform.

Everything here revolves around the commutator equation

    Op(p) D - D Op(p) = Op(a),    D = the multiplier i xi |xi|^(alpha-1).

D is diagonal, so the equation acts entrywise on materialized matrices:
the (xi+eta, xi) entry of the left side is the p coefficient times

    den(eta, xi) = i (f(xi) - f(xi+eta)),    f(xi) = xi |xi|^(alpha-1).

On the cutoff support with eta != 0 the denominator is elliptic (the
resonance bound), so the discrete solve is one exact division and the
eta = 0 rows are the kernel.  The Neumann route, the time-dependent
chain, and the Newton solves for the exponential problems all reduce to
that division.

Sign conventions worth stating once: the alpha = 1 solution is p =
-d_x^{-1} a, and the nonlinear problem is normalized as
F(p) = -i [expm(i T_p), D] so that its differential at p = 0 is exactly
the linear map above; with that normalization the tiny-data Newton
solution coincides with the linear solve to second order.

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

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import (
    InvariantBroken,
    NeumannDivergence,
    NewtonDiverged,
    SeriesStalled,
    SmallDivisor,
    SmallnessViolated,
    TamenessViolated,
)
from .paraop import DEFAULT_CUTOFF_ARGS, gather_pairs, materialize, pair_mask, \
    scatter_pairs
from .spectral import dispersion_phase, dispersion_profile
from .symbols import Cutoff, Symbol, column_wk_inf, cutoff_mask, regularize, \
    seminorm, seminorm_table, transport_symbol, x_derivative, \
    xi_forward_difference

SMALL_DIVISOR_FLOOR = 1e-8
NEUMANN_TOL = 1e-10
NEUMANN_MAX_TERMS = 50
SYMBOL_EXTRACTION_FLOOR = 1e-3
TAMENESS_C = 1.0
NEWTON_TOL = 1e-9
NEWTON_MAX_ITERATIONS = 25

# An increment upturn counts as the differencing noise floor, not a stall,
# only after the ladder has decayed by this factor.
_NOISE_FLOOR_DECAY = 0.1
_DIVERGENT_TAIL = 4.0


@functools.lru_cache(maxsize=16)
def _denominator_table(grid, alpha):
    """den(eta, xi) on the symbol lattice; exact zeros exactly at eta = 0."""
    eta = grid.freqs.astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    table = 1j * (dispersion_phase(xi, alpha) - dispersion_phase(xi + eta, alpha))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _resonance_scale(grid, alpha):
    """|eta| max(|xi|, |xi+eta|)^(alpha-1), the elliptic size of den."""
    eta = grid.freqs.astype(np.float64)[:, None]
    xi = grid.freqs.astype(np.float64)[None, :]
    big = np.maximum(np.abs(xi), np.abs(xi + eta))
    with np.errstate(divide="ignore"):
        table = np.abs(eta) * np.where(big > 0, big ** (alpha - 1.0), 0.0)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=16)
def _lattice_valid(grid):
    """Symbol-layout slots whose output mode xi + eta stays on the lattice."""
    eta = grid.freqs.astype(np.int64)[:, None]
    xi = grid.freqs.astype(np.int64)[None, :]
    shifted = eta + xi
    valid = (shifted >= -grid.n // 2) & (shifted <= grid.n // 2 - 1)
    valid.setflags(write=False)
    return valid


@functools.lru_cache(maxsize=16)
def _pair_denominator(grid, alpha):
    """den on every (output, input) pair: i (f(in) - f(out)).

    Unlike the symbol-layout table this covers the pairs whose eta = out - in
    leaves the lattice too, which the off-support readings need.
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


def _division_zone(grid, cutoff):
    """Slots the commutator equation actually constrains: on the cutoff
    support, eta != 0 (the kernel rows), and with xi + eta on the lattice
    (slots that fall off the lattice never materialize, so a solution is
    kept supported away from them)."""
    mask = cutoff_mask(grid, cutoff) > 0.0
    eta_nonzero = grid.freqs[:, None] != 0
    return mask & eta_nonzero & _lattice_valid(grid)


def ellipticity_bracket(grid, alpha, cutoff=None):
    """(min, max) of |den| / (|eta| max(|xi|,|xi+eta|)^(alpha-1)) on support."""
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    zone = _division_zone(grid, cutoff)
    ratios = np.abs(_denominator_table(grid, alpha)[zone]) / _resonance_scale(grid, alpha)[zone]
    return float(np.min(ratios)), float(np.max(ratios))


def commutator_rank(grid, alpha, cutoff=None):
    """Counts behind the uniqueness statement: on the support the discrete
    commutator map is diagonal with entries den(eta, xi), so its kernel is
    exactly the set of support slots where den vanishes."""
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    support = (cutoff_mask(grid, cutoff) > 0.0) & _lattice_valid(grid)
    den = _denominator_table(grid, alpha)
    eta_zero = grid.freqs[:, None] == 0
    return {
        "support_slots": int(np.count_nonzero(support)),
        "rank": int(np.count_nonzero(support & (den != 0))),
        "kernel_slots": int(np.count_nonzero(support & (den == 0))),
        "eta_zero_slots": int(np.count_nonzero(support & eta_zero)),
    }


@dataclass(frozen=True)
class GaugeSolution:
    """A solved gauge symbol plus the numbers that certify it.

    residual_norm is the largest defect of the solved equation on the
    cutoff support; extras holds each route's certificates and the
    intermediates its callers reuse.
    """

    p: Symbol
    route: str
    residual_norm: float
    iterations: int
    extras: dict = dataclass_field(default_factory=dict)


def _divide_stack(stack, grid, alpha, cutoff):
    """a_hat / den on the division zone, zero elsewhere; leading axes of
    stack are samples."""
    zone = _division_zone(grid, cutoff)
    den = _denominator_table(grid, alpha)
    return np.where(zone, stack / np.where(zone, den, 1.0), 0.0)


def _divide(coeffs, grid, alpha, cutoff):
    """_divide_stack behind the small-divisor guard."""
    zone = _division_zone(grid, cutoff)
    den = _denominator_table(grid, alpha)
    scale = _resonance_scale(grid, alpha)
    tiny = zone & (np.abs(den) < SMALL_DIVISOR_FLOOR * scale)
    if np.any(tiny):
        eta_idx, xi_idx = np.nonzero(tiny)
        eta = int(grid.freqs[eta_idx[0]])
        xi = int(grid.freqs[xi_idx[0]])
        raise SmallDivisor(
            f"|den({eta}, {xi})| below {SMALL_DIVISOR_FLOOR} of its elliptic "
            f"scale; the cutoff does not separate frequencies"
        )
    return _divide_stack(coeffs, grid, alpha, cutoff)


def _support_residual(p_coeffs, dp_coeffs, a_coeffs, grid, alpha):
    """Max entry of (L(p) - sigma_{dt p} - sigma_a) over materializable slots."""
    den = _denominator_table(grid, alpha)
    res = p_coeffs * den - a_coeffs
    if dp_coeffs is not None:
        res = res - dp_coeffs
    return float(np.max(np.abs(np.where(_lattice_valid(grid), res, 0.0))))


def _homogeneous_sup(symbol, weight_order, difference=False):
    """sup over xi != 0 of |xi|^(-weight_order) ||column||_inf.

    With `difference` the columns are forward xi-differences, weighted at
    their base frequency; the top lattice column has no difference and the
    sup ranges over the bases where one is defined.
    """
    if difference:
        coeffs, base = xi_forward_difference(symbol, 1)
    else:
        coeffs, base = symbol.coeffs, symbol.grid.freqs
    keep = base != 0
    norms = column_wk_inf(symbol.grid, coeffs[:, keep], 0)
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

    Both sides are compared on the materializable zone: p only exists at
    pairs whose output frequency stays on the lattice, so a is truncated
    the same way, else the xi differences at the lattice edge compare an
    entry of p against a structural zero and the certificate breaks.
    """
    big_b = cutoff.big_b
    beta = a_reg.order_m
    a_reg = a_reg.copy(
        coeffs=np.where(_lattice_valid(a_reg.grid), a_reg.coeffs, 0.0)
    )
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


def _neumann_series(a_reg, grid, alpha, cutoff):
    """p = -sum_k E(a_k), a_{k+1} = a_k + L(E(a_k)); E the Cole-Hopf division."""
    if not alpha > 1:
        raise ValueError(f"Neumann route needs alpha > 1, got {alpha:g}")
    den = _denominator_table(grid, alpha)
    weight = _cole_hopf_weight(grid, alpha)
    order_p = a_reg.order_m + 1.0 - alpha
    current = np.where(_lattice_valid(grid), a_reg.coeffs, 0.0)
    total = np.zeros_like(current)
    increments = []
    growth_run = 0
    for term in range(1, NEUMANN_MAX_TERMS + 1):
        step = weight * current
        total -= step
        inc = seminorm(Symbol(grid, step, order_m=order_p, cutoff=cutoff), order_m=order_p)
        if increments and inc > increments[-1]:
            growth_run += 1
        else:
            growth_run = 0
        increments.append(inc)
        if growth_run >= 3:
            raise NeumannDivergence(
                f"increments grew for 3 straight terms (last {inc:.3e}); "
                f"raise the cutoff aperture and retry"
            )
        if inc < NEUMANN_TOL:
            return total, term, increments
        current = current + step * den
    return total, NEUMANN_MAX_TERMS, increments


def solve_commutator(a, alpha, cutoff=None, route="explicit_formula"):
    """Solve Op(p) D - D Op(p) = Op(a) for p on the cutoff support.

    The eta = 0 rows of a cannot be matched (they are the kernel of the
    commutator map) and land in residual_norm instead.  Both bounds of
    `commutator_estimates` are certified; a miss raises InvariantBroken.
    """
    if not alpha >= 1:
        raise ValueError(f"need alpha >= 1, got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    if route == "newton":
        return solve_nonlinear_exp(a, alpha, cutoff)
    grid = a.grid
    a_reg = regularize(a, cutoff)
    if route == "explicit_formula":
        p_coeffs = _divide(a_reg.coeffs, grid, alpha, cutoff)
        iterations = 1
        increments = None
    elif route == "neumann_series":
        p_coeffs, iterations, increments = _neumann_series(a_reg, grid, alpha, cutoff)
    else:
        raise ValueError(f"unknown route {route!r}")
    order_p = a_reg.order_m + 1.0 - alpha
    p = Symbol(grid, p_coeffs, order_m=order_p, cutoff=cutoff)
    residual = _support_residual(p_coeffs, None, a_reg.coeffs, grid, alpha)
    estimates = commutator_estimates(p, a_reg, alpha, cutoff)
    for name in ("transport", "xi"):
        lhs, rhs = estimates[f"{name}_lhs"], estimates[f"{name}_rhs"]
        if not lhs <= rhs * (1.0 + 1e-12):
            raise InvariantBroken(
                f"{name} estimate broken: {lhs:.6e} > {rhs:.6e}"
            )
    extras = {"estimates": estimates, "off_support_norm": 0.0}
    if increments is not None:
        extras["increments"] = tuple(increments)
    return GaugeSolution(
        p=p,
        route=route,
        residual_norm=residual,
        iterations=iterations,
        extras=extras,
    )


def cole_hopf_parametrix(a, alpha, cutoff=None):
    """E(a) = (|xi|^(1-alpha) / alpha) d_x^{-1} sigma_a.

    The x-antiderivative zeroes the eta = 0 row (P_0 of d_x^{-1} is zero by
    convention) and the |xi|^(1-alpha) weight zeroes the xi = 0 column.
    """
    if not alpha > 1:
        raise ValueError(f"parametrix needs alpha > 1, got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    grid = a.grid
    a_reg = regularize(a, cutoff)
    coeffs = _cole_hopf_weight(grid, alpha) * a_reg.coeffs
    return Symbol(grid, coeffs, order_m=a_reg.order_m + 1.0 - alpha, cutoff=cutoff)


def parametrix_remainder(a, alpha, cutoff=None):
    """r(a) = a + L(E(a)); the Neumann series contracts when this is small."""
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    grid = a.grid
    a_reg = regularize(a, cutoff)
    e = cole_hopf_parametrix(a_reg, alpha, cutoff)
    den = _denominator_table(grid, alpha)
    return Symbol(grid, a_reg.coeffs + e.coeffs * den, order_m=a_reg.order_m,
                  cutoff=cutoff)


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


def _time_chain(a_stack, dt, grid, alpha, cutoff, order_p, j_max, tol,
                raise_on_stall):
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
    genuine plateau.
    """
    layer = _divide_stack(a_stack, grid, alpha, cutoff)
    total = layer.copy()
    increments = []
    ratios = []
    stall_run = 0
    for _ in range(j_max):
        d_layer = _time_derivative_stack(layer, dt)
        layer_size = _stack_seminorm(layer, grid, order_p)
        ratio = 0.0
        if layer_size > 0.0:
            ratio = _stack_seminorm(d_layer, grid, order_p) / layer_size
        candidate = _divide_stack(d_layer, grid, alpha, cutoff)
        inc = _stack_seminorm(candidate, grid, order_p)
        if inc < tol:
            break
        prev = increments[-1] if increments else layer_size
        if prev > 0.0 and inc >= _DIVERGENT_TAIL * prev:
            if raise_on_stall:
                raise SeriesStalled(
                    f"correction seminorms diverging at {inc:.3e} "
                    f"(ratio {inc / prev:.1f}) above {tol:.1e}"
                )
            break
        if increments and inc >= 0.95 * increments[-1]:
            if min(increments) <= _NOISE_FLOOR_DECAY * increments[0]:
                break
            stall_run += 1
            if stall_run >= 2:
                if raise_on_stall:
                    raise SeriesStalled(
                        f"correction seminorms plateaued at {inc:.3e} "
                        f"(ratio {inc / increments[-1]:.3f}) above {tol:.1e}"
                    )
                break
        else:
            stall_run = 0
        total += candidate
        layer = candidate
        increments.append(inc)
        ratios.append(ratio)
    return total, increments, ratios


def _stack_seminorm(stack, grid, order_m):
    """max over samples of M^m(a_i; 0, 0), one batched iFFT for the stack."""
    return seminorm_table(grid, stack, order_m)[(0, 0)]


def solve_time_dependent(a_samples, dt, alpha, cutoff=None, j_max=8, tol=1e-8,
                         bprime_factor=2.0):
    """Per-sample gauge symbols for a time-sampled right-hand side.

    Solves L(p) - sigma_{d_t p} = sigma_a by the correction ladder of
    _time_chain.  A single sample degenerates to the stationary solve.
    The measured growth ratio max_j M(d_t p_j)/M(p_j) plays the role of
    the time-regularity constant K and is flagged when it reaches alpha.
    """
    if not alpha > 1:
        raise ValueError(f"need alpha > 1, got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    samples = list(a_samples)
    if len(samples) == 1:
        return [solve_commutator(samples[0], alpha, cutoff)]
    if len(samples) < 5:
        raise ValueError(f"need 1 or >= 5 time samples, got {len(samples)}")
    if not dt > 0:
        raise ValueError(f"need dt > 0, got {dt:g}")
    grid = samples[0].grid
    regs = [regularize(s, cutoff) for s in samples]
    a_stack = np.stack([s.coeffs for s in regs])
    order_p = regs[0].order_m + 1.0 - alpha
    p_stack, increments, ratios = _time_chain(
        a_stack, dt, grid, alpha, cutoff, order_p, j_max, tol, raise_on_stall=True
    )
    growth = max(ratios) if ratios else 0.0
    dp_stack = _time_derivative_stack(p_stack, dt)
    big_bprime = bprime_factor * cutoff.big_b
    predicted = growth / (big_bprime * (1.0 - (1.0 - 1.0 / big_bprime) ** alpha))
    solutions = []
    for i, reg in enumerate(regs):
        p = Symbol(grid, p_stack[i], order_m=order_p, cutoff=cutoff)
        residual = _support_residual(p_stack[i], dp_stack[i], reg.coeffs, grid, alpha)
        extras = {
            "increments": tuple(increments),
            "growth_ratios": tuple(ratios),
            "growth_ratio": growth,
            "growth_flagged": bool(growth >= alpha),
            "bprime_factor": bprime_factor,
            "predicted_contraction": predicted,
            "off_support_norm": 0.0,
        }
        solutions.append(
            GaugeSolution(
                p=p,
                route="explicit_formula",
                residual_norm=residual,
                iterations=1 + len(increments),
                extras=extras,
            )
        )
    return solutions


def _extract_pairs(entries, grid, psi_pair):
    """Matrix entries back to symbol layout, divided by psi where it is sound.

    Entries under the extraction floor belong to the residual report, not
    to the symbol.
    """
    sound = psi_pair > SYMBOL_EXTRACTION_FLOOR
    divided = np.divide(entries, psi_pair, out=np.zeros_like(entries),
                        where=sound)
    return scatter_pairs(divided, grid)


def _expm(a):
    """e^a of a square matrix by a scaled, truncated Taylor series.

    B = a / 2^s with ||B||_1 <= 1/2 (s = 0 when a is already that small);
    the degree m is the least with e^{2b} b^{m+1} / (m+1)! <= 2^-53, b =
    ||B||_1, which bounds the truncation error relative to e^B because
    ||e^B|| >= e^{-b}.  The polynomial is evaluated by Horner and squared
    s times.  Both work on X = P(B) - I, squared as (I + X)^2 = I + (2X +
    X^2): adding the identity early would round X to the identity's
    precision, and each squaring doubles that error.  The identity is added
    once, at the end.  The zero matrix gives exactly the identity.
    """
    n = a.shape[0]
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
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


def solve_nonlinear_exp(a, alpha, cutoff=None, smallness=0.05,
                        tol=NEWTON_TOL, max_iterations=NEWTON_MAX_ITERATIONS,
                        initial=None):
    """Newton solve of F(p) = sigma_a with F(p) = -i [expm(i T_p), D].

    The normalization makes D_0 F the linear commutator map, so each step
    is one explicit solve_commutator division and tiny data reproduces the
    linear solution to second order.  The off-support part of the
    commutator is reported, never driven to zero.

    extras["transform"] is expm(i T_p) for the returned p: the very matrix
    the converged Newton step exponentiated, handed on so that callers do
    not exponentiate the same placement again.
    """
    if not alpha >= 1:
        raise ValueError(f"need alpha >= 1, got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    return _newton_exp(a, alpha, cutoff, smallness, tol, max_iterations,
                       initial)


def _newton_exp(a, alpha, cutoff, smallness, tol, max_iterations, initial,
                transform=None):
    """The Newton loop of `solve_nonlinear_exp`.

    transform, when given, is expm(i T_p) of the initial placement, which
    a warm-starting caller already holds; step 0 uses it instead of
    exponentiating the same matrix again.
    """
    grid = a.grid
    a_reg = regularize(a, cutoff)
    measured = seminorm(a_reg, order_m=a_reg.order_m)
    if measured > smallness:
        raise SmallnessViolated(
            f"M^{a_reg.order_m:g}_0(a) = {measured:.3e} exceeds the smallness "
            f"threshold {smallness:g}"
        )
    psi_pair = pair_mask(grid, cutoff)
    support_pairs = psi_pair > SYMBOL_EXTRACTION_FLOOR
    den_pair = _pair_denominator(grid, alpha)
    a_pair = materialize(a_reg, cutoff).entries
    p_coeffs = np.zeros((grid.n, grid.n), dtype=np.complex128)
    if initial is not None:
        p_coeffs = regularize(initial, cutoff).coeffs.copy()
    order_p = a_reg.order_m + 1.0 - alpha
    iterations = 0
    residual = np.inf
    for step in range(max_iterations + 1):
        if step or transform is None:
            p_matrix = materialize(
                Symbol(grid, p_coeffs, order_m=order_p, cutoff=cutoff), cutoff
            )
            transform = _expm(1j * p_matrix.entries)
        commutator = transform * den_pair
        r_pair = -1j * commutator - a_pair
        residual = float(np.max(np.abs(r_pair[support_pairs])))
        if residual < tol:
            iterations = step
            break
        if step == max_iterations:
            raise NewtonDiverged(
                f"residual {residual:.3e} after {max_iterations} Newton steps"
            )
        r_coeffs = _extract_pairs(r_pair, grid, psi_pair)
        p_coeffs = p_coeffs - _divide(r_coeffs, grid, alpha, cutoff)
    p = Symbol(grid, p_coeffs, order_m=order_p, cutoff=cutoff)
    off_support = np.where(psi_pair == 0.0, commutator, 0.0)
    extras = {
        "off_support_norm": float(np.max(np.abs(off_support))),
        "smallness": {
            "threshold": smallness,
            "measured": measured,
            "margin": smallness - measured,
        },
        "transform": transform,
    }
    return GaugeSolution(
        p=p,
        route="newton",
        residual_norm=residual,
        iterations=iterations,
        extras=extras,
    )


def _check_tameness(a_stack, dt, grid, alpha, cutoff, u_sup, tameness_c):
    """Time derivatives of the transport symbol must cost alpha orders each."""
    report = {}
    stack = a_stack
    for j in (1, 2):
        stack = _time_derivative_stack(stack, dt)
        order_j = (j + 1) * alpha - 1.0
        measured = _stack_seminorm(stack, grid, order_j)
        bound = tameness_c * u_sup * (2.0 ** j + 1.0)
        report[j] = (measured, bound)
        if measured > bound:
            raise TamenessViolated(
                f"M^{order_j:g}_0(d_t^{j} sigma) = {measured:.3e} exceeds "
                f"{bound:.3e} (ratio {measured / bound:.2f})"
            )
    return report


def solve_conjugating(u_fields, dt, alpha, cutoff=None, j_max=8, tol=1e-8,
                      max_iterations=25, smallness=0.05, tameness_c=TAMENESS_C):
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
    """
    if not alpha > 2:
        raise ValueError(f"conjugating gauge needs alpha > 2, got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    fields = list(u_fields)
    if len(fields) < 5:
        raise ValueError(f"need >= 5 trajectory samples, got {len(fields)}")
    if not dt > 0:
        raise ValueError(f"need dt > 0, got {dt:g}")
    grid = fields[0].grid
    transport = [regularize(transport_symbol(u) * 1j, cutoff) for u in fields]
    a_stack = np.stack([s.coeffs for s in transport])
    u_sup = max(float(np.max(np.abs(u.physical()))) for u in fields)
    tameness = _check_tameness(a_stack, dt, grid, alpha, cutoff, u_sup, tameness_c)
    transport_mats = [materialize(s, cutoff).entries for s in transport]
    psi_pair = pair_mask(grid, cutoff)
    support_pairs = psi_pair > SYMBOL_EXTRACTION_FLOOR
    den_pair = _pair_denominator(grid, alpha)
    order_p = 2.0 - alpha

    guess = guess_transform = None
    p_stack = np.zeros((len(fields), grid.n, grid.n), dtype=np.complex128)
    w_stack = np.empty_like(p_stack)
    for i, sym in enumerate(transport):
        # sample i starts from p_{i-1}, whose exponential is already known
        sol = _newton_exp(1j * sym, alpha, cutoff, smallness, NEWTON_TOL,
                          NEWTON_MAX_ITERATIONS, guess, guess_transform)
        guess, guess_transform = sol.p, sol.extras["transform"]
        p_stack[i] = sol.p.coeffs
        w_stack[i] = sol.extras["transform"]

    iterations = 0
    residuals = None
    g_stack = None
    for step in range(max_iterations + 1):
        g_stack = _time_derivative_stack(w_stack, dt)
        for i, w in enumerate(w_stack):
            g_stack[i] -= w * den_pair
            g_stack[i] -= w @ transport_mats[i]
        residuals = np.max(np.abs(g_stack[:, support_pairs]), axis=1).tolist()
        if max(residuals) < tol:
            iterations = step
            break
        if step == max_iterations:
            raise NewtonDiverged(
                f"conjugating residual {max(residuals):.3e} after "
                f"{max_iterations} Newton sweeps"
            )
        rhs = np.stack([
            -1j * _extract_pairs(g_stack[i], grid, psi_pair)
            for i in range(len(fields))
        ])
        correction, _, _ = _time_chain(
            rhs, dt, grid, alpha, cutoff, order_p, j_max, tol * 0.1,
            raise_on_stall=False,
        )
        # W A feeds the diagonal pairs at second order, where the commutator
        # vanishes and the linearization is the ODE -d_t h = rhs.  Integrate
        # it with h = 0 at the first sample (the x-mean gauge choice there);
        # repeated sweeps tighten the integral to stencil consistency.
        correction[:, 0, :] -= cumulative_trapezoid(
            rhs[:, 0, :], dx=dt, axis=0, initial=0
        )
        p_stack = p_stack + correction
        for i, p_coeffs in enumerate(p_stack):
            w_stack[i] = _expm(1j * gather_pairs(p_coeffs, grid))

    off_support = np.max(np.abs(g_stack[:, psi_pair == 0.0]), axis=1,
                         initial=0.0).tolist()
    solutions = []
    for i in range(len(fields)):
        p = Symbol(grid, p_stack[i], order_m=order_p, cutoff=cutoff)
        extras = {
            "off_support_norm": off_support[i],
            "tameness": tameness,
            "w_stack": w_stack,
            "g_stack": g_stack,
        }
        solutions.append(
            GaugeSolution(
                p=p,
                route="newton",
                residual_norm=residuals[i],
                iterations=iterations,
                extras=extras,
            )
        )
    return solutions
