"""Composite studies that tie the whole stack to observable quantities:
conservation diagnostics, the gauged energy estimate, the conjugation
residual, and wave-breaking scans over grids of runs.

The studies consume trajectories from `solver.run` and reduce them to
`EstimateReport`s; a scan drives the solver's stacked loop directly and
keeps only detector readings.  Fitted constants are envelope fits, mean plus three
standard deviations of the log-ratios, so a `bounded` verdict means no
sample escapes the ensemble's own envelope; the maximum ratio is kept
alongside to expose single-sample violations.  Wave-breaking outcomes
are observations, never assertions: a scan cell only turns inconclusive
when grid refinement cannot agree on its classification.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantBroken
from .gauge import (
    _expm, _time_derivative_stack, solve_commutator, solve_conjugating
)
from .normalform import normal_form_coeffs
from .paraop import (
    DEFAULT_CUTOFF_ARGS, OperatorMatrix, adjoint_star, dealias_product,
    materialize, order_probe, pair_mask, product_coeffs, product_tables
)
from .solver import (
    BLOWUP_LIPSCHITZ, BLOWUP_SUP_FACTOR, SimConfig, Trajectory, _advance,
    default_dt, initial_field
)
from .spectral import (
    Field, Grid, abs_d_pow, bessel_pow, derivative, dispersion_profile,
    homogeneous_sobolev_norm, l2_norm, linf_norm, multiplier_apply,
    multiplier_values, sobolev_norm, sobolev_norms
)
from .symbols import Cutoff, transport_symbol

VERDICTS = ("bounded", "violated", "inconclusive")
ENVELOPE_SIGMAS = 3.0
HERMITIAN_TOL = 1e-9
SKEW_TOL = 1e-8
EQUIVALENCE_BOUND = 2.0
SMALLNESS = 0.05
ELLIPTIC_C = 2.0
ORDER_BOUND = 0.2
ENSEMBLE_FAMILIES = ("cos1", "cos_mix", "bump", "random")
ENSEMBLE_AMPLITUDES = (1e-6, 3e-6, 1e-5)
GROWTH_FACTOR = 1e3
QUIET_FACTOR = 3.0


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar health readings of one state.

    `weak_criterion` is the sup norm of |D|^(2-alpha) applied to the
    dealiased square: the quantity whose time integral controls growth
    for 1 < alpha < 2 and whose divergence marks wave breaking.
    """

    t: float
    mass: float
    hamiltonian: float
    sobolev_norms: dict
    lipschitz: float
    weak_criterion: float
    sup_norm: float

    def __post_init__(self):
        values = [self.t, self.mass, self.hamiltonian, self.lipschitz,
                  self.weak_criterion, self.sup_norm,
                  *self.sobolev_norms.values()]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("diagnostics of a live run must be finite")


@dataclass(frozen=True)
class EstimateReport:
    """Envelope summary of a ratio study over an ensemble."""

    fitted_constant: float
    max_ratio: float
    ensemble_size: int
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "bounded") != \
                (self.max_ratio <= self.fitted_constant):
            raise ValueError(
                f"verdict {self.verdict!r} contradicts max ratio "
                f"{self.max_ratio:.3e} against envelope "
                f"{self.fitted_constant:.3e}"
            )


@dataclass(frozen=True)
class ScanCell:
    """One (family, alpha, amplitude) cell of a wave-breaking scan.

    Growth factors are from the fine grid; `outcome` is the shared
    classification or `inconclusive` when the two grids disagree.
    """

    family: str
    alpha: float
    amplitude: float
    coarse: str
    fine: str
    outcome: str
    lip_growth: float
    sup_growth: float


def _sample_spacing(times):
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 5:
        raise ValueError(f"need >= 5 trajectory samples, got {len(times)}")
    gaps = np.diff(times)
    if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError("study trajectories must be uniformly sampled")
    return float(gaps[0])


def _trajectories(traj):
    if isinstance(traj, Trajectory):
        return [traj]
    return list(traj)


def _envelope_fit(ratios, sigmas=ENVELOPE_SIGMAS):
    """(envelope, max) of a ratio sample; zeros stay out of the log fit."""
    ratios = np.asarray(list(ratios), dtype=np.float64)
    top = float(np.max(ratios)) if ratios.size else 0.0
    positive = ratios[ratios > 0.0]
    if positive.size == 0:
        return 0.0, top
    logs = np.log(positive)
    envelope = float(np.exp(np.mean(logs) + sigmas * np.std(logs)))
    return envelope, top


def diagnostics(u, alpha, s_list=(2.0,), t=0.0):
    """All scalar readings of a state in one record."""
    mass = l2_norm(u) ** 2
    quad = homogeneous_sobolev_norm(u, 0.5 * (alpha - 1.0)) ** 2
    cubic = 2.0 * np.pi / u.grid.n * float(np.sum(u.physical() ** 3)) / 3.0
    square = dealias_product(u, u)
    return DiagnosticsRecord(
        t=float(t),
        mass=mass,
        hamiltonian=quad + cubic,
        sobolev_norms={float(s): sobolev_norm(u, float(s)) for s in s_list},
        lipschitz=linf_norm(multiplier_apply(u, derivative())),
        weak_criterion=linf_norm(
            multiplier_apply(square, abs_d_pow(2.0 - float(alpha)))
        ),
        sup_norm=linf_norm(u),
    )


def diagnostics_csv(records, times=None):
    """CSV text, one row per sample; `times` overrides the stored t."""
    records = list(records)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    s_keys = sorted(records[0].sobolev_norms) if records else [2.0]
    writer.writerow(
        ["t", "mass", "hamiltonian", *[f"H{s:g}" for s in s_keys],
         "lipschitz", "weak_criterion", "sup"]
    )
    for i, rec in enumerate(records):
        t = rec.t if times is None else float(times[i])
        writer.writerow([
            repr(float(t)), repr(rec.mass), repr(rec.hamiltonian),
            *[repr(rec.sobolev_norms[s]) for s in s_keys],
            repr(rec.lipschitz), repr(rec.weak_criterion),
            repr(rec.sup_norm),
        ])
    return buffer.getvalue()


def standard_ensemble(n_points, alpha, t_end, dt=None, stride=1,
                      amplitudes=ENSEMBLE_AMPLITUDES,
                      equation="paralinear", seed=0, cutoff=None):
    """The run grid: every initial family at every amplitude, so
    len(ENSEMBLE_FAMILIES) * len(amplitudes) members (12 by default).

    The families are band-limited, so a fine cutoff can leave transport
    with nothing to act on: at N=64 with the default Cutoff(8, 2) the cos1,
    cos_mix and random spectra stay within |xi| <= 10 while T_u d_x u needs
    |xi| >= 11, and only the bump member sees transport at all.
    """
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if cutoff is None else cutoff
    return tuple(
        SimConfig(n_points=n_points, alpha=alpha, t_end=t_end,
                  equation=equation, cutoff=cutoff, dt=dt, init=family,
                  amplitude=amp, seed=seed, stride=stride)
        for family in ENSEMBLE_FAMILIES for amp in amplitudes
    )


# -- energy estimate --------------------------------------------------------

def _gauge_generator(u, alpha, cutoff):
    """The hermitian gauge generator for one state.

    The dispersive multiplier in the commutator equation already carries
    the factor i, so the right-hand side producing a hermitian generator
    is -(sigma + sigma*), without a further -i.
    """
    sigma = transport_symbol(u)
    rhs = (sigma + adjoint_star(sigma, 2)) * (-1.0)
    solution = solve_commutator(rhs, alpha, cutoff)
    return materialize(solution.p, cutoff).entries, sigma


def _skew_gap(gauge, transported):
    """Skew-hermitian defect max |C + C^*| of the conjugated bracket.

    C = int_0^1 e^{-irG} [G, T] e^{irG} dr is taken in closed form: the
    integrand is i d/dr (e^{-irG} T e^{irG}), so C = i (e^{-iG} T e^{iG} - T)
    for any square G, hermitian or not.
    """
    conjugated = 1j * (
        _expm(-1j * gauge) @ transported @ _expm(1j * gauge) - transported
    )
    return float(np.max(np.abs(conjugated + conjugated.conj().T)))


def _cancellation_check(u, alpha, cutoff):
    """Hermiticity of the generator and skewness of the conjugated bracket.

    Hermiticity is asserted on the deep pairs, where the cutoff weighs
    both orderings of a pair at full strength; the transition ring mixes
    weights and is exact only in the continuum limit.  The bracket uses
    the operator adjoint T, which is hermitian by construction, and the
    identity int_0^1 e^{-irG} [G, T] e^{irG} dr = i (e^{-iG} T e^{iG} - T)
    (see `_skew_gap`), so the conjugated integral inherits skewness up to
    the non-hermitian part of G.  Both G and T are linear in the state, so
    the skew gap scales like the amplitude squared.
    """
    grid = u.grid
    gauge, sigma = _gauge_generator(u, alpha, cutoff)
    psi = pair_mask(grid, cutoff)
    deep = (psi == 1.0) & (psi.T == 1.0)
    hermitian_gap = float(np.max(np.abs((gauge - gauge.conj().T)[deep])))
    if hermitian_gap > HERMITIAN_TOL:
        raise InvariantBroken(
            f"gauge generator fails hermiticity on the deep pairs: "
            f"{hermitian_gap:.3e} > {HERMITIAN_TOL:g}"
        )
    half = materialize(sigma, cutoff).entries
    skew_gap = _skew_gap(gauge, half + half.conj().T)
    if skew_gap > SKEW_TOL:
        raise InvariantBroken(
            f"conjugated bracket fails skewness: {skew_gap:.3e} > "
            f"{SKEW_TOL:g}"
        )
    return hermitian_gap, skew_gap


def _energy_cell(traj, s, alpha, cutoff):
    """The ratios of one trajectory, its samples reduced as the rows of
    one (T, N) coefficient stack.

    Each row gets the arithmetic of a lone sample: v = <D>^s u, w, their
    norms, and the weight ||d_x |D|^(1-alpha) (u^2)||_inf ||v||.  The
    stack is read as real when every state is marked real.
    """
    h = _sample_spacing(traj.times)
    states = traj.states
    grid = states[0].grid
    real = all(u.is_real for u in states)
    u_stack = np.stack([u.spectral for u in states])
    v_stack = multiplier_values(grid, bessel_pow(s)) * u_stack
    w_stack = normal_form_coeffs(grid, u_stack, v_stack, s, alpha, cutoff)
    v_norms = sobolev_norms(grid, v_stack, 0.0)
    w_norms = sobolev_norms(grid, w_stack, 0.0)

    critical = max(0.0, 1.5 - alpha) + 0.01
    if np.max(sobolev_norms(grid, u_stack, critical)) <= SMALLNESS:
        for vn, wn in zip(v_norms, w_norms):
            if vn == 0.0:
                continue
            equivalence = max(wn / vn, vn / wn)
            if equivalence > EQUIVALENCE_BOUND:
                raise InvariantBroken(
                    f"transform equivalence constant {equivalence:.3f} "
                    f"exceeds {EQUIVALENCE_BOUND:g} on small data"
                )

    rates = _time_derivative_stack(w_norms, h)
    square = product_coeffs(grid, u_stack, u_stack, (real, real))
    smoothed = multiplier_values(grid, abs_d_pow(1.0 - alpha)) * square
    slopes = np.fft.ifft(product_tables(grid)[0] * smoothed, axis=-1) * grid.n
    peaks = np.max(np.abs(slopes.real if real else slopes), axis=-1)
    weights = peaks * v_norms
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(rates) / weights
    ratios = np.where(weights == 0.0, np.where(rates == 0.0, 0.0, np.inf),
                      ratios)

    _cancellation_check(states[len(states) // 2], alpha, cutoff)
    return ratios


def energy_estimate_study(traj, s, alpha, c=None):
    """Ratio study of the transformed unknown's energy growth.

    Per sample: v = <D>^s u, w = normal_form(u, v), and the ratio
    |d/dt ||w||| / (||d_x |D|^(1-alpha) u^2||_inf ||v||) is collected;
    the report's envelope covers all samples of all trajectories.  Each
    trajectory is reduced as one (T, N) stack of its samples' coefficients,
    with every sample's arithmetic that of a lone state.  Each trajectory
    also passes the structural certificates: the gauge
    generator is hermitian on the deep pairs, the conjugated bracket is
    skew-hermitian, and w stays norm-equivalent to v on small data.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"energy study needs alpha in (1, 2), got {alpha:g}")
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if c is None else c
    trajectories = _trajectories(traj)
    per_cell = [_energy_cell(tr, float(s), float(alpha), cutoff)
                for tr in trajectories]
    ratios = [r for cell in per_cell for r in cell]
    envelope, top = _envelope_fit(ratios)
    verdict = "bounded" if top <= envelope else "violated"
    return EstimateReport(envelope, top, len(trajectories), verdict)


# -- conjugation ------------------------------------------------------------

def residual_order(residual_matrix, cutoff=None):
    """Order fit of the residual operator on wave packets.

    With a cutoff given, the probe bands are pushed above its activation
    threshold for unit frequency shifts; a packet below that threshold
    only sees the probe's noise floor and poisons the slope.
    """
    if cutoff is None:
        return order_probe(residual_matrix)
    n = residual_matrix.grid.n
    low = int(math.ceil(cutoff.big_b + cutoff.little_b)) + 6
    high = min(2 * low, n // 2 - 16)
    if high <= low:
        return order_probe(residual_matrix)
    return order_probe(residual_matrix, centers=[low, high])


def _conjugation_cell(traj, alpha, cutoff, s_probes, elliptic_c):
    h = _sample_spacing(traj.times)
    states = traj.states
    grid = states[0].grid
    # the study's transform is the gauge's own unmasked W_i, so it inherits
    # the residual certificate of solve_conjugating exactly
    extras = solve_conjugating(states, h, alpha, cutoff)[0].extras
    u_stack = np.stack([u.spectral for u in states])
    w_stack = np.einsum("tij,tj->ti", extras["w_stack"], u_stack)
    profile = dispersion_profile(grid, alpha)
    r_stack = (_time_derivative_stack(w_stack, h)
               + w_stack * (1j * profile)[None, :])

    w_fields = [Field(grid, w, is_real=False, _validate=False)
                for w in w_stack]
    r_fields = [Field(grid, r, is_real=False, _validate=False)
                for r in r_stack]

    ratios = []
    for u, w_field, r_field in zip(states, w_fields, r_fields):
        mean_mass = math.sqrt(2.0 * math.pi) * abs(u.coefficient(0))
        for s in s_probes:
            w_size = sobolev_norm(w_field, s)
            r_size = sobolev_norm(r_field, s)
            if w_size == 0.0:
                if r_size > 0.0:
                    raise InvariantBroken("residual without a transform")
                continue
            ratios.append(r_size / w_size)
            recovery = sobolev_norm(u, s) / (w_size + mean_mass)
            if recovery > elliptic_c:
                raise InvariantBroken(
                    f"ellipticity constant {recovery:.3f} exceeds "
                    f"{elliptic_c:g} at s = {s:g}"
                )

    # the order is an operator property; probe the defining equation's
    # residual as a matrix instead of trusting the state's thin spectrum
    residual_entries = extras["g_stack"][len(states) // 2]
    if not np.any(np.abs(residual_entries) > 0.0):
        return ratios, None
    estimate = residual_order(
        OperatorMatrix(grid, residual_entries, "conjugation residual"), cutoff
    )
    return ratios, estimate


def conjugation_study(traj, alpha, c=None, s_probes=(0.0, 1.0, 2.0),
                      elliptic_c=ELLIPTIC_C):
    """Residual study of the conjugating gauge along trajectories.

    Builds the gauge, forms w(t), and differences it in time against the
    dispersive flow: what remains should act like an operator of order
    at most `ORDER_BOUND` on w, with Sobolev ratios ||r||_s / ||w||_s
    under a uniform envelope across `s_probes`, and the transform must
    stay invertible (u recoverable from w and its mean).  A failed order
    fit voids the envelope: no constant is certified then.
    """
    if not 2.0 < alpha < 3.0:
        raise ValueError(
            f"conjugation study needs alpha in (2, 3), got {alpha:g}"
        )
    cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS) if c is None else c
    trajectories = _trajectories(traj)
    per_cell = [_conjugation_cell(tr, float(alpha), cutoff, tuple(s_probes),
                                  float(elliptic_c))
                for tr in trajectories]
    ratios = [r for cell, _ in per_cell for r in cell]
    orders = [est.slope for _, est in per_cell if est is not None]
    worst_order = max(orders) if orders else 0.0
    envelope, top = _envelope_fit(ratios)
    if worst_order > ORDER_BOUND:
        return EstimateReport(0.0, max(top, np.finfo(float).tiny),
                              len(trajectories), "violated")
    verdict = "bounded" if top <= envelope else "violated"
    return EstimateReport(envelope, top, len(trajectories), verdict)


# -- wave-breaking scans ----------------------------------------------------

def _growth_classification(peaks, blowup):
    """Blow-up class from recorded growth plus the detector's verdict.

    peaks are a run's (lipschitz, sup) readings at its recorded samples,
    from t = 0, and blowup its detector's reason.  The detector sees every
    step while the record is stride-censored, so a tripped run credits
    the growth its trigger guarantees: the sup trigger fires at
    BLOWUP_SUP_FACTOR times the initial sup norm, the gradient trigger at
    an absolute BLOWUP_LIPSCHITZ.  A non-finite state is counted as
    amplitude divergence, since overflow needs astronomically large values.
    """
    initial_lip, initial_sup = peaks[0]
    lips = np.array([rec[0] for rec in peaks])
    sups = np.array([rec[1] for rec in peaks])
    lip_growth = float(np.max(lips) / initial_lip)
    sup_growth = float(np.max(sups) / initial_sup)
    if blowup == "lipschitz":
        lip_growth = max(lip_growth, BLOWUP_LIPSCHITZ / initial_lip)
    elif blowup in ("sup_norm", "nan"):
        sup_growth = max(sup_growth, BLOWUP_SUP_FACTOR)
    if lip_growth >= GROWTH_FACTOR and sup_growth < QUIET_FACTOR:
        label = "lipschitz"
    elif sup_growth >= GROWTH_FACTOR:
        label = "sup_norm"
    elif lip_growth >= GROWTH_FACTOR:
        # gradient blew a thousandfold while the amplitude only drifted
        label = "lipschitz"
    else:
        label = "none"
    return label, lip_growth, sup_growth


def _scan_run(family, cells, n_points, t_end, seed, dt):
    """(label, lip_growth, sup_growth) of every (alpha, amplitude) cell on
    one grid, all cells integrated as the rows of one stack.

    Each row keeps only its detector readings, not its states.
    """
    grid = Grid(n_points)
    cfgs, states, hs = [], [], []
    for alpha, amplitude in cells:
        base = dict(n_points=n_points, alpha=alpha, t_end=t_end,
                    equation="full", init=family, amplitude=amplitude,
                    seed=seed)
        state = initial_field(grid, family, amplitude, seed)
        step_dt = dt if dt is not None else default_dt(SimConfig(**base),
                                                       state)
        count = max(1, math.ceil(t_end / step_dt))
        cfgs.append(SimConfig(**base, dt=step_dt, stride=max(1, count // 256)))
        states.append(state)
        hs.append(step_dt)

    peaks = [[] for _ in cells]

    def keep(row, t, coeffs, reading):
        peaks[row].append(reading)

    ends = _advance(cfgs, states, hs, keep)
    return [_growth_classification(readings, blowup)
            for readings, (blowup, _) in zip(peaks, ends)]


def blowup_scan(family, alpha_list, amplitude_list, n_pair=(512, 1024),
                t_end=10.0, seed=0, dt=None):
    """Classify (alpha, amplitude) cells of one family on two grids.

    Each cell runs the full equation on both grids of `n_pair` until
    t_end or the solver's divergence detector trips, then classifies
    growth; the cell's outcome is the shared label, or `inconclusive`
    when the grids disagree.  Outcomes are recorded, never judged.

    Every cell picks its own step on each grid (`default_dt` unless dt is
    given), and all cells of one grid advance together as the rows of
    one stacked integration, one RK4 loop per grid; a row leaves the
    stack when its run ends or trips.
    """
    coarse_n, fine_n = n_pair
    cells = [(alpha, amplitude) for alpha in alpha_list
             for amplitude in amplitude_list]
    coarse = _scan_run(family, cells, coarse_n, t_end, seed, dt)
    fine = _scan_run(family, cells, fine_n, t_end, seed, dt)
    return [
        ScanCell(family=family, alpha=float(alpha),
                 amplitude=float(amplitude), coarse=low, fine=high,
                 outcome=low if low == high else "inconclusive",
                 lip_growth=lip_growth, sup_growth=sup_growth)
        for (alpha, amplitude), (low, _, _), (high, lip_growth, sup_growth)
        in zip(cells, coarse, fine)
    ]


def monotonicity_violations(cells):
    """Blow-up at some amplitude but not at a larger one, per (family, alpha).

    Inconclusive cells separate nothing; violations are reported for the
    caller to display, not raised.
    """
    blowing = ("lipschitz", "sup_norm")
    by_group = {}
    for cell in cells:
        by_group.setdefault((cell.family, cell.alpha), []).append(cell)
    violations = []
    for group in by_group.values():
        group.sort(key=lambda cell: cell.amplitude)
        for i, low in enumerate(group):
            if low.outcome not in blowing:
                continue
            for high in group[i + 1:]:
                if high.outcome == "none":
                    violations.append((low.family, low.alpha,
                                       low.amplitude, high.amplitude))
    return violations


def scan_csv(cells):
    """CSV text of a scan, one row per cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["family", "alpha", "amplitude", "coarse", "fine",
                     "outcome", "lip_growth", "sup_growth"])
    for cell in cells:
        writer.writerow([
            cell.family, repr(cell.alpha), repr(cell.amplitude),
            cell.coarse, cell.fine, cell.outcome,
            repr(cell.lip_growth), repr(cell.sup_growth),
        ])
    return buffer.getvalue()
