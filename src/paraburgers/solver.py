"""Time integration of the dispersive Burgers flow on the torus.

Both forms of the equation,

    full:        d_t u + u d_x u + d_x |D|^(alpha-1) u = 0,
    paralinear:  d_t u + T_u d_x u + d_x |D|^(alpha-1) u = 0,

are integrated with an integrating-factor RK4 scheme: the stiff linear
part is folded into the exact propagator exp(-i dt xi |xi|^(alpha-1)),
which is unimodular, and the classical Runge-Kutta stages see only the
nonlinearity in the rotated frame.  Free evolution is therefore exact to
round-off and conservation tests are sharp: every drift they measure
comes from the nonlinear stages.

The four stages of `step` pass coefficient arrays; only the new state is
wrapped in a `Field`.  The half and full propagators of each (grid,
alpha, dt) and the grid's i xi and 2/3 mask are read-only cached tables.
The paralinear right-hand side -T_u d_x u is `paraop.paraproduct(u,
d_x u, cutoff)`, a windowed sum over the cone band of the cutoff: one
(N x (2 reach + 1)) multiply of the input's sliding windows by a cached
cutoff table and one matrix-vector product, with no N x N operator.  The
full one is the (by default 2/3-dealiased) pointwise product -u d_x u of
`paraop.product_coeffs`, whose two inverse FFTs run as one batch.

Blow-up handling is detection, not continuation: a NaN, a sup-norm
pile-up, or a Lipschitz spike truncates the run and flags the
trajectory.  The sup and Lipschitz readings of a state come from one
batched inverse FFT of [i xi v, v], and the trajectory keeps them for
every recorded sample.  No viscous regularization is attempted; past
wave breaking the spectral representation is meaningless anyway.

The rescaling map realizes the paper-counterpart symmetry so that its
homogeneous-norm law ||u_lam||_{H^s} = lam^(alpha+s-3/2) ||u||_{H^s}
holds verbatim on the torus: coefficients move from mode k to mode
lam*k and pick up the factor lam^(alpha-3/2) (the half power that the
measure change contributes on the line is folded into the coefficients,
since relabeling on a fixed torus has no measure to stretch).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantBroken, NanDetected, SpectrumOverflow
from .paraop import DEFAULT_CUTOFF_ARGS, paraproduct, product_coeffs, \
    product_tables
from .spectral import Field, Grid, dispersion_profile, \
    homogeneous_sobolev_norm, linf_norm
from .symbols import Cutoff

EQUATIONS = ("full", "paralinear")
INITIAL_FAMILIES = ("cos1", "cos_mix", "bump", "random")

BLOWUP_SUP_FACTOR = 1e6
BLOWUP_LIPSCHITZ = 1e8
STEP_DOUBLING_TOL = 1e-8
LOW_MODE_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """One run of either equation; dt = None means the resolution default."""

    n_points: int
    alpha: float
    t_end: float
    equation: str = "full"
    cutoff: Cutoff = Cutoff(*DEFAULT_CUTOFF_ARGS)
    dt: float = None
    dealias: bool = True
    init: str = "cos1"
    amplitude: float = 0.01
    seed: int = 0
    stride: int = 1

    def __post_init__(self):
        if not 1.0 < self.alpha <= 3.0:
            raise ValueError(f"alpha must lie in (1, 3], got {self.alpha}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.init not in INITIAL_FAMILIES:
            raise ValueError(f"unknown initial condition family {self.init!r}")
        if self.dt is not None:
            if not self.dt > 0:
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.t_end < self.dt:
                raise ValueError(
                    f"t_end = {self.t_end} shorter than one step dt = {self.dt}"
                )
        elif not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of a run; truncated early iff blowup is set.

    peaks holds the blow-up detector's (lipschitz, sup) readings,
    ||d_x u||_inf and ||u||_inf, of each recorded state; a trajectory
    assembled by hand may leave it empty.
    """

    times: np.ndarray
    states: tuple
    diagnostics: tuple = ()
    blowup: str = None
    low_mode_residual: float = 0.0
    peaks: tuple = ()

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if times[0] != 0.0:
            raise ValueError(f"trajectories start at t = 0, got {times[0]}")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sample times must increase strictly")
        if len(self.states) != len(times):
            raise ValueError("one state per sample time required")
        if self.peaks and len(self.peaks) != len(times):
            raise ValueError("one detector reading per sample time required")
        grid = self.states[0].grid
        for state in self.states:
            if state.grid != grid:
                raise ValueError("trajectory states live on mixed grids")
            if not np.all(np.isfinite(state.spectral)):
                raise ValueError("trajectory retains only finite states")

    def final(self):
        return self.states[-1]


def initial_field(grid, name, amplitude, seed=0):
    """The named initial-condition families, peak-normalized to amplitude."""
    x = grid.x
    if name == "cos1":
        values = np.cos(x)
    elif name == "cos_mix":
        values = np.cos(x) + 0.3 * np.sin(2.0 * x)
    elif name == "bump":
        values = np.exp(-4.0 * (x - np.pi) ** 2)
        values -= np.mean(values)
    elif name == "random":
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(grid.n, dtype=np.complex128)
        for xi in range(1, min(grid.n // 6, 24) + 1):
            c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + xi)
            coeffs[grid.index_of(xi)] = c
            coeffs[grid.index_of(-xi)] = np.conj(c)
        field = Field(grid, coeffs, is_real=True, _validate=False)
        return field * (float(amplitude) / linf_norm(field))
    else:
        raise ValueError(f"unknown initial condition family {name!r}")
    field = Field.from_physical(grid, values)
    if name == "bump":
        # band-limit so the cubed field still fits the lattice
        keep = np.abs(grid.freqs) <= grid.n // 3
        field = Field(grid, np.where(keep, field.spectral, 0.0),
                      is_real=True, _validate=False)
    peak = linf_norm(field)
    return field * (float(amplitude) / peak)


def _nonlinearity(cfg, grid, real):
    """-u d_x u (full, dealiased on request) or -T_u d_x u (paralinear),
    from and to coefficient arrays of a real or complex state."""
    ixi = product_tables(grid)[0]
    if cfg.equation == "full":
        def rhs(v):
            return product_coeffs(grid, v, ixi * v, (real, real),
                                  cfg.dealias) * -1.0
    else:
        cutoff = cfg.cutoff

        def rhs(v):
            u = Field(grid, v, real, _validate=False)
            ux = Field(grid, ixi * v, real, _validate=False)
            return paraproduct(u, ux, cutoff).spectral * -1.0
    return rhs


@functools.lru_cache(maxsize=16)
def propagators(grid, alpha, h):
    """Read-only (exp(-i h f / 2), exp(-i h f)) on the retained modes."""
    phase = dispersion_profile(grid, alpha)
    half = np.exp(-0.5j * h * phase)
    full = np.exp(-1.0j * h * phase)
    half.setflags(write=False)
    full.setflags(write=False)
    return half, full


def step(state, cfg, dt=None, nonlinear=True):
    """One integrating-factor RK4 step; nonlinear=False is the free flow."""
    grid = state.grid
    h = cfg.dt if dt is None else dt
    if h is None or not h > 0:
        raise ValueError(f"need a positive step size, got {h}")
    half, full = propagators(grid, cfg.alpha, h)

    v = state.spectral
    if not nonlinear:
        out = full * v
    else:
        rhs = _nonlinearity(cfg, grid, state.is_real)
        n1 = rhs(v)
        n2 = rhs(half * (v + 0.5 * h * n1))
        n3 = rhs(half * v + 0.5 * h * n2)
        n4 = rhs(full * v + h * half * n3)
        out = full * v + (h / 6.0) * (full * n1 + 2.0 * half * (n2 + n3) + n4)
    if not np.all(np.isfinite(out)):
        raise NanDetected(f"non-finite coefficients after a step of {h:g}")
    return Field(grid, out, state.is_real, _validate=False)


def default_dt(cfg, state):
    """Resolution default 0.5 (N/2)^-alpha 2 pi, halved until one step and
    two half steps agree to the step-doubling tolerance."""
    h = 0.5 * (state.grid.n / 2.0) ** (-cfg.alpha) * 2.0 * np.pi
    for _ in range(20):
        coarse = step(state, cfg, dt=h)
        fine = step(step(state, cfg, dt=0.5 * h), cfg, dt=0.5 * h)
        gap = float(np.max(np.abs(coarse.spectral - fine.spectral)))
        if gap <= STEP_DOUBLING_TOL:
            break
        h *= 0.5
    return h


def _free_band(cutoff):
    # transport output modes satisfy |m| > b, so |m| <= floor(b) stay free
    return int(np.floor(cutoff.little_b))


def _peaks(state):
    """The detector's (lipschitz, sup) = (||d_x u||_inf, ||u||_inf), from
    one batched inverse FFT of [i xi v, v]."""
    grid = state.grid
    v = state.spectral
    rows = np.fft.ifft(np.stack((product_tables(grid)[0] * v, v)),
                       axis=-1) * grid.n
    if state.is_real:
        rows = rows.real
    lip, sup = np.max(np.abs(rows), axis=-1)
    return float(lip), float(sup)


def run(cfg, diagnose=None, initial=None):
    """Integrate to t_end, recording every stride-th sample and the last.

    diagnose(u) is called at recorded samples and its results collected;
    the detector's readings of the same samples are kept as peaks.
    A NaN, sup-norm, or Lipschitz trigger truncates the trajectory and
    sets its blowup reason.  For paralinear runs the modes below the
    cutoff floor never see the transport term; their deviation from the
    free flow is tracked and must stay at round-off.
    """
    grid = Grid(cfg.n_points)
    if initial is None:
        state = initial_field(grid, cfg.init, cfg.amplitude, cfg.seed)
    else:
        if initial.grid != grid:
            raise ValueError("initial field does not match n_points")
        state = initial
    h = cfg.dt if cfg.dt is not None else default_dt(cfg, state)
    if cfg.t_end < h:
        raise ValueError(f"t_end = {cfg.t_end} shorter than one step {h:g}")

    steps = int(np.ceil(cfg.t_end / h - 1e-9))
    peaks = [_peaks(state)]
    sup0 = max(peaks[0][1], np.finfo(float).tiny)

    follow_free = cfg.equation == "paralinear"
    if follow_free:
        free = np.abs(grid.freqs) <= _free_band(cfg.cutoff)
        free_phase = dispersion_profile(grid, cfg.alpha)[free]
        free_start = state.spectral[free].copy()
    free_gap = 0.0

    times = [0.0]
    states = [state]
    records = [] if diagnose is None else [diagnose(state)]
    blowup = None
    t = 0.0
    for k in range(steps):
        dt_k = min(h, cfg.t_end - t)
        try:
            state = step(state, cfg, dt=dt_k)
        except NanDetected:
            blowup = "nan"
            break
        t += dt_k
        lip, sup = _peaks(state)
        if sup > BLOWUP_SUP_FACTOR * sup0:
            blowup = "sup_norm"
            break
        if lip > BLOWUP_LIPSCHITZ:
            blowup = "lipschitz"
            break
        if follow_free:
            drift = state.spectral[free] - np.exp(-1j * t * free_phase) * free_start
            free_gap = max(free_gap, float(np.max(np.abs(drift))))
        if (k + 1) % cfg.stride == 0 or k == steps - 1:
            times.append(t)
            states.append(state)
            peaks.append((lip, sup))
            if diagnose is not None:
                records.append(diagnose(state))

    if follow_free and blowup is None and \
            free_gap > LOW_MODE_TOL * (1.0 + sup0):
        raise InvariantBroken(
            f"low modes strayed from the free flow by {free_gap:.3e}"
        )
    return Trajectory(np.array(times), tuple(states), tuple(records),
                      blowup, free_gap, tuple(peaks))


def rescale(u, lam, alpha):
    """The scaling symmetry at t = 0: mode k -> lam k with the norm-law
    prefactor lam^(alpha - 3/2).

    lam must be a power of two; every populated mode must land back on
    the integer lattice or SpectrumOverflow is raised.  The homogeneous
    Sobolev law ||u_lam||_{H^s} = lam^(alpha+s-3/2) ||u||_{H^s} is
    checked before returning; a miss raises InvariantBroken.
    """
    grid = u.grid
    if lam <= 0 or np.log2(lam) != np.rint(np.log2(lam)):
        raise ValueError(f"scale factor must be a power of two, got {lam}")
    lam = float(lam)
    if lam == 1.0:
        return u
    out = np.zeros(grid.n, dtype=np.complex128)
    prefactor = lam ** (float(alpha) - 1.5)
    # from_physical leaves ~1e-16 relative FFT noise in every mode, so
    # "populated" has to mean above round-off, not exactly nonzero.
    floor = 1e-13 * np.max(np.abs(u.spectral))
    for i, coeff in enumerate(u.spectral):
        if abs(coeff) <= floor:
            continue
        target = grid.freqs[i] * lam
        if target != np.rint(target):
            raise SpectrumOverflow(
                f"mode {grid.freqs[i]} maps to fractional {target}"
            )
        try:
            j = grid.index_of(int(np.rint(target)))
        except ValueError:
            raise SpectrumOverflow(
                f"mode {grid.freqs[i]} maps to {int(target)}, off the lattice"
            )
        out[j] = prefactor * coeff
    result = Field(grid, out, u.is_real, _validate=False)
    for s in (0.0, 1.0, 2.0):
        reference = homogeneous_sobolev_norm(u, s)
        if reference == 0.0:
            continue
        ratio = homogeneous_sobolev_norm(result, s) / reference
        law = lam ** (float(alpha) + s - 1.5)
        if not abs(ratio - law) <= 1e-10 * law:
            raise InvariantBroken(
                f"scaling law broken at s = {s}: {ratio} vs {law}"
            )
    return result
