"""Time integration of the dispersive Burgers flow on the torus.

Both forms of the equation,

    full:        d_t u + u d_x u + d_x |D|^(alpha-1) u = 0,
    paralinear:  d_t u + T_u d_x u + d_x |D|^(alpha-1) u = 0,

are integrated for real u with an integrating-factor RK4 scheme: the
stiff linear part is folded into the exact propagator
exp(-i dt xi |xi|^(alpha-1)), which is unimodular, and the classical
Runge-Kutta stages see only the nonlinearity in the rotated frame.  Free
evolution is therefore exact to round-off and conservation tests are
sharp: every drift they measure comes from the nonlinear stages.

Every state is a real field (`Field.is_real`): `step`, `run`, the stacked
loop and `Trajectory` raise ValueError for any other.  There is one
stepping loop.  It advances an (R x N) stack of coefficient arrays on one
grid, one run per row, and `run` is its one-row case; `blowup_scan` puts
all cells of a grid in one stack.  The rows share the grid, the
equation and the cutoff; each row has its own step, its own
propagators, its own record stride and its own detector, and leaves the
stack when it reaches its t_end or trips.  The four stages of the RK4
kernel, shared with `step`, pass coefficient arrays; only recorded states
are wrapped in `Field`s.  The half and full propagators of each (grid,
alpha, dt) and the grid's i xi and 2/3 mask are read-only cached tables.
The paralinear right-hand side -T_u d_x u of a row is the cone-band sum
`paraop.paraproduct_coeffs` under the stack's cutoff, with no N x N
operator, over the N/2 + 1 output modes xi <= 0 of its Hermitian output.
The full one is the 2/3-dealiased (Orszag) product -u d_x u of
`paraop.product_coeffs`, whose inverse FFTs for all rows run as one batch
and whose forward FFTs as another, one complex transform per row, so
every row gets the arithmetic of a run of its own.

Blow-up handling is detection, not continuation: a NaN, a sup-norm
pile-up, or a Lipschitz spike truncates the run and flags the
trajectory.  The sup and Lipschitz readings of every row come from one
batched inverse FFT of [i xi v, v], and a trajectory keeps them for
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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantBroken, NanDetected, SpectrumOverflow
from .paraop import paraproduct_coeffs, product_coeffs, product_tables
from .spectral import Field, Grid, dispersion_profile, \
    homogeneous_sobolev_norm, linf_norm
from .symbols import DEFAULT_CUTOFF, Cutoff

EQUATIONS = ("full", "paralinear")
INITIAL_FAMILIES = ("cos1", "cos_mix", "bump", "random")

BLOWUP_SUP_FACTOR = 1e6
BLOWUP_LIPSCHITZ = 1e8
STEP_DOUBLING_TOL = 1e-8
LOW_MODE_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """One run of either equation from a real initial field, its product
    2/3-dealiased; dt = None means the resolution default, and every
    stride-th step is recorded."""

    n_points: int
    alpha: float
    t_end: float
    equation: str = "full"
    cutoff: Cutoff = DEFAULT_CUTOFF
    dt: float = None
    init: str = "cos1"
    amplitude: float = 0.01
    seed: int = 0
    stride: int = 1

    def __post_init__(self):
        if (not isinstance(self.n_points, numbers.Integral)
                or self.n_points < 8 or self.n_points % 2):
            raise ValueError(f"n_points must be an even integer >= 8, got "
                             f"{self.n_points!r}")
        if not isinstance(self.cutoff, Cutoff):
            raise ValueError(f"cutoff must be a Cutoff, got {self.cutoff!r}")
        if not 1.0 < self.alpha <= 3.0:
            raise ValueError(f"alpha must lie in (1, 3], got {self.alpha}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.init not in INITIAL_FAMILIES:
            raise ValueError(f"unknown initial condition family {self.init!r}")
        for name in ("amplitude", "t_end"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)}")
        if self.dt is not None:
            if not self.dt > 0:
                raise ValueError(f"dt must be positive, got {self.dt}")
            if self.t_end < self.dt:
                raise ValueError(
                    f"t_end = {self.t_end} shorter than one step dt = {self.dt}"
                )
        elif not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not isinstance(self.stride, numbers.Integral) or self.stride < 1:
            raise ValueError(f"stride must be an integer >= 1, got "
                             f"{self.stride!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got "
                             f"{self.seed!r}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded real samples of a run; truncated early iff blowup is set.

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
        if not times.size:
            raise ValueError("a trajectory holds at least one sample")
        if times[0] != 0.0:
            raise ValueError(f"trajectories start at t = 0, got {times[0]}")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("sample times must be finite and increase "
                             "strictly")
        if len(self.states) != len(times):
            raise ValueError("one state per sample time required")
        if self.peaks and len(self.peaks) != len(times):
            raise ValueError("one detector reading per sample time required")
        grid = self.states[0].grid
        for state in self.states:
            if state.grid != grid:
                raise ValueError("trajectory states live on mixed grids")
            if not state.is_real:
                raise ValueError("trajectory states must be real fields")
            if not np.all(np.isfinite(state.spectral)):
                raise ValueError("trajectory retains only finite states")

    def final(self):
        return self.states[-1]


def initial_field(grid, name, amplitude, seed=0):
    """The named initial-condition families, peak-normalized to amplitude.

    `random` draws its modes 1 .. min(N/6, 24) from the seed, so below
    N = 144 it keeps fewer modes and is different data at every N.
    """
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


def _nonlinearity(equation, cutoff, grid):
    """-u d_x u (full, dealiased) or -T_u d_x u (paralinear, under cutoff),
    from and to coefficients of real states: an (N,) state or an (R, N)
    stack of rows."""
    ixi = product_tables(grid)[0]
    if equation == "full":
        def rhs(v):
            return product_coeffs(grid, v, ixi * v) * -1.0
        return rhs

    def transport(v):
        return paraproduct_coeffs(grid, v, ixi * v, cutoff)

    def rhs(v):
        if v.ndim == 1:
            return transport(v) * -1.0
        return np.stack([transport(row) for row in v]) * -1.0
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


def _rk4(v, h, half, full, rhs):
    """The integrating-factor RK4 update of coefficients v: an (N,) state
    with a float step h and (N,) propagators, or an (R, N) stack with an
    (R, 1) column of steps and (R, N) propagators, one row each.  Each row
    of a stack gets the arithmetic of a lone state."""
    n1 = rhs(v)
    n2 = rhs(half * (v + 0.5 * h * n1))
    n3 = rhs(half * v + 0.5 * h * n2)
    n4 = rhs(full * v + h * half * n3)
    return full * v + (h / 6.0) * (full * n1 + 2.0 * half * (n2 + n3) + n4)


def step(state, cfg, dt=None):
    """One integrating-factor RK4 step of a real state."""
    grid = state.grid
    if not state.is_real:
        raise ValueError("the solver steps real fields only")
    h = cfg.dt if dt is None else dt
    if h is None or not h > 0:
        raise ValueError(f"need a positive step size, got {h}")
    half, full = propagators(grid, cfg.alpha, h)
    out = _rk4(state.spectral, h, half, full,
               _nonlinearity(cfg.equation, cfg.cutoff, grid))
    if not np.all(np.isfinite(out)):
        raise NanDetected(f"non-finite coefficients after a step of {h:g}")
    return Field(grid, out, True, _validate=False)


def default_dt(cfg, state):
    """Resolution default 0.5 (N/2)^-alpha 2 pi, halved until one step and
    two half steps agree to the step-doubling tolerance.  A trial step that
    leaves non-finite coefficients fails the test."""
    h = 0.5 * (state.grid.n / 2.0) ** (-cfg.alpha) * 2.0 * np.pi
    for _ in range(20):
        try:
            coarse = step(state, cfg, dt=h)
            fine = step(step(state, cfg, dt=0.5 * h), cfg, dt=0.5 * h)
        except NanDetected:
            gap = np.inf
        else:
            gap = float(np.max(np.abs(coarse.spectral - fine.spectral)))
        if gap <= STEP_DOUBLING_TOL:
            break
        h *= 0.5
    return h


def _free_band(cutoff):
    # transport output modes satisfy |m| > b, so |m| <= floor(b) stay free
    return int(np.floor(cutoff.little_b))


def _peaks(grid, v):
    """The detector's (lipschitz, sup) = (||d_x u||_inf, ||u||_inf) of
    each real row of v, as an (..., 2) array, from the real part of one
    batched inverse FFT of [i xi v, v]."""
    rows = np.fft.ifft(np.stack((product_tables(grid)[0] * v, v), axis=-2),
                       axis=-1) * grid.n
    return np.max(np.abs(rows.real), axis=-1)


class _Row:
    """One run of a stack: its clock, its step count and its detector."""

    def __init__(self, index, cfg, h, grid, coeffs, reading):
        self.index = index
        self.cfg = cfg
        self.h = h
        self.steps = int(np.ceil(cfg.t_end / h - 1e-9))
        self.k = 0
        self.t = 0.0
        self.sup0 = max(reading[1], np.finfo(float).tiny)
        self.blowup = None
        self.free_gap = 0.0
        self.free = None
        if cfg.equation == "paralinear":
            mask = np.abs(grid.freqs) <= _free_band(cfg.cutoff)
            self.free = (mask, dispersion_profile(grid, cfg.alpha)[mask],
                         coeffs[mask].copy())

    def advance(self, coeffs, dt, finite, reading, sample):
        """Account for a step of dt to coeffs; False once the row is done."""
        if not finite:
            self.blowup = "nan"
            return False
        self.t += dt
        lip, sup = reading
        if sup > BLOWUP_SUP_FACTOR * self.sup0:
            self.blowup = "sup_norm"
            return False
        if lip > BLOWUP_LIPSCHITZ:
            self.blowup = "lipschitz"
            return False
        if self.free is not None:
            mask, phase, start = self.free
            drift = coeffs[mask] - np.exp(-1j * self.t * phase) * start
            self.free_gap = max(self.free_gap, float(np.max(np.abs(drift))))
        self.k += 1
        done = self.k == self.steps
        if done or self.k % self.cfg.stride == 0:
            sample(self.index, self.t, coeffs, (lip, sup))
        if done and self.free is not None and \
                self.free_gap > LOW_MODE_TOL * (1.0 + self.sup0):
            raise InvariantBroken(
                f"low modes strayed from the free flow by {self.free_gap:.3e}"
            )
        return not done


def _advance(cfgs, states, hs, sample):
    """Integrate a stack of runs on one grid, row r from states[r] with
    step hs[r] under cfgs[r] to its own t_end.

    The rows share the grid, the equation and the cutoff, and every state
    is real; alpha, step, t_end and stride are per row.  Each iteration
    advances every live row by one step of the shared RK4 kernel, with
    its own propagators and its last step cut short to land on t_end,
    and reads every row's detector from one batched inverse FFT.
    sample(r, t, coeffs, (lipschitz, sup)) is called at t = 0 and at
    every stride-th step and the last of row r; coeffs is a view to be
    copied or wrapped, not written.  A row leaves the stack when it
    reaches t_end or trips the detector.

    Returns (blowup reason, low-mode residual) per row.
    """
    if not states:
        return []
    grid, equation, cutoff = states[0].grid, cfgs[0].equation, cfgs[0].cutoff
    for cfg, state, h in zip(cfgs, states, hs):
        if not state.is_real:
            raise ValueError("the solver steps real fields only")
        if (state.grid != grid or cfg.n_points != grid.n
                or cfg.equation != equation or cfg.cutoff != cutoff):
            raise ValueError("stacked runs must share the grid, the "
                             "equation and the cutoff")
        if cfg.t_end < h:
            raise ValueError(
                f"t_end = {cfg.t_end} shorter than one step {h:g}"
            )

    rhs = _nonlinearity(equation, cutoff, grid)
    v = np.stack([state.spectral for state in states])
    rows = []
    for r, reading in enumerate(_peaks(grid, v).tolist()):
        rows.append(_Row(r, cfgs[r], hs[r], grid, v[r], reading))
        sample(r, 0.0, v[r], tuple(reading))

    live, dts = rows, None
    while live:
        now = [min(row.h, row.cfg.t_end - row.t) for row in live]
        if now != dts:
            dts = now
            tables = [propagators(grid, row.cfg.alpha, dt)
                      for row, dt in zip(live, dts)]
            if len(live) == 1:
                # a lone row steps as one (N,) state, which costs less
                # per array operation than a one-row stack
                shape, h, (half, full) = (grid.n,), dts[0], tables[0]
            else:
                shape, h = v.shape, np.array(dts)[:, None]
                half = np.stack([pair[0] for pair in tables])
                full = np.stack([pair[1] for pair in tables])
        v = _rk4(v.reshape(shape), h, half, full, rhs).reshape(len(live), -1)
        finite = np.isfinite(v).all(axis=-1)
        readings = _peaks(grid, v).tolist()
        stay = [j for j, row in enumerate(live)
                if row.advance(v[j], dts[j], finite[j], readings[j], sample)]
        if len(stay) < len(live):
            live = [live[j] for j in stay]
            v = v[stay]
            dts = None
    return [(row.blowup, row.free_gap) for row in rows]


def run(cfg, diagnose=None, initial=None):
    """Integrate to t_end, recording every stride-th sample and the last.

    The run is the one-row case of the stacked loop that `blowup_scan`
    uses for a whole grid of cells.  diagnose(u) is called at recorded
    samples and its results collected; the detector's readings of the
    same samples are kept as peaks.  A NaN, sup-norm, or Lipschitz
    trigger truncates the trajectory and sets its blowup reason.  For
    paralinear runs the modes below the cutoff floor never see the
    transport term; their deviation from the free flow is tracked and
    must stay at round-off.  An initial field that is not real raises
    ValueError, as in `step` and the stacked loop.
    """
    grid = Grid(cfg.n_points)
    if initial is None:
        state = initial_field(grid, cfg.init, cfg.amplitude, cfg.seed)
    else:
        if initial.grid != grid:
            raise ValueError("initial field does not match n_points")
        state = initial
    h = cfg.dt if cfg.dt is not None else default_dt(cfg, state)

    times, states, records, peaks = [], [], [], []

    def keep(row, t, coeffs, reading):
        # the first sample is the initial field itself
        u = Field(grid, coeffs, True, _validate=False) \
            if times else state
        times.append(t)
        states.append(u)
        peaks.append(reading)
        if diagnose is not None:
            records.append(diagnose(u))

    [(blowup, free_gap)] = _advance([cfg], [state], [h], keep)
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
