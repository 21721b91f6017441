"""Spectral backbone: periodic grid, fields, Littlewood-Paley blocks, norms.

Conventions, fixed once and used everywhere:

* The domain is the 2*pi torus sampled at x_j = 2*pi*j/N, N even.
* Retained frequencies are the integers {-N/2, ..., N/2 - 1} in FFT order.
* Coefficients are Fourier-series coefficients,
      u_hat(xi) = (1/N) * sum_j u(x_j) exp(-i xi x_j),
  so u(x) = sum_xi u_hat(xi) exp(i xi x) on the grid.
* Real fields zero the unpaired Nyquist mode -N/2 (by fiat).
* Sobolev norms carry the 2*pi measure factor:
      ||u||_{H^s}^2 = 2*pi * sum <xi>^{2s} |u_hat(xi)|^2,
  which makes ||1||_{H^s} = sqrt(2*pi) and matches the L^2 integral.
* Block profiles use a quintic smoothstep on [1, 2]: the low-pass P_{<=k}
  equals 1 for |xi| <= 2^k, 0 for |xi| >= 2^{k+1}, and is C^2 in between.
  Negative-order multipliers send the zero mode to zero.
"""

import functools

import numpy as np

from .errors import GridMismatch, NonFiniteMultiplier

_HERMITIAN_TOL = 1e-12


def smoothstep(t):
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 transition."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


class Grid:
    """Uniform periodic grid on [0, 2*pi) with FFT-ordered integer modes."""

    def __init__(self, n):
        if n % 2 != 0 or n < 8:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        self.n = n
        self.x = 2.0 * np.pi * np.arange(n) / n
        self.freqs = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
        self.nyquist = -n // 2
        # position of each integer mode in FFT order
        self._index = {int(xi): i for i, xi in enumerate(self.freqs)}

    def index_of(self, xi):
        try:
            return self._index[int(xi)]
        except KeyError:
            raise ValueError(f"mode {xi} not on the lattice of size {self.n}")

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


def check_same_grid(*objects):
    grids = [obj.grid for obj in objects]
    for g in grids[1:]:
        if g != grids[0]:
            raise GridMismatch(f"mixed grids: {grids[0]} vs {g}")
    return grids[0]


class Field:
    """A scalar function on the grid, stored by spectral coefficients."""

    def __init__(self, grid, spectral, is_real=False, _validate=True):
        spectral = np.asarray(spectral, dtype=np.complex128)
        if spectral.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} coefficients, got {spectral.shape}")
        if is_real and _validate:
            spectral = spectral.copy()
            spectral[grid.index_of(grid.nyquist)] = 0.0
            scale = max(np.max(np.abs(spectral)), 1.0)
            defect = _hermitian_defect(grid, spectral)
            if defect > _HERMITIAN_TOL * scale:
                raise ValueError(
                    f"coefficients violate Hermitian symmetry by {defect:.3e}"
                )
        self.grid = grid
        self.spectral = spectral
        self.is_real = bool(is_real)

    @classmethod
    def from_physical(cls, grid, values):
        values = np.asarray(values)
        if values.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got {values.shape}")
        is_real = not np.iscomplexobj(values)
        coeffs = np.fft.fft(values) / grid.n
        if is_real:
            coeffs[grid.index_of(grid.nyquist)] = 0.0
        return cls(grid, coeffs, is_real=is_real, _validate=False)

    def physical(self):
        values = np.fft.ifft(self.spectral) * self.grid.n
        if self.is_real:
            return values.real
        return values

    def coefficient(self, xi):
        return self.spectral[self.grid.index_of(xi)]

    def copy(self):
        return Field(self.grid, self.spectral.copy(), self.is_real, _validate=False)

    def __add__(self, other):
        check_same_grid(self, other)
        return Field(self.grid, self.spectral + other.spectral,
                     self.is_real and other.is_real, _validate=False)

    def __sub__(self, other):
        check_same_grid(self, other)
        return Field(self.grid, self.spectral - other.spectral,
                     self.is_real and other.is_real, _validate=False)

    def __mul__(self, scalar):
        scalar = complex(scalar)
        real = self.is_real and scalar.imag == 0.0
        return Field(self.grid, self.spectral * scalar, real, _validate=False)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _hermitian_defect(grid, spectral):
    """Max |u_hat(-xi) - conj(u_hat(xi))| over paired modes."""
    n = grid.n
    defect = abs(spectral[0].imag)
    pos = spectral[1:n // 2]
    neg = spectral[-1:-(n // 2):-1]
    if len(pos):
        defect = max(defect, np.max(np.abs(neg - np.conj(pos))))
    return defect


def block_profile(t):
    """Low-pass profile P_0 as a function of |xi|: 1 below 1, 0 above 2."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    return 1.0 - smoothstep(t - 1.0)


@functools.lru_cache(maxsize=16)
def lp_profiles(grid):
    """Littlewood-Paley block multipliers P_0, ..., P_K as a read-only
    (K+1) x N array, one row per block, columns in FFT order.

    K is the smallest integer with 2^K >= N/2 so the profiles sum to one on
    every retained mode.
    """
    count = int(np.ceil(np.log2(grid.n // 2))) + 1
    xi = grid.freqs.astype(np.float64)
    lowpass = [block_profile(xi / 2.0 ** k) for k in range(count)]
    profiles = [lowpass[0]]
    for k in range(1, count):
        profiles.append(lowpass[k] - lowpass[k - 1])
    profiles = np.array(profiles)
    profiles.setflags(write=False)
    return profiles


def multiplier_values(grid, m):
    """Evaluate a multiplier (callable or array) on the retained modes."""
    if callable(m):
        values = np.asarray(m(grid.freqs), dtype=np.complex128)
    else:
        values = np.asarray(m, dtype=np.complex128)
    if values.shape != (grid.n,):
        raise ValueError(f"multiplier must cover {grid.n} modes, got {values.shape}")
    if not np.all(np.isfinite(values)):
        bad = grid.freqs[~np.isfinite(values)]
        raise NonFiniteMultiplier(f"multiplier non-finite at modes {bad.tolist()}")
    return values


def multiplier_apply(field, m):
    """Apply a Fourier multiplier m(D) to a field.

    m may be a callable of the integer frequency array or a precomputed
    array in FFT order.  Raises NonFiniteMultiplier when m is NaN or
    infinite on any retained mode.
    """
    values = multiplier_values(field.grid, m)
    out = values * field.spectral
    # a real multiplier that is even in xi preserves realness
    real = field.is_real and _preserves_real(field.grid, values)
    return Field(field.grid, out, real, _validate=False)


def _preserves_real(grid, values):
    n = grid.n
    if abs(values[0].imag) > 0:
        return False
    pos = values[1:n // 2]
    neg = values[-1:-(n // 2):-1]
    return bool(np.all(np.abs(neg - np.conj(pos)) <= 1e-14 * (1 + np.abs(pos))))


# -- named multipliers ------------------------------------------------------

def abs_d_pow(beta):
    """|D|^beta; for beta < 0 (and beta > 0) the zero mode maps to zero."""
    def m(xi):
        a = np.abs(xi).astype(np.float64)
        if beta == 0:
            return np.ones_like(a)
        with np.errstate(divide="ignore"):
            out = np.where(a > 0, a ** beta, 0.0)
        return out
    return m


def bessel_pow(s):
    """<D>^s with <xi> = (1 + xi^2)^{1/2}."""
    return lambda xi: (1.0 + xi.astype(np.float64) ** 2) ** (s / 2.0)


def derivative():
    """d/dx, the multiplier i*xi."""
    return lambda xi: 1j * xi.astype(np.float64)


def dispersion_phase(x, alpha):
    """f(x) = x |x|^(alpha-1), exactly odd in floating point (0 at x=0)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.abs(x) ** float(alpha)


def dispersion_profile(grid, alpha):
    """f(xi) on the retained modes, FFT order."""
    return dispersion_phase(grid.freqs, alpha)


def dispersion_symbol(alpha):
    """d_x |D|^{alpha-1}, the multiplier i*f(xi) = i*xi*|xi|^{alpha-1}."""
    return lambda xi: 1j * dispersion_phase(xi, alpha)


# -- norms ------------------------------------------------------------------

def sobolev_norm(field, s):
    return float(sobolev_norms(field.grid, field.spectral, s))


def sobolev_norms(grid, coeffs, s):
    """H^s norms of the rows of an (..., N) coefficient stack, each row
    reduced as `sobolev_norm` reduces a lone field."""
    xi = grid.freqs.astype(np.float64)
    weights = (1.0 + xi ** 2) ** s
    return np.sqrt(2.0 * np.pi * np.sum(weights * np.abs(coeffs) ** 2, axis=-1))


def homogeneous_sobolev_norm(field, s):
    xi = np.abs(field.grid.freqs.astype(np.float64))
    weights = np.zeros_like(xi)
    positive = xi > 0
    weights[positive] = xi[positive] ** (2.0 * s)
    return float(np.sqrt(2.0 * np.pi * np.sum(weights * np.abs(field.spectral) ** 2)))


def linf_norm(field):
    return float(np.max(np.abs(field.physical())))


def zygmund_norm(field, s):
    """C^s_* norm: sup_k 2^{ks} ||P_k u||_inf."""
    best = 0.0
    for k, profile in enumerate(lp_profiles(field.grid)):
        piece = np.fft.ifft(profile * field.spectral) * field.grid.n
        best = max(best, 2.0 ** (k * s) * float(np.max(np.abs(piece))))
    return best


def l2_norm(field):
    return sobolev_norm(field, 0.0)
