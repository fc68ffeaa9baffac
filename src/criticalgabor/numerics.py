"""Sampled signals on a truncated line, quadrature, and special functions.

All square-integrable objects live on the uniform grid x_n = -T + n*h.
The default discretization T=8, h=1/64 keeps Gaussian atoms centered at
|p| <= 4 below 1e-21 at the grid boundary, so the plain Riemann sum has
spectral accuracy for every integrand appearing in this package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import math
import threading

import numpy as np

DEFAULT_T = 8.0
DEFAULT_H = 1.0 / 64.0
# Truncation |q| <= THETA_TERMS of the theta sum.  terms >= 4 keeps the error
# below 3*exp(-pi*terms^2 + 2*pi*terms) on |Im z| <= 1; smaller values are
# accepted so that accuracy checks can demonstrate the failure mode.
THETA_TERMS = 8

_erf = np.frompyfunc(math.erf, 1, 1)

MEMO_SIZE = 16  # entries per Memo


class Memo:
    """Values that depend only on a grid, built once per key.

    Holds at most MEMO_SIZE entries and evicts the least recently used. Every
    array of a stored value is made read-only, so all callers share it
    without copies. The key must determine the value bit for bit.
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build):
        """The value stored under key, built by build() and stored if absent."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = build()
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):  # numpy scalars are immutable already
                arr.setflags(write=False)
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > MEMO_SIZE:
                self._entries.popitem(last=False)
        return value


def array_key(a: np.ndarray) -> tuple:
    """A memo key that fixes an array exactly: its dtype, shape and bytes."""
    return a.dtype.str, a.shape, a.tobytes()


def _sample_count(T: float, h: float) -> int:
    n = 2.0 * T / h
    if T <= 0 or h <= 0 or abs(n - round(n)) > 1e-9:
        raise ValueError(f"grid requires 2T/h integral, got T={T}, h={h}")
    return int(round(n)) + 1


@dataclass(frozen=True)
class SampledSignal:
    """Complex values on the uniform grid x_n = -T + n*h, n = 0..2T/h."""

    T: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        n = _sample_count(self.T, self.h)
        if vals.ndim != 1 or vals.size != n:
            raise ValueError(f"expected {n} samples for T={self.T}, h={self.h}, got shape {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def x(self) -> np.ndarray:
        return -self.T + self.h * np.arange(self.values.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.h))

    def same_grid(self, other: "SampledSignal") -> bool:
        return (
            abs(self.T - other.T) < 1e-12
            and abs(self.h - other.h) < 1e-15
            and self.values.size == other.values.size
        )

    def _require_grid(self, other: "SampledSignal"):
        if not self.same_grid(other):
            raise ValueError("signals live on different grids")

    def __add__(self, other):
        self._require_grid(other)
        return SampledSignal(self.T, self.h, self.values + other.values)

    def __sub__(self, other):
        self._require_grid(other)
        return SampledSignal(self.T, self.h, self.values - other.values)

    def __mul__(self, a):
        return SampledSignal(self.T, self.h, self.values * complex(a))

    __rmul__ = __mul__

    def __neg__(self):
        return SampledSignal(self.T, self.h, -self.values)

    def to_csv(self, path):
        x = self.x
        with open(path, "w") as fh:
            fh.write("x,re,im\n")
            for xi, v in zip(x, self.values):
                fh.write(f"{float(xi)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def signal_from_csv(path) -> SampledSignal:
    """Read a (x, re, im) CSV; malformed rows are reported with their line number."""
    xs, vals = [], []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if ln == 1 and line.lower().replace(" ", "") == "x,re,im":
                continue
            parts = line.split(",")
            try:
                x, re_, im_ = (float(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}: malformed CSV at line {ln}: {line!r}") from exc
            if not (math.isfinite(x) and math.isfinite(re_) and math.isfinite(im_)):
                raise ValueError(f"{path}: non-finite value at line {ln}: {line!r}")
            xs.append(x)
            vals.append(complex(re_, im_))
    if len(xs) < 3:
        raise ValueError(f"{path}: need at least 3 samples, got {len(xs)}")
    h = xs[1] - xs[0]
    T = -xs[0]
    if abs(xs[-1] - T) > 1e-6 or h <= 0:
        raise ValueError(f"{path}: grid is not symmetric uniform, x[0]={xs[0]}, x[-1]={xs[-1]}")
    bad = np.flatnonzero(np.abs(np.diff(xs) - h) > 1e-6)
    if bad.size:
        raise ValueError(f"{path}: grid is not uniform, x={xs[bad[0] + 1]} is not {xs[bad[0]]} + h, h={h!r}")
    return SampledSignal(T, h, np.asarray(vals))


def stacked(signals) -> tuple[np.ndarray, float, float]:
    """(values, T, h) of one signal, or of a sequence of signals on one grid with
    their values stacked along a leading axis, one row per signal.  The stack of
    one signal is a read-only view of its values, so a batch of one copies nothing."""
    if isinstance(signals, SampledSignal):
        return signals.values, signals.T, signals.h
    if not signals:
        raise ValueError("a stack needs at least one signal")
    first = signals[0]
    if len(signals) == 1:
        return first.values[None], first.T, first.h
    for g in signals[1:]:
        first._require_grid(g)
    return np.array([g.values for g in signals]), first.T, first.h


def unstacked(values: np.ndarray, T: float, h: float, like):
    """The inverse of stacked: one signal when like is one, else one signal per
    row of values, in a list."""
    if isinstance(like, SampledSignal):
        return SampledSignal(T, h, values)
    return [SampledSignal(T, h, row) for row in values]


def inner(f: SampledSignal, g: SampledSignal) -> complex:
    """Discrete scalar product sum f(x_n) conj(g(x_n)) h."""
    f._require_grid(g)
    return complex(np.vdot(g.values, f.values) * f.h)


def theta(z, terms: int = THETA_TERMS):
    """2^{1/4} sum_q exp(2 pi i q z - pi q^2), quasi-periodically reduced.

    1-periodic in Re z and satisfies theta(z+i) = exp(pi - 2 pi i z) theta(z);
    the only zero in the closed unit square is 1/2 + i/2.  Im z is reduced to
    [-1/2, 1/2] before summation so the truncated series stays accurate.
    Array values are memoised per (argument, terms) and returned read-only.
    """
    zarr = np.asarray(z, dtype=complex)
    out = _THETA_MEMO.get((array_key(zarr), terms), lambda: _theta_reduced(zarr, terms))
    return out if out.shape else complex(out)


def _theta_reduced(zarr: np.ndarray, terms: int) -> np.ndarray:
    k = np.round(zarr.imag).astype(int)
    zr = zarr - 1j * k
    return np.exp(np.pi * k ** 2 - 2j * np.pi * k * zr) * _theta_series(zr, terms)


_THETA_MEMO = Memo()


def _theta_series(z, terms: int = THETA_TERMS) -> np.ndarray:
    """The truncated series 2^{1/4} sum_{|q| <= terms} exp(2 pi i q z - pi q^2), unreduced."""
    if terms < 1:
        raise ValueError("theta truncation needs terms >= 1")
    q = np.arange(-terms, terms + 1)
    return 2 ** 0.25 * np.sum(np.exp(2j * np.pi * np.multiply.outer(np.asarray(z, complex), q)
                                     - np.pi * q ** 2), axis=-1)


def loc_integral(x):
    """Half-line Gaussian mass 2^{1/2} int_{-inf}^{x} exp(-2 pi y^2) dy.

    Equals (1 + erf(sqrt(2 pi) x))/2; increases from 0 to 1 with value 1/2
    at the origin.
    """
    z = np.sqrt(2.0 * np.pi) * np.asarray(x, dtype=float)
    out = 0.5 * (1.0 + np.asarray(_erf(z), dtype=float))
    return out if out.shape else float(out)


def hermite_signal(n: int, T: float = DEFAULT_T, h: float = DEFAULT_H) -> SampledSignal:
    """n-th Hermite function for the convention with ground state 2^{1/4} e^{-pi x^2}.

    Eigenfunctions of -(1/4 pi^2) d^2/dx^2 + x^2; built with the three-term
    recurrence of the normalized functions in u = sqrt(2 pi) x (DLMF 18.9),
    psi_{k+1} = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_{k-1}, and
    normalized to unit discrete norm.
    """
    if n < 0:
        raise ValueError("hermite order must be >= 0")
    x = -T + h * np.arange(_sample_count(T, h))
    u = np.sqrt(2.0 * np.pi) * x
    prev, vals = np.zeros_like(x), np.exp(-np.pi * x ** 2)
    for k in range(n):
        prev, vals = vals, np.sqrt(2.0 / (k + 1)) * u * vals - np.sqrt(k / (k + 1)) * prev
    sig = SampledSignal(T, h, vals)
    return sig * (1.0 / sig.norm())


def spectral_derivative(f):
    """d/dx by Fourier multiplication on the periodized grid.

    Accurate for signals that decay below roundoff at the grid boundary.
    f is one signal, or a sequence of signals on one grid: then the result is
    a list, one derivative per signal, from one FFT pair over their stack.
    The FFT of a stack transforms each row as it would transform that row
    alone, so each derivative equals the single call bit for bit.
    """
    values, T, h = stacked(f)
    return unstacked(_fourier_derivative(values, h), T, h, f)


def _fourier_derivative(values: np.ndarray, step: float, axis: int = -1) -> np.ndarray:
    """d/dx along one axis of values sampled with the given step, taken as one period."""
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = n
    freq = np.fft.fftfreq(n, d=step).reshape(shape)
    return np.fft.ifft(2j * np.pi * freq * np.fft.fft(values, axis=axis), axis=axis)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (a length numpy's FFT handles fast)."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _exp_pi_i(c: float, m: np.ndarray, m_bits: int) -> np.ndarray:
    """exp(pi i c m) for integer-valued m with |m| < 2^m_bits, c m reduced mod 2 before the factor pi.

    c is split as c_hi + c_lo with c_hi short enough that c_hi m is exact in
    float64, so phases of thousands of turns keep full relative accuracy.
    """
    frac, e = math.frexp(c)
    bits = 53 - m_bits
    c_hi = math.ldexp(round(math.ldexp(frac, bits)), e - bits)
    return np.exp(1j * np.pi * (np.fmod(c_hi * m, 2.0) + (c - c_hi) * m))


def _chirp(c: float, M: int) -> np.ndarray:
    """exp(pi i c m^2) for m = 0..M-1, with c m^2 reduced mod 2 before the factor pi."""
    return _exp_pi_i(c, np.arange(M, dtype=float) ** 2, max(M - 1, 1).bit_length() * 2)


def upsample_periodic(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation of uniformly sampled sequences along the last axis.

    Treats each row of `values` as one period; returns `factor * n` samples
    per row on the refined grid starting at the same point.
    """
    n = values.shape[-1]
    N = n * factor
    if factor == 1:
        return np.asarray(values, dtype=complex).copy()
    spec = np.fft.fft(values, axis=-1)
    out = np.zeros(values.shape[:-1] + (N,), dtype=complex)
    if n % 2 == 0:
        half = n // 2
        out[..., :half] = spec[..., :half]
        out[..., N - half + 1:] = spec[..., half + 1:]
        # split the Nyquist bin between +n/2 and -n/2
        out[..., half] = 0.5 * spec[..., half]
        out[..., N - half] = 0.5 * spec[..., half]
    else:
        half = (n + 1) // 2
        out[..., :half] = spec[..., :half]
        out[..., N - (n - half):] = spec[..., half:]
    np.fft.ifft(out, axis=-1, out=out)
    out *= factor
    return out
