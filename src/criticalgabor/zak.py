"""Zak transform on the midpoint grid of the unit square, and the ladder
operator transported to the Zak side.

Zf(y, xi) = sum_q exp(2 pi i q xi) f(y + q) is 1-periodic in xi and picks up
exp(-2 pi i xi) under y -> y + 1.  The grid (y_i, xi_j) = ((i+1/2)/N,
(j+1/2)/N) is chosen so the theta zero at (1/2, 1/2) is never a node.  The
sample step h fixes it: N = 1/(2h), so every y_i + q is a sample point of the
signal, and N must be even.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (THETA_TERMS, Memo, SampledSignal, array_key, stacked, theta, upsample_periodic,
                       _fourier_derivative)
from .phaseplane import as_point


def _midpoints(N: int) -> np.ndarray:
    """The midpoint nodes (i + 1/2)/N, i < N, of the unit interval."""
    return (np.arange(N) + 0.5) / N


def default_zak_size(h: float) -> int:
    """The Zak grid N = 1/(2h) the step fixes, the one place it is decided: its midpoints
    (i + 1/2)/N are every second sample of a unit, and N must be even."""
    n = 0.5 / h if h > 0 else 0.0
    N = int(round(n))
    if abs(n - N) > 1e-9 or N < 2 or N % 2 != 0:
        raise ValueError(f"grid step h={h} has no even Zak midpoint grid: 1/(2h) must be an even integer")
    return N


@dataclass(frozen=True)
class ZakField:
    """Values on the N x N midpoint grid of the unit square, (N, N); a stack of
    fields, one per signal of a sequence, is (C, N, N)."""

    N: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if self.N % 2 != 0:
            raise ValueError("midpoint grid needs even N so (1/2, 1/2) is never a node")
        if vals.shape[-2:] != (self.N, self.N) or vals.ndim not in (2, 3):
            raise ValueError(f"expected {self.N}x{self.N} values or a stack of them, got {vals.shape}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def y(self) -> np.ndarray:
        return _midpoints(self.N)

    xi = y  # the same midpoint nodes on both axes

    def norm(self):
        """Discrete L2(Q) norm, (1/N^2) sum |Z|^2 over the unit square; one per field of a stack."""
        norms = np.sqrt(np.sum(np.abs(self.values) ** 2, axis=(-2, -1)) / self.N ** 2)
        return float(norms) if norms.ndim == 0 else norms

    def _one(self, what: str):
        if self.values.ndim != 2:
            raise ValueError(f"{what} takes one Zak field, not a stack")


def _integer_T(T: float) -> int:
    Ti = int(round(T))
    if abs(T - Ti) > 1e-9:
        raise ValueError(f"Zak sums need an integer grid half-width T, got T={T}")
    return Ti


def _zak_sum(values: np.ndarray, T: float, step: float, y: np.ndarray,
             xi: np.ndarray) -> np.ndarray:
    """sum_q exp(2 pi i q xi) f(y + q) from samples f(-T + n step), as a (y, xi) array.

    The y nodes must be sample points in one unit interval [y0, y0 + 1); q runs
    over -T - y0 .. T - y0 - 1, so every y + q stays on the grid.  Leading axes
    of values (a stack of signals) lead the result.  The gather index and the
    phase matrix are memoised per (T, step, y, xi).
    """
    n_idx, phases = _ZAK_SUM_MEMO.get((T, step, array_key(y), array_key(xi)),
                                      lambda: _zak_sum_plan(T, step, y, xi))
    return values[..., n_idx] @ phases


def _zak_sum_plan(T: float, step: float, y: np.ndarray, xi: np.ndarray):
    """The sample index of each f(y + q), (y, q), and the phases exp(2 pi i q xi), (q, xi).

    q xi is reduced mod 1 before the factor 2 pi, as in `numerics._chirp`: on
    dyadic nodes q xi is exact, so Z(y, xi + 1) equals Z(y, xi) bit for bit.
    """
    Ti = _integer_T(T)
    shift = int(np.floor(y[0]))
    qs = np.arange(-Ti - shift, Ti - shift)
    n_idx = np.round((y[:, None] + qs[None, :] + T) / step).astype(int)
    return n_idx, np.exp(2j * np.pi * np.fmod(np.outer(qs, xi), 1.0))


_ZAK_SUM_MEMO = Memo()


def zak(f) -> ZakField:
    """Zak transform sampled on the midpoint grid N = 1/(2h) of the signal's step,
    truncated to the signal support.

    f is one signal, or a sequence of signals on one grid, whose fields come
    as one stack from one Zak sum.
    """
    values, T, h = stacked(f)
    grid = _midpoints(default_zak_size(h))
    return ZakField(grid.size, _zak_sum(values, T, h, grid, grid))


def zak_inverse(Z: ZakField, T: float, h: float) -> SampledSignal:
    """Invert the midpoint-grid Zak transform back to the signal grid.

    Recovery is exact on the sub-grid y_i + q (which requires 2T <= N); the
    remaining sample points are filled by trigonometric interpolation, which
    is exact to roundoff for signals that are negligible at the boundary.
    """
    Z._one("zak_inverse")
    N = Z.N
    if N != default_zak_size(h):
        raise ValueError(f"a Zak field of N={N} is not the grid of step h={h}, N = 1/(2h)")
    Ti = _integer_T(T)
    if 2 * Ti > N:
        raise ValueError(f"support width 2T={2 * Ti} exceeds N={N}; inversion would alias")
    qs = np.arange(-Ti, Ti)
    phases = np.exp(-2j * np.pi * np.outer(qs, Z.xi))  # (2T, N)
    u = (Z.values @ phases.T) / N  # (N_y, 2T) values at y_i + q
    # chronological order along the line: q major, i minor
    seq = u.T.reshape(-1)  # x = -T + 1/(2N), ..., T - 1/(2N), spacing 1/N
    fine = upsample_periodic(seq, 2)  # x = -T + h, ..., T, spacing h
    return SampledSignal(T, h, np.concatenate(([0.0], fine)))  # x = -T, where f ~ 0, stays 0


def zak_atom_field(lam, N: int, terms: int = THETA_TERMS) -> ZakField:
    """Closed-form Zak transform of the atom e_lambda on the midpoint grid.

    Ze_(r,eta)(y, xi) = exp(2 pi i eta y) exp(-pi (y-r)^2) Theta(xi + eta + i(y-r)).
    """
    lam = as_point(lam)
    y = _midpoints(N)
    Y, XI = y[:, None], y[None, :]
    vals = (
        np.exp(2j * np.pi * lam.theta * Y - np.pi * (Y - lam.p) ** 2)
        * theta(XI + lam.theta + 1j * (Y - lam.p), terms)
    )
    return ZakField(N, vals)


def wh_shift(lam, f: SampledSignal) -> SampledSignal:
    """Weyl-Heisenberg action T_lam f(x) = exp(2 pi i theta x) f(x - p).

    The shift p must be a whole number of grid steps, and the part of the
    signal pushed past the truncation boundary must be negligible.
    """
    lam = as_point(lam)
    steps = lam.p / f.h
    k = int(round(steps))
    if abs(steps - k) > 1e-9:
        raise ValueError(f"shift p={lam.p} is not a whole number of grid steps h={f.h}")
    vals = np.zeros_like(f.values)
    scale = max(float(np.max(np.abs(f.values))), 1e-300)
    if k >= 0:
        dropped = f.values[f.values.size - k:] if k else f.values[:0]
        vals[k:] = f.values[: f.values.size - k]
    else:
        dropped = f.values[:-k]
        vals[:k] = f.values[-k:]
    if dropped.size and np.max(np.abs(dropped)) > 1e-9 * scale:
        raise ValueError("shifted support leaves the grid")
    vals = vals * np.exp(2j * np.pi * lam.theta * f.x)
    return SampledSignal(f.T, f.h, vals)


def zak_translate_check(lam, f: SampledSignal) -> float:
    """Max deviation of Z(T_lam f) from exp(2 pi i (p xi + theta y)) Zf, lam in the lattice."""
    lam = as_point(lam)
    if abs(lam.p - round(lam.p)) > 1e-9 or abs(lam.theta - round(lam.theta)) > 1e-9:
        raise ValueError("translation covariance holds for lattice points only")
    left = zak(wh_shift(lam, f))
    right = zak(f)
    Y, XI = right.y[:, None], right.xi[None, :]
    factor = np.exp(2j * np.pi * (lam.p * XI + lam.theta * Y))
    return float(np.max(np.abs(left.values - factor * right.values)))


def a_operator_zak(Z: ZakField) -> ZakField:
    """Ladder operator on the Zak side: (1/2 pi i)(d_xi + i d_y) + y.

    xi-differentiation is plain spectral (the field is 1-periodic in xi);
    y-differentiation is performed on the doubly periodic trivialization
    exp(2 pi i y xi) Z, which absorbs the quasi-periodic boundary factor.
    """
    y = Z.y[:, None]
    xi = Z.xi[None, :]
    d_xi = _fourier_derivative(Z.values, 1.0 / Z.N, axis=-1)
    twist = np.exp(2j * np.pi * y * xi)
    d_y = np.conj(twist) * _fourier_derivative(twist * Z.values, 1.0 / Z.N, axis=-2) \
        - 2j * np.pi * xi * Z.values
    vals = (d_xi + 1j * d_y) / (2j * np.pi) + y * Z.values
    return ZakField(Z.N, vals)
