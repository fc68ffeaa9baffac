"""Relaxed Gabor expansion at critical density.

At cell area one the lattice atoms are complete but not a frame; adjoining a
single "sharp" atom at a cell midpoint restores unique l2 expansions for
smooth signals.  The sharp coefficient is an alternating half-integer sample
sum; the lattice coefficients are double Fourier coefficients of
F = exp(pi y^2) Z f_sharp / Theta(xi + i y), which is doubly periodic once
the sharp contribution has been removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gabor import CoefficientSet, DEFAULT_BOX, DEFAULT_DLAM, DEFAULT_MARGIN, _box_grids, gabor_transform, synthesize
from .numerics import (THETA_TERMS, Memo, SampledSignal, _fourier_derivative, array_key, stacked, theta,
                       upsample_periodic)
from .phaseplane import sharp_point
from .zak import zak, _zak_sum

THETA0 = float(np.real(theta(0.0)))
# a power x ** delta of x > 1 passes the float range once delta ln x passes this
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _half_integer_indices(f: SampledSignal):
    """The signs (-1)^q and the sample indices of the half-integer points q + 1/2,
    |q + 1/2| < T, memoised per (T, h)."""
    return _HALF_INTEGER_MEMO.get((f.T, f.h), lambda: _half_integer_grid(f.T, f.h))


def _half_integer_grid(T: float, h: float):
    Ti = int(round(T))
    half = 0.5 / h
    if abs(T - Ti) > 1e-9 or abs(half - round(half)) > 1e-9:
        raise ValueError("sharp functional needs half-integer points on the grid")
    qs = np.arange(-Ti, Ti)
    return np.where(qs % 2 == 0, 1.0, -1.0), np.round((qs + 0.5 + T) / h).astype(int)


_HALF_INTEGER_MEMO = Memo()


def sharp_series(f: SampledSignal) -> complex:
    """Alternating half-integer sample sum sum_q (-1)^q f(q + 1/2)."""
    signs, idx = _half_integer_indices(f)
    return complex(np.sum(signs * f.values[idx]))


def sharp_functional(f: SampledSignal) -> complex:
    """Sharp coefficient gamma(f) = (1/(i Theta(0))) sum_q (-1)^q f(q + 1/2).

    Equals Zf(1/2, 1/2)/(i Theta(0)); it is 1 on the midpoint atom and 0 on
    every lattice atom.
    """
    return sharp_series(f) / (1j * THETA0)


def sharp_functional_zak(f: SampledSignal) -> complex:
    """Same functional read off the Zak field at (1/2, 1/2) by trigonometric
    interpolation of the midpoint grid.

    Each row of Zf is 1-periodic in xi, so doubling it puts a node at xi = 1/2.
    In y, Zf(y + 1, 1/2) = -Zf(y, 1/2); the twist exp(i pi y) makes that column
    1-periodic too, and doubling it gives exp(i pi / 2) Zf(1/2, 1/2).
    """
    Z = zak(f)
    column = upsample_periodic(Z.values, 2)[:, Z.N - 1]  # Zf(y_i, 1/2)
    val = upsample_periodic(np.exp(1j * np.pi * Z.y) * column, 2)[Z.N - 1] / 1j
    return val / (1j * THETA0)


def hdelta_norm(f: SampledSignal, delta: float, box=DEFAULT_BOX,
                dlam: float = DEFAULT_DLAM) -> float:
    """Phase-space smoothness norm (int (|lambda|^delta + 1) |<f|e_lambda>|^2)^{1/2}.

    At delta = 2 the norm comes from three moments of f, with no transform:
    for the unit Gaussian window, Plancherel in theta and the window's second
    moment 1/(4 pi) in x and in xi give
    int (1 + |z|^2) |V f(z)|^2 dz = (1 + 1/(2 pi)) ||f||^2 + ||x f||^2 + ||f'||^2/(4 pi^2)
    (Groechenig, Foundations of Time-Frequency Analysis, 2001, ch. 3).  f' is
    the spectral derivative, so f must be negligible at +-T, as for
    `spectral_derivative`.  `box` and `dlam` set the Gabor grid of every other
    delta and are unused at delta = 2.  There, a delta at which |lambda|^delta
    passes the float range on the grid raises ValueError before the transform.
    """
    if delta < 0:
        raise ValueError("smoothness order must be >= 0")
    if delta == 2:
        power = np.abs(f.values) ** 2
        slope = np.abs(_fourier_derivative(f.values, f.h)) ** 2
        return float(np.sqrt(f.h * np.sum((1.0 + 0.5 / np.pi + f.x ** 2) * power
                                          + slope / (4.0 * np.pi ** 2))))
    ps, ts = _box_grids(box, dlam)
    reach = float(np.hypot(np.max(np.abs(ps)), np.max(np.abs(ts))))  # the grid's largest |lambda|
    if reach > 1.0 and delta * np.log(reach) > _LOG_FLOAT_MAX:
        raise ValueError(f"smoothness order delta={delta!r} on the phase box {box!r}: "
                         f"|lambda|^delta passes the float range at |lambda| = {reach!r}")
    V = gabor_transform(f, box, dlam)
    power = np.abs(V.values)
    power *= power
    power *= np.hypot(V.p_grid[:, None], V.theta_grid) ** delta + 1.0
    return float(np.sqrt(np.sum(power) * dlam ** 2))


def _divided(Z: np.ndarray, y: np.ndarray, xi: np.ndarray, terms: int = THETA_TERMS) -> np.ndarray:
    """exp(pi y^2) Z / Theta(xi + i y) for Z sampled on the (y, xi) grid."""
    th = theta(xi[None, :] + 1j * y[:, None], terms)
    assert np.min(np.abs(th)) > 0.0, "theta vanished on the grid"
    return np.exp(np.pi * y[:, None] ** 2) * Z / th


def division_field(f_sharp, terms: int = THETA_TERMS):
    """F = exp(pi y^2) Z f_sharp / Theta(xi + i y) on the midpoint grid.

    The midpoint grid keeps every node away from the theta zero, so the
    division is always finite there.  For a sequence of signals on one grid,
    F and the Zak field carry their stack axis first.
    """
    Z = zak(f_sharp)
    return _divided(Z.values, Z.y, Z.xi, terms), Z


def _extract_block(F: np.ndarray, y: np.ndarray, xi: np.ndarray, R: int) -> np.ndarray:
    """Fourier sums of F on the (y, xi) grid against exp(2 pi i (p xi + theta y)).

    Returns M[p_idx, theta_idx] = sum F(y, xi) exp(-2 pi i (p xi + theta y)) for
    p, theta in -R..R; the caller supplies the cell area.  Leading axes of F (a
    stack of fields) lead the result.  The two Fourier-row matrices are
    memoised per (R, y, xi).
    """
    Ep, Et = _BLOCK_MEMO.get((R, array_key(y), array_key(xi)), lambda: _fourier_rows(R, y, xi))
    return Ep @ F.mT @ Et.T


def _fourier_rows(R: int, y: np.ndarray, xi: np.ndarray):
    """exp(-2 pi i k xi) and exp(-2 pi i k y) for k in -R..R, one row per k."""
    ks = np.arange(-R, R + 1)
    return np.exp(-2j * np.pi * np.outer(ks, xi)), np.exp(-2j * np.pi * np.outer(ks, y))


_BLOCK_MEMO = Memo()


_REFINE_FACTOR = 8


def _refine_correction(f_sharp, F: np.ndarray, R: int) -> np.ndarray:
    """One refined 2x2 block: the 4 cells cornered at (1/2, 1/2) as an 8x-subdivided
    Riemann sum, minus their midpoint terms in the coarse sum.

    F behaves like |z - sharp|^{eps-1} near the theta zero; plain midpoint
    quadrature converges slowly there, so the adjacent cells are integrated
    on a locally refined grid.  f_sharp and F may be a stack, as in
    division_field.

    The Zak field at the 16 x 16 fine nodes is read off its fibres.  Z is a
    trigonometric polynomial of degree 2T in xi, so the Zak sum at the fine xi
    nodes over the samples y = n h of one unit is exact.  Along y each fibre
    twisted by exp(2 pi i xi y) is 1-periodic; it is interpolated to the fine
    y nodes by upsample_periodic and untwisted.  That step is exact to
    roundoff when the spectrum of f is negligible within about 3 of the
    sample Nyquist 1/(2h) and its mass is negligible at +-T.  Against the
    refinement from closed-form atom values at the fine points (T = 8,
    h = 1/64, N = 32, R = 6): an atom at theta >= 29 departs, by 4.5e-3 of the
    block at theta = 31 (the 8x upsampled signal gave 1.0e-5), where the
    expansion itself leaves a relative residual of 1.41; an atom at p = 7 moves
    by 1.2e-3 of the block and lands closer to exact (2.3e-7 against 3.7e-7).
    """
    values, T, h = stacked(f_sharp)
    N = F.shape[-1]
    r, c = _REFINE_FACTOR, N // 2 - 1
    fine, samples, pick, twist, untwist = _REFINE_MEMO.get(N, lambda: _refine_plan(N))
    fibres = _zak_sum(values, T, h, samples, fine).mT * twist  # (xi, y), 1-periodic in y
    Zf = (upsample_periodic(fibres, r)[..., pick] * untwist).mT
    coarse = (c + np.arange(2) + 0.5) / N
    Ff = _divided(Zf, fine, fine)
    return (_extract_block(Ff, fine, fine, R) / (r * N) ** 2
            - _extract_block(F[..., c:c + 2, c:c + 2], coarse, coarse, R) / N ** 2)


def _refine_plan(N: int):
    """The fine nodes (c + (m + 1/2)/r)/N, m < 2r, the samples n/(2N), n < 2N, of one unit, the
    fine nodes' index on the samples upsampled r times (they are odd multiples of 1/(2 r N)),
    and the twist exp(2 pi i xi y) (fine xi, sample y) and untwist (fine xi, fine y)."""
    r, c = _REFINE_FACTOR, N // 2 - 1
    fine = (c + (np.arange(2 * r) + 0.5) / r) / N
    samples = np.arange(2 * N) / (2 * N)
    pick = 2 * (c * r + np.arange(2 * r)) + 1
    return (fine, samples, pick, np.exp(2j * np.pi * np.outer(fine, samples)),
            np.exp(-2j * np.pi * np.outer(fine, fine)))


_REFINE_MEMO = Memo()


def lattice_coefficients(f_sharp, R: int):
    """Lattice coefficients |k|, |j| <= R of f_sharp: double Fourier coefficients of
    division_field, the cells at the theta zero refined.

    f_sharp is one signal, or a sequence of signals on one grid, which run as
    one stack and give one CoefficientSet each, in a list.
    """
    F, Z = division_field(f_sharp)
    M = _extract_block(F, Z.y, Z.xi, R) / Z.N ** 2 + _refine_correction(f_sharp, F, R)
    keys = [(k, j, False) for k in range(-R, R + 1) for j in range(-R, R + 1)]
    sets = []
    for block in M.reshape(-1, len(keys)).tolist():
        coeffs = CoefficientSet()
        coeffs.entries = dict(zip(keys, block))  # already normalised: python ints, bools and complexes
        sets.append(coeffs)
    return sets[0] if isinstance(f_sharp, SampledSignal) else sets


@dataclass
class RelaxedExpansion:
    """Sharp coefficient plus lattice coefficients up to the cutoff |k|,|j| <= R."""

    sharp: complex
    sharp_node: tuple[int, int]
    coeffs: CoefficientSet
    cutoff: int

    def full_coefficients(self) -> CoefficientSet:
        merged = CoefficientSet()
        merged.entries = dict(self.coeffs.entries)  # already normalised: copy, do not rebuild
        merged.set(self.sharp_node[0], self.sharp_node[1], self.sharp, sharp=True)
        return merged

    def signal(self, T: float, h: float, margin: float = DEFAULT_MARGIN) -> SampledSignal:
        return synthesize(self.full_coefficients(), T, h, margin)


def relaxed_coefficients(f: SampledSignal, R: int, *, sharp_node: tuple[int, int] = (0, 0)) -> RelaxedExpansion:
    """Expansion coefficients of f over the lattice plus one sharp atom.

    The sharp atom may sit at any cell midpoint (k0 + 1/2, j0 + 1/2); its
    coefficient carries the parity factor (-1)^{j0}.  This is the order-0
    expansion at that one node, whose dual atom is (-1)^{j0} e_sharp: lattice
    coefficients are the double Fourier coefficients of the theta-divided Zak
    field of f - gamma * e_sharp for |k|, |j| <= R.
    """
    from .higher import _expand  # higher imports this module

    if R < 0:
        raise ValueError("cutoff must be >= 0")
    k0, j0 = int(sharp_node[0]), int(sharp_node[1])
    [(block, coeffs)] = _expand([f], [sharp_point(k0, j0)], R)
    return RelaxedExpansion((-1) ** j0 * block[0], (k0, j0), coeffs, R)


def reconstruct(f: SampledSignal, R: int, *, margin: float = DEFAULT_MARGIN):
    """Synthesize the relaxed expansion back; returns (signal, relative residual)."""
    rec = relaxed_coefficients(f, R).signal(f.T, f.h, margin)
    err, scale = (f - rec).norm(), f.norm()
    return rec, err / scale if scale > 0 else err


def uniqueness_probe(coeffs: CoefficientSet, T: float, h: float) -> float:
    """Norm ratio ||sum c e||/(sum |c|^2)^{1/2} of a finite relaxed combination.

    Bounded away from zero on the grid: the relaxed system has no approximate
    null vectors at desk scale.
    """
    size = coeffs.l2()
    if size == 0:
        raise ValueError("uniqueness probe needs a nonzero coefficient vector")
    return synthesize(coeffs, T, h).norm() / size


def seam_mismatch(f_sharp: SampledSignal, terms: int = THETA_TERMS) -> float:
    """Max deviation of F from double periodicity, measured across both seams.

    F on the shifted rows/columns is recomputed independently from the signal
    samples: fresh Zak sums at the nodes y + 1 and xi + 1, through the same Zak
    sum and theta division as F itself.  This cross-checks the Zak boundary
    rule against the theta quasi-periodicity.
    """
    F, Z = division_field(f_sharp, terms)
    shifted = ((Z.y + 1.0, Z.xi), (Z.y, Z.xi + 1.0))
    return max(float(np.max(np.abs(_divided(_zak_sum(f_sharp.values, f_sharp.T, f_sharp.h, y, xi),
                                            y, xi, terms) - F))) for y, xi in shifted)
