"""Ladder operators, Vandermonde-inverse dual atoms, and the order-m relaxed
expansion with improved coefficient decay.

Every atom is an eigenvector of the annihilation operator, a e_lambda =
(p + i theta) e_lambda, so sharp values of a^k applied to atom combinations
reduce to a small Vandermonde system.  Killing the first m+1 sharp
obstructions of f makes the theta-divided Zak field m times smoother, which
shows up directly in the decay of the lattice coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .gabor import CoefficientSet, DEFAULT_MARGIN, MAX_ORDER, _STACK, atom, dual_mixing, synthesize
from .numerics import SampledSignal, spectral_derivative, stacked, unstacked
from .phaseplane import PhasePoint, as_point, sharp_point
from .expansion import lattice_coefficients, sharp_functional


def annihilate(f):
    """a f = (1/2 pi) f' + x f, computed with the spectral derivative.

    f is one signal, or a sequence of signals on one grid: then the result is
    a list, one signal per input, from one spectral_derivative call (one FFT
    pair) over their stack, each equal to the single call bit for bit.
    """
    return _ladder(f, 1.0)


def create(f):
    """a+ f = -(1/2 pi) f' + x f, the adjoint of annihilate; f as for annihilate."""
    return _ladder(f, -1.0)


def _ladder(f, sign: float):
    """sign (1/2 pi) f' + x f for one signal or a sequence; sign is +-1, so it only flips f'."""
    single = isinstance(f, SampledSignal)
    signals, derivatives = ([f], [spectral_derivative(f)]) if single else (f, spectral_derivative(f))
    x = signals[0].x
    out = [SampledSignal(g.T, g.h, (d.values if sign > 0 else -d.values) / (2.0 * np.pi) + x * g.values)
           for g, d in zip(signals, derivatives)]
    return out[0] if single else out


@dataclass
class DualAtomSet:
    """Atoms d_j = sum_s H[j, s] e_{mu_s} biorthogonal to the sharp values of a^k."""

    nodes: list[PhasePoint]
    mixing: np.ndarray  # H[j, s]
    atoms: list[SampledSignal]


def dual_atoms(nodes, T: float, h: float) -> DualAtomSet:
    """Build the order-m dual atoms d_j = sum_s H[j, s] e_{mu_s} for distinct
    sharp nodes mu_0..mu_m, with H = dual_mixing(nodes)."""
    pts = [as_point(n) for n in nodes]
    H = dual_mixing(pts)
    base = np.array([atom(pt, T, h).values for pt in pts])
    return DualAtomSet(pts, H, [SampledSignal(T, h, vals) for vals in H @ base])


def default_sharp_nodes(m: int) -> list[PhasePoint]:
    """The m+1 sharp points closest to (1/2, 1/2); a lattice translate serves another cell.

    Candidates come from the square of side sqrt(m+1) centered at the origin;
    the square grows in half-unit steps when it holds fewer than m+1 sharp
    points (needed for m >= 4).
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    target = sharp_point()
    side = np.sqrt(m + 1.0)
    while True:
        half = side / 2.0 + 1e-9
        cand = [
            sharp_point(a, b)
            for a in range(-int(np.ceil(half)), int(np.ceil(half)) + 1)
            for b in range(-int(np.ceil(half)), int(np.ceil(half)) + 1)
            if abs(a + 0.5) <= half and abs(b + 0.5) <= half
        ]
        if len(cand) >= m + 1:
            break
        side += 0.5
    cand.sort(key=lambda pt: ((pt - target).norm, pt.p, pt.theta))
    return cand[: m + 1]


@dataclass
class OrderMExpansion:
    """Sharp block gamma_sharp(a^j f) against dual atoms, plus lattice coefficients."""

    sharp_block: list[complex]
    nodes: list[PhasePoint]
    coeffs: CoefficientSet
    cutoff: int

    @property
    def decay_exponent(self) -> float:
        """Fitted decay of the lattice coefficients out to the cutoff; see decay_exponent()."""
        return decay_exponent(self.coeffs, rmax=self.cutoff)

    def full_coefficients(self) -> CoefficientSet:
        full = CoefficientSet(sharp_block=self.sharp_block, nodes=self.nodes)
        full.entries = dict(self.coeffs.entries)  # already normalised: copy, do not rebuild
        return full

    def signal(self, T: float, h: float, margin: float = DEFAULT_MARGIN) -> SampledSignal:
        return synthesize(self.full_coefficients(), T, h, margin)


def _expand(signals, nodes, R: int) -> list[tuple[list[complex], CoefficientSet]]:
    """The one expansion core at sharp nodes mu_0..mu_m, for an iterable of signals
    on one grid: per signal f, the sharp block [gamma_sharp(a^j f) for j <= m]
    and the lattice coefficients of f - sum_j gamma_sharp(a^j f) d_j.

    The dual atoms are built once.  The signals are drawn _STACK at a time, and
    each batch runs as one stack: one annihilate call per order step, the sharp
    values row by row, the dual atoms subtracted from all rows at once, and one
    lattice_coefficients call, so the scratch of its Zak sums and 8x
    refinement stays bounded, and a generator of signals keeps only one batch
    alive.  Each row's arithmetic is the single signal's, so every output
    equals that of a batch of one bit for bit.
    """
    out, duals, signals = [], None, iter(signals)
    while batch := list(islice(signals, _STACK)):
        if duals is None:
            duals = dual_atoms(nodes, batch[0].T, batch[0].h)
        ladder = [batch]  # a^j of every signal, one annihilate call per order step
        for _ in duals.nodes[1:]:
            ladder.append(annihilate(ladder[-1]))
        block = np.array([[sharp_functional(g) for g in step] for step in ladder])  # (m + 1, signals)
        f_sharp, T, h = stacked(batch)
        for b, d in zip(block, duals.atoms):
            f_sharp = f_sharp - d.values * b[:, None]  # the atom first: b * d's own rounding
        out.extend(zip(block.T.tolist(), lattice_coefficients(unstacked(f_sharp, T, h, batch), R)))
    return out


def order_m_coefficients(f, m: int, nodes=None, R: int = 6):
    """Order-m relaxed expansion: f = sum_j gamma_sharp(a^j f) d_j + sum c_lambda e_lambda.

    Subtracting the dual-atom block zeroes the first m+1 sharp obstructions,
    so the theta-divided Zak field of the remainder is m times smoother and
    its Fourier coefficients decay accordingly.

    f is one signal, or an iterable of signals on one grid: then the result
    is a list with one expansion per signal, from one set of dual atoms and
    stacked batches of the core (_expand).
    """
    if m < 0 or m > MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    pts = [as_point(n) for n in nodes] if nodes is not None else default_sharp_nodes(m)
    if len(pts) != m + 1:
        raise ValueError(f"order m={m} needs exactly {m + 1} nodes, got {len(pts)}")
    single = isinstance(f, SampledSignal)
    out = [OrderMExpansion(block, pts, coeffs, R)
           for block, coeffs in _expand([f] if single else f, pts, R)]
    return out[0] if single else out


def decay_exponent(coeffs: CoefficientSet, rmax: float | None = None) -> float:
    """Log-log slope of shell-RMS coefficient size against 1 + |lambda|, over the
    lattice entries with 1.5 <= |lambda| <= rmax and |c| >= 1e-14."""
    keys = np.array(list(coeffs.entries), dtype=float).reshape(-1, 3)
    size = np.abs(np.fromiter(coeffs.entries.values(), complex, len(keys)))
    r = np.hypot(keys[:, 0], keys[:, 1])
    keep = (keys[:, 2] == 0) & (r >= 1.5) & (size >= 1e-14)
    if rmax is not None:
        keep &= r <= rmax
    radii, shell = np.unique(np.round(r[keep]), return_inverse=True)
    if radii.size < 3:
        return float("nan")
    mean_sq = np.bincount(shell, weights=size[keep] ** 2) / np.bincount(shell)
    slope = np.polyfit(np.log1p(radii), 0.5 * np.log(mean_sq), 1)[0]
    return float(-slope)
