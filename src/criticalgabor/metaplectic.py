"""Metaplectic operators for phase-plane rotations (the fractional Fourier
family), their covariance on atoms, and commutation with the ladder operators.

M_S f(x) = (i b)^{-1/2} int exp(pi i ((d/b) x^2 - (2/b) x y + (a/b) y^2)) f(y) dy
for the rotation matrix (a, b; c, d) = (cos phi, -sin phi; sin phi, cos phi).
The representation is two-valued; every check here fits a unimodular constant
and the principal branch of (i b)^{-1/2} is used throughout.  On the sample
grid the kernel sum is a chirp-z transform (chirp, FFT convolution, chirp;
Ozaktas et al. 1996), O(n log n) per application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gabor import atom
from .higher import annihilate, create
from .numerics import DEFAULT_H, DEFAULT_T, SampledSignal, _chirp_sum, inner
from .phaseplane import PhasePoint, as_point

# |sin phi| below this would push the chirp rates past the grid Nyquist, so
# the quadrature would alias; such angles are reached by composing with a
# quarter turn instead.  The guard is about accuracy: each kernel application
# costs one O(n log n) chirp-z sum whatever the angle.
_MIN_B = 0.35


@dataclass(frozen=True)
class Rotation:
    """Phase-plane rotation S(p, theta) = (a p + b theta, c p + d theta)."""

    angle: float

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle!r}")

    @property
    def a(self) -> float:
        return float(np.cos(self.angle))

    @property
    def b(self) -> float:
        return float(-np.sin(self.angle))

    @property
    def c(self) -> float:
        return float(np.sin(self.angle))

    @property
    def d(self) -> float:
        return float(np.cos(self.angle))

    def __call__(self, lam) -> PhasePoint:
        lam = as_point(lam)
        return PhasePoint(self.a * lam.p + self.b * lam.theta,
                          self.c * lam.p + self.d * lam.theta)


def _kernel_apply(angle: float, f: SampledSignal) -> SampledSignal:
    """Chirp-quadrature kernel sum, with x_n x_m = h^2 n m - T x_n - T x_m - T^2
    turning the n x n kernel into a chirp-z sum of rate h^2/b.  A rotation has
    a = d, so the chirp before the sum and the one after it are one array."""
    a, b = np.cos(angle), -np.sin(angle)
    x = f.x
    chirp = np.exp(1j * np.pi * (a * x ** 2 + 2.0 * f.T * x) / b)
    scale = (1j * b) ** -0.5 * np.exp(2j * np.pi * f.T ** 2 / b) * f.h
    vals = scale * chirp * _chirp_sum(chirp * f.values, f.h ** 2 / b, x.size)
    return SampledSignal(f.T, f.h, vals)


def metaplectic_apply(S: Rotation, f: SampledSignal) -> SampledSignal:
    """Apply the rotation's metaplectic operator; unitary up to grid tolerance.

    The angle is reduced mod 2 pi first.  Exactly 0 gives the identity and
    exactly pi the parity form i f(-x); every other angle, however close to
    those, goes through the kernel, composed with the quarter-turn operator
    when |sin phi| < 0.35 so the chirp-quadrature kernel never exceeds the
    grid bandwidth.
    """
    phi = float(S.angle) % (2.0 * np.pi)
    if phi == 0.0:
        return SampledSignal(f.T, f.h, f.values.copy())
    if phi == np.pi:
        return SampledSignal(f.T, f.h, 1j * f.values[::-1].copy())
    if abs(np.sin(phi)) >= _MIN_B:
        return _kernel_apply(phi, f)
    return _kernel_apply(phi - np.pi / 2.0, _kernel_apply(np.pi / 2.0, f))


class CovarianceResult(NamedTuple):
    deviation: float
    phase_error: float
    fitted: complex


def covariance_check(S: Rotation, lam, T: float = DEFAULT_T, h: float = DEFAULT_H) -> CovarianceResult:
    """How far M_S e_lambda is from a unimodular multiple of e_{S lambda}.

    Returns the optimal deviation, and the phase distance of the fitted
    constant from +-exp(i phi/2) exp(pi i (p theta - q eta)) with
    (q, eta) = S(p, theta).
    """
    lam = as_point(lam)
    rotated = metaplectic_apply(S, atom(lam, T, h))
    target = atom(S(lam), T, h)
    c = inner(rotated, target)
    dev = float(np.sqrt(max(rotated.norm() ** 2 - abs(c) ** 2, 0.0)))
    q, eta = S(lam)
    predicted = np.exp(1j * S.angle / 2.0 + 1j * np.pi * (lam.p * lam.theta - q * eta))
    ratio = c / predicted
    phase_err = float(min(abs(np.angle(ratio)), abs(np.angle(-ratio))))
    return CovarianceResult(dev, phase_err, complex(c))


def commutation_check(S: Rotation, f: SampledSignal, adjoint: bool = False) -> float:
    """Norm of M_S a f - exp(-i phi) a M_S f (creation variant with +i phi)."""
    if adjoint:
        lhs = metaplectic_apply(S, create(f))
        rhs = np.exp(1j * S.angle) * create(metaplectic_apply(S, f))
    else:
        lhs = metaplectic_apply(S, annihilate(f))
        rhs = np.exp(-1j * S.angle) * annihilate(metaplectic_apply(S, f))
    return (lhs - rhs).norm()
