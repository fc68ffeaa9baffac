"""Metaplectic operators for phase-plane rotations (the fractional Fourier
family), their covariance on atoms, and commutation with the ladder operators.

M_S f(x) = (i b)^{-1/2} int exp(pi i ((d/b) x^2 - (2/b) x y + (a/b) y^2)) f(y) dy
for the rotation matrix (a, b; c, d) = (cos phi, -sin phi; sin phi, cos phi).
The representation is two-valued; every check here fits a unimodular constant
and the principal branch of (i b)^{-1/2} is used throughout.  On the sample
grid x_n = -T + n h the kernel sum factors as chirp, convolution, chirp
(Ozaktas et al. 1996): with a = d,
M_S f(x_n) = (i b)^{-1/2} h q_n sum_m w_{n-m} q_m f(x_m),
q = exp(pi i (a - 1) x^2/b), w_k = exp(pi i h^2 k^2/b),
one FFT convolution per application, O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gabor import atom
from .higher import annihilate, create
from .numerics import DEFAULT_H, DEFAULT_T, Memo, SampledSignal, _chirp, _fft_length, inner
from .phaseplane import PhasePoint, as_point

# |sin phi| below this would push the chirp rates past the grid Nyquist, so
# the quadrature would alias; such angles are reached by composing with a
# quarter turn instead.  The guard is about accuracy: each kernel application
# costs one O(n log n) FFT convolution whatever the angle.
_MIN_B = 0.35
# metaplectic_apply reduces the angle mod fl(2 pi), which falls short of 2 pi by
# 2.449e-16, while the matrix entries take cos and sin of the angle itself: the
# two differ by |angle| 2.449e-16/fl(2 pi).  Rotation refuses the angles where
# that exceeds _ANGLE_TOLERANCE rad, |angle| > 25653.05.
_ANGLE_TOLERANCE = 1e-12
_MAX_ANGLE = _ANGLE_TOLERANCE * (2.0 * np.pi) / 2.4492935982947064e-16


@dataclass(frozen=True)
class Rotation:
    """Phase-plane rotation S(p, theta) = (a p + b theta, c p + d theta).

    The angle must be finite with |angle| <= _MAX_ANGLE (about 2.6e4), so the
    operator, which runs on the angle reduced mod 2 pi, and the matrix agree
    to 1e-12 rad; every other angle raises ValueError.
    """

    angle: float

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle!r}")
        if abs(self.angle) > _MAX_ANGLE:
            raise ValueError(f"rotation angle {self.angle!r} is beyond |angle| <= {_MAX_ANGLE:.7g}, where its "
                             f"reduction mod 2 pi in floating point stays within {_ANGLE_TOLERANCE:g} rad")

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
    """The kernel sum as chirp, convolution, chirp (module docstring): a = d splits the
    exponent as ((a - 1) x_n^2 + (x_n - x_m)^2 + (a - 1) x_m^2)/b.  q takes
    (a - 1)/b as tan(angle/2), one rounding in place of three.  q and the
    FFT of the even kernel w are built once per (angle, T, h, N) and read-only."""
    b = -np.sin(angle)
    N = f.values.size

    def plan():
        L = _fft_length(2 * N - 1)
        w = _chirp(f.h ** 2 / b, N)
        kernel = np.zeros(L, dtype=complex)
        kernel[:N] = w
        kernel[L - N + 1:] = w[:0:-1]
        return np.exp(1j * np.pi * np.tan(angle / 2.0) * f.x ** 2), np.fft.fft(kernel)

    q, kernel_fft = _ROTATION_PLAN_MEMO.get((angle, f.T, f.h, N), plan)
    buf = np.zeros(kernel_fft.size, dtype=complex)
    np.multiply(q, f.values, out=buf[:N])
    np.fft.fft(buf, out=buf)
    buf *= kernel_fft
    vals = (1j * b) ** -0.5 * f.h * q * np.fft.ifft(buf, out=buf)[:N]
    return SampledSignal(f.T, f.h, vals)


_ROTATION_PLAN_MEMO = Memo()


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
