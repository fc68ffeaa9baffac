"""Helpers shared by the test modules: signal families, the norm ratio of a relaxed
combination, call counting, a user-defined domain and its nearest-distance search,
the metaplectic kernel in its factored form, unmemoised, and the metaplectic
smoothness check.

A plain module, so that `from support import ...` finds it however many test
folders, each with a conftest.py of its own, run in one session.
"""

from collections import Counter
import json
from pathlib import Path
import sys

import numpy as np

from criticalgabor import (CoefficientSet, Rotation, SampledSignal, gabor_transform, hermite_signal,
                           metaplectic_apply, synthesize)
from criticalgabor.gabor import DEFAULT_MARGIN, _check_margin
from criticalgabor.numerics import _chirp, _fft_length
from criticalgabor.phaseplane import PhaseDomain

T8 = 8.0
H64 = 1.0 / 64.0
POOL = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
# point-site pairs per nearest-distance block: bounds its scratch memory
_PAIRS = 1 << 16


def atom_values(lam, T: float, h: float) -> np.ndarray:
    """The samples of the atom e_lambda on the (T, h) grid by atom()'s own formula, at any distance from +-T."""
    p, theta = lam
    x = -T + h * np.arange(int(round(2 * T / h)) + 1)
    return 2 ** 0.25 * np.exp(-np.pi * (x - p) ** 2 + 2j * np.pi * theta * x)


def grid_points(ps, ts) -> np.ndarray:
    """The (len(ps) * len(ts), 2) array of phase points (p, theta), p major."""
    P, T = np.meshgrid(ps, ts, indexing="ij")
    return np.column_stack([P.ravel(), T.ravel()])


def _nearest_distance(sites: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each row of pts to the nearest row of sites, both (n, 2),
    in blocks of at most _PAIRS point-site pairs."""
    out = np.empty(len(pts))
    rows = max(1, _PAIRS // len(sites))
    for i in range(0, len(pts), rows):
        dp = pts[i:i + rows, 0, None] - sites[:, 0]
        dt = pts[i:i + rows, 1, None] - sites[:, 1]
        dp *= dp
        dt *= dt
        dp += dt
        out[i:i + rows] = np.sqrt(np.min(dp, axis=1))
    return out


def random_smooth(rng, count=1, orders=8, T=T8, h=H64):
    """Seeded unit-norm combinations of low hermites; smooth test family."""
    basis = [hermite_signal(n, T, h) for n in range(orders)]
    out = []
    for _ in range(count):
        a = rng.normal(size=(orders, 2)) @ np.array([1.0, 1.0j])
        a = a / np.linalg.norm(a)
        out.append(SampledSignal(T, h, sum(ai * b.values for ai, b in zip(a, basis))))
    return out


def uniqueness_probe(coeffs: CoefficientSet, T: float, h: float) -> float:
    """Norm ratio ||sum c e||/(sum |c|^2)^{1/2} of a finite relaxed combination; a zero vector is refused."""
    size = coeffs.l2()
    if size == 0:
        raise ValueError("uniqueness probe needs a nonzero coefficient vector")
    return synthesize(coeffs, T, h).norm() / size


def pool_signal(spec, T=8.0, h=1.0 / 64.0):
    """A pool signal of kind "atoms" on the benchmark's grid, written out."""
    x = -T + h * np.arange(int(round(2 * T / h)) + 1)
    return SampledSignal(T, h, sum(complex(re, im) * 2 ** 0.25 * np.exp(-np.pi * (x - p) ** 2 + 2j * np.pi * th * x)
                                   for p, th, re, im in spec["atoms"]))


def count_calls(monkeypatch, targets) -> Counter:
    """Count the calls of each (owner module, function name) of targets by name, patched in every
    criticalgabor namespace that holds the function, as the benchmark's tracer patches."""
    calls = Counter()
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "criticalgabor"]
    for owner, name in targets:
        fn = getattr(owner, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


# a user-defined domain: the library's PhaseDomain contract met by a predicate
class FunctionDomain(PhaseDomain):
    """Arbitrary membership predicate over (p, theta) arrays, with explicit bbox.

    The predicate must hold only inside the bbox, as for every domain:
    boundary sampling, lattice enumeration and neighborhood membership look
    no further.  A bounded domain checks this on a ring one resolution step
    outside the bbox, sampled at the resolution, and raises ValueError if the
    predicate holds anywhere on it.  Distance is measured to the boundary
    as sampled at the resolution."""

    resolution = 1.0 / 32.0

    def __init__(self, predicate, bbox):
        self.predicate = predicate
        super().__init__(bbox)
        self._boundary = None
        if self.is_bounded() and np.any(self._contains_xy(self._outer_ring())):
            raise ValueError(f"predicate holds outside its bounding box {self.bbox}")

    def _outer_ring(self) -> np.ndarray:
        pmin, pmax, tmin, tmax = self.bbox
        s = self.resolution
        ps = np.linspace(pmin - s, pmax + s, int(np.ceil((pmax - pmin) / s)) + 3)
        ts = np.linspace(tmin - s, tmax + s, int(np.ceil((tmax - tmin) / s)) + 3)
        return np.vstack([grid_points(ps, ts[[0, -1]]), grid_points(ps[[0, -1]], ts)])

    # membership is the predicate itself, on points and grids alike, not the distance rule
    def _contains_xy(self, pts):
        return np.asarray(self.predicate(pts[:, 0], pts[:, 1]), dtype=bool)

    def contains_grid(self, ps, ts):
        return self._contains_xy(grid_points(ps, ts)).reshape(np.size(ps), np.size(ts))

    def _boundary_samples(self) -> np.ndarray:
        if not self.is_bounded():
            raise ValueError("cannot sample the boundary of an unbounded domain")
        pmin, pmax, tmin, tmax = self.bbox
        pad = 2 * self.resolution
        ps = np.arange(pmin - pad, pmax + pad + self.resolution, self.resolution)
        ts = np.arange(tmin - pad, tmax + pad + self.resolution, self.resolution)
        grid = grid_points(ps, ts)
        inside = self._contains_xy(grid).reshape(ps.size, ts.size)
        edge = np.zeros_like(inside)
        edge[:-1, :] |= inside[:-1, :] != inside[1:, :]
        edge[1:, :] |= inside[:-1, :] != inside[1:, :]
        edge[:, :-1] |= inside[:, :-1] != inside[:, 1:]
        edge[:, 1:] |= inside[:, :-1] != inside[:, 1:]
        samples = grid[(edge & inside).ravel()]
        if samples.size == 0:
            samples = grid[inside.ravel()]
        if samples.size == 0:
            raise ValueError("domain has no occupied cells at this resolution")
        return samples

    def _distance_xy(self, pts):
        if self._boundary is None:
            self._boundary = self._boundary_samples()
        out = np.zeros(len(pts))
        outside = ~self._contains_xy(pts)
        out[outside] = _nearest_distance(self._boundary, pts[outside])
        return out


# the smoothness invariance of the metaplectic rotation, |<M_S f | e_{S lambda}>| = |<f | e_lambda>|
def factored_rotation_plan(angle, f):
    """The kernel's chirp q = exp(pi i tan(angle/2) x^2) and the FFT of its even convolution
    kernel w_k = exp(pi i h^2 k^2/b) at the 5-smooth length >= 2N - 1, built in the call."""
    N = f.values.size
    L = _fft_length(2 * N - 1)
    w = _chirp(f.h ** 2 / -np.sin(angle), N)
    kernel = np.zeros(L, dtype=complex)
    kernel[:N] = w
    kernel[L - N + 1:] = w[:0:-1]
    return np.exp(1j * np.pi * np.tan(angle / 2.0) * f.x ** 2), np.fft.fft(kernel)


def factored_kernel_apply(angle, f):
    """The metaplectic kernel sum as chirp, convolution, chirp, with out-of-place FFTs."""
    q, kernel_fft = factored_rotation_plan(angle, f)
    conv = np.fft.ifft(np.fft.fft(q * f.values, kernel_fft.size) * kernel_fft)[:f.values.size]
    return SampledSignal(f.T, f.h, (1j * -np.sin(angle)) ** -0.5 * f.h * q * conv)


def hdelta_invariance_check(S: Rotation, f: SampledSignal, grid_radius: float | None = None,
                            step: float = 0.25) -> float:
    """Max over a lambda grid of ||<M_S f | e_{S lambda}>| - |<f | e_lambda>||.

    |<f | e_lambda>| comes from one gabor_transform over the grid; the rotated
    points S lambda are off-grid, so their atoms enter as one envelope x phase
    product.  Every atom center keeps DEFAULT_MARGIN away from +-T, as in atom(),
    else ValueError.  The default grid_radius is the largest multiple of step
    with grid_radius sqrt(2) + DEFAULT_MARGIN <= T, so the grid corners stay
    clear of the margin at every angle (2.75 on the T=8 grid).
    """
    if grid_radius is None:
        grid_radius = step * max(np.floor((f.T - DEFAULT_MARGIN) / (np.sqrt(2.0) * step)), 0.0)
    vals = np.arange(-grid_radius, grid_radius + step / 2, step)
    P, Th = grid_points(vals, vals).T
    q, eta = S.a * P + S.b * Th, S.c * P + S.d * Th
    _check_margin(np.append(vals, q), f.T, DEFAULT_MARGIN)
    # the box spans the lambda grid's own end points, so the transform grid is that grid
    field = gabor_transform(f, (vals[0], vals[-1], vals[0], vals[-1]), step)
    rotated = metaplectic_apply(S, f)
    x = f.x
    atoms_conj = np.exp(-np.pi * (x[None, :] - q[:, None]) ** 2 - 2j * np.pi * eta[:, None] * x[None, :])
    v2 = np.abs(atoms_conj @ rotated.values) * 2 ** 0.25 * f.h
    return float(np.max(np.abs(np.abs(field.values.ravel()) - v2)))
