"""Gabor atoms, the Gabor transform, series synthesis, and localization bounds.

The atom at lambda = (p, theta) is e_lambda(x) = 2^{1/4} exp(-pi (x-p)^2
+ 2 pi i theta x); atoms have unit norm and closed-form pairwise inner
products.  Analysis and synthesis rest on one fact of the sample lattice
x_n = -T + n h: a theta step delta with delta h = a/M makes
e^{2 pi i k delta x_n} periodic in n with period M.  gabor_transform() takes
only steps dlam of that kind (every other raises ValueError); it folds each
row's samples onto n mod M, runs one length-M FFT and reads theta_k at bin
a k mod M.  Each row reads only the samples within the reach c = 4 of its p;
the samples left out move a value by at most 2^{1/4} e^{-pi c^2}
sqrt(2T + h) ||f||, about 7e-22 ||f|| on the default grid.

Every superposition sum c_lambda e_lambda (lattice and sharp series, the
order-m dual-atom block, Riemann sums over a phase grid) goes through one
kernel, _superpose_grid().  When the thetas step by a common delta with
M = 1/(delta h) an integer, each envelope's phase row is one length-M inverse
FFT; for lattice and sharp points theta_0 = 0, and no common phase is left.
When the centers p step by whole samples, every envelope is a window of one
Gaussian profile.  Phases are reduced mod 1 before the factor 2 pi, so the
sum keeps full accuracy at any |theta x|.  Points on no such progression take
the same kernel with one phase row per theta (M = N) and one exp per p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
import json
import math

import numpy as np

from .numerics import DEFAULT_H, DEFAULT_T, Memo, SampledSignal, loc_integral, _exp_pi_i, _sample_count
from .phaseplane import PhasePoint, PointSet, as_point, grid_points, neighborhood

DEFAULT_BOX = 8.0
DEFAULT_DLAM = 1.0 / 16.0
DEFAULT_MARGIN = 4.0
# phase-box rows per FFT batch: bounds the transform's scratch memory
_ROWS = 16
# the transform reads each row's samples within this many units of its p
_REACH = 4.0
# the transform's theta period M on the samples may reach this many times N
_STEP_DENOMINATOR = 16

# superpose reads theta differences on the dyadic grid 2^-_DYADIC_BITS
_DYADIC_BITS = 40
_DYADIC = 2.0 ** _DYADIC_BITS

SIGMA0 = float(sum(np.exp(-np.pi * k ** 2 / 2.0) for k in range(-40, 41)))


def atom(lam, T: float = DEFAULT_T, h: float = DEFAULT_H,
         margin: float = DEFAULT_MARGIN) -> SampledSignal:
    """Coherent state e_lambda sampled on the grid.

    The center must keep `margin` units away from the truncation boundary
    (margin 4 puts the dropped tail below 1e-21), otherwise the sampled atom
    is visibly non-normalized and an error is raised.
    """
    lam = as_point(lam)
    _check_margin(lam.p, T, margin)
    x = -T + h * np.arange(_sample_count(T, h))
    vals = 2 ** 0.25 * np.exp(-np.pi * (x - lam.p) ** 2 + 2j * np.pi * lam.theta * x)
    return SampledSignal(T, h, vals)


def _check_margin(ps, T: float, margin: float):
    """Every atom center p must keep `margin` units away from +-T."""
    worst = float(np.max(np.abs(ps), initial=0.0))
    if worst + margin > T:
        raise ValueError(f"atom center p={worst} too close to the boundary T={T} (margin {margin})")


def atom_inner(lam, mu) -> complex:
    """Closed-form <e_lam | e_mu> = exp(pi i (p+q)(theta-eta) - pi |lam-mu|^2 / 2)."""
    lam, mu = as_point(lam), as_point(mu)
    d2 = (lam.p - mu.p) ** 2 + (lam.theta - mu.theta) ** 2
    return complex(np.exp(1j * np.pi * (lam.p + mu.p) * (lam.theta - mu.theta) - np.pi * d2 / 2.0))


@dataclass(frozen=True)
class GaborField:
    """Values V(lambda) = <f | e_lambda> on a rectangular phase grid."""

    p_grid: np.ndarray
    theta_grid: np.ndarray
    values: np.ndarray  # shape (len(p_grid), len(theta_grid))
    dlam: float

    def __post_init__(self):
        for name in ("p_grid", "theta_grid", "values"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (self.p_grid.size, self.theta_grid.size):
            raise ValueError("field shape does not match its grids")

    def mass(self) -> float:
        """Riemann approximation of int |V|^2 dlambda."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dlam ** 2)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("p,theta,re,im\n")
            for i, p in enumerate(self.p_grid):
                for j, t in enumerate(self.theta_grid):
                    v = self.values[i, j]
                    fh.write(f"{float(p)!r},{float(t)!r},{float(v.real)!r},{float(v.imag)!r}\n")


def _as_box(box):
    """A phase box (pmin, pmax, tmin, tmax); a scalar b stands for (-b, b, -b, b)."""
    return (-box, box, -box, box) if np.isscalar(box) else tuple(box)


def _box_grids(box, dlam):
    if not dlam > 0:
        raise ValueError(f"phase step dlam={dlam!r} must be positive")
    pmin, pmax, tmin, tmax = _as_box(box)
    if not (pmin <= pmax and tmin <= tmax):
        raise ValueError(f"phase box {(pmin, pmax, tmin, tmax)!r} needs pmin <= pmax and tmin <= tmax")
    # floor, so the grid never passes pmax or tmax; 1e-9 absorbs the rounding of the ratio
    ps = pmin + dlam * np.arange(int(np.floor((pmax - pmin) / dlam + 1e-9)) + 1)
    ts = tmin + dlam * np.arange(int(np.floor((tmax - tmin) / dlam + 1e-9)) + 1)
    return ps, ts


def gabor_transform(f: SampledSignal, box=DEFAULT_BOX, dlam: float = DEFAULT_DLAM) -> GaborField:
    """Sample <f | e_lambda> on a rectangular grid of the phase plane.

    The step must satisfy dlam h = a/M, a fraction with M <= 16 N that rounds
    to the float dlam h exactly (0.1 at h = 1/64 is 1/640); every other step
    raises ValueError.  With theta_k = theta_0 + k dlam and
    x_n = (h/2)(2n - (N - 1)),

        e^{-2 pi i theta_k x_n} = e^{-2 pi i theta_0 x_n} e^{pi i (a/M) k (N - 1)} w_M^{-a k n},

    w_M = e^{2 pi i/M}: each row's samples of f e^{-2 pi i theta_0 x} times its
    envelope fold onto n mod M, one length-M FFT sums them, and theta_k reads
    bin a k mod M.  The first factor is _grid_phase and the second is reduced
    mod 2 in integers, so every phase is good to a few ulps.

    Rows go through in blocks of _ROWS; a block starting at sample n0 folds
    only the W samples n0..n0+W-1 within the reach c = _REACH of its p-span
    into one (rows, M) buffer that all blocks reuse.  By Cauchy-Schwarz the
    samples left out move each value by at most

        |Delta V| <= 2^{1/4} e^{-pi c^2} sqrt(2T + h) ||f||,

    about 7e-22 ||f|| at c = 4, T = 8: far below the transform's own roundoff.
    The box may not exceed the grid truncation |p| <= T; near the boundary the
    atoms are themselves truncated, which is harmless for signals whose mass
    stays well inside the grid.
    """
    ps, ts = _box_grids(box, dlam)
    if np.max(np.abs(ps)) > f.T + 1e-9:
        raise ValueError(f"phase box reaches p={np.max(np.abs(ps))}, beyond the grid T={f.T}")
    x, h = f.x, f.h
    N, K = x.size, ts.size
    step = Fraction(dlam * h).limit_denominator(_STEP_DENOMINATOR * N)  # a/M
    if float(step) != dlam * h:
        raise ValueError(f"phase step dlam={dlam!r} at h={h!r}: dlam h is no fraction a/M with "
                         f"M <= {_STEP_DENOMINATOR * N}, so the theta grid has no period on the samples")
    a, M = step.numerator, step.denominator
    rows = min(_ROWS, ps.size)
    # the span's samples counted inclusively, plus one spare against the rounding of the ratio
    W = min(N, int(np.ceil(((rows - 1) * dlam + 2 * _REACH) / h)) + 2)
    g = f.values * _grid_phase(-ts[0] * h, N)
    ak = a * np.arange(K)
    post = 2 ** 0.25 * h * np.exp(1j * np.pi * (ak * (N - 1) % (2 * M) / M))
    out = np.empty((ps.size, K), dtype=complex)
    envelope = np.empty((rows, W))
    buf = np.empty((rows, M), dtype=complex)
    for i in range(0, ps.size, _ROWS):
        p = ps[i:i + _ROWS, None]
        n0 = min(max(int(np.floor((ps[i] - _REACH + f.T) / h)), 0), N - W)
        env, blk = envelope[:p.size], buf[:p.size]
        np.subtract(x[n0:n0 + W], p, out=env)
        np.square(env, out=env)
        env *= -np.pi
        np.exp(env, out=env)
        blk.fill(0.0)
        # sample n adds to column n mod M: one run of columns per period the window meets
        for lo in (n0, *range(n0 - n0 % M + M, n0 + W, M)):
            hi, c = min(lo - lo % M + M, n0 + W), lo % M
            blk[:, c:c + hi - lo] += env[:, lo - n0:hi - n0] * g[lo:hi]
        np.fft.fft(blk, axis=1, out=blk)
        np.take(blk, ak % M, axis=1, out=out[i:i + _ROWS])
        out[i:i + _ROWS] *= post
    return GaborField(ps, ts, out, dlam)


class CoefficientSet:
    """Finitely supported coefficients over the relaxed lattice.

    Keys are (k, j, sharp); a sharp entry sits at (k + 1/2, j + 1/2).  An
    optional order-m block (values with its node list) rides along for
    higher-order expansions.
    """

    def __init__(self, entries=None, sharp_block=None, nodes=None):
        self.entries: dict[tuple[int, int, bool], complex] = {}
        if entries:
            for key, val in dict(entries).items():
                k, j, sharp = key
                self.entries[(int(k), int(j), bool(sharp))] = complex(val)
        self.sharp_block = [complex(b) for b in (sharp_block or [])]
        self.nodes = [as_point(n) for n in (nodes or [])]
        if self.sharp_block and len(self.nodes) != len(self.sharp_block):
            raise ValueError("order-m block needs one node per coefficient")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(sorted(self.entries.items()))

    def get(self, k, j, sharp=False) -> complex:
        return self.entries.get((k, j, sharp), 0j)

    def set(self, k, j, value, sharp=False):
        self.entries[(int(k), int(j), bool(sharp))] = complex(value)

    def add(self, k, j, value, sharp=False):
        key = (int(k), int(j), bool(sharp))
        self.entries[key] = self.entries.get(key, 0j) + complex(value)

    def points(self) -> list[PhasePoint]:
        off = {False: 0.0, True: 0.5}
        return [PhasePoint(k + off[s], j + off[s]) for (k, j, s) in sorted(self.entries)]

    def l2(self) -> float:
        total = sum(abs(v) ** 2 for v in self.entries.values())
        total += sum(abs(b) ** 2 for b in self.sharp_block)
        return float(np.sqrt(total))

    def to_json(self) -> str:
        payload = {
            "coefficients": [
                {"k": k, "j": j, "sharp": s, "re": v.real, "im": v.imag}
                for (k, j, s), v in sorted(self.entries.items())
            ]
        }
        if self.sharp_block:
            payload["sharp_block"] = [[b.real, b.imag] for b in self.sharp_block]
            payload["nodes"] = [[n.p, n.theta] for n in self.nodes]
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "CoefficientSet":
        payload = json.loads(text)
        entries = {
            (c["k"], c["j"], bool(c.get("sharp", False))): complex(c["re"], c["im"])
            for c in payload["coefficients"]
        }
        block = [complex(re, im) for re, im in payload.get("sharp_block", [])]
        nodes = [tuple(n) for n in payload.get("nodes", [])]
        return CoefficientSet(entries, sharp_block=block, nodes=nodes)


MAX_ORDER = 6


def vandermonde_inverse(nodes) -> np.ndarray:
    """Inverse of W[j, k] = nodes[j]**k through elementary symmetric polynomials.

    Column j of the result holds the coefficients of the Lagrange basis
    polynomial of node j, i.e. signed elementary symmetric polynomials of the
    other nodes over p'(node_j); no generic matrix inversion is involved.
    """
    nodes = np.asarray(nodes, dtype=complex).ravel()
    n = nodes.size
    if n == 0:
        raise ValueError("need at least one node")
    for a in range(n):
        for b in range(a + 1, n):
            if abs(nodes[a] - nodes[b]) < 1e-12:
                raise ValueError(f"repeated nodes {nodes[a]} and {nodes[b]}")
    V = np.empty((n, n), dtype=complex)
    for j, mu in enumerate(nodes):
        others = np.delete(nodes, j)
        coef = np.array([1.0 + 0j])
        for nu in others:
            coef = np.convolve(coef, np.array([-nu, 1.0 + 0j]))
        V[:, j] = coef / (np.prod(mu - others) if others.size else 1.0)
    return V


def dual_mixing(nodes) -> np.ndarray:
    """Mixing matrix H[j, s] of the order-m dual atoms d_j = sum_s H[j, s] e_{mu_s}.

    gamma_sharp(a^k e_mu) = (-1)^{floor(eta)} mu_label^k for distinct sharp
    nodes mu_0..mu_m, so H is the Vandermonde inverse of the complex labels
    times the parity signs; it enforces gamma_sharp(a^k d_j) = delta_j^k.
    H is memoised per node tuple and returned read-only.
    """
    pts = [as_point(n) for n in nodes]
    return _MIXING_MEMO.get(tuple((float(pt.p), float(pt.theta)) for pt in pts),
                            lambda: _mixing(pts))


def _block_weights(block, nodes) -> np.ndarray:
    """The node weights b @ H of an order-m block, summed in long double and rounded once."""
    return (np.asarray(block, dtype=np.clongdouble) @ dual_mixing(nodes)).astype(complex)


def _mixing(pts: list[PhasePoint]) -> np.ndarray:
    if len(pts) - 1 > MAX_ORDER:
        raise ValueError(f"order m={len(pts) - 1} exceeds the cap {MAX_ORDER} (Vandermonde conditioning)")
    for pt in pts:
        if max(abs(c - 0.5 - round(c - 0.5)) for c in pt) > 1e-9:
            raise ValueError(f"{pt} is not a sharp (cell-midpoint) point")
    signs = np.array([(-1.0) ** round(pt.theta - 0.5) for pt in pts])
    return vandermonde_inverse([pt.label for pt in pts]) * signs[None, :]


_MIXING_MEMO = Memo()
# ln 2^{1/4}: the envelopes carry the atoms' factor 2^{1/4} inside their exp
_LOG_NORM = math.log(2.0) / 4.0


def _grid_phase(c: float, N: int) -> np.ndarray:
    """exp(pi i c m_n) for m_n = 2n - (N - 1), n < N; at c = theta h this is exp(2 pi i theta x_n).

    With n = K a + b, m_n = 2 K a + m_b, so the row is the outer product of
    two short rows, about 2 sqrt(N) phases for N.  _exp_pi_i reduces each
    c m mod 2 before the factor pi, so every phase is good to a few ulps
    whatever theta is.
    """
    K = 1 << (N.bit_length() + 1) // 2
    m = np.concatenate([2.0 * K * np.arange(-(-N // K)), 2.0 * np.arange(K) - (N - 1)])
    rows = _exp_pi_i(c, m, (2 * N).bit_length())
    return np.multiply.outer(rows[:-K], rows[-K:]).ravel()[:N]


def _phase_rows(ts, W, h: float, N: int) -> tuple[np.ndarray, int, float]:
    """(rows, M, t0) with sum_b W[:, b] e^{2 pi i ts[b] x_n} = e^{2 pi i t0 x_n} rows[:, n mod M].

    With x_n = (h/2)(2n - (N - 1)) and ts[b] = t0 + k_b/(h M) for integers
    k_b, the factor e^{2 pi i (ts[b] - t0) x_n} is e^{-pi i k_b (N - 1)/M}
    w_M^{k_b n}, w_M = e^{2 pi i/M}: each row is one length-M inverse FFT of
    its weights scattered to k_b mod M, where thetas that alias on the grid
    add.  M is the least such period: the differences ts - t0 are read on the
    dyadic grid 2^-40 and their gcd gives the common step.  t0 is 0 when the
    thetas themselves lie on such a progression (lattice and sharp points), so
    no common phase is left to multiply; otherwise t0 = ts[0].  Without a step,
    or when M would exceed N, the rows are the product with the (theta x N)
    table of the phases themselves: M = N, t0 = 0.
    """
    H = round(1.0 / h)
    L = H << _DYADIC_BITS  # k_b = (ts[b] - t0) h M = q_b M / L
    for t0 in (0.0, ts[0]) if H * h == 1.0 else ():
        q = (ts - t0) * _DYADIC
        qi = q.astype(np.int64) if np.abs(q).max() < 2.0 ** 53 else None
        if qi is not None and (qi == q).all():
            M = L // math.gcd(int(np.gcd.reduce(qi)), L)
            if M <= N:
                k = qi // (L // M)
                Z = np.zeros((W.shape[0], M), dtype=complex)
                np.add.at(Z.T, k % M, (W * np.exp(-1j * np.pi * ((k * (N - 1)) % (2 * M) / M))).T)
                return np.fft.ifft(Z, axis=1, norm="forward"), M, t0
    return W @ np.array([_grid_phase(t * h, N) for t in ts]), N, 0.0


def _envelopes(ps, T: float, h: float, N: int) -> np.ndarray:
    """The (P, N) envelopes 2^{1/4} e^{-pi (x_n - p)^2}, the factor inside the exp.

    When every (p - min p)/h is an integer s_p (below 2N), row p is the window
    at s_p samples of one Gaussian profile about min p, built once over the
    extended range and read through a strided view; otherwise each p gets its
    own exp.  The ps may come in any order.
    """
    p0 = ps.min()
    s = (ps - p0) / h
    si = s.astype(np.int64) if s.max() < 2 * N else None
    if si is not None and (si == s).all():
        top = int(si.max())
        u = h * np.arange(-top, N) - T  # x_{n - top}, exact
        u -= p0
        u *= u
        u *= -np.pi
        u += _LOG_NORM
        profile = np.exp(u, out=u)
        return np.ndarray((top + 1, N), float, profile, 0, profile.strides * 2)[top - si]
    return np.exp(_LOG_NORM - np.pi * (-T + h * np.arange(N) - ps[:, None]) ** 2)


def _superpose_grid(ps, ts, W, T: float, h: float) -> np.ndarray:
    """sum_{a,b} W[a, b] e_{(ps[a], ts[b])} on the grid, for ps and ts in any order.

    The sum is e^{2 pi i t0 x_n} sum_a envelope_a[n] rows[a, n mod M]
    (_phase_rows, _envelopes).  The first N - N mod M samples are a (N // M, M)
    reshape, so the sum over a runs as two real contractions with no P x N
    complex temporary; the last N mod M samples are one more.
    """
    N = _sample_count(T, h)
    if W.size == 0:
        return np.zeros(N, dtype=complex)
    rows, M, t0 = _phase_rows(ts, W, h, N)
    env = _envelopes(ps, T, h, N)
    R = N // M
    out = np.empty(N, dtype=complex)
    full, env_full = out[:R * M].reshape(R, M), env[:, :R * M].reshape(-1, R, M)
    full.real = np.einsum("arm,am->rm", env_full, rows.real)
    full.imag = np.einsum("arm,am->rm", env_full, rows.imag)
    if R * M < N:
        out[R * M:] = np.einsum("an,an->n", env[:, R * M:], rows[:, :N - R * M])
    if t0:
        out *= _grid_phase(t0 * h, N)
    return out


def superpose(points, weights, T: float, h: float) -> SampledSignal:
    """sum_mu w_mu e_mu on the grid, for phase points (n, 2) and weights (n,).

    The weights scatter into a (distinct p) x (distinct theta) matrix, so
    repeated points add; _superpose_grid sums it on the sample lattice.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ps, ip = np.unique(pts[:, 0], return_inverse=True)
    ts, it = np.unique(pts[:, 1], return_inverse=True)
    W = np.zeros((ps.size, ts.size), dtype=complex)
    np.add.at(W, (ip, it), np.asarray(weights, dtype=complex).ravel())
    return SampledSignal(T, h, _superpose_grid(ps, ts, W, T, h))


def synthesize(coeffs: CoefficientSet, T: float = DEFAULT_T, h: float = DEFAULT_H,
               margin: float = DEFAULT_MARGIN) -> SampledSignal:
    """Superpose sum c_lambda e_lambda (plus any order-m block) on the grid.

    The order-m block sum_j b_j d_j enters as node weights b @ dual_mixing,
    summed in long double and rounded once (_block_weights).
    Nonzero entries and all block nodes must keep `margin` away from +-T.
    Satisfies ||f|| <= sigma0 * (sum |c|^2)^{1/2} with sigma0 = sum_k
    exp(-pi k^2 / 2) ~ 1.41950.
    """
    n = len(coeffs.entries)
    keys = np.fromiter(chain.from_iterable(coeffs.entries), float, 3 * n).reshape(n, 3)  # (k, j, sharp)
    values = np.fromiter(coeffs.entries.values(), complex, n)
    nonzero = values != 0
    points = keys[nonzero, :2] + 0.5 * keys[nonzero, 2:]
    weights = values[nonzero]
    if coeffs.sharp_block:
        points = np.concatenate([points, np.array([tuple(n) for n in coeffs.nodes], dtype=float)])
        weights = np.concatenate([weights, _block_weights(coeffs.sharp_block, coeffs.nodes)])
    _check_margin(points[:, 0], T, margin)
    return superpose(points, weights, T, h)


def tail_mass(coeffs: CoefficientSet, r: float, box=DEFAULT_BOX,
              dlam: float = 1.0 / 8.0, T: float = DEFAULT_T, h: float = DEFAULT_H):
    """Gabor mass of a lattice series outside the r-neighborhood of its support.

    Returns (measured, bound): the grid integral of |<g|e_mu>|^2 over the box
    minus the neighborhood, and the guarantee exp(-pi r^2) * sum |c|^2.
    """
    if r <= 0:
        raise ValueError("tail radius must be positive")
    bound = float(np.exp(-np.pi * r ** 2) * coeffs.l2() ** 2)
    if not coeffs.entries:
        return 0.0, bound
    g = synthesize(coeffs, T, h)
    # midpoint grid: boundary cells classify by center, so the measured tail
    # approaches the continuum value from below
    pmin, pmax, tmin, tmax = _as_box(box)
    field = gabor_transform(g, (pmin + dlam / 2, pmax - dlam / 2, tmin + dlam / 2, tmax - dlam / 2), dlam)
    support = PointSet(coeffs.points())
    outside = ~neighborhood(support, r).contains(grid_points(field.p_grid, field.theta_grid))
    measured = float(np.sum(np.abs(field.values.ravel()[outside]) ** 2) * dlam ** 2)
    return measured, bound


def half_plane_mass(f: SampledSignal, q: float) -> float:
    """Gabor mass over the half-plane p >= q, via int I(x - q) |f(x)|^2 dx."""
    return float(np.sum(loc_integral(f.x - q) * np.abs(f.values) ** 2) * f.h)


def field_synthesis(field: GaborField, T: float, h: float) -> SampledSignal:
    """Riemann sum of V(lambda) e_lambda d lambda over the field's grid.

    The grid steps by dlam in theta, so at dlam = 1/16, h = 1/64 each of its
    p rows is one inverse FFT of 1024 points (see _superpose_grid).  The
    grids may come in any order.
    """
    vals = _superpose_grid(field.p_grid, field.theta_grid, field.values, T, h) * field.dlam ** 2
    return SampledSignal(T, h, vals)
