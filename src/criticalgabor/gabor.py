"""Gabor atoms, the Gabor transform, series synthesis, and localization bounds.

The atom at lambda = (p, theta) is e_lambda(x) = 2^{1/4} exp(-pi (x-p)^2
+ 2 pi i theta x); atoms have unit norm and closed-form pairwise inner
products.  Analysis and synthesis rest on the sample lattice x_n = -T + n h.
A theta step delta with delta h = a/M makes e^{2 pi i k delta x_n} periodic
in n with period M.

gabor_transform() runs on the spectrum of f.  The Gaussian is its own Fourier
transform, so V f(p, theta) = e^{-2 pi i p theta} V f^(theta, -p), and each
theta row is a sum over the spectrum bins within the reach c = 4 of its
theta, one shared window over the length-L FFT of f.  The p step over L,
b/M', folds that sum onto one length-M' inverse FFT per row, whose first P
bins are the row's P values.  It takes only steps that pass step_periods()
(every other raises ValueError).  The bins and envelope images left out move
a value by about 1.5e-21 ||f|| on the default grid.

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
import cmath
import json
import math

import numpy as np

from .numerics import DEFAULT_H, DEFAULT_T, Memo, SampledSignal, _exp_pi_i, _sample_count
from .phaseplane import (Disk, Neighborhood, PhasePoint, UnionDomain, _json_number, _json_pair_list, _json_pairs,
                         as_point)

DEFAULT_BOX = 8.0
DEFAULT_DLAM = 1.0 / 16.0
DEFAULT_MARGIN = 4.0
# theta rows per FFT batch: bounds the transform's scratch memory
_ROWS = 16
# signals per batch of a stack of patch sums or expansions: bounds their scratch memory
_STACK = 4
# the transform reads each row's spectrum within this many units of its theta
_REACH = 4.0
# the transform's theta period M and p period M' may reach this many times N
_STEP_DENOMINATOR = 16

# superpose reads theta differences on the dyadic grid 2^-_DYADIC_BITS
_DYADIC_BITS = 40
_DYADIC = 2.0 ** _DYADIC_BITS

SIGMA0 = float(sum(np.exp(-np.pi * k ** 2 / 2.0) for k in range(-40, 41)))


def atom(lam, T: float = DEFAULT_T, h: float = DEFAULT_H) -> SampledSignal:
    """Coherent state e_lambda sampled on the grid.

    The center must keep DEFAULT_MARGIN = 4 units away from the truncation
    boundary (which puts the dropped tail below 1e-21), otherwise the sampled
    atom is visibly non-normalized and an error is raised.
    """
    lam = as_point(lam)
    _check_margin(lam.p, T, DEFAULT_MARGIN)
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
        # a writeable array is copied, so the caller's stays writeable and the field frozen
        for name in ("p_grid", "theta_grid", "values"):
            arr = np.asarray(getattr(self, name))
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.shape != (self.p_grid.size, self.theta_grid.size):
            raise ValueError("field shape does not match its grids")

    def mass(self) -> float:
        """Riemann approximation of int |V|^2 dlambda: one sum of squares over the real
        and imaginary parts, for values of any layout."""
        parts = self.values[..., None].view(float)
        return float(np.einsum("ijk,ijk->", parts, parts) * self.dlam ** 2)

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


def _samples_per_unit(h: float) -> int | None:
    """H when h is 1/H for an integer H, else None.

    The float nearest 1/H may miss it by half an ulp (H = 49, 98, 103, ...),
    so H h is held to 1 within one ulp: reading h as 1/H then moves a grid
    point by about 1e-16 of its distance from the origin.
    """
    H = round(1.0 / h)
    return H if H >= 1 and abs(H * h - 1.0) <= math.ulp(1.0) else None


def step_periods(dlam: float, h: float, N: int) -> tuple[int, int, int, int, int, int]:
    """(H, a, M, L, b, M') of the step rule for a step dlam > 0 on N samples of step h.

    The rule has three clauses, and a step that breaks one raises ValueError:
    - h = 1/H for an integer H, as _samples_per_unit() reads it;
    - the theta fold: dlam h = a/M, a fraction with M <= 16 N that rounds to
      the float dlam h exactly (0.1 at h = 1/64 is 1/640);
    - the p fold: with L the least multiple of M with L >= N - 1 + c/h,
      c = _REACH, the p step r = dlam/h = a H^2/M in samples gives
      r/L = b/M' in lowest terms, and M' <= 16 N.
    gabor_transform() takes its periods from here, and the CLI checks its
    phase steps here when it reads a config.
    """
    H = _samples_per_unit(h)
    if H is None:
        raise ValueError(f"sample step h={h!r} is no 1/H for an integer H, so the p grid has no period "
                         f"on the spectrum")
    cap = _STEP_DENOMINATOR * N
    step = Fraction(dlam * h).limit_denominator(cap)  # a/M
    if float(step) != dlam * h:
        raise ValueError(f"phase step dlam={dlam!r} at h={h!r}: dlam h is no fraction a/M with "
                         f"M <= {cap}, so the theta grid has no period on the samples")
    a, M = step.numerator, step.denominator
    L = M * -(-(N - 1 + math.ceil(_REACH * H)) // M)
    rate = Fraction(a * H * H, M * L)  # b/M'
    if rate.denominator > cap:
        raise ValueError(f"phase step dlam={dlam!r} at h={h!r}: the p step folds onto "
                         f"M'={rate.denominator} > {cap} spectrum bins")
    return H, a, M, L, rate.numerator, rate.denominator


def gabor_transform(f: SampledSignal, box=DEFAULT_BOX, dlam: float = DEFAULT_DLAM) -> GaborField:
    """Sample <f | e_lambda> on a rectangular grid of the phase plane, from the spectrum of f.

    The step must pass the rule of step_periods(); every other step raises
    ValueError.  With g_n = f(x_n) e^{-2 pi i theta_0 x_n} (_grid_phase) and G
    its length-L FFT, theta_l = theta_0 + l dlam sits s = a L/M bins after
    theta_0.  The Gaussian is its own Fourier transform, so Parseval on the
    length-L DFT turns each row into a sum over the 2J + 1 bins within the
    reach c = _REACH of it, J = floor(c L h):

        V(p_0 + k dlam, theta_l) = sum_{|m| <= J} g_{s l + m} w_m e^{2 pi i m k b/M'},

        g_i = G[i mod L] e^{pi i (N - 1) i/L},
        w_m = 2^{1/4} e^{-pi (m H/L)^2} e^{2 pi i m c_0/L} / L,  c_0 = p_0 H.

    The phase of g_i at i = s l + m is the row's, e^{pi i l a (N - 1)/M},
    times e^{pi i (N - 1) m/L}, which with N - 1 = 2 T H completes the
    window's anchor c_0 to the sample origin, (p_0 + T) H; on the spectrum it
    is paid once per bin and not once per point.  One window w serves every
    row.  Each block of _ROWS rows folds tap m onto slot b m mod M' in one
    (rows, M') buffer and runs one inverse FFT; since b is prime to M', p_k
    sits at bin k, and the block is one slice of the output.  The integer
    parts of c_0 m and of (N - 1) i are reduced in integers, so every phase
    is good to a few ulps.

    The sum stands for the DFT of the envelope's L-periodic extension: since
    L h >= 2T + c, its images stay c away from every sample.  Three terms
    bound what the window leaves out, each through
    max |G| <= sum_n |f(x_n)| <= sqrt(N/h) ||f||:

        |Delta V| <= 2^{5/4} sqrt(2T + h) ||f|| (e^{-pi c^2} (1/(L h) + 1/(2 pi c))
                                                 + e^{-pi c^2}
                                                 + e^{-pi H^2/4} (1/(L h) + 1/(pi H))),

    the bins J < |m| <= L/2 beyond the reach, the envelope images (at most
    2 e^{-pi c^2} on a sample), and the xi-aliasing of the bins |m| > L/2 that
    the periodic sum folds back; about 1.5e-21 ||f|| at c = 4, T = 8,
    h = 1/64: far below the transform's own roundoff.
    The box may not exceed the grid truncation |p| <= T; near the boundary the
    atoms are themselves truncated, which is harmless for signals whose mass
    stays well inside the grid.
    """
    ps, ts = _box_grids(box, dlam)
    if np.max(np.abs(ps)) > f.T + 1e-9:
        raise ValueError(f"phase box reaches p={np.max(np.abs(ps))}, beyond the grid T={f.T}")
    N = f.values.size
    periods = H, _, _, L, _, _ = step_periods(dlam, f.h, N)
    G = np.fft.fft(f.values * _grid_phase(-ts[0] * f.h, N), L)
    values = _spectrum_rows(G, ps[0] * H, ps.size, ts.size, N, periods)
    for arr in (ps, ts, values):  # the field takes frozen arrays without a copy
        arr.setflags(write=False)
    return GaborField(ps, ts, values, dlam)


def _spectrum_rows(G: np.ndarray, c0: float, P: int, K: int, N: int, periods) -> np.ndarray:
    """out[k, l] = sum_{|m| <= J} g_{s l + m} w_m e^{2 pi i m k b/M'},  g_i = G[i mod L] e^{pi i (N - 1) i/L}.

    This is gabor_transform() with c0 = p_0 H on N samples; periods come
    from step_periods().  Tap m lands on slot b m mod M' (b is prime to M'),
    so after the inverse FFT p_k sits at bin k, and each block of rows is one
    contiguous slice of its sums: the box spans at most N - 1 samples at
    r = dlam/h per p step, and M' r = b L > N - 1, so P <= M'.  Taps run in
    strides of b slots between the wraps of b m mod M'.  The first M' taps
    meet every slot at most once and assign, later ones add, so the slots
    that no tap meets stay zero from one block to the next: no fill, and no
    add for the first M' taps, which is all of them at the default step.
    """
    H, a, M, L, b, Mp = periods
    J, s = math.floor(_REACH * L / H), a * L // M
    m = np.arange(-J, J + 1)
    c_int = math.floor(c0)
    turns = (m * c_int % L + m * (c0 - c_int)) / L
    w = 2 ** 0.25 / L * np.exp(-np.pi * (m * (H / L)) ** 2 + 2j * np.pi * turns)
    i = np.arange(-J, s * (K - 1) + J + 1)
    g = G[i % L]
    g *= np.exp(1j * np.pi * ((N - 1) * i % (2 * L) / L))
    spec = np.ndarray((K, m.size), complex, g, 0, (s * g.itemsize, g.itemsize))  # row l is g[s l:s l + 2J + 1]
    slot = b * m % Mp
    cuts = sorted({0, min(Mp, m.size), m.size, *(np.flatnonzero(np.diff(slot) != b) + 1).tolist()})
    runs = [(t0, t1, slice(slot[t0], slot[t1 - 1] + 1, b)) for t0, t1 in zip(cuts, cuts[1:])]
    fold = np.zeros((min(_ROWS, K), Mp), dtype=complex)
    sums = np.empty_like(fold)
    out = np.empty((P, K), dtype=complex)
    for l in range(0, K, _ROWS):
        rows, blk = spec[l:l + _ROWS], fold[:min(_ROWS, K - l)]
        for t0, t1, cols in runs:
            if t0 < Mp:
                np.multiply(rows[:, t0:t1], w[t0:t1], out=blk[:, cols])
            else:
                blk[:, cols] += rows[:, t0:t1] * w[t0:t1]
        np.fft.ifft(blk, axis=1, norm="forward", out=sums[:blk.shape[0]])
        out[:, l:l + _ROWS] = sums[:blk.shape[0], :P].T
    return out


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
        if len(self.nodes) != len(self.sharp_block):
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
        """The text from_json() reads, in json.dumps' own spelling: each coefficient,
        sharp_block value and node through one %-template.  A value or node coordinate
        that is no finite number raises ValueError by from_json()'s own rule, so no
        text is written that from_json() would refuse.  Entry values are python
        complexes (the class keeps them so), whose parts %r spells as json.dumps does."""
        entries = sorted(self.entries.items())
        _refuse_non_finite([v for _, v in entries] + self.sharp_block, "coefficient")
        _refuse_non_finite([n.label for n in self.nodes], "node", ("p", "theta"))
        text = ", ".join([_ENTRY % (k, j, _JSON_BOOL[s], v.real, v.imag) for (k, j, s), v in entries])
        if not self.sharp_block:
            return '{"coefficients": [%s]}' % text
        block = ", ".join([_PAIR % (b.real, b.imag) for b in self.sharp_block])
        nodes = ", ".join([_PAIR % (float(n.p), float(n.theta)) for n in self.nodes])
        return '{"coefficients": [%s], "sharp_block": [%s], "nodes": [%s]}' % (text, block, nodes)

    @staticmethod
    def from_json(text: str) -> "CoefficientSet":
        """The set that to_json() wrote.  Whatever to_json() would not write raises
        ValueError: a k or j that is no JSON integer, a sharp that is no boolean,
        a re, im or node coordinate that is no finite number, a (k, j, sharp)
        given twice, a node list that does not match the sharp_block, or a
        payload, coefficient, sharp_block or node list of another JSON shape."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or not isinstance(payload.get("coefficients"), list):
            raise ValueError("a coefficient set is a JSON object with a list of coefficients")
        entries = {}
        for c in payload["coefficients"]:
            if not isinstance(c, dict):
                raise ValueError(f"coefficient {c!r} is no JSON object")
            key = (c["k"], c["j"], c.get("sharp", False))
            if type(key[0]) is not int or type(key[1]) is not int or type(key[2]) is not bool:
                raise ValueError(f"coefficient {c!r}: k and j must be integers and sharp a boolean")
            if key in entries:
                raise ValueError(f"coefficient (k, j, sharp) = {key} is given twice")
            entries[key] = _finite(c["re"], c["im"])
        block = [_finite(re, im) for re, im in _json_pair_list(payload.get("sharp_block", []), "sharp_block")]
        out = CoefficientSet(sharp_block=block, nodes=_json_pairs(payload.get("nodes", []), "nodes"))
        out.entries = entries  # already normalised: python ints, bools and complexes
        return out


_ENTRY = '{"k": %d, "j": %d, "sharp": %s, "re": %r, "im": %r}'
_PAIR = "[%r, %r]"
_JSON_BOOL = {False: "false", True: "true"}


def _refuse_non_finite(values: list, what: str, parts=("re", "im")):
    """ValueError, by _json_number's rule, when a part of one of the complex values is no finite number."""
    if not all(map(cmath.isfinite, values)):
        bad = next(v for v in values if not cmath.isfinite(v))
        for part, name in zip((bad.real, bad.imag), parts):
            _json_number(part, f"{what} {name}")


def _finite(re, im) -> complex:
    """re + i im for two finite JSON numbers; ValueError otherwise."""
    try:
        return complex(_json_number(re, "re"), _json_number(im, "im"))
    except ValueError:
        raise ValueError(f"coefficient value ({re!r}, {im!r}) is no pair of finite numbers") from None


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
    """(rows, M, t0) with sum_b W[..., b] e^{2 pi i ts[b] x_n} = e^{2 pi i t0 x_n} rows[..., n mod M].

    With x_n = (h/2)(2n - (N - 1)) and ts[b] = t0 + k_b/(h M) for integers
    k_b, the factor e^{2 pi i (ts[b] - t0) x_n} is e^{-pi i k_b (N - 1)/M}
    w_M^{k_b n}, w_M = e^{2 pi i/M}: each row is one length-M inverse FFT of
    its weights scattered to k_b mod M, where thetas that alias on the grid
    add.  M is the least such period: the differences ts - t0 are read on the
    dyadic grid 2^-40 and their gcd gives the common step.  t0 is 0 when the
    thetas themselves lie on such a progression (lattice and sharp points), so
    no common phase is left to multiply; otherwise t0 = ts[0].  Without a step,
    when h is no 1/H (_samples_per_unit()) or when M would exceed N, the rows
    are the product with the (theta x N) table of the phases themselves:
    M = N, t0 = 0.
    """
    H = _samples_per_unit(h) or 0
    L = H << _DYADIC_BITS  # k_b = (ts[b] - t0) h M = q_b M / L
    for t0 in (0.0, ts[0]) if H else ():
        q = (ts - t0) * _DYADIC
        qi = q.astype(np.int64) if np.abs(q).max() < 2.0 ** 53 else None
        if qi is not None and (qi == q).all():
            M = L // math.gcd(int(np.gcd.reduce(qi)), L)
            if M <= N:
                k = qi // (L // M)
                Z = np.zeros(W.shape[:-1] + (M,), dtype=complex)
                np.add.at(Z.T, k % M, (W * np.exp(-1j * np.pi * ((k * (N - 1)) % (2 * M) / M))).T)
                return np.fft.ifft(Z, axis=-1, norm="forward", out=Z), M, t0
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
    """sum_{a,b} W[..., a, b] e_{(ps[a], ts[b])} on the grid, for ps and ts in any order.

    Leading axes of W give a stack of sums that share the (ps, ts) grid, one
    envelope table and one phase-row transform.  The sum is
    e^{2 pi i t0 x_n} sum_a envelope_a[n] rows[..., a, n mod M] (_phase_rows,
    _envelopes).  The first N - N mod M samples are a (N // M, M) reshape, so
    the sum over a runs as two real contractions with no P x N complex
    temporary; the last N mod M samples are one more.
    """
    N = _sample_count(T, h)
    lead = W.shape[:-2]
    if W.size == 0:
        return np.zeros(lead + (N,), dtype=complex)
    rows, M, t0 = _phase_rows(ts, W, h, N)
    env = _envelopes(ps, T, h, N)
    R = N // M
    out = np.empty(lead + (N,), dtype=complex)
    full, env_full = out[..., :R * M].reshape(lead + (R, M)), env[:, :R * M].reshape(-1, R, M)
    full.real = np.einsum("arm,...am->...rm", env_full, rows.real)
    full.imag = np.einsum("arm,...am->...rm", env_full, rows.imag)
    if R * M < N:
        out[..., R * M:] = np.einsum("an,...an->...n", env[:, R * M:], rows[..., :N - R * M])
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
    support = UnionDomain([Disk(pt, 0.0) for pt in coeffs.points()])
    outside = ~Neighborhood(support, r).contains_grid(field.p_grid, field.theta_grid)
    measured = float(np.sum(np.abs(field.values[outside]) ** 2) * dlam ** 2)
    return measured, bound


def field_synthesis(field: GaborField, T: float, h: float) -> SampledSignal:
    """Riemann sum of V(lambda) e_lambda d lambda over the field's grid.

    The grid steps by dlam in theta, so at dlam = 1/16, h = 1/64 each of its
    p rows is one inverse FFT of 1024 points (see _superpose_grid).  The
    grids may come in any order.
    """
    vals = _superpose_grid(field.p_grid, field.theta_grid, field.values, T, h) * field.dlam ** 2
    return SampledSignal(T, h, vals)
