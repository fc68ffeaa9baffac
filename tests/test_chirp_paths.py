"""The FFT paths of the Gabor transform (a window over the spectrum, folded
onto b m mod M') and the metaplectic rotation (a chirp-z sum) against the dense
sums they replace.

The oracles below are the dense formulas: an X x Theta phase matrix for
<f | e_lambda>, an X x X kernel for the metaplectic chirp quadrature, and a
per-atom double loop for hdelta_invariance_check.  The chirp-z form is an
exact algebraic rewrite of its discrete sum, so it must agree to roundoff.

The Gabor transform sums each row over the spectrum bins within the reach
_REACH of its theta, with the envelope's periodic extension.  Three more
oracles cover that cut: the closed-form field of an atom mix,
sum_j c_j <e_mu_j | e_lambda>, which the transform must match to roundoff; a
one-bin spectrum at every bin in turn, whose rows within the reach each hold
one known term and whose other rows hold 0; and the dense sum over the bins
it leaves out plus the envelope images, which must stay under the bound its
docstring states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (PhasePoint, Rotation, SampledSignal, atom, atom_inner, gabor_transform,
                           inner, metaplectic_apply)
from criticalgabor.gabor import _REACH, _box_grids, _spectrum_rows, step_periods
from criticalgabor.metaplectic import _MIN_B
from criticalgabor.numerics import _chirp_sum, _exp_pi_i
from support import hdelta_invariance_check

GRIDS = [(8.0, 1.0 / 64.0), (6.0, 1.0 / 32.0)]


def dense_gabor_transform(f, box, dlam):
    ps, ts = _box_grids(box, dlam)
    x = f.x
    phase = np.exp(-2j * np.pi * np.outer(x, ts))
    out = np.empty((ps.size, ts.size), dtype=complex)
    for i, p in enumerate(ps):
        out[i] = (f.values * np.exp(-np.pi * (x - p) ** 2)) @ phase
    return out * 2 ** 0.25 * f.h


def dense_kernel_apply(angle, f):
    a, b, d = np.cos(angle), -np.sin(angle), np.cos(angle)
    x = f.x
    front = np.exp(1j * np.pi * (d / b) * x ** 2)
    back = np.exp(1j * np.pi * (a / b) * x ** 2) * f.values
    kernel = np.exp(-2j * np.pi * np.outer(x, x) / b)
    return SampledSignal(f.T, f.h, (1j * b) ** -0.5 * front * (kernel @ back) * f.h)


def dense_metaplectic_apply(S, f):
    phi = float(S.angle) % (2.0 * np.pi)
    if phi == 0.0:
        return SampledSignal(f.T, f.h, f.values.copy())
    if phi == np.pi:
        return SampledSignal(f.T, f.h, 1j * f.values[::-1].copy())
    if abs(np.sin(phi)) >= _MIN_B:
        return dense_kernel_apply(phi, f)
    return dense_kernel_apply(phi - np.pi / 2.0, dense_kernel_apply(np.pi / 2.0, f))


def loop_hdelta_invariance_check(S, f, grid_radius=3.0, step=0.25):
    rotated = dense_metaplectic_apply(S, f)
    vals = np.arange(-grid_radius, grid_radius + step / 2, step)
    worst = 0.0
    for p in vals:
        for t in vals:
            lam = PhasePoint(float(p), float(t))
            v1 = abs(inner(f, atom(lam, f.T, f.h)))
            v2 = abs(inner(rotated, atom(S(lam), f.T, f.h)))
            worst = max(worst, abs(v1 - v2))
    return float(worst)


def mixed_signal(seed, T, h):
    """Atoms plus white noise: smooth structure and every frequency at once."""
    rng = np.random.default_rng(seed)
    n = int(round(2 * T / h)) + 1
    vals = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for _ in range(3):
        p, theta = rng.uniform(4 - T, T - 4), rng.uniform(-4, 4)  # atom margin 4
        vals = vals + complex(*rng.normal(size=2)) * atom((p, theta), T, h).values
    return SampledSignal(T, h, vals)


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("N,K,c", [(1025, 257, 1 / 1024), (1025, 1025, 1 / (4096 * 0.37)),
                                   (7, 40, 1 / 3), (40, 7, -0.3), (1, 5, 0.1), (5, 1, 0.2)])
def test_chirp_sum_matches_direct_sum(N, K, c):
    rng = np.random.default_rng(N + K)
    g = rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))
    # the kernel phase c k n is reduced mod 1 in extended precision
    kn = np.longdouble(c) * np.outer(np.arange(N, dtype=np.longdouble), np.arange(K, dtype=np.longdouble))
    kernel = np.exp(-2j * np.pi * (kn - np.round(kn))).astype(complex)
    assert relative_error(_chirp_sum(g, c, K), g @ kernel) <= 1e-14


boxes = st.one_of(
    st.floats(0.5, 6.0),
    st.tuples(st.floats(-6.0, -0.5), st.floats(0.5, 6.0), st.floats(-9.0, -0.5), st.floats(0.5, 9.0)),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(GRIDS), boxes,
       st.sampled_from([1 / 16, 1 / 8, 0.1, 0.3, 1 / 3]))
def test_gabor_transform_matches_dense(seed, grid, box, dlam):
    f = mixed_signal(seed, *grid)
    got = gabor_transform(f, box, dlam)
    assert relative_error(got.values, dense_gabor_transform(f, box, dlam)) <= 1e-12


@pytest.mark.parametrize("box,dlam", [(7.4838, 1 / 8), (8.0, 1 / 16), ((-3.1, 5.2, -2.05, 6.3), 0.1),
                                      (6.0, 0.3), (6.0, 1 / 3), (8.0, 3 / 32), (8.0, 3 / 16), (8.0, 5 / 64),
                                      (8.0, 1 / 4)])
def test_gabor_transform_matches_dense_named_cases(box, dlam):
    # 7.4838 at dlam 1/8: a box that is no multiple of dlam, so theta_0 is off the dlam lattice;
    # 3/32, 3/16 and 5/64 fold the p step with b = 3, 3, 5, and 1/4 wraps 161 taps onto M' = 80
    f = mixed_signal(24, 8.0, 1.0 / 64.0)
    assert relative_error(gabor_transform(f, box, dlam).values, dense_gabor_transform(f, box, dlam)) <= 1e-12


@pytest.mark.parametrize("dlam", [1 / 16, 1 / 8])
def test_gabor_transform_reads_a_step_half_an_ulp_off_1_over_h(dlam):
    # 98 fl(1/98) rounds to 1 - 2^-53; the transform reads h as 1/98 and keeps full accuracy
    f = mixed_signal(5, 8.0, 1.0 / 98.0)
    assert 98 * f.h != 1.0
    assert relative_error(gabor_transform(f, 6.0, dlam).values, dense_gabor_transform(f, 6.0, dlam)) <= 1e-12


def atom_mix(seed, T, h):
    """Three atoms with margin 4 from +-T, their centers and their coefficients."""
    rng = np.random.default_rng(seed)
    centers = [(rng.uniform(4 - T, T - 4), rng.uniform(-4, 4)) for _ in range(3)]
    coefs = rng.normal(size=3) + 1j * rng.normal(size=3)
    vals = sum(c * atom(mu, T, h).values for c, mu in zip(coefs, centers))
    return SampledSignal(T, h, vals), centers, coefs


def closed_form_field(centers, coefs, ps, ts):
    """sum_j c_j <e_mu_j | e_lambda> on the grid, atom_inner written for arrays."""
    P, TH = np.meshgrid(ps, ts, indexing="ij")
    return sum(c * np.exp(1j * np.pi * (q + P) * (eta - TH) - np.pi * ((q - P) ** 2 + (eta - TH) ** 2) / 2)
               for c, (q, eta) in zip(coefs, centers))


# full boxes put rows at p = +-T, where a block's window is clipped to the grid
WINDOW_CASES = [((8.0, 1.0 / 64.0), 8.0, dlam) for dlam in (1 / 16, 0.1, 0.3, 1 / 3)]
WINDOW_CASES += [((6.0, 1.0 / 32.0), 6.0, dlam) for dlam in (1 / 8, 0.1, 0.3, 1 / 3)]
WINDOW_CASES += [((8.0, 1.0 / 64.0), (-8.0, -1.3, -2.05, 6.3), 0.1),
                 ((8.0, 1.0 / 64.0), (2.2, 8.0, -8.0, 8.0), 0.3)]


@pytest.mark.parametrize("grid,box,dlam", WINDOW_CASES)
@pytest.mark.parametrize("seed", [3, 17])
def test_windowed_transform_matches_the_closed_form_field(grid, box, dlam, seed):
    f, centers, coefs = atom_mix(seed, *grid)
    field = gabor_transform(f, box, dlam)
    want = closed_form_field(centers, coefs, field.p_grid, field.theta_grid)
    for i, j in [(0, 0), (-1, -1), (field.p_grid.size // 2, field.theta_grid.size // 3)]:
        lam = (field.p_grid[i], field.theta_grid[j])
        assert want[i, j] == pytest.approx(sum(c * atom_inner(mu, lam) for c, mu in zip(coefs, centers)),
                                           rel=1e-14, abs=1e-300)
    assert np.max(np.abs(field.values - want)) <= 1e-13 * np.max(np.abs(want))


def spectrum_window(f, box, dlam):
    """The periods of gabor_transform, its grids, J, s, c_0 = p_0 H and the spectrum G of f e^{-2 pi i theta_0 x}."""
    ps, ts = _box_grids(box, dlam)
    N = f.values.size
    periods = H, a, M, L, _, _ = step_periods(dlam, f.h, N)
    G = np.fft.fft(f.values * np.exp(-2j * np.pi * ts[0] * f.x), L)
    return periods, ps, ts, int(_REACH * L / H), a * L // M, ps[0] * H, G


def spectrum_phase(i, N, L):
    """e^{pi i (N - 1) i/L} for bin indices i, taken before their reduction mod L."""
    return np.exp(1j * np.pi * ((N - 1) * np.asarray(i) % (2 * L) / L))


def window_terms(ms, k, c0, dlam, periods):
    """w_m e^{2 pi i m k r/L} for bins ms and p indices k, r = dlam/h, phases reduced mod 1 in long double."""
    H, _, _, L, _, _ = periods
    ms, k = np.asarray(ms, dtype=np.longdouble), np.asarray(k, dtype=np.longdouble)
    turns = np.multiply.outer(ms, np.longdouble(c0) + k * np.longdouble(dlam) * H) / L
    turns -= np.round(turns)
    gauss = np.exp(-np.pi * (ms * H / L) ** 2)[:, None]
    return (2 ** 0.25 / L * gauss * np.exp(2j * np.pi * turns.astype(float))).astype(complex)


# (b, M', taps) of each fold below: b = 1 and b = 3, 5 (taps stride b slots), and 161 taps on 80 slots
FOLDS = {((8.0, 1.0 / 64.0), 1 / 4): (1, 80, 161), ((8.0, 1.0 / 64.0), 0.3): (3, 200, 161),
         ((6.0, 1.0 / 32.0), 0.1): (1, 200, 161), ((8.0, 1.0 / 64.0), 3 / 32): (3, 1024, 257),
         ((8.0, 1.0 / 64.0), 3 / 16): (3, 512, 257), ((8.0, 1.0 / 64.0), 5 / 64): (5, 4096, 513)}


@pytest.mark.parametrize("grid,dlam", list(FOLDS))
def test_every_sample_within_the_reach_enters_its_row(grid, dlam):
    # the samples are the spectrum's: a one-bin spectrum at bin j, swept over every bin,
    # puts one term e^{pi i (N - 1) i/L} w_m e^{2 pi i m k r/L}, m = j - s l and i = s l + m,
    # into each row l within the reach |m| <= J and nothing into the others.  Tap m lands on
    # slot b m mod M', so at dlam 1/4 the taps past the 80th add into slots already written
    T, h = grid
    N = int(round(2 * T / h)) + 1
    f = SampledSignal(T, h, np.zeros(N))
    periods, ps, ts, J, s, c0, _ = spectrum_window(f, (-T, T, -1.0, 1.0), dlam)
    L, b, Mp = periods[3:]
    assert (b, Mp, 2 * J + 1) == FOLDS[grid, dlam] and 2 * J < L
    k, l = np.arange(ps.size), np.arange(ts.size)
    for j in range(L):
        G = np.zeros(L, dtype=complex)
        G[j] = 1.0
        rows = _spectrum_rows(G, c0, ps.size, ts.size, N, periods)
        m = (j - s * l + L // 2) % L - L // 2
        near = np.abs(m) <= J
        want = spectrum_phase(s * l[near] + m[near], N, L) * window_terms(m[near], k, c0, dlam, periods).T
        assert np.max(np.abs(rows[:, near] / want - 1), initial=0.0) <= 1e-12, j
        assert not np.any(rows[:, ~near]), j


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_samples_beyond_the_reach_stay_under_the_stated_bound(grid, seed):
    # white noise puts mass on every bin.  What the window leaves out is the bins
    # J < |m| (taken to 3 L, beyond which they vanish in float) and the periodic
    # envelope's images at p -+ q L h; the docstring of gabor_transform bounds both
    T, h = grid
    rng = np.random.default_rng(seed)
    n = int(round(2 * T / h)) + 1
    f = SampledSignal(T, h, rng.normal(size=n) + 1j * rng.normal(size=n))
    dlam = 1 / 4
    periods, ps, ts, J, s, c0, G = spectrum_window(f, T, dlam)
    H, _, _, L, _, _ = periods
    ms = np.concatenate([np.arange(-3 * L, -J), np.arange(J + 1, 3 * L + 1)])
    terms = window_terms(ms, np.arange(ps.size), c0, dlam, periods)
    bins = np.stack([(G[(s * l + ms) % L] * spectrum_phase(s * l + ms, n, L)) @ terms for l in range(ts.size)],
                    axis=1)
    x = f.x
    images = sum(np.exp(-np.pi * (x[None, :] - ps[:, None] + q * L * h) ** 2) for q in (-2, -1, 1, 2))
    envelope_images = (2 ** 0.25 * h * f.values * images) @ np.exp(-2j * np.pi * np.outer(x, ts))
    c = _REACH
    bound = 2 ** 1.25 * np.sqrt(2 * T + h) * f.norm() * (
        np.exp(-np.pi * c ** 2) * (1 / (L * h) + 1 / (2 * np.pi * c)) + np.exp(-np.pi * c ** 2)
        + np.exp(-np.pi * H ** 2 / 4) * (1 / (L * h) + 1 / (np.pi * H)))
    assert np.all(bins != 0) and np.all(envelope_images != 0)
    assert np.max(np.abs(bins)) + np.max(np.abs(envelope_images)) <= bound


@pytest.mark.parametrize("c", [-2 * 0.1 / 64, -2 / (3 * 64), 0.6 / 32, -1 / 512])
def test_exp_pi_i_reduces_the_phase_exactly(c):
    # the chirp and lattice phases reach thousands of turns; unreduced, the
    # rounding of pi c m alone would cost ~1e-13 here
    m = 1021.0 * np.arange(513)
    cm = np.longdouble(c) * m.astype(np.longdouble)
    want = np.exp(1j * np.pi * (cm - 2 * np.round(cm / 2)).astype(float))
    got = _exp_pi_i(c, m, int(m[-1]).bit_length())
    assert np.max(np.abs(got - want)) <= 4e-15


SMALL = float(np.arcsin(_MIN_B))


def branch_angle(branch, u, turn):
    """An angle in one branch of metaplectic_apply, kept 1e-6 inside its edges;
    the snap branch is the exact multiples of pi."""
    eps = 1e-6
    if branch == "snap":
        off = 0.0
    elif branch == "small_sin":
        off = (1 if u >= 0.5 else -1) * (eps + abs(2 * u - 1) * (SMALL - 2 * eps))
    else:
        off = SMALL + eps + u * (np.pi - 2 * SMALL - 2 * eps)
    return turn * np.pi + off


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from(GRIDS), st.sampled_from(["snap", "small_sin", "regular"]),
       st.floats(0.0, 1.0), st.integers(-2, 2))
def test_metaplectic_apply_matches_dense(seed, grid, branch, u, turn):
    angle = branch_angle(branch, u, turn)
    phi = angle % (2 * np.pi)
    snapped = phi == 0.0 or phi == np.pi
    assert snapped == (branch == "snap")
    assert snapped or (abs(np.sin(phi)) < _MIN_B) == (branch == "small_sin")
    f = mixed_signal(seed, *grid)
    S = Rotation(angle)
    assert relative_error(metaplectic_apply(S, f).values, dense_metaplectic_apply(S, f).values) <= 1e-12


@pytest.mark.parametrize("angle,radius,step", [(0.0, 3.0, 0.25), (np.pi / 2, 3.0, 0.25),
                                               (0.2, 2.0, 0.3), (2.0, 2.5, 0.5), (-1.0, 1.5, 0.1)])
def test_hdelta_invariance_check_matches_loop(hermites, angle, radius, step):
    S, f = Rotation(angle), hermites[2] + 0.5j * hermites[1]
    got = hdelta_invariance_check(S, f, radius, step)
    assert abs(got - loop_hdelta_invariance_check(S, f, radius, step)) <= 1e-12


@pytest.mark.parametrize("angle,radius", [(np.pi / 4, 3.0), (0.0, 4.5)])
def test_hdelta_invariance_check_keeps_atom_margin(hermites, angle, radius):
    # a rotated (pi/4) or unrotated grid point closer than the atom margin to +-T
    with pytest.raises(ValueError, match="boundary"):
        loop_hdelta_invariance_check(Rotation(angle), hermites[2], radius)
    with pytest.raises(ValueError, match="boundary"):
        hdelta_invariance_check(Rotation(angle), hermites[2], radius)
