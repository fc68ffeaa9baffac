"""The FFT paths of the Gabor transform (the fold onto n mod M) and the
metaplectic rotation (a chirp-z sum) against the dense sums they replace.

The oracles below are the dense formulas: an X x Theta phase matrix for
<f | e_lambda>, an X x X kernel for the metaplectic chirp quadrature, and a
per-atom double loop for hdelta_invariance_check.  The fold and the chirp-z
form are exact algebraic rewrites of the same discrete sums, so they must
agree to roundoff.

The Gabor transform reads only the samples within the reach _REACH of each
row's p.  Three more oracles cover that cut: the closed-form field of an atom
mix, sum_j c_j <e_mu_j | e_lambda>, which the transform must match to
roundoff; a one-sample signal at every sample in turn, whose rows within the
reach each hold one known term; and the dense sum over the samples it leaves
out, which must stay under the bound its docstring states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (PhasePoint, Rotation, SampledSignal, atom, atom_inner, gabor_transform,
                           hdelta_invariance_check, inner, metaplectic_apply)
from criticalgabor.gabor import _REACH, _box_grids
from criticalgabor.metaplectic import _MIN_B
from criticalgabor.numerics import _chirp_sum, _exp_pi_i

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
                                      (6.0, 0.3), (6.0, 1 / 3)])
def test_gabor_transform_matches_dense_named_cases(box, dlam):
    # 7.4838 at dlam 1/8: a box that is no multiple of dlam, so theta_0 is off the dlam lattice
    f = mixed_signal(24, 8.0, 1.0 / 64.0)
    assert relative_error(gabor_transform(f, box, dlam).values, dense_gabor_transform(f, box, dlam)) <= 1e-12


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


@pytest.mark.parametrize("grid,dlam", [((8.0, 1.0 / 64.0), 1 / 4), ((8.0, 1.0 / 64.0), 0.3),
                                       ((6.0, 1.0 / 32.0), 0.1)])
def test_every_sample_within_the_reach_enters_its_row(grid, dlam):
    # a one-sample signal at x_s: each row within the reach holds that one term, down to
    # e^{-pi c^2}; every sample is swept, so every row block meets both edges of its window
    T, h = grid
    n = int(round(2 * T / h)) + 1
    for s in range(n):
        vals = np.zeros(n, dtype=complex)
        vals[s] = 1.0
        f = SampledSignal(T, h, vals)
        field = gabor_transform(f, (-T, T, -1.0, 1.0), dlam)
        d = field.p_grid - f.x[s]
        near = np.abs(d) <= _REACH
        want = 2 ** 0.25 * h * np.exp(-np.pi * d[near, None] ** 2 - 2j * np.pi * field.theta_grid * f.x[s])
        assert np.max(np.abs(field.values[near] / want - 1)) <= 1e-12, s


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_samples_beyond_the_reach_stay_under_the_stated_bound(grid, seed):
    # white noise puts mass on every sample, so every row leaves some out
    T, h = grid
    rng = np.random.default_rng(seed)
    n = int(round(2 * T / h)) + 1
    f = SampledSignal(T, h, rng.normal(size=n) + 1j * rng.normal(size=n))
    ps, ts = _box_grids(T, 1 / 4)
    x = f.x
    far = np.abs(x[None, :] - ps[:, None]) > _REACH
    rows = np.where(far, 2 ** 0.25 * h * f.values * np.exp(-np.pi * (x[None, :] - ps[:, None]) ** 2), 0.0)
    left_out = rows @ np.exp(-2j * np.pi * np.outer(x, ts))
    bound = 2 ** 0.25 * np.exp(-np.pi * _REACH ** 2) * np.sqrt(2 * T + h) * f.norm()
    assert np.all(np.any(far, axis=1))
    assert np.max(np.abs(left_out)) <= bound


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
