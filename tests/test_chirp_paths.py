"""The chirp-z paths of the Gabor transform and the metaplectic rotation
against the dense sums they replace.

The oracles below are the dense formulas: an X x Theta phase matrix for
<f | e_lambda>, an X x X kernel for the metaplectic chirp quadrature, and a
per-atom double loop for hdelta_invariance_check.  The chirp-z forms are exact
algebraic rewrites of the same discrete sums, so they must agree to roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (PhasePoint, Rotation, SampledSignal, atom, gabor_transform,
                           hdelta_invariance_check, inner, metaplectic_apply)
from criticalgabor.gabor import _box_grids
from criticalgabor.metaplectic import _MIN_B
from criticalgabor.numerics import _chirp_sum

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
