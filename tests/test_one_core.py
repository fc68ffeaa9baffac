"""The one expansion core and the single kernels against the code they replace.

The oracles below are the earlier forms: the relaxed expansion with its own
sharp functional, atom subtraction and lattice call; the order-m loop that
also built a^{m+1} f; the per-entry decay_exponent loop; the Zak-side
spectral derivative; verify's unreduced theta series; and the rounded phase
box grid.  Each shared kernel computes the same arithmetic, so it must agree
with its oracle bit for bit (decay_exponent, a different summation order, to
roundoff).
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (THETA_TERMS, CoefficientSet, SampledSignal, atom, dual_atoms,
                           gabor_transform, hermite_signal, relaxed_coefficients,
                           sharp_functional, sharp_point, spectral_derivative, synthesize,
                           theta)
from criticalgabor import expansion, higher, numerics
from criticalgabor.expansion import lattice_coefficients
from criticalgabor.gabor import _STACK, _box_grids
from criticalgabor.higher import annihilate, decay_exponent, default_sharp_nodes, order_m_coefficients
from criticalgabor.numerics import _fourier_derivative, _theta_series
from conftest import POOL, count_calls, pool_signal

T, H = 8.0, 1.0 / 64.0


def lattice_mix():
    rng = np.random.default_rng(5)
    c = CoefficientSet()
    for k in range(-2, 3):
        for j in range(-2, 3):
            c.set(k, j, complex(*rng.normal(size=2)))
    return synthesize(c, T, H)


def off_lattice_mix():
    return SampledSignal(T, H, 0.7 * atom((0.3, -1.7), T, H).values
                         - 0.4j * atom((-1.25, 0.6), T, H).values
                         + 0.2 * atom((1.5, 2.5), T, H).values)


SIGNALS = {**{f"h{n}": (lambda n=n: hermite_signal(n, T, H)) for n in range(4)},
           "lattice_mix": lattice_mix, "off_lattice_mix": off_lattice_mix}
NODES = [(0, 0), (1, -1), (-2, 1), (0, 3), (-1, -2)]


@pytest.fixture(scope="module", params=sorted(SIGNALS))
def signal(request):
    return SIGNALS[request.param]()


def old_relaxed(f, R, sharp_node=(0, 0)):
    k0, j0 = int(sharp_node[0]), int(sharp_node[1])
    gamma = (-1) ** j0 * sharp_functional(f)
    f_sharp = f - gamma * atom(sharp_point(k0, j0), f.T, f.h)
    return gamma, lattice_coefficients(f_sharp, R)


def old_order_m(f, m, R=6):
    pts = default_sharp_nodes(m)
    duals = dual_atoms(pts, f.T, f.h)
    block = []
    g = f
    for _ in range(m + 1):
        block.append(sharp_functional(g))
        g = annihilate(g)
    f_sharp = f
    for b, d in zip(block, duals.atoms):
        f_sharp = f_sharp - b * d
    return block, lattice_coefficients(f_sharp, R)


def old_decay_exponent(coeffs, rmin=1.5, rmax=None):
    shells = {}
    for (k, j, s), v in coeffs.entries.items():
        if s:
            continue
        r = float(np.hypot(k, j))
        if r < rmin or (rmax is not None and r > rmax) or abs(v) < 1e-14:
            continue
        shells.setdefault(int(round(r)), []).append(abs(v) ** 2)
    radii = sorted(shells)
    if len(radii) < 3:
        return float("nan")
    xs = np.log1p(np.array(radii, dtype=float))
    ys = np.array([0.5 * np.log(np.mean(shells[r])) for r in radii])
    return float(-np.polyfit(xs, ys, 1)[0])


def old_spectral_axis_derivative(values, axis):
    n = values.shape[axis]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    shape = [1, 1]
    shape[axis] = n
    return np.fft.ifft(2j * np.pi * freq.reshape(shape) * np.fft.fft(values, axis=axis), axis=axis)


def old_spectral_derivative(f):
    freq = np.fft.fftfreq(f.values.size, d=f.h)
    return np.fft.ifft(2j * np.pi * freq * np.fft.fft(f.values))


def old_theta_raw(z, terms=THETA_TERMS):
    q = np.arange(-terms, terms + 1)
    return 2 ** 0.25 * np.sum(np.exp(2j * np.pi * np.multiply.outer(np.asarray(z, complex), q)
                                     - np.pi * q ** 2), axis=-1)


def old_theta(z, terms=THETA_TERMS):
    zarr = np.asarray(z, dtype=complex)
    k = np.round(zarr.imag).astype(int)
    zr = zarr - 1j * k
    q = np.arange(-terms, terms + 1)
    series = 2 ** 0.25 * np.sum(np.exp(2j * np.pi * np.multiply.outer(zr, q) - np.pi * q ** 2), axis=-1)
    out = np.exp(np.pi * k ** 2 - 2j * np.pi * k * zr) * series
    return out if out.shape else complex(out)


def old_box_grids(box, dlam):
    pmin, pmax, tmin, tmax = box
    return (pmin + dlam * np.arange(int(round((pmax - pmin) / dlam)) + 1),
            tmin + dlam * np.arange(int(round((tmax - tmin) / dlam)) + 1))


# "True": the refined quadrature at the theta zero, the one lattice_coefficients runs
@pytest.mark.parametrize("node", NODES, ids=[f"True-node{i}" for i in range(len(NODES))])
def test_relaxed_matches_its_own_body_bitwise(signal, node):
    gamma, coeffs = old_relaxed(signal, 4, node)
    exp = relaxed_coefficients(signal, 4, sharp_node=node)
    assert exp.sharp == gamma
    assert exp.sharp_node == node
    assert list(exp.coeffs.entries) == list(coeffs.entries)
    assert exp.coeffs.entries == coeffs.entries


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_order_m_matches_the_longer_loop_bitwise(signal, m):
    block, coeffs = old_order_m(signal, m)
    exp = order_m_coefficients(signal, m)
    assert exp.sharp_block == block
    assert exp.coeffs.entries == coeffs.entries


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_order_m_applies_annihilate_m_times(monkeypatch, m):
    calls = []

    def counting(f):
        calls.append(1)
        return annihilate(f)

    monkeypatch.setattr(higher, "annihilate", counting)
    order_m_coefficients(hermite_signal(1, T, H), m)
    assert len(calls) == m


def atom_mixes(seed, count):
    """count seeded sums of three atoms, centers within 3 of the origin."""
    rng = np.random.default_rng(seed)
    x = -T + H * np.arange(int(round(2 * T / H)) + 1)
    out = []
    for _ in range(count):
        (p, th), c = rng.uniform(-3, 3, size=(2, 3)), rng.normal(size=(2, 3))
        out.append(SampledSignal(T, H, sum(complex(*ci) * np.exp(-np.pi * (x - pi) ** 2 + 2j * np.pi * ti * x)
                                           for pi, ti, ci in zip(p, th, c.T))))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_stacked_kernels_equal_the_single_calls_bitwise(seed, count):
    signals = atom_mixes(seed, count)
    for kernel in (spectral_derivative, annihilate, higher.create):
        rows = kernel(signals)
        assert isinstance(rows, list) and len(rows) == count
        for row, f in zip(rows, signals):
            np.testing.assert_array_equal(row.values, kernel(f).values)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, _STACK, _STACK + 1])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_order_m_equals_the_single_calls_bitwise(m, count, seed):
    signals = atom_mixes(seed, count)
    stack = order_m_coefficients(signals, m)
    assert len(stack) == count
    for exp, f in zip(stack, signals):
        single = order_m_coefficients(f, m)
        assert exp.sharp_block == single.sharp_block
        assert list(exp.coeffs.entries.items()) == list(single.coeffs.entries.items())


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("rmax", [None, 4.0, 6.0])
def test_decay_exponent_matches_the_loop(signal, m, rmax):
    coeffs = order_m_coefficients(signal, m, R=6).coeffs
    coeffs.set(0, 0, 2.0, sharp=True)  # sharp entries stay out of the shells
    want, got = old_decay_exponent(coeffs, rmax=rmax), decay_exponent(coeffs, rmax=rmax)
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_decay_exponent_needs_three_shells():
    assert np.isnan(decay_exponent(CoefficientSet({(2, 0, False): 1.0, (3, 0, False): 0.5})))
    assert np.isnan(decay_exponent(CoefficientSet()))


@pytest.mark.parametrize("n", [8, 24, 32, 49])
@pytest.mark.parametrize("axis", [0, 1])
def test_fourier_derivative_matches_the_zak_one_bitwise(n, axis):
    values = np.random.default_rng(n).normal(size=(n, n, 2)) @ np.array([1.0, 1j])
    np.testing.assert_array_equal(_fourier_derivative(values, 1.0 / n, axis),
                                  old_spectral_axis_derivative(values, axis))


def test_spectral_derivative_is_bitwise_unchanged(signal):
    np.testing.assert_array_equal(spectral_derivative(signal).values, old_spectral_derivative(signal))


@pytest.mark.parametrize("terms", [None, 1, 3, 8, 12])
def test_theta_series_matches_verify_raw_sum_bitwise(terms):
    args = () if terms is None else (terms,)  # None: the default truncation
    grid = np.array([[x + 1j * y for x in np.linspace(0.02, 0.98, 20)]
                     for y in np.linspace(0.02, 0.98, 20)])
    for z in (grid, grid + 1j, grid + 1, 0.5 + 0.5j):
        np.testing.assert_array_equal(_theta_series(z, *args), old_theta_raw(z, *args))


@pytest.mark.parametrize("terms", [None, 2, 8])
def test_theta_is_bitwise_unchanged(terms):
    args = () if terms is None else (terms,)
    z = np.random.default_rng(2).uniform(-3, 3, size=(40, 2)) @ np.array([1.0, 1j])
    np.testing.assert_array_equal(theta(z, *args), old_theta(z, *args))
    assert theta(0.25 - 1.7j, *args) == old_theta(0.25 - 1.7j, *args)


def test_box_off_the_dlam_grid_stays_inside_T():
    # the rounded count put the last p at 6.03125, past T = 6, and the box was refused
    f = hermite_signal(0, 6.0, 1.0 / 32.0)
    box, dlam = (-1.46875, 6.0, -1.0, 1.0), 1.0 / 16.0
    assert old_box_grids(box, dlam)[0][-1] == 6.03125
    field = gabor_transform(f, box, dlam)
    assert field.p_grid[-1] == 5.96875
    assert field.theta_grid[-1] == 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 8), st.floats(0, 16), st.floats(-8, 8), st.floats(0, 16),
       st.sampled_from([1.0 / 32.0, 1.0 / 16.0, 0.1, 1.0 / 8.0, 0.25, 1.0 / 3.0]))
def test_box_grid_never_passes_its_upper_edge(pmin, pext, tmin, text, dlam):
    box = (pmin, pmin + pext, tmin, tmin + text)
    ps, ts = _box_grids(box, dlam)
    for grid, lo, hi in ((ps, box[0], box[1]), (ts, box[2], box[3])):
        assert grid[0] == lo
        # the count keeps a 1e-9 step of slack for the rounding of (hi - lo) / dlam
        assert grid[-1] <= hi + 2e-9 * dlam
        assert grid[-1] + dlam > hi


def test_box_grid_unchanged_on_dlam_multiples():
    for box in [(-8.0, 8.0, -8.0, 8.0), (-2.75, 2.75, -2.75, 2.75), (-1.5, 3.25, 0.0, 1.0)]:
        for dlam in (1.0 / 16.0, 1.0 / 8.0, 0.25):
            for got, want in zip(_box_grids(box, dlam), old_box_grids(box, dlam)):
                np.testing.assert_array_equal(got, want)


# criticalgabor.zak, the attribute, is the function; the module is looked up by name
EXPAND_COUNTERS = [(importlib.import_module("criticalgabor.zak"), "zak"), (expansion, "division_field"),
                   (numerics, "upsample_periodic"), (numerics, "spectral_derivative"), (higher, "annihilate"), (numerics, "theta"),
                   (higher, "dual_atoms"), (higher, "order_m_coefficients")]


@pytest.mark.parametrize("method", ["relaxed", "order_m"])
def test_expand_keeps_the_layer_map_counters(monkeypatch, method):
    # bench/layers.py predicts these calls on expand; a relaxed item makes all but the ladder's
    # and order_m_coefficients', an order-m item makes every one
    calls = count_calls(monkeypatch, EXPAND_COUNTERS)
    entry = next(e for e in POOL["expand"] if e["method"] == method and e["signal"]["kind"] == "atoms")
    f = pool_signal(entry["signal"])
    if method == "relaxed":
        expansion.relaxed_coefficients(f, entry["R"], sharp_node=tuple(entry["node"]))
        want = {"zak", "division_field", "upsample_periodic", "theta", "dual_atoms"}
    else:
        higher.order_m_coefficients(f, entry["m"], R=entry["R"])  # through the module, as bench/items.py
        want = {name for _, name in EXPAND_COUNTERS}
    assert set(calls) == want
