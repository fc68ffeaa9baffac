"""Property tests for the single synthesis kernel and the shared lattice block.

synthesize() and superpose() run through one kernel on the sample lattice;
these tests hold it against an atom-by-atom sum in long double, whose phases
are reduced mod 1 before the factor 2 pi.  A float64 atom sum cannot referee
a 1e-13 bound: its own rounding grows with |theta x| and with the size of the
order-m block weights.  The relaxed expansion and the order-0 expansion share
one lattice-coefficient core, so with the same sharp node they must agree bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criticalgabor import (CoefficientSet, GaborField, SampledSignal, atom, default_sharp_nodes,
                           field_synthesis, hermite_signal, order_m_coefficients, relaxed_coefficients,
                           sharp_point, synthesize)
from criticalgabor.gabor import _box_grids, _phase_rows, dual_mixing, superpose

T8, H64 = 8.0, 1.0 / 64.0
N = atom((0, 0), T8, H64).values.size
PI_LD = 4 * np.arctan(np.longdouble(1))
X_LD = -np.longdouble(T8) + np.longdouble(H64) * np.arange(N).astype(np.longdouble)

complexes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# lattice keys whose atom centers keep the default margin 4 inside T = 8
lattice_keys = st.tuples(st.integers(-4, 4), st.integers(-6, 6), st.just(False))
sharp_keys = st.tuples(st.integers(-4, 3), st.integers(-6, 6), st.just(True))
entries = st.dictionaries(st.one_of(lattice_keys, sharp_keys), complexes, max_size=12)


def long_double_sum(points, weights) -> np.ndarray:
    """sum w e_(p, theta) on the grid in long double, theta x reduced mod 1 before the factor 2 pi."""
    out = np.zeros(N, dtype=np.clongdouble)
    for (p, theta), w in zip(points, weights):
        turns = np.longdouble(theta) * X_LD
        turns -= np.round(turns)
        out += np.clongdouble(w) * np.exp(-PI_LD * (X_LD - np.longdouble(p)) ** 2 + 2j * PI_LD * turns)
    return np.longdouble(2) ** np.longdouble(0.25) * out


def long_double_synthesis(coeffs: CoefficientSet) -> np.ndarray:
    """sum c e_lambda plus sum_j b_j d_j, with d_j = sum_s H[j, s] e_{mu_s}, all in long double."""
    off = {False: 0.0, True: 0.5}
    points = [(k + off[s], j + off[s]) for (k, j, s) in coeffs.entries]
    weights = [np.clongdouble(c) for c in coeffs.entries.values()]
    if coeffs.sharp_block:
        points += [tuple(n) for n in coeffs.nodes]
        H = dual_mixing(coeffs.nodes).astype(np.clongdouble)
        weights += list(np.array(coeffs.sharp_block, dtype=np.clongdouble) @ H)
    return long_double_sum(points, weights)


def max_error(got, want) -> float:
    return float(np.max(np.abs(got.astype(np.clongdouble) - want), initial=0.0))


def assert_matches_long_double(coeffs: CoefficientSet, resolution: float = 0.0):
    """Error at most 1e-13 (sum |c| + sum |b|), or resolution (sum |c| + sum_{j,s} |b_j H[j, s]|) if larger."""
    got = synthesize(coeffs, T8, H64).values
    c_sum = sum(abs(c) for c in coeffs.entries.values())
    bound = 1e-13 * max(c_sum + sum(abs(b) for b in coeffs.sharp_block), 1.0)
    if coeffs.sharp_block:
        node_sum = float(np.sum(np.abs(coeffs.sharp_block) @ np.abs(dual_mixing(coeffs.nodes))))
        bound = max(bound, resolution * max(c_sum + node_sum, 1.0))
    assert max_error(got, long_double_synthesis(coeffs)) <= bound


@settings(max_examples=40, deadline=None)
@given(entries)
def test_synthesize_lattice_and_sharp_sets_match_direct_sum(ents):
    assert_matches_long_double(CoefficientSet(ents))


@settings(max_examples=25, deadline=None)
@given(entries, st.integers(0, 4), st.tuples(st.integers(-2, 2), st.integers(-3, 3)),
       st.lists(complexes, min_size=5, max_size=5))
@example({}, 4, (0, 2), [0j, 1, 0j, 0j, 0j])
@example({}, 4, (2, 3), [(1 + 1j) / 2 ** 0.5, 0j, 0j, 0j, 0j])
def test_synthesize_order_m_sets_match_direct_sum(ents, m, center, block):
    # The block enters as node weights b H.  At m = 4 a row of H sums to 690 in
    # magnitude and d_0 at center (2, 3) reaches 353, so 1e-13 |b| is below what
    # float64 resolves there: correctly rounded atoms, weighted by correctly
    # rounded b H and summed atom by atom, are 1.16e-13 off at the second
    # example.  So the bound also admits 7e-16 (about six ulps) of the magnitudes
    # summed; through m = 3, where a row of |H| sums to at most 134, that term
    # stays below 1e-13 (sum |c| + sum |b|).
    nodes = [nu + center for nu in default_sharp_nodes(m)]
    assert_matches_long_double(CoefficientSet(ents, sharp_block=block[: m + 1], nodes=nodes), 7e-16)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 2.0]),
                          st.sampled_from([-0.5, 0.0, 0.125, 1.0]), complexes),
                max_size=10))
def test_superpose_repeated_points_add_up(terms):
    # points may repeat: their weights must add, as in the atom-by-atom sum
    assert_superpose_matches([(p, t) for p, t, _ in terms], [w for _, _, w in terms])


def assert_superpose_matches(points, weights, rel=1e-13):
    got = superpose(points, weights, T8, H64).values
    assert max_error(got, long_double_sum(points, weights)) <= rel * max(sum(abs(w) for w in weights), 1.0)


def theta_period(points) -> int:
    """The period M in samples at which the kernel runs the theta axis of these points."""
    ts = np.unique(np.asarray(points, dtype=float)[:, 1])
    return _phase_rows(ts, np.ones((1, ts.size), dtype=complex), H64, N)[1]


def test_empty_set_synthesizes_zero():
    sig = synthesize(CoefficientSet(), T8, H64)
    assert sig.values.size == atom((0, 0), T8, H64).values.size
    assert np.all(sig.values == 0)


def test_superpose_of_no_points_is_zero():
    sig = superpose(np.zeros((0, 2)), [], T8, H64)
    assert sig.values.shape == (N,) and np.all(sig.values == 0)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3.7, 4.45, 5.3, 5.7]), st.booleans(),
       st.lists(st.tuples(st.integers(0, 200), st.integers(0, 200), complexes), min_size=1, max_size=40))
def test_superpose_on_decompose_grids(box, in_cell, terms):
    # decompose's g grid starts at the non-dyadic -box and steps by 1/8; its collar
    # patches move the points of one cell to the cell's lattice point
    ps, ts = _box_grids(box, 1.0 / 8.0)
    pts = np.array([(ps[i % ps.size], ts[j % ts.size]) for i, j, _ in terms])
    weights = [w for *_, w in terms]
    if in_cell:
        cells = np.floor(pts + 0.5)
        keep = np.all(cells == cells[0], axis=1)
        pts, weights = pts[keep] - cells[0], [w for w, k in zip(weights, keep) if k]
    assert theta_period(pts) <= 512
    assert_superpose_matches(pts, weights)


def test_superpose_finds_the_true_common_step():
    # the smallest theta difference is 1, the common step 1/2: a period of 2/h samples
    pts = [(p, t) for p in (-1.0, 0.0, 0.75) for t in (-1.0, 0.5, 1.5)]
    weights = [complex(k + 1, (-1) ** k) for k in range(len(pts))]
    assert theta_period(pts) == 128
    assert_superpose_matches(pts, weights)


@pytest.mark.parametrize("shift, period", [(0.0, 256), (2.0 ** -20, 128)])
def test_superpose_adds_thetas_that_alias_on_the_grid(shift, period):
    # theta and theta + 1/h give the same samples, so their weights add.  Unshifted,
    # the thetas lie on the step 1/4 through 0; shifted by 2^-20 (exactly, so they
    # still alias) they step by 1/2 from the first, with a common phase
    pts = [(0.5, 0.25), (0.5, 0.25 + 1 / H64), (-1.0, 0.75), (2.0, 0.75 - 1 / H64)]
    pts = [(p, t + shift) for p, t in pts]
    weights = [1.0, 0.5j, -0.25, 2.0 - 1j]
    assert theta_period(pts) == period
    assert_superpose_matches(pts, weights)
    got = superpose(pts, weights, T8, H64).values
    want = (1.0 + 0.5j) * atom((0.5, 0.25 + shift), T8, H64).values
    want += -0.25 * atom((-1.0, 0.75 + shift), T8, H64).values + (2.0 - 1j) * atom((2.0, 0.75 + shift), T8, H64).values
    assert np.max(np.abs(got - want)) <= 1e-14


def test_superpose_points_on_no_progression():
    # p = 0.3 is no whole number of samples from the other centers, and 1/3 is
    # no dyadic step from 0.1: one envelope per p and the direct phase table
    pts = [(0.3, 1 / 3), (0.3, 0.1), (0.0, 1 / 3), (-1.25, 0.1), (-1.25, 2.0)]
    weights = [1.0, -0.5j, 0.75, 0.25 + 1j, -1.0]
    assert theta_period(pts) == N
    assert_superpose_matches(pts, weights, rel=2e-15)


@pytest.mark.parametrize("theta", [6.5, -6.5, 6.25, -5.75, 6.3])
@pytest.mark.parametrize("p", [-3.5, 0.0, 2.5])
def test_superpose_high_frequency_atoms_to_roundoff(p, theta):
    # phases reduced mod 1 before the factor 2 pi keep full accuracy at |theta x| ~ 50;
    # 6.3 is on no dyadic step, so one point alone runs at M = 1 with its common phase
    assert_superpose_matches([(p, theta)], [1.0], rel=2e-15)
    assert_superpose_matches([(p, theta), (p + 0.5, -theta)], [0.5, 0.5j], rel=2e-15)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_field_synthesis_takes_grids_in_any_order(order):
    # GaborField does not sort its grids: the kernel must not assume ascending p or theta
    ps, ts = -0.5 + np.arange(6) / 8, np.array([-1.0, 0.25, 0.5, 1.5])
    if order == "reversed":
        ps, ts = ps[::-1], ts[::-1]
    else:
        ps, ts = ps[[3, 0, 5, 1, 4, 2]], ts[[2, 0, 3, 1]]
    values = np.arange(ps.size * ts.size).reshape(ps.size, ts.size) * (0.5 - 0.25j) + 1.0
    got = field_synthesis(GaborField(ps, ts, values, 0.125), T8, H64).values
    pts = [(p, t) for p in ps for t in ts]
    want = long_double_sum(pts, values.ravel() * np.longdouble(0.125) ** 2)
    assert max_error(got, want) <= 1e-15 * np.abs(values).sum() * 0.125 ** 2


@pytest.fixture(scope="module")
def smooth_signal():
    basis = [hermite_signal(n, T8, H64) for n in range(4)]
    a = np.array([0.8, 0.3j, -0.4, 0.2 + 0.1j])
    return SampledSignal(T8, H64, sum(ai * b.values for ai, b in zip(a, basis)))


@settings(max_examples=12, deadline=None)
@given(st.integers(-4, 3), st.integers(-4, 3))
def test_relaxed_equals_order_zero_bitwise(smooth_signal, k0, j0):
    rel = relaxed_coefficients(smooth_signal, 4, sharp_node=(k0, j0))
    om = order_m_coefficients(smooth_signal, 0, nodes=[sharp_point(k0, j0)], R=4)
    assert rel.coeffs.entries == om.coeffs.entries
    assert list(rel.coeffs.entries) == list(om.coeffs.entries)
    # the order-0 dual atom carries the parity sign that gamma carries
    assert rel.sharp == (-1) ** j0 * om.sharp_block[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 12), st.integers(-6, 6), st.booleans(), st.sampled_from([1, -1]))
def test_margin_applies_only_to_nonzero_coefficients(k, j, sharp, sign):
    k = k if sign > 0 else -k - (1 if sharp else 0)  # |p| > T - margin = 4 on either side
    c = CoefficientSet({(0, 0, False): 1.0, (k, j, sharp): 0.0})
    np.testing.assert_allclose(synthesize(c, T8, H64).values, atom((0, 0), T8, H64).values,
                               rtol=0, atol=1e-15)
    c.set(k, j, 1e-3, sharp=sharp)
    with pytest.raises(ValueError, match="too close to the boundary"):
        synthesize(c, T8, H64)


def test_full_coefficients_copy_the_lattice_entries(smooth_signal):
    rel = relaxed_coefficients(smooth_signal, 3, sharp_node=(1, -1))
    om = order_m_coefficients(smooth_signal, 2, R=3)
    for exp in (rel, om):
        before = dict(exp.coeffs.entries)
        full = exp.full_coefficients()
        full.set(0, 0, 123.0)  # the full set is a copy: the expansion keeps its own entries
        assert exp.coeffs.entries == before
    full = rel.full_coefficients()
    assert full.entries == {**rel.coeffs.entries, (1, -1, True): rel.sharp}
    full = om.full_coefficients()
    assert full.entries == om.coeffs.entries
    assert (full.sharp_block, full.nodes) == (list(om.sharp_block), list(om.nodes))
