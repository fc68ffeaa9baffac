"""Property tests for the single synthesis kernel and the shared lattice block.

synthesize() superposes every coefficient set through one separable kernel;
these tests hold it against a direct atom-by-atom sum.  The relaxed expansion
and the order-0 expansion share one lattice-coefficient core, so with the
same sharp node they must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (CoefficientSet, SampledSignal, atom, default_sharp_nodes,
                           dual_atoms, hermite_signal, order_m_coefficients,
                           relaxed_coefficients, sharp_point, synthesize)
from criticalgabor.gabor import superpose

T8, H64 = 8.0, 1.0 / 64.0

complexes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
# lattice keys whose atom centers keep the default margin 4 inside T = 8
lattice_keys = st.tuples(st.integers(-4, 4), st.integers(-6, 6), st.just(False))
sharp_keys = st.tuples(st.integers(-4, 3), st.integers(-6, 6), st.just(True))
entries = st.dictionaries(st.one_of(lattice_keys, sharp_keys), complexes, max_size=12)


def direct_sum(coeffs: CoefficientSet) -> np.ndarray:
    """sum c e_lambda atom by atom, plus sum_j b_j d_j over the sampled dual atoms."""
    vals = np.zeros(atom((0, 0), T8, H64).values.size, dtype=complex)
    for (k, j, sharp), c in coeffs.entries.items():
        off = 0.5 if sharp else 0.0
        vals += c * atom((k + off, j + off), T8, H64).values
    if coeffs.sharp_block:
        duals = dual_atoms(coeffs.nodes, T8, H64)
        for b, d in zip(coeffs.sharp_block, duals.atoms):
            vals += b * d.values
    return vals


def assert_matches_direct(coeffs: CoefficientSet):
    got = synthesize(coeffs, T8, H64).values
    want = direct_sum(coeffs)
    scale = sum(abs(c) for c in coeffs.entries.values()) + sum(abs(b) for b in coeffs.sharp_block)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(scale, 1.0)


@settings(max_examples=40, deadline=None)
@given(entries)
def test_synthesize_lattice_and_sharp_sets_match_direct_sum(ents):
    assert_matches_direct(CoefficientSet(ents))


@settings(max_examples=25, deadline=None)
@given(entries, st.integers(0, 4), st.tuples(st.integers(-2, 2), st.integers(-3, 3)),
       st.lists(complexes, min_size=5, max_size=5))
def test_synthesize_order_m_sets_match_direct_sum(ents, m, center, block):
    nodes = default_sharp_nodes(m, center)
    assert_matches_direct(CoefficientSet(ents, sharp_block=block[: m + 1], nodes=nodes))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, -0.25, 0.0, 0.5, 2.0]),
                          st.sampled_from([-0.5, 0.0, 0.125, 1.0]), complexes),
                max_size=10))
def test_superpose_repeated_points_add_up(terms):
    # points may repeat: their weights must add, as in the atom-by-atom sum
    got = superpose([(p, t) for p, t, _ in terms], [w for _, _, w in terms], T8, H64).values
    want = sum((w * atom((p, t), T8, H64).values for p, t, w in terms),
               np.zeros(atom((0, 0), T8, H64).values.size, dtype=complex))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(sum(abs(w) for *_, w in terms), 1.0)


def test_empty_set_synthesizes_zero():
    sig = synthesize(CoefficientSet(), T8, H64)
    assert sig.values.size == atom((0, 0), T8, H64).values.size
    assert np.all(sig.values == 0)


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
