import numpy as np
import pytest

from criticalgabor import (CoefficientSet, annihilate, atom, create,
                           decay_exponent, default_sharp_nodes, dual_atoms, hdelta_norm,
                           hermite_signal, inner, order_m_coefficients,
                           sharp_functional, sharp_point, synthesize,
                           vandermonde_inverse, PhasePoint, SampledSignal)

from criticalgabor import higher
from criticalgabor.gabor import _STACK

T8, H64 = 8.0, 1.0 / 64.0


def harmonic_oscillator(f: SampledSignal) -> SampledSignal:
    """(a+ a + a a+)/2 = -(1/4 pi^2) d^2/dx^2 + x^2."""
    return 0.5 * (create(annihilate(f)) + annihilate(create(f)))


def hdelta_m_norm(f: SampledSignal, delta: float, m: int) -> float:
    """Ladder-graded smoothness norm (sum_{j<=m} ||a^j f||_delta^2)^{1/2}."""
    if m < 0:
        raise ValueError("order must be >= 0")
    g, total = f, hdelta_norm(f, delta) ** 2
    for _ in range(m):
        g = annihilate(g)
        total += hdelta_norm(g, delta) ** 2
    return float(np.sqrt(total))


class TestLadderOperators:
    def test_atom_is_eigenvector(self):
        lam = (1, 1)
        e = atom(lam)
        assert (annihilate(e) - complex(1, 1) * e).norm() < 1e-6

    def test_gaussian_annihilated(self, e0):
        assert annihilate(e0).norm() < 1e-6

    def test_random_atoms_eigenrelation(self, rng):
        for _ in range(10):
            lam = rng.uniform(-2, 2, 2)
            e = atom(tuple(lam))
            assert (annihilate(e) - complex(*lam) * e).norm() < 1e-6

    def test_adjointness(self, hermites):
        f, g = hermites[1], hermites[2]
        assert abs(inner(annihilate(f), g) - inner(f, create(g))) < 1e-6

    def test_harmonic_oscillator_ground_state(self, e0):
        Hf = harmonic_oscillator(e0)
        # eigenvalue measured numerically (Rayleigh quotient), then checked
        c = inner(Hf, e0)
        assert (Hf - c * e0).norm() < 1e-6
        assert c.real == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-10)

    def test_ladder_raises_hermites(self, hermites):
        up = create(hermites[1])
        up = up * (1.0 / up.norm())
        assert abs(abs(inner(up, hermites[2])) - 1.0) < 1e-8


class TestVandermonde:
    def test_single_node(self):
        np.testing.assert_allclose(vandermonde_inverse([2.0 + 1j]), [[1.0]])

    def test_two_nodes_explicit(self):
        V = vandermonde_inverse([0.0, 1.0])
        np.testing.assert_allclose(V, [[1, 0], [-1, 1]], atol=1e-14)
        W = np.array([[1, 0], [1, 1]], dtype=float)
        np.testing.assert_allclose(V @ W, np.eye(2), atol=1e-14)

    def test_random_nodes(self, rng):
        nodes = rng.normal(size=5) + 1j * rng.normal(size=5)
        V = vandermonde_inverse(nodes)
        W = np.vander(nodes, increasing=True)
        assert np.max(np.abs(V @ W - np.eye(5))) < 1e-10

    def test_order_six_modulus_five(self, rng):
        for _ in range(5):
            nodes = rng.uniform(-5, 5, size=(7, 2)) @ np.array([1, 1j])
            V = vandermonde_inverse(nodes)
            W = np.vander(nodes, increasing=True)
            assert np.max(np.abs(V @ W - np.eye(7))) < 1e-10

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_inverse([1.0, 1.0])


class TestDualAtoms:
    def test_order_zero_is_midpoint_atom(self):
        duals = dual_atoms([sharp_point()], T8, H64)
        assert (duals.atoms[0] - atom(sharp_point())).norm() < 1e-12

    def test_order_one_biorthogonality(self):
        duals = dual_atoms([sharp_point(0, 0), sharp_point(1, 0)], T8, H64)
        for j, d in enumerate(duals.atoms):
            g = d
            for k in range(2):
                val = sharp_functional(g)
                assert abs(val - (1.0 if k == j else 0.0)) < 1e-6
                g = annihilate(g)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_biorthogonality_through_order_three(self, m):
        duals = dual_atoms(default_sharp_nodes(m), T8, H64)
        worst = 0.0
        for j, d in enumerate(duals.atoms):
            g = d
            for k in range(m + 1):
                worst = max(worst, abs(sharp_functional(g) - (1.0 if k == j else 0.0)))
                g = annihilate(g)
        assert worst < 1e-6

    def test_sign_factor(self):
        assert abs(sharp_functional(atom(sharp_point(0, 1))) + 1.0) < 1e-6

    def test_non_sharp_node_rejected(self):
        with pytest.raises(ValueError):
            dual_atoms([PhasePoint(0.0, 0.5)], T8, H64)

    def test_order_cap(self):
        nodes = [sharp_point(k, j) for k in range(-1, 2) for j in range(-1, 2)][:8]
        with pytest.raises(ValueError):
            dual_atoms(nodes, T8, H64)

    def test_default_nodes_counts_and_growth(self):
        for m in range(7):
            nodes = default_sharp_nodes(m)
            assert len(nodes) == m + 1
            assert len({(n.p, n.theta) for n in nodes}) == m + 1
        assert default_sharp_nodes(0) == [sharp_point(0, 0)]


class TestGradedNorm:
    def test_order_zero_matches(self, hermites):
        f = hermites[2]
        assert hdelta_m_norm(f, 1.5, 0) == pytest.approx(hdelta_norm(f, 1.5), rel=1e-12)

    def test_gaussian_first_order_unchanged(self, e0):
        # a e0 = 0, so the m=1 norm adds nothing
        assert hdelta_m_norm(e0, 1.5, 1) == pytest.approx(hdelta_norm(e0, 1.5), rel=1e-6)

    def test_monotone_in_order(self, hermites):
        f = hermites[2]
        norms = [hdelta_m_norm(f, 1.5, m) for m in range(3)]
        assert norms[0] <= norms[1] <= norms[2]


class TestOrderMExpansion:
    def test_dual_atom_purity(self):
        nodes = default_sharp_nodes(2)
        duals = dual_atoms(nodes, T8, H64)
        exp = order_m_coefficients(duals.atoms[1], 2, R=3)  # at the same default nodes
        block = np.array(exp.sharp_block)
        assert np.max(np.abs(block - np.array([0, 1, 0]))) < 1e-6
        assert max(abs(v) for v in exp.coeffs.entries.values()) < 1e-3

    def test_gaussian_order_one(self, e0):
        exp = order_m_coefficients(e0, 1, R=3)
        assert max(abs(b) for b in exp.sharp_block) < 1e-6
        assert abs(exp.coeffs.get(0, 0) - 1.0) < 1e-3

    def test_reconstruction_in_l2_and_w1(self, hermites):
        # the expansion identity is checked in L2 and in the first Sobolev norm
        from criticalgabor import spectral_derivative

        def w1(sig):
            return np.sqrt(sig.norm() ** 2 + spectral_derivative(sig).norm() ** 2)

        f = hermite_signal(3, T=12.0, h=H64)
        exp = order_m_coefficients(f, 2, R=6)
        rec = exp.signal(f.T, f.h, margin=2.0)
        assert (f - rec).norm() / f.norm() < 0.05
        assert w1(f - rec) / w1(f) < 0.05

    def test_exponent_exceeds_order_minus_half(self):
        f = hermite_signal(3, T=12.0, h=1 / 256)
        for m in (0, 2):
            exp = order_m_coefficients(f, m, R=10)
            assert exp.decay_exponent > m - 0.5

    def test_mixed_uniqueness_probe(self, rng):
        # random mixed representations (order-m block + lattice) have no
        # approximate null vectors
        nodes = default_sharp_nodes(1)
        worst = np.inf
        for _ in range(20):
            c = CoefficientSet(sharp_block=list(rng.normal(size=2) + 1j * rng.normal(size=2)),
                               nodes=nodes)
            for k in range(-1, 2):
                for j in range(-1, 2):
                    c.set(k, j, complex(*rng.normal(size=2)))
            scale = c.l2()
            worst = min(worst, synthesize(c, T8, H64).norm() / scale)
        assert worst > 0.05

    def test_order_cap_and_node_count(self, hermites):
        with pytest.raises(ValueError):
            order_m_coefficients(hermites[0], 7)
        for m in range(4):
            assert order_m_coefficients(hermites[0], m, R=2).nodes == default_sharp_nodes(m)


def unit_mixes(C: int) -> list[SampledSignal]:
    """C unit-norm signals, an atom plus a Hermite function each, all different."""
    out = []
    for c in range(C):
        f = atom((0.3 * c - 0.7, 0.2 - 0.15 * c)) + (0.5 - 0.3j) * hermite_signal(c % 4)
        out.append(f * (1.0 / f.norm()))
    return out


def expansion_gap(a, b) -> float:
    """Largest difference between two order-m expansions over the sharp block and the lattice."""
    assert a.nodes == b.nodes and set(a.coeffs.entries) == set(b.coeffs.entries)
    return max(max(abs(x - y) for x, y in zip(a.sharp_block, b.sharp_block)),
               max(abs(a.coeffs.entries[key] - v) for key, v in b.coeffs.entries.items()))


class TestStackedExpansion:
    # A stack of signals runs the core along a leading axis, in batches of _STACK.  Its
    # batched matrix products may sum in another order than single ones (BLAS blocking),
    # so rows agree with single calls to roundoff: a few ulps of the unit-norm signals'
    # coefficients, well under 1e-14 (the stack has matched single calls bitwise on an
    # x86-64 OpenBLAS build).
    TOL = 1e-14

    @pytest.mark.parametrize("C", [1, _STACK - 1, _STACK, _STACK + 1])
    @pytest.mark.parametrize("m", range(4))
    def test_stack_matches_single_calls(self, m, C):
        signals = unit_mixes(C)
        stacked = order_m_coefficients(signals, m, R=5)
        assert len(stacked) == C
        for f, got in zip(signals, stacked):
            assert expansion_gap(got, order_m_coefficients(f, m, R=5)) <= self.TOL

    def test_sequence_of_one_is_the_single_call(self, hermites):
        [got] = order_m_coefficients([hermites[2]], 2, R=6)
        want = order_m_coefficients(hermites[2], 2, R=6)
        assert got.sharp_block == want.sharp_block and got.coeffs.entries == want.coeffs.entries

    def test_generator_is_drawn_in_batches(self, monkeypatch):
        # a generator of signals gives the list's result, drawn _STACK signals at a time:
        # each batch reaches the lattice core before the next one is drawn
        signals, drawn, seen = unit_mixes(2 * _STACK + 1), [], []

        def lazily():
            for f in signals:
                drawn.append(f)
                yield f

        lattice = higher.lattice_coefficients
        monkeypatch.setattr(higher, "lattice_coefficients",
                            lambda f, *a: seen.append((len(f), len(drawn))) or lattice(f, *a))
        got = order_m_coefficients(lazily(), 1, R=4)
        assert seen == [(_STACK, _STACK), (_STACK, 2 * _STACK), (1, 2 * _STACK + 1)]
        want = order_m_coefficients(signals, 1, R=4)
        assert all(expansion_gap(a, b) == 0.0 for a, b in zip(got, want))

    def test_signals_on_two_grids_are_refused(self):
        with pytest.raises(ValueError, match="different grids"):
            order_m_coefficients([atom((0, 0)), atom((0, 0), 8.0, 1.0 / 32.0)], 1, R=3)


class TestNormBound:
    def test_dual_atom_polynomial_bound(self, rng):
        # || sum_j d_j lambda^j ||_{delta,m} <= (M+1)^{m+delta} L^m
        delta = 1.5
        for m in (0, 1, 2):
            nodes = default_sharp_nodes(m)
            duals = dual_atoms(nodes, T8, H64)
            M = max(n.norm for n in nodes)
            count = 0
            for _ in range(40):
                lam = complex(*rng.uniform(-1.8, 1.8, 2))
                L = max(abs(lam - n.label) for n in nodes)
                if L > 3:
                    continue
                count += 1
                vals = sum((lam ** j) * d.values for j, d in enumerate(duals.atoms))
                sig = SampledSignal(T8, H64, vals)
                lhs = hdelta_m_norm(sig, delta, m)
                assert lhs <= (M + 1) ** (m + delta) * max(L, 1e-9) ** m
                if count >= 20:
                    break
            assert count >= 10


class TestDecayExponent:
    def test_insufficient_shells_returns_nan(self):
        c = CoefficientSet({(0, 0, False): 1.0})
        assert np.isnan(decay_exponent(c))

    def test_known_powerlaw(self):
        c = CoefficientSet()
        for k in range(-10, 11):
            for j in range(-10, 11):
                r = np.hypot(k, j)
                if r >= 1:
                    c.set(k, j, (1.0 + r) ** -3)
        assert decay_exponent(c, rmax=10) == pytest.approx(3.0, abs=0.15)
