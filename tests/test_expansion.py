import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from criticalgabor import expansion
from criticalgabor import (CoefficientSet, SampledSignal, atom, hdelta_norm,
                           hermite_signal, reconstruct, relaxed_coefficients,
                           seam_mismatch, sharp_functional,
                           sharp_functional_zak, sharp_point, synthesize,
                           uniqueness_probe)
from criticalgabor.gabor import atom_inner
from support import random_smooth

T8, H64 = 8.0, 1.0 / 64.0

# frozen goldens
H2_RESIDUAL_R6 = 0.03311      # refined-grid oracle (h=1/256, N=128 agrees to 3 digits)
UNIQUENESS_GOLDEN = 0.88      # min ratio over 200 seeded unit vectors (seed 7)
GRAM_FLOOR = 0.1510427        # sqrt of the smallest Gram eigenvalue, 5x5 block + sharp


class TestSharpFunctional:
    def test_unit_on_midpoint_atom(self):
        assert abs(sharp_functional(atom(sharp_point())) - 1.0) < 1e-6

    def test_vanishes_on_lattice_atoms(self):
        for k in range(-2, 3):
            for j in range(-2, 3):
                assert abs(sharp_functional(atom((k, j)))) < 1e-6

    def test_linearity(self, hermites):
        f, g = hermites[1], hermites[2]
        a, b = 1.3 - 0.4j, -0.7j
        lhs = sharp_functional(a * f + b * g)
        rhs = a * sharp_functional(f) + b * sharp_functional(g)
        assert abs(lhs - rhs) < 1e-10

    def test_parity_factor_on_sharp_atoms(self):
        assert abs(sharp_functional(atom(sharp_point(0, 1))) + 1.0) < 1e-6
        assert abs(sharp_functional(atom(sharp_point(1, 0))) - 1.0) < 1e-6

    def test_series_matches_zak_interpolation(self, hermites, rng):
        for f in [hermites[2]] + random_smooth(rng, count=3):
            assert abs(sharp_functional(f) - sharp_functional_zak(f)) < 1e-5

    @pytest.mark.parametrize("N", [16, 32])
    @pytest.mark.parametrize("signal", ["h0", "h1", "h2", "h3", "sharp", (0.3, -1.7), (-1.25, 0.6)])
    def test_zak_midpoint_value_matches_series(self, N, signal):
        h = 1.0 / (2 * N)  # the step that fixes the Zak grid N
        if isinstance(signal, tuple):
            f = atom(signal, T8, h)
        elif signal == "sharp":
            f = atom(sharp_point(), T8, h)
        else:
            f = hermite_signal(int(signal[1]), T8, h)
        assert abs(sharp_functional(f) - sharp_functional_zak(f)) <= 1e-13

    def test_grid_without_half_integers_rejected(self):
        f = SampledSignal(8.0, 1 / 63, np.zeros(int(16 * 63) + 1))
        with pytest.raises(ValueError):
            sharp_functional(f)


class TestRelaxedCoefficients:
    @pytest.mark.parametrize("lam", [(0, 0), (1, 0), (0, 1)])
    def test_lattice_atom_purity(self, lam):
        exp = relaxed_coefficients(atom(lam), R=3)
        assert abs(exp.sharp) < 1e-6
        assert abs(exp.coeffs.get(*lam) - 1.0) < 1e-3
        others = max(abs(v) for key, v in exp.coeffs.entries.items()
                     if key != (lam[0], lam[1], False))
        assert others < 1e-3

    def test_sharp_atom_purity(self):
        exp = relaxed_coefficients(atom(sharp_point()), R=3)
        assert abs(exp.sharp - 1.0) < 1e-6
        assert max(abs(v) for v in exp.coeffs.entries.values()) < 1e-3

    def test_relocated_sharp_node(self):
        exp = relaxed_coefficients(atom(sharp_point(1, 0)), R=3, sharp_node=(1, 0))
        assert abs(exp.sharp - 1.0) < 1e-6
        assert max(abs(v) for v in exp.coeffs.entries.values()) < 1e-3

    def test_idempotence_on_random_sets(self, rng):
        c = CoefficientSet()
        for k in range(-2, 3):
            for j in range(-2, 3):
                c.set(k, j, complex(*rng.normal(size=2)) / 5.0)
        f = synthesize(c, T8, H64)
        exp = relaxed_coefficients(f, R=4)
        for (k, j, s), v in c.entries.items():
            assert abs(exp.coeffs.get(k, j) - v) < 1e-3
        assert abs(exp.sharp) < 1e-3

    def test_division_field_seam_periodicity(self, hermites):
        f = hermites[2]
        fs = f - sharp_functional(f) * atom(sharp_point())
        assert seam_mismatch(fs) < 1e-4

    def test_negative_cutoff_rejected(self, hermites):
        with pytest.raises(ValueError):
            relaxed_coefficients(hermites[0], R=-1)


class TestReconstruct:
    def test_gaussian_any_cutoff(self, e0):
        for R in [0, 2, 4]:
            _, residual = reconstruct(e0, R)
            assert residual <= 2e-3

    def test_zero_signal(self):
        z = SampledSignal(T8, H64, np.zeros(1025))
        _, residual = reconstruct(z, 2)
        assert residual == 0.0

    def test_h2_monotone_and_matches_refined_oracle(self, hermites):
        f = hermite_signal(2, T=12.0, h=H64)
        residuals = {}
        for R in (2, 4, 6):
            _, residuals[R] = reconstruct(f, R, margin=2.0)
        assert residuals[4] <= residuals[2] * 1.1
        assert residuals[6] <= residuals[4] * 1.1
        # golden regression: canonical coefficients of an even signal decay
        # like |lambda|^{-2}, so the R=6 tail is ~3.3e-2 (refined-grid oracle)
        assert residuals[6] == pytest.approx(H2_RESIDUAL_R6, rel=0.15)

    def test_coefficient_decay_stability(self):
        f = hermite_signal(2, T=12.0, h=1 / 128)
        eps = 0.5
        sums = {}
        for R in (10, 12):
            exp = relaxed_coefficients(f, R=R)
            sums[R] = sum((np.hypot(k, j) + 1) ** (2 * eps) * abs(v) ** 2
                          for (k, j, s), v in exp.coeffs.entries.items())
        assert abs(sums[12] - sums[10]) / sums[10] < 0.01


class TestHdeltaNorm:
    def test_zero_order_is_sqrt2(self, hermites):
        f = hermites[2]
        assert abs(hdelta_norm(f, 0.0) - np.sqrt(2) * f.norm()) < 0.01 * f.norm()

    def test_gaussian_second_moment_oracle(self, e0):
        # oracle: |<e0|e_lam>|^2 = e^{-pi r^2}, so int (r^2+1) e^{-pi r^2} = 1/pi + 1
        oracle = quad(lambda r: (r ** 2 + 1) * np.exp(-np.pi * r ** 2) * 2 * np.pi * r,
                      0, np.inf)[0]
        assert abs(oracle - (1 / np.pi + 1)) < 1e-9
        assert hdelta_norm(e0, 2.0) ** 2 == pytest.approx(oracle, rel=1e-13, abs=0)

    @pytest.mark.parametrize("n", range(8))
    def test_hermite_closed_form(self, n):
        # ||x h_n||^2 = ||h_n'||^2 / (4 pi^2) = (2n + 1)/(4 pi)
        assert hdelta_norm(hermite_signal(n), 2.0) == pytest.approx(np.sqrt(1 + (n + 1) / np.pi),
                                                                  rel=1e-13, abs=0)

    @pytest.mark.parametrize("lam", [(0, 0), (3, 3), (1.5, -2), (0, 6.5), (-6.5, 6.5), (6.5, -4)])
    def test_atom_closed_form(self, lam):
        # |<e_lam|e_mu>|^2 = e^{-pi |lam - mu|^2}, so the norm^2 is 1 + 1/pi + |lam|^2
        f = atom(lam, T=12.0)
        assert hdelta_norm(f, 2.0) == pytest.approx(np.sqrt(1 + 1 / np.pi + lam[0] ** 2 + lam[1] ** 2),
                                                   rel=1e-13, abs=0)

    def test_monotone_in_delta(self, rng):
        for f in random_smooth(rng, count=10):
            assert hdelta_norm(f, 1.0) <= hdelta_norm(f, 2.0) * (1 + 1e-12)

    def test_negative_delta_rejected(self, e0):
        with pytest.raises(ValueError):
            hdelta_norm(e0, -0.5)

    @pytest.mark.parametrize("delta", [293.0, 1000.0, np.inf])
    def test_overflowing_delta_refused_before_the_transform(self, hermites, monkeypatch, delta):
        # |lambda| reaches 8 sqrt(2) on the default box: its delta-th power passes the float range
        # past delta = ln(float max)/ln(8 sqrt(2)) ~ 292.6, where the norm was once nan
        def no_transform(*args, **kwargs):
            raise AssertionError("an overflowing delta reached the transform")

        monkeypatch.setattr(expansion, "gabor_transform", no_transform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"delta={delta!r} on the phase box 8\.0"):
                hdelta_norm(hermites[2], delta)

    def test_delta_just_below_overflow_is_finite(self, hermites):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(hdelta_norm(hermites[2], 292.0))


class TestUniqueness:
    def test_single_lattice_atom_ratio_one(self):
        c = CoefficientSet({(0, 0, False): 1.0})
        assert uniqueness_probe(c, T8, H64) == pytest.approx(1.0, abs=1e-10)

    def test_single_sharp_atom_ratio_one(self):
        c = CoefficientSet({(0, 0, True): 1.0})
        assert uniqueness_probe(c, T8, H64) == pytest.approx(1.0, abs=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            uniqueness_probe(CoefficientSet(), T8, H64)

    def test_no_approximate_null_vectors(self, rng):
        worst = np.inf
        for _ in range(200):
            c = CoefficientSet()
            v = rng.normal(size=(26, 2)) @ np.array([1, 1j])
            v = v / np.linalg.norm(v)
            i = 0
            for k in range(-2, 3):
                for j in range(-2, 3):
                    c.set(k, j, v[i])
                    i += 1
            c.set(0, 0, v[25], sharp=True)
            worst = min(worst, uniqueness_probe(c, T8, H64))
        assert worst >= UNIQUENESS_GOLDEN
        # oracle floor: sqrt of the smallest eigenvalue of the closed-form Gram
        pts = [(k, j) for k in range(-2, 3) for j in range(-2, 3)] + [sharp_point()]
        G = np.array([[atom_inner(a, b) for b in pts] for a in pts])
        floor = np.sqrt(np.linalg.eigvalsh(G)[0])
        assert floor == pytest.approx(GRAM_FLOOR, abs=1e-6)
        assert worst >= floor
