import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from criticalgabor import (SampledSignal, ZakField, a_operator_zak, annihilate, atom,
                           hermite_signal, sobolev_norm, wh_shift, zak,
                           zak_atom_field, zak_inverse, zak_translate_check)
from criticalgabor import hdelta_norm
from conftest import random_smooth

T8, H64 = 8.0, 1.0 / 64.0

SOBOLEV_CONSTANT = 3.0  # frozen fit over hermites 0..5 (max 2.65) + seeded combos


class TestZakTransform:
    def test_unitarity_on_hermites(self, hermites):
        for f in hermites:
            Z = zak(f)
            assert abs(Z.norm() / f.norm() - 1.0) < 1e-6

    def test_discrete_parseval(self, hermites):
        f = hermites[2]
        Z = zak(f)
        assert abs(np.sum(np.abs(Z.values) ** 2) / Z.N ** 2 - f.norm() ** 2) < 1e-6

    def test_gaussian_zak_is_theta(self, e0):
        Z = zak(e0)
        ref = zak_atom_field((0, 0), Z.N)
        assert np.max(np.abs(Z.values - ref.values)) < 1e-8

    def test_gaussian_zak_vanishes_at_sharp_point(self, e0):
        Z = zak(e0)
        re = RectBivariateSpline(Z.y, Z.xi, Z.values.real, kx=5, ky=5)
        im = RectBivariateSpline(Z.y, Z.xi, Z.values.imag, kx=5, ky=5)
        val = complex(re(0.5, 0.5)[0, 0], im(0.5, 0.5)[0, 0])
        assert abs(val) < 1e-6

    def test_incompatible_grid_rejected(self):
        # the step fixes the grid N = 1/(2h), which must be an even integer
        for h in (1 / 66, 1 / 63):  # N = 33 is odd, N = 31.5 no integer
            with pytest.raises(ValueError, match="no even Zak midpoint grid"):
                zak(SampledSignal(T8, h, np.zeros(int(round(2 * T8 / h)) + 1)))

    def test_grid_is_fixed_by_the_step(self):
        for h, N in ((1 / 64, 32), (1 / 32, 16), (1 / 8, 4)):
            assert zak(hermite_signal(0, T8, h)).N == N

    def test_stack_of_signals(self, hermites):
        # one Zak sum for the stack; each field is the single signal's, to roundoff
        Z = zak(hermites)
        assert Z.values.shape == (len(hermites), 32, 32)
        for f, field, norm in zip(hermites, Z.values, Z.norm()):
            single = zak(f)
            assert np.max(np.abs(field - single.values)) <= 1e-15 * np.max(np.abs(single.values))
            assert norm == pytest.approx(single.norm(), rel=1e-14)
        for one_field_only in (lambda: zak_inverse(Z, T8, H64), lambda: sobolev_norm(Z, 2.0)):
            with pytest.raises(ValueError, match="one Zak field, not a stack"):
                one_field_only()

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            ZakField(33, np.zeros((33, 33)))

    def test_atom_field_factorization(self):
        # Z e_{(k+r, j+eta)} = exp(2 pi i (k xi + j y)) exp(2 pi i k eta) Z e_{(r,eta)}
        k, j, r, eta = 1, 2, 0.3, 0.25
        lam = (k + r, j + eta)
        Zl = zak(atom(lam))
        Zs = zak(atom((r, eta)))
        Y, XI = Zl.y[:, None], Zl.xi[None, :]
        rhs = np.exp(2j * np.pi * (k * XI + j * Y)) * np.exp(2j * np.pi * k * eta) * Zs.values
        assert np.max(np.abs(Zl.values - rhs)) < 1e-8


class TestZakInverse:
    def test_roundtrip_hermites(self, hermites):
        for f in hermites:
            back = zak_inverse(zak(f), f.T, f.h)
            assert (back - f).norm() / f.norm() < 1e-8

    def test_zero_field(self):
        out = zak_inverse(ZakField(32, np.zeros((32, 32))), T8, H64)
        assert out.norm() == 0.0

    def test_atom_roundtrip(self):
        e = atom((1, 1))
        back = zak_inverse(zak(e), e.T, e.h)
        assert (back - e).norm() < 1e-8

    def test_support_aliasing_rejected(self):
        f = hermite_signal(0, T=20.0, h=H64)
        with pytest.raises(ValueError):
            zak_inverse(zak(f), 20.0, H64)

    def test_field_of_another_step_rejected(self):
        # the step fixes the grid: a field of N = 16 comes from h = 1/32, not h = 1/64
        Z = zak(hermite_signal(0, T8, 1 / 32))
        with pytest.raises(ValueError, match=r"N=16 is not the grid of step h=0\.015625"):
            zak_inverse(Z, T8, H64)
        with pytest.raises(ValueError, match=r"N=32 is not the grid of step h=0\.03125"):
            zak_inverse(ZakField(32, np.zeros((32, 32))), T8, 1 / 32)


class TestWHShift:
    def test_identity(self, hermites):
        f = hermites[1]
        assert (wh_shift((0, 0), f) - f).norm() == 0.0

    def test_shift_of_gaussian_is_atom(self, e0):
        lam = (1.0, 1.0)
        shifted = wh_shift(lam, e0)
        target = atom(lam)
        assert np.max(np.abs(np.abs(shifted.values) - np.abs(target.values))) < 1e-10
        assert (shifted - target).norm() < 1e-10  # exact for a single shift

    def test_norm_preserved(self, hermites):
        f = hermites[2]
        assert abs(wh_shift((2, -3), f).norm() - f.norm()) < 1e-12

    def test_support_overflow_rejected(self):
        f = atom((4.0, 0))
        with pytest.raises(ValueError):
            wh_shift((7.0, 0), f)

    def test_off_grid_shift_rejected(self, e0):
        with pytest.raises(ValueError):
            wh_shift((0.00001, 0), e0)


class TestTranslationRule:
    def test_identity_translation(self, hermites):
        assert zak_translate_check((0, 0), hermites[0]) < 1e-14

    def test_unit_shifts(self, hermites):
        assert zak_translate_check((1, 0), hermites[0]) < 1e-6
        assert zak_translate_check((0, 1), hermites[1]) < 1e-6
        assert zak_translate_check((2, -1), hermites[2]) < 1e-6

    def test_non_lattice_rejected(self, hermites):
        with pytest.raises(ValueError):
            zak_translate_check((0.5, 0), hermites[0])


class TestLadderOnZakSide:
    def test_consistency_with_signal_ladder(self, hermites):
        f = hermites[2]
        lhs = zak(annihilate(f))
        rhs = a_operator_zak(zak(f))
        err = np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2)) / lhs.N
        assert err < 1e-5

    def test_kills_gaussian(self, e0):
        out = a_operator_zak(zak(e0))
        assert np.max(np.abs(out.values)) < 1e-5

    def test_linearity(self, hermites):
        Z0, Z1 = zak(hermites[0]), zak(hermites[1])
        lhs = a_operator_zak(ZakField(Z0.N, 2.0 * Z0.values - 1j * Z1.values))
        rhs = 2.0 * a_operator_zak(Z0).values - 1j * a_operator_zak(Z1).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10


class TestSobolevControl:
    def test_hermite_family_and_random_smooth(self, rng, hermites):
        for f in hermites:
            assert sobolev_norm(zak(f), 2.0) <= SOBOLEV_CONSTANT * hdelta_norm(f, 2.0)
        for f in random_smooth(rng, count=20):
            assert sobolev_norm(zak(f), 2.0) <= SOBOLEV_CONSTANT * hdelta_norm(f, 2.0)
