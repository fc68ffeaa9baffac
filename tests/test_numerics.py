import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, eval_hermite

from criticalgabor import (SampledSignal, hermite_signal,
                           inner, loc_integral, signal_from_csv,
                           spectral_derivative, theta)
from criticalgabor.numerics import DEFAULT_H, DEFAULT_T, _sample_count, upsample_periodic

# frozen oracle values (direct series / erf-free quadrature; see tests below)
THETA0 = 1.2919960074815042
LOC_AT_MINUS_ONE = 1.9637529414312516e-04


class TestSampledSignal:
    def test_grid_shape_enforced(self):
        with pytest.raises(ValueError):
            SampledSignal(8.0, 1 / 64, np.zeros(5))

    def test_grid_must_be_integral(self):
        with pytest.raises(ValueError):
            SampledSignal(8.0, 0.013, np.zeros(100))

    def test_values_immutable(self, e0):
        with pytest.raises(ValueError):
            e0.values[0] = 1.0

    def test_csv_roundtrip(self, tmp_path, e0):
        path = tmp_path / "e0.csv"
        e0.to_csv(path)
        back = signal_from_csv(path)
        assert back.same_grid(e0)
        np.testing.assert_allclose(back.values, e0.values, atol=0)

    def test_csv_malformed_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,re,im\n0.0,1.0,0.0\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            signal_from_csv(path)

    def test_csv_nonuniform_interior_step_rejected(self, tmp_path, e0):
        # endpoints stay put; one interior sample moves by h/3
        path = tmp_path / "bent.csv"
        e0.to_csv(path)
        lines = path.read_text().splitlines()
        x, re_, im_ = lines[500].split(",")
        lines[500] = f"{float(x) + e0.h / 3.0!r},{re_},{im_}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not uniform"):
            signal_from_csv(path)

    def test_arithmetic_requires_same_grid(self, e0):
        other = SampledSignal(4.0, 1 / 64, np.zeros(513))
        with pytest.raises(ValueError):
            e0 + other


class TestInner:
    def test_self_inner_nonnegative_real(self, hermites):
        v = inner(hermites[2], hermites[2])
        assert v.imag == pytest.approx(0.0, abs=1e-15)
        assert v.real >= 0

    def test_disjoint_bumps_orthogonal(self):
        x0 = np.zeros(1025)
        x1 = np.zeros(1025)
        x0[100:200] = 1.0
        x1[400:500] = 1.0
        f = SampledSignal(8.0, 1 / 64, x0)
        g = SampledSignal(8.0, 1 / 64, x1)
        assert inner(f, g) == 0

    def test_gaussian_atom_normalized(self, e0):
        # oracle: int 2^{1/2} exp(-2 pi x^2) dx = 1
        oracle = quad(lambda x: np.sqrt(2) * np.exp(-2 * np.pi * x ** 2), -np.inf, np.inf)[0]
        assert abs(inner(e0, e0) - oracle) < 1e-10

    def test_conjugate_symmetry(self, rng):
        f = SampledSignal(1.0, 1 / 8, rng.normal(size=(17, 2)) @ [1, 1j])
        g = SampledSignal(1.0, 1 / 8, rng.normal(size=(17, 2)) @ [1, 1j])
        assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-14)


class TestTheta:
    def test_zero_at_cell_midpoint(self):
        assert abs(theta(0.5 + 0.5j)) < 1e-10

    def test_horizontal_period(self, rng):
        z = rng.normal(size=8) + 1j * rng.uniform(-0.4, 0.4, 8)
        np.testing.assert_allclose(theta(z + 1.0), theta(z), atol=1e-12)

    def test_value_at_origin_against_series_oracle(self):
        # independent summation of 2^{1/4} sum exp(-pi q^2)
        acc = sum(np.exp(-np.pi * q * q) for q in range(-12, 13))
        assert abs(2 ** 0.25 * acc - THETA0) < 1e-12
        assert abs(theta(0.0) - THETA0) < 1e-6

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for z in [0.1 + 0.3j, 0.7 - 0.2j, 0.25 + 1.8j]:
            ref = complex(2 ** mp.mpf(0.25) * mp.jtheta(3, mp.pi * mp.mpc(z), mp.exp(-mp.pi)))
            assert abs(theta(z) - ref) < 1e-10

    def test_vertical_quasi_periodicity_on_grid(self):
        xs = np.linspace(0.02, 0.98, 20)
        Z = xs[None, :] + 1j * xs[:, None]
        lhs = theta(Z + 1j)
        rhs = np.exp(np.pi - 2j * np.pi * Z) * theta(Z)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_no_other_zero_in_square(self):
        # golden: min |Theta| off a 0.05-disk around the zero, 400x400 oracle run
        xs = np.linspace(0, 1, 200)
        Z = xs[None, :] + 1j * xs[:, None]
        vals = np.abs(theta(Z))
        mask = np.abs(Z - (0.5 + 0.5j)) > 0.05
        assert vals[mask].min() > 0.32

    def test_truncation_config(self):
        with pytest.raises(ValueError):
            theta(0.3 + 0.1j, 0)
        assert abs(theta(0.3 + 0.1j, 4) - theta(0.3 + 0.1j, 12)) < 1e-8


class TestLocIntegral:
    def test_midpoint_value(self):
        assert loc_integral(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert loc_integral(5.0) >= 1 - 1e-10
        assert loc_integral(-5.0) <= 1e-10

    def test_value_against_quadrature_oracle(self):
        oracle = quad(lambda y: np.sqrt(2) * np.exp(-2 * np.pi * y ** 2), -np.inf, -1.0)[0]
        assert abs(oracle - LOC_AT_MINUS_ONE) < 1e-12
        assert abs(loc_integral(-1.0) - LOC_AT_MINUS_ONE) < 1e-5

    @given(st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        assert abs(loc_integral(x) + loc_integral(-x) - 1.0) < 1e-10

    def test_monotone(self):
        xs = np.linspace(-3, 3, 101)
        assert np.all(np.diff(loc_integral(xs)) >= 0)

    @pytest.mark.parametrize("x", [
        -DEFAULT_T + DEFAULT_H * np.arange(_sample_count(DEFAULT_T, DEFAULT_H)), -1.0, 0.0, 0.37],
        ids=["default_grid", "minus_one", "zero", "scalar"])
    def test_matches_scipy_erf(self, x):
        ref = 0.5 * (1.0 + erf(np.sqrt(2.0 * np.pi) * np.asarray(x)))
        out = loc_integral(x)
        assert np.shape(out) == np.shape(ref)
        assert np.max(np.abs(out - ref)) <= 1e-15


class TestHermite:
    def test_ground_state_is_atom(self, e0):
        h0 = hermite_signal(0)
        assert (h0 - e0).norm() < 1e-8

    def test_parity_orthogonality(self):
        assert abs(inner(hermite_signal(0), hermite_signal(1))) < 1e-10

    def test_unit_norm(self):
        assert abs(hermite_signal(3).norm() - 1.0) < 1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            hermite_signal(-1)

    @pytest.mark.parametrize("n", range(40))
    def test_recurrence_matches_scipy_hermite_polynomial(self, n):
        x = hermite_signal(n).x
        ref = SampledSignal(DEFAULT_T, DEFAULT_H,
                            eval_hermite(n, np.sqrt(2.0 * np.pi) * x) * np.exp(-np.pi * x ** 2))
        ref = ref * (1.0 / ref.norm())
        assert np.max(np.abs(hermite_signal(n).values - ref.values)) <= 1e-13


class TestSpectralDerivative:
    def test_gaussian_derivative(self, e0):
        d = spectral_derivative(e0)
        expected = -2 * np.pi * e0.x * e0.values
        assert np.max(np.abs(d.values - expected)) < 1e-9


def _upsample_1d(values, factor):
    """The one-row trigonometric interpolation as it was before it took stacks."""
    n = values.size
    N = n * factor
    if factor == 1:
        return np.asarray(values, dtype=complex).copy()
    spec = np.fft.fft(values)
    out = np.zeros(N, dtype=complex)
    if n % 2 == 0:
        half = n // 2
        out[:half] = spec[:half]
        out[N - half + 1:] = spec[half + 1:]
        out[half] = 0.5 * spec[half]
        out[N - half] = 0.5 * spec[half]
    else:
        half = (n + 1) // 2
        out[:half] = spec[:half]
        out[N - (n - half):] = spec[half:]
    return np.fft.ifft(out) * factor


class TestUpsample:
    @pytest.mark.parametrize("shape", [(32,), (32, 32), (5, 17), (3, 4, 10)])
    @pytest.mark.parametrize("factor", [1, 2, 8])
    def test_stack_is_rowwise_bitwise(self, shape, factor):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows = np.array([_upsample_1d(r, factor) for r in vals.reshape(-1, shape[-1])])
        np.testing.assert_array_equal(upsample_periodic(vals, factor),
                                      rows.reshape(shape[:-1] + (factor * shape[-1],)))
    @pytest.mark.parametrize("n", [16, 17])
    def test_bandlimited_exact(self, n):
        k = np.arange(n)
        vals = np.exp(2j * np.pi * 2 * k / n) + 0.5 * np.exp(-2j * np.pi * 3 * k / n)
        up = upsample_periodic(vals, 4)
        kf = np.arange(4 * n) / 4.0
        ref = np.exp(2j * np.pi * 2 * kf / n) + 0.5 * np.exp(-2j * np.pi * 3 * kf / n)
        assert np.max(np.abs(up - ref)) < 1e-12
