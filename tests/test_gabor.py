import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.integrate import quad

from criticalgabor import (CoefficientSet, Disk, GaborField, Neighborhood, SampledSignal, SIGMA0,
                           UnionDomain, atom, atom_inner, field_synthesis, gabor_transform,
                           inner, loc_integral, synthesize, tail_mass)

from criticalgabor import gabor
from criticalgabor.gabor import _superpose_grid

T8, H64 = 8.0, 1.0 / 64.0


class TestAtom:
    def test_unit_norm(self):
        assert abs(atom((0, 0)).norm() - 1.0) < 1e-10

    def test_modulus_independent_of_frequency(self):
        a0 = atom((0, 0))
        a7 = atom((0, 7.3))
        np.testing.assert_allclose(np.abs(a7.values), np.abs(a0.values), atol=1e-14)

    def test_overlap_against_quadrature_oracle(self):
        # oracle: int 2^{1/2} exp(-pi(x-1)^2 - pi x^2) dx = exp(-pi/2)
        oracle = quad(lambda x: np.sqrt(2) * np.exp(-np.pi * (x - 1) ** 2 - np.pi * x ** 2),
                      -np.inf, np.inf)[0]
        assert abs(oracle - np.exp(-np.pi / 2)) < 1e-12
        val = inner(atom((1, 0)), atom((0, 0)))
        assert abs(val - oracle) < 1e-8

    def test_boundary_margin_enforced(self):
        with pytest.raises(ValueError):
            atom((4.5, 0))

    def test_nan_center_rejected(self):
        # NaN fails every comparison, so `worst + margin > T` let it through to an all-NaN atom
        with pytest.raises(ValueError, match="atom center p=nan too close to the boundary"):
            atom((math.nan, 0))

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, theta):
        with pytest.raises(ValueError, match=f"atom frequency theta={theta!r} must be finite"):
            atom((0, theta))


class TestAtomInner:
    def test_diagonal(self):
        assert atom_inner((0.3, -1.2), (0.3, -1.2)) == pytest.approx(1.0)

    def test_displaced(self):
        assert atom_inner((1, 0), (0, 0)) == pytest.approx(np.exp(-np.pi / 2))

    def test_lattice_reduction(self):
        # lattice pairs reduce to exp(pi i p theta - pi/2 (p^2+theta^2)) at the difference
        for lam, mu in [((2, 1), (1, 1)), ((0, 3), (-1, 1)), ((-2, -1), (1, 2))]:
            p, t = lam[0] - mu[0], lam[1] - mu[1]
            g = np.exp(1j * np.pi * p * t - np.pi / 2 * (p * p + t * t))
            assert atom_inner(lam, mu) == pytest.approx(g, abs=1e-12)

    def test_agrees_with_quadrature_100_pairs(self, rng):
        worst = 0.0
        for _ in range(100):
            lam = tuple(rng.uniform(-3, 3, 2))
            mu = tuple(rng.uniform(-3, 3, 2))
            quad_val = inner(atom(lam), atom(mu))
            worst = max(worst, abs(quad_val - atom_inner(lam, mu)))
        assert worst < 1e-8


class TestGaborTransform:
    def test_atom_input_gives_gaussian_profile(self):
        mu = (0.5, -0.25)
        field = gabor_transform(atom(mu), box=3.0, dlam=1 / 4)
        P, Th = np.meshgrid(field.p_grid, field.theta_grid, indexing="ij")
        expected = np.exp(-np.pi * ((P - mu[0]) ** 2 + (Th - mu[1]) ** 2) / 2)
        assert np.max(np.abs(np.abs(field.values) - expected)) < 1e-10

    def test_zero_signal(self):
        z = SampledSignal(T8, H64, np.zeros(1025))
        field = gabor_transform(z, box=2.0, dlam=0.5)
        assert np.all(field.values == 0)

    def test_parseval_h2(self, hermites, h2_field):
        ratio = h2_field.mass() / hermites[2].norm() ** 2
        assert abs(ratio - 1.0) < 1e-3

    def test_box_beyond_grid_rejected(self, hermites):
        with pytest.raises(ValueError):
            gabor_transform(hermites[0], box=9.0)

    @pytest.mark.parametrize("box", [math.inf, (-1.0, math.inf, -1.0, 1.0), (-1.0, 1.0, -math.inf, 1.0)])
    def test_infinite_box_rejected(self, hermites, box):
        # int(floor(inf)) raised OverflowError while counting the grid points
        with pytest.raises(ValueError, match="needs finite bounds"):
            gabor_transform(hermites[0], box)

    def test_inverted_box_rejected(self, hermites):
        with pytest.raises(ValueError, match=r"phase box \(0, 1, 1, 0\)"):
            gabor_transform(hermites[0], (0, 1, 1, 0), 0.1)

    def test_zero_step_rejected(self, hermites):
        with pytest.raises(ValueError, match="dlam=0.0 must be positive"):
            gabor_transform(hermites[0], 4.0, 0.0)

    def test_negative_step_rejected(self, hermites):
        with pytest.raises(ValueError, match="dlam=-0.0625 must be positive"):
            gabor_transform(hermites[0], 4.0, -1 / 16)

    def test_step_with_no_period_on_the_samples_rejected(self, hermites):
        with pytest.raises(ValueError, match=r"dlam=0\.3183.* at h=0\.015625"):
            gabor_transform(hermites[0], 4.0, 1 / np.pi)

    def test_step_with_too_many_spectrum_bins_rejected(self, hermites):
        # dlam h = 1/196 passes the theta fold, but the p step 1024/49 samples over
        # L = 1372 folds onto M' = 16807 > 16 N = 16400
        with pytest.raises(ValueError, match=r"dlam=0\.3265.* at h=0\.015625.* M'=16807 > 16400"):
            gabor_transform(hermites[0], 4.0, 16 / 49)

    def test_sample_step_with_no_integer_inverse_rejected(self):
        # 3 * 0.3 rounds below 1, so the spectrum has no whole-bin p step; 1/(2h) is no
        # integer either, so the CLI never reads this grid
        f = SampledSignal(7.5, 0.3, np.ones(51))
        with pytest.raises(ValueError, match=r"sample step h=0\.3 "):
            gabor_transform(f, 2.0, 0.3)

    @pytest.mark.parametrize("h", [1 / 64, 1 / 32])
    @pytest.mark.parametrize("dlam", [1 / 16, 1 / 8, 1 / 4, 1 / 2, 0.1, 0.3, 1 / 3])
    def test_rational_steps_accepted(self, h, dlam):
        # dlam h = a/M with M = 1024 ... 128, 640 (a = 1 or 3) and 192 at h = 1/64
        mu = (0.5, -0.3)
        field = gabor_transform(atom(mu, T8, h), 2.0, dlam)
        want = [[atom_inner(mu, (p, t)) for t in field.theta_grid] for p in field.p_grid]
        assert np.max(np.abs(field.values - want)) < 1e-13

    def test_real_even_signal_symmetry(self, hermites, h2_field):
        vals = np.abs(h2_field.values)
        assert np.max(np.abs(vals - vals[::-1, ::-1])) < 1e-10

    def test_weak_reconstruction(self, hermites):
        for n in range(4):
            field = gabor_transform(hermites[n])
            rec = field_synthesis(field, T8, H64)
            assert (rec - hermites[n]).norm() / hermites[n].norm() < 1e-2

    def test_csv_export(self, tmp_path, hermites):
        field = gabor_transform(hermites[0], box=1.0, dlam=0.5)
        path = tmp_path / "field.csv"
        field.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "p,theta,re,im"
        assert len(rows) == 1 + field.values.size


class TestGaborField:
    def test_caller_arrays_stay_writeable(self):
        p, t, v = np.arange(3.0), np.arange(2.0), np.ones((3, 2), dtype=complex)
        field = GaborField(p, t, v, 0.5)
        assert p.flags.writeable and t.flags.writeable and v.flags.writeable
        assert not any(a.flags.writeable for a in (field.p_grid, field.theta_grid, field.values))
        p[0], t[0], v[0, 0] = 9.0, 9.0, 9.0
        assert field.p_grid[0] == 0.0 and field.theta_grid[0] == 0.0 and field.values[0, 0] == 1.0

    def test_transform_hands_over_its_own_arrays(self, hermites, monkeypatch):
        made = []
        rows = gabor._spectrum_rows
        monkeypatch.setattr(gabor, "_spectrum_rows", lambda *args: made.append(rows(*args)) or made[-1])
        field = gabor_transform(hermites[2], 4.0, 1 / 8)
        assert field.values is made[0] and field.values.flags.c_contiguous
        assert not any(a.flags.writeable for a in (field.p_grid, field.theta_grid, field.values))

    @staticmethod
    def fsum_mass(values, dlam):
        return math.fsum(np.concatenate([values.real.ravel() ** 2, values.imag.ravel() ** 2])) * dlam ** 2

    def test_mass_is_the_sum_of_squares(self, h2_field):
        assert (h2_field.p_grid.size, h2_field.theta_grid.size, h2_field.dlam) == (257, 257, 1 / 16)
        want = self.fsum_mass(h2_field.values, h2_field.dlam)
        assert abs(h2_field.mass() - want) <= 1e-14 * want

    @pytest.mark.parametrize("view", ["transposed", "sliced"])
    def test_mass_of_a_strided_view(self, h2_field, view):
        # a read-only view enters the field as it is, so mass() sees its strides
        V = h2_field.values
        p, t = h2_field.p_grid, h2_field.theta_grid
        p, t, V = (t, p, V.T) if view == "transposed" else (p[::3], t[1:-2], V[::3, 1:-2])
        field = GaborField(p, t, V, h2_field.dlam)
        assert field.values is V and not V.flags.c_contiguous
        want = self.fsum_mass(V, field.dlam)
        assert abs(field.mass() - want) <= 1e-14 * want


class TestSynthesize:
    def test_single_coefficient_is_atom(self):
        c = CoefficientSet({(1, -1, False): 1.0})
        assert (synthesize(c, T8, H64) - atom((1, -1))).norm() < 1e-14

    def test_sharp_entry_sits_at_midpoint(self):
        c = CoefficientSet({(0, 0, True): 1.0})
        assert (synthesize(c, T8, H64) - atom((0.5, 0.5))).norm() < 1e-14

    def test_sigma0_series_value(self):
        # oracle: direct summation of sum exp(-pi k^2 / 2)
        oracle = sum(np.exp(-np.pi * k * k / 2) for k in range(-40, 41))
        assert abs(oracle - 1.4194954880837662) < 1e-12
        assert abs(SIGMA0 - oracle) < 1e-5

    def test_norm_bound_on_random_sets(self, rng):
        for _ in range(20):
            c = CoefficientSet()
            v = rng.normal(size=(25, 2)) @ np.array([1, 1j])
            v = v / np.linalg.norm(v)
            i = 0
            for k in range(-2, 3):
                for j in range(-2, 3):
                    c.set(k, j, v[i])
                    i += 1
            assert synthesize(c, T8, H64).norm() <= SIGMA0 * c.l2() * (1 + 1e-9)

    def test_stacked_weights_give_one_sum_per_row(self, rng):
        # the rows share the grid of centers, one all-zero row included
        ps, ts = np.array([-0.5, 0.0, 0.375]), np.array([-0.375, 0.125, 0.25])
        W = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        W[1] = 0.0
        out = _superpose_grid(ps, ts, W, T8, H64)
        assert out.shape == (5, 1025) and not np.any(out[1])
        for w, row in zip(W, out):
            single = _superpose_grid(ps, ts, w, T8, H64)
            assert np.max(np.abs(row - single)) <= 1e-15 * np.max(np.abs(single), initial=1.0)

    def test_out_of_safe_region_rejected(self):
        c = CoefficientSet({(7, 0, False): 1.0})
        with pytest.raises(ValueError):
            synthesize(c, T8, H64)

    def test_nan_margin_rejected(self):
        c = CoefficientSet({(7, 0, False): 1.0})
        with pytest.raises(ValueError, match=r"\(margin nan\)"):
            synthesize(c, T8, H64, margin=math.nan)


def midpoint_tail(coeffs: CoefficientSet, r: float, dlam: float) -> float:
    """tail_mass's measurement at another step: the Gabor mass of the series on the
    midpoint grid of the box 8 outside the r-neighborhood of its support."""
    g = synthesize(coeffs, T8, H64)
    d = dlam / 2
    field = gabor_transform(g, (-8.0 + d, 8.0 - d, -8.0 + d, 8.0 - d), dlam)
    support = UnionDomain([Disk(pt, 0.0) for pt in coeffs.points()])
    outside = ~Neighborhood(support, r).contains_grid(field.p_grid, field.theta_grid)
    return float(np.sum(np.abs(field.values[outside]) ** 2) * dlam ** 2)


class TestTailMass:
    def test_zero_coefficients(self):
        measured, bound = tail_mass(CoefficientSet(), 1.0)
        assert measured == 0.0 and bound == 0.0

    def test_single_atom_radius_one(self):
        # the bound is exactly attained in the continuum for one atom; the
        # midpoint-grid measurement approaches it from below: tail_mass's
        # step 1/8 stays below the same measurement at step 1/16
        c = CoefficientSet({(0, 0, False): 1.0})
        measured, bound = tail_mass(c, 1.0)
        finer = midpoint_tail(c, 1.0, 1 / 16)
        assert bound == pytest.approx(np.exp(-np.pi))
        assert measured <= finer <= bound
        assert finer == pytest.approx(bound, rel=5e-2)

    def test_random_sets_respect_bound(self, rng):
        for _ in range(15):
            c = CoefficientSet()
            for k in range(-2, 3):
                for j in range(-2, 3):
                    c.set(k, j, complex(*rng.normal(size=2)))
            for r in (1.0, 2.0):
                measured, bound = tail_mass(c, r)
                assert measured <= bound * (1 + 1e-9)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            tail_mass(CoefficientSet({(0, 0, False): 1.0}), 0.0)


def half_plane_mass(f: SampledSignal, q: float) -> float:
    """Gabor mass over the half-plane p >= q, via int I(x - q) |f(x)|^2 dx."""
    return float(np.sum(loc_integral(f.x - q) * np.abs(f.values) ** 2) * f.h)


class TestHalfPlaneMass:
    def test_whole_line_limit(self, hermites):
        f = hermites[0]
        assert half_plane_mass(f, -T8) >= 0.999 * f.norm() ** 2

    def test_atom_split_at_center(self, e0):
        val = half_plane_mass(e0, 0.0)
        assert abs(val - 0.5 * e0.norm() ** 2) < 0.02 * e0.norm() ** 2

    def test_far_right_vanishes(self, hermites):
        assert half_plane_mass(hermites[0], T8) < 1e-9

    def test_cross_check_against_field_integral(self, hermites):
        f = hermites[1]
        q, dlam = 0.5, 1 / 16
        rhs = half_plane_mass(f, q)
        # midpoint grid in p so the half-plane edge is integrated to O(dlam^2)
        field = gabor_transform(f, box=(q + dlam / 2, 8.0 - dlam / 2, -8.0, 8.0), dlam=dlam)
        lhs = field.mass()
        assert abs(lhs - rhs) / rhs < 1e-3


def dumps_payload(c: CoefficientSet) -> str:
    """The text CoefficientSet.to_json wrote as json.dumps of a list of per-entry dicts."""
    payload = {"coefficients": [{"k": k, "j": j, "sharp": s, "re": v.real, "im": v.imag}
                                for (k, j, s), v in sorted(c.entries.items())]}
    if c.sharp_block:
        payload["sharp_block"] = [[b.real, b.imag] for b in c.sharp_block]
        payload["nodes"] = [[n.p, n.theta] for n in c.nodes]
    return json.dumps(payload)


# finite floats, with the edge spellings named: signed zero, the least subnormal, the
# largest float and integer-valued floats (repr 1e+16, not 1.0e16)
FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                                    -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0 ** 60]),
                   st.integers(-2 ** 60, 2 ** 60).map(float),
                   st.floats(allow_nan=False, allow_infinity=False))
COMPLEX = st.builds(complex, FLOATS, FLOATS)
KEYS = st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.booleans())
BLOCKS = st.lists(st.tuples(COMPLEX, st.tuples(FLOATS, FLOATS)), max_size=7)  # an order-m block and its nodes


class TestCoefficientSet:
    def test_json_roundtrip(self):
        c = CoefficientSet({(0, 0, False): 1 + 2j, (1, -2, True): -0.5j},
                           sharp_block=[0.25j], nodes=[(0.5, 0.5)])
        back = CoefficientSet.from_json(c.to_json())
        assert back.entries == c.entries
        assert back.sharp_block == c.sharp_block
        assert [(n.p, n.theta) for n in back.nodes] == [(0.5, 0.5)]

    @given(st.dictionaries(KEYS, COMPLEX, max_size=40), BLOCKS)
    @settings(max_examples=200, deadline=None)
    def test_json_text_equals_json_dumps_of_the_entry_payload(self, entries, block):
        c = CoefficientSet(entries, sharp_block=[b for b, _ in block], nodes=[n for _, n in block])
        assert c.to_json() == dumps_payload(c)
        back = CoefficientSet.from_json(c.to_json())
        assert back.entries == c.entries and back.sharp_block == c.sharp_block

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["re", "im", "block", "node_p", "node_theta"])
    def test_to_json_refuses_what_from_json_would_refuse(self, where, bad):
        value = {"re": complex(bad, 1.0), "im": complex(1.0, bad)}.get(where, 1 + 1j)
        block = complex(bad, 0.0) if where == "block" else 0.5j
        node = {"node_p": (bad, 0.5), "node_theta": (0.5, bad)}.get(where, (0.5, 0.5))
        c = CoefficientSet({(0, 1, False): 2.0, (3, -1, True): value}, sharp_block=[block], nodes=[node])
        with pytest.raises(ValueError, match="must be a finite number"):
            c.to_json()

    def test_l2(self):
        c = CoefficientSet({(0, 0, False): 3.0, (1, 0, False): 4.0})
        assert c.l2() == pytest.approx(5.0)

    def test_block_requires_nodes(self):
        with pytest.raises(ValueError):
            CoefficientSet({}, sharp_block=[1.0], nodes=[])
