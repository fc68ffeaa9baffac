import numpy as np
import pytest

from criticalgabor import certainty
from criticalgabor import (CoefficientSet, Disk, Rect, SampledSignal, atom,
                           concentration, decompose, default_order,
                           degrees_of_freedom_report, domain_area,
                           lattice_points_in, least_squares_baseline,
                           nested_domains, nesting_satisfied, synthesize)

T12, H64 = 12.0, 1.0 / 64.0

C_GM = 1e-4          # frozen: ||g+||^2 <= C exp(-pi (r/2-l)^2) ||f||_delta^2 (family max 5.1e-6)
DOF_EXCESS_GOLDEN = 3.2  # frozen: excess/(r sqrt(area)) over disks radius 2..6, r=3 (max 2.98)


@pytest.fixture(scope="module")
def three_atom_mix():
    c = CoefficientSet()
    c.set(0, 0, 1.0)
    c.set(1, 0, 0.7j)
    c.set(0, 1, -0.5)
    return synthesize(c, T12, H64)


class TestConcentration:
    def test_centered_atom_in_disk(self):
        f = atom((0, 0), T12, H64)
        val = concentration(f, Disk((0, 0), 3.0))
        assert val <= np.exp(-9 * np.pi) + 1e-9

    def test_zero_signal(self):
        z = SampledSignal(T12, H64, np.zeros(1537))
        assert concentration(z, Disk((0, 0), 2.0)) == 0.0

    def test_whole_box_leaves_only_tail(self, three_atom_mix):
        val = concentration(three_atom_mix, Rect(-10, 10, -10, 10))
        assert val <= 1e-9

    def test_unbounded_rejected(self, three_atom_mix):
        from criticalgabor import FunctionDomain
        dom = FunctionDomain(lambda p, t: t > 0, (-1, 1, 0, np.inf))
        with pytest.raises(ValueError):
            concentration(three_atom_mix, dom)


class TestNestedDomains:
    def test_reach_formula(self):
        nd = nested_domains(Disk((0, 0), 2.0), 6.0, 1)
        assert nd.l == pytest.approx(2.0)

    def test_nesting_holds_for_proof_choice(self):
        K = Disk((0, 0), 2.0)
        for r in (5.0, 6.0):
            m = default_order(r)
            assert nesting_satisfied(nested_domains(K, r, m))

    def test_nesting_fails_for_oversized_order(self):
        assert not nesting_satisfied(nested_domains(Disk((0, 0), 2.0), 4.0, 2))

    def test_default_order(self):
        assert default_order(4.0) == 0
        assert default_order(6.0) == 1
        assert default_order(30.0) == 6  # capped


class TestDecompose:
    def test_single_atom_deep_inside(self):
        f = atom((0, 0), T12, H64)
        dec = decompose(f, Disk((0, 0), 3.0), r=3.0)
        rep = dec.report
        assert rep["residual_norm"] / rep["signal_norm"] <= 0.05
        assert abs(dec.alpha.get(0, 0) - 1.0) < 1e-2

    def test_zero_signal(self):
        z = SampledSignal(T12, H64, np.zeros(1537))
        dec = decompose(z, Disk((0, 0), 2.0), r=3.0)
        assert dec.report["residual_norm"] == pytest.approx(0.0, abs=1e-12)
        assert all(v == 0 for v in dec.alpha.entries.values())

    def test_three_atoms_criterion_configuration(self, three_atom_mix):
        dec = decompose(three_atom_mix, Disk((0, 0), 2.0), r=4.0, m=2)
        rep = dec.report
        exact = (three_atom_mix - dec.synthesized(T12, H64) - dec.residual).norm()
        assert exact <= 1e-10
        assert rep["residual_norm"] / rep["signal_norm"] <= 0.1
        assert rep["residual_norm"] <= rep["bound_value"]
        assert rep["atom_count"] == rep["count_lattice_in_D"] + rep["count_sharp_in_collar"]

    def test_monotone_in_r(self, three_atom_mix):
        K = Disk((0, 0), 2.0)
        res3 = decompose(three_atom_mix, K, r=3.0).report["residual_norm"]
        res5 = decompose(three_atom_mix, K, r=5.0).report["residual_norm"]
        assert res5 <= res3 * 1.1

    def test_mid_region_machinery_improves_g(self, three_atom_mix):
        dec = decompose(three_atom_mix, Disk((0, 0), 2.0), r=5.0)
        rep = dec.report
        assert rep["mid_region_points"] > 0
        assert rep["nesting_satisfied"]
        assert rep["residual_norm"] <= rep["g_norm"] * 1.05

    def test_collar_concentrated_signal(self):
        # one atom inside K plus an off-lattice atom in the collar: the
        # re-expansion of the collar density must beat dropping it outright
        f = SampledSignal(T12, H64, atom((0, 0), T12, H64).values
                          + 0.8 * atom((2.6, 1.4), T12, H64, margin=2.0).values)
        dec = decompose(f, Disk((0, 0), 2.0), r=5.0)
        rep = dec.report
        assert rep["mid_region_points"] > 0
        assert rep["residual_norm"] <= 0.2 * rep["g_norm"]
        assert rep["residual_norm"] <= rep["bound_value"]
        assert (f - dec.synthesized(T12, H64) - dec.residual).norm() <= 1e-10

    def test_g_plus_exponential_bound(self, three_atom_mix):
        for (r, m) in [(5.0, 0), (6.0, 1)]:
            rep = decompose(three_atom_mix, Disk((0, 0), 2.0), r=r, m=m).report
            l = np.sqrt((m + 1) / 2.0) + 1.0
            bound = C_GM * np.exp(-np.pi * (r / 2.0 - l) ** 2) * rep["hdelta_norm"] ** 2
            assert rep["g_plus_norm"] ** 2 <= bound

    def test_order_must_fit_collar(self, three_atom_mix):
        with pytest.raises(ValueError):
            decompose(three_atom_mix, Disk((0, 0), 2.0), r=2.0, m=3)

    def test_relocation_failure_reported(self):
        # K centered at a lattice point with a thin collar: U stays more than
        # 1/sqrt(2) away from every sharp point
        f = atom((0, 0), T12, H64)
        K = Disk((0, 0), 0.05)
        with pytest.raises(ValueError, match="sharp point"):
            decompose(f, K, r=1.0, m=0)

    def test_grid_too_small_rejected(self):
        f = atom((0, 0), 8.0, H64)
        with pytest.raises(ValueError, match="too small"):
            decompose(f, Disk((0, 0), 4.0), r=4.0)

    def test_least_squares_floor(self, three_atom_mix):
        # the labeled non-constructive baseline can only do better
        dec = decompose(three_atom_mix, Disk((0, 0), 2.0), r=4.0, m=2)
        floor = least_squares_baseline(three_atom_mix, Disk((0, 0), 2.0), 4.0)
        assert floor <= dec.report["residual_norm"] + 1e-9


class TestOffsetCache:
    def test_one_local_expansion_per_distinct_offset(self, monkeypatch):
        # at dlam = 1/16 the mid region holds sub-cell offsets that are odd
        # multiples of 1/16; each must get its own local expansion, made at
        # that offset, and no offset may be expanded twice
        T, dlam, r, m = 7.0, 1.0 / 16.0, 4.0, 0
        K = Disk((0, 0), 0.25)
        centers, expanded = [], []
        atom_fn, expand_fn = certainty.atom, certainty.order_m_coefficients

        def recording_atom(lam, *args, **kwargs):
            centers.append(lam)
            return atom_fn(lam, *args, **kwargs)

        def recording_expand(*args, **kwargs):
            expanded.append(centers[-1])  # the offset atom is built just before the call
            return expand_fn(*args, **kwargs)

        monkeypatch.setattr(certainty, "atom", recording_atom)
        monkeypatch.setattr(certainty, "order_m_coefficients", recording_expand)
        dec = decompose(atom((0.5, 0.25), T, H64), K, r, m, dlam=dlam, R_local=3)

        nd = nested_domains(K, r, m)
        box = max(abs(b) for b in nd.D.bbox) + 2.0
        grid = -box + dlam * np.arange(int(round(2 * box / dlam)) + 1)
        P, Th = np.meshgrid(grid, grid, indexing="ij")
        pts = np.column_stack([P.ravel(), Th.ravel()])
        mid = pts[nd.D_minus.contains(pts) & ~nd.K_plus.contains(pts)]
        offsets = {tuple(np.round(pt - np.floor(pt + 0.5), 9)) for pt in mid}
        assert dec.report["mid_region_points"] == len(mid)
        got = [tuple(np.round([c.p, c.theta], 9)) for c in expanded]
        assert len(got) == len(set(got))
        assert set(got) == offsets
        assert len(offsets) > 81  # more than the 9 x 9 classes of round(8 * offset)


class TestDegreesOfFreedom:
    def test_square_of_side_s_counts(self):
        for s in (3, 5):
            pts = lattice_points_in(Rect(0, s, 0, s))
            assert len(pts) == (s + 1) ** 2

    def test_disk_excess_golden(self):
        for rad in (2.0, 3.0, 4.0, 5.0, 6.0):
            rep = degrees_of_freedom_report(Disk((0, 0), rad), 3.0)
            brute_lattice = sum(1 for a in range(-20, 21) for b in range(-20, 21)
                                if np.hypot(a, b) <= rad + 3.0)
            assert rep["count_lattice_in_D"] == brute_lattice
            assert rep["normalized_excess"] <= DOF_EXCESS_GOLDEN

    def test_doubling_radius_scales_area_like(self):
        c8 = degrees_of_freedom_report(Disk((0, 0), 8.0), 0.5)["count"]
        c16 = degrees_of_freedom_report(Disk((0, 0), 16.0), 0.5)["count"]
        assert 3.5 <= c16 / c8 <= 4.5

    def test_area_estimate(self):
        area = domain_area(Disk((0, 0), 2.0))
        assert area == pytest.approx(np.pi * 4.0, rel=0.02)

    def test_collar_sharp_count_is_annulus_area_like(self):
        rep = degrees_of_freedom_report(Disk((0, 0), 2.0), 3.0)
        annulus = np.pi * (5.0 ** 2 - 2.0 ** 2)
        assert rep["count_sharp_in_collar"] == pytest.approx(annulus, rel=0.15)
