import json

import numpy as np
import pytest
from scipy.spatial import cKDTree
from hypothesis import given, settings
from hypothesis import strategies as st

from criticalgabor import (Disk, Neighborhood, PhasePoint, Polygon, Rect,
                           UnionDomain, as_point, domain_from_json,
                           lattice_points_in, phaseplane, sharp_point)
from criticalgabor.phaseplane import PhaseDomain
from support import FunctionDomain, _nearest_distance

coords = st.floats(-10, 10, allow_nan=False)


def symplectic_form(u, v) -> float:
    """sigma[(x,xi),(y,eta)] = eta*x - xi*y; antisymmetric, rotation invariant."""
    u, v = as_point(u), as_point(v)
    return v.theta * u.p - u.theta * v.p


def j_transform(u) -> PhasePoint:
    """The symplectic rotation (p, theta) -> (theta, -p)."""
    u = as_point(u)
    return PhasePoint(u.theta, -u.p)


class TestSymplectic:
    def test_canonical_pair(self):
        assert symplectic_form((1, 0), (0, 1)) == 1.0

    @given(coords, coords)
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_on_diagonal(self, p, t):
        assert symplectic_form((p, t), (p, t)) == 0.0

    @given(coords, coords, coords, coords)
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, a, b, c, d):
        assert symplectic_form((a, b), (c, d)) == -symplectic_form((c, d), (a, b))

    def test_j_transform(self):
        assert j_transform((2, 3)) == PhasePoint(3.0, -2.0)

    def test_j_realizes_form(self, rng):
        for _ in range(20):
            u, v = rng.normal(size=2), rng.normal(size=2)
            ju = j_transform(v)
            assert symplectic_form(u, v) == pytest.approx(u[0] * ju.p + u[1] * ju.theta, abs=1e-12)

    @given(st.floats(0, 2 * np.pi), coords, coords, coords, coords)
    @settings(max_examples=40, deadline=None)
    def test_rotation_invariance(self, phi, a, b, c, d):
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        u, v = np.array([a, b]), np.array([c, d])
        lhs = symplectic_form(R @ u, R @ v)
        rhs = symplectic_form(u, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestLatticeEnumeration:
    def test_closed_square_9_points(self):
        pts = lattice_points_in(Rect(-1, 1, -1, 1))
        assert len(pts) == 9

    def test_sharp_unit_square_single(self):
        pts = [sharp_point(k, j) for k, j in lattice_points_in(Rect(0, 1, 0, 1), sharp=True).tolist()]
        assert pts == [sharp_point(0, 0)]

    def test_disk_count_against_brute_force(self):
        pts = lattice_points_in(Disk((0, 0), 2.5))
        brute = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if a * a + b * b <= 2.5 ** 2]
        assert len(pts) == len(brute) == 21

    def test_sorted_lexicographically(self):
        pts = lattice_points_in(Disk((0, 0), 2.0))
        keys = [(k, j) for k, j in pts.tolist()]
        assert keys == sorted(keys)

    def test_a_rect_holds_the_points_of_its_zero_neighborhood(self):
        # k = -2 lies 5e-13 outside the left side, within the 1e-12 slack of every domain
        rect = Rect(-1.9999999999995, 2, -1, 1)
        pts = lattice_points_in(rect)
        np.testing.assert_array_equal(pts, lattice_points_in(Neighborhood(rect, 0.0)))
        assert len(pts) == 15

    def test_unbounded_rejected(self):
        dom = FunctionDomain(lambda p, t: p > 0, (0, np.inf, -1, 1))
        with pytest.raises(ValueError):
            lattice_points_in(dom)

    def test_area_growth_for_disks(self):
        for r in range(2, 11):
            pts = lattice_points_in(Disk((0, 0), float(r)))
            brute = sum(1 for a in range(-r, r + 1) for b in range(-r, r + 1)
                        if a * a + b * b <= r * r)
            assert len(pts) == brute
            assert abs(len(pts) - np.pi * r ** 2) <= 8 * r

    def test_sharp_and_plain_disjoint(self):
        # a sharp index (k, j) stands for the midpoint (k + 1/2, j + 1/2), which is no lattice point;
        # on the disk, testing the index itself instead of the midpoint gives another set
        cells = [(k, j) for k in range(-3, 4) for j in range(-3, 4)]
        for dom, n_plain, n_sharp in [(Rect(-2, 2, -2, 2), 25, 16), (Disk((0, 0), 0.8), 1, 4)]:
            plain = {(k, j) for k, j in lattice_points_in(dom).tolist()}
            sharp = {(k, j) for k, j in lattice_points_in(dom, sharp=True).tolist()}
            assert plain == {(k, j) for k, j in cells if dom.contains((k, j))} and len(plain) == n_plain
            assert sharp == {(k, j) for k, j in cells if dom.contains((k + 0.5, j + 0.5))}
            assert len(sharp) == n_sharp


class TestNeighborhood:
    def test_zero_radius_is_closure(self):
        d = Disk((0, 0), 1.0)
        n = Neighborhood(d, 0.0)
        assert n.contains((1.0, 0.0))
        assert not n.contains((1.001, 0.0))

    def test_point_grows_to_disk(self):
        n = Neighborhood(UnionDomain([Disk((0.0, 0.0), 0.0)]), 1.0)
        assert n.contains((0.999, 0.0))
        assert not n.contains((1.01, 0.001))

    def test_square_distance_examples(self):
        n = Neighborhood(Rect(0, 1, 0, 1), 1.0)
        assert n.contains((-0.5, 0.5))
        assert not n.contains((-1.1, 0.5))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Neighborhood(Disk((0, 0), 1.0), -0.1)

    def test_monotone_in_radius(self, rng):
        base = Disk((0.3, -0.2), 0.7)
        pts = rng.uniform(-3, 3, size=(100, 2))
        small = Neighborhood(base, 0.5).contains(pts)
        large = Neighborhood(base, 1.5).contains(pts)
        assert not np.any(small & ~large)

    def test_composition_subset_and_convex_equality(self, rng):
        base = Disk((0, 0), 1.0)
        ab = Neighborhood(Neighborhood(base, 0.6), 0.9)
        direct = Neighborhood(base, 1.5)
        pts = rng.uniform(-4, 4, size=(400, 2))
        assert not np.any(ab.contains(pts) & ~direct.contains(pts))
        np.testing.assert_array_equal(ab.contains(pts), direct.contains(pts))


class TestDomains:
    def test_polygon_membership_and_distance(self):
        tri = Polygon([(0, 0), (2, 0), (0, 2)])
        assert tri.contains((0.5, 0.5))
        assert tri.contains((1, 1))  # on the hypotenuse
        assert not tri.contains((1.6, 1.6))
        assert tri.distance((3, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_polygon_edge_takes_the_one_membership_rule(self):
        # 5e-10 outside an edge is outside, as for every domain: the rule is d <= 1e-12
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert square.distance((1 + 5e-10, 0.5)) == pytest.approx(5e-10, rel=1e-6)
        assert not square.contains((1 + 5e-10, 0.5))
        assert square.contains((1 + 5e-13, 0.5)) and square.contains((1, 0.5))
        assert not square.contains_grid([1 + 5e-10], [0.5])[0, 0]

    def test_union(self):
        u = UnionDomain([Disk((-2, 0), 1.0), Disk((2, 0), 1.0)])
        assert u.contains((-2, 0)) and u.contains((2, 0))
        assert not u.contains((0, 0))
        assert u.distance((0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_membership_of_every_domain_class_is_the_neighborhood_kernel(self, monkeypatch):
        # contains and contains_grid both ask neighborhood_masks: a domain is its own
        # 0-neighborhood, a Neighborhood the r-neighborhood of its base
        doms = [Rect(-1, 1, 0, 2), Disk((0.5, 0), 1.0), Polygon([(0, 0), (2, 0), (0, 2)]),
                UnionDomain([Disk((-2, 0), 1.0), Rect(0, 1, 0, 1)]), Neighborhood(Disk((0, 0), 0.5), 0.75)]
        classes = {c for c in vars(phaseplane).values() if isinstance(c, type) and issubclass(c, PhaseDomain)}
        assert {type(d) for d in doms} == classes - {PhaseDomain}
        calls, kernel = [], phaseplane.neighborhood_masks

        def counting(base, p, t, radii):
            calls.append((base, list(radii)))
            return kernel(base, p, t, radii)

        monkeypatch.setattr(phaseplane, "neighborhood_masks", counting)
        for dom in doms:
            ball = (dom.base, [dom.r]) if isinstance(dom, Neighborhood) else (dom, [0.0])
            calls.clear()
            assert dom.contains((0.5, 0.5))
            np.testing.assert_array_equal(dom.contains_grid([0.5, 9.0], [0.5]), [[True], [False]])
            assert calls == [ball, ball]

    def test_function_domain_sampled_distance(self):
        pred = FunctionDomain(lambda p, t: p ** 2 + t ** 2 <= 1.0, (-1, 1, -1, 1))
        exact = Disk((0, 0), 1.0)
        for pt in [(2.0, 0.0), (0.0, -1.7), (1.2, 1.2)]:
            assert abs(pred.distance(pt) - exact.distance(pt)) < 2 * pred.resolution

    @pytest.mark.parametrize("kind", ["point_set", "sampled_boundary"])
    def test_nearest_distance_matches_kd_tree(self, kind):
        g = np.linspace(-3.0, 3.0, 240)
        pts = np.column_stack([np.repeat(g, g.size), np.tile(g, g.size)])
        if kind == "point_set":
            sites = np.random.default_rng(1).uniform(-2.0, 2.0, size=(300, 2))
            pts = np.vstack([pts, sites[::7]])
            dom = UnionDomain([Disk(site, 0.0) for site in sites])
            ref = cKDTree(sites).query(pts)[0]
            np.testing.assert_array_equal(dom.contains(pts), ref <= 1e-12)
            assert np.count_nonzero(dom.contains(pts)) == len(sites[::7])
            assert np.max(np.abs(_nearest_distance(sites, pts) - ref)) <= 1e-15
        else:
            dom = FunctionDomain(lambda p, t: p ** 2 + t ** 2 <= 1.5 ** 2, (-1.5, 1.5, -1.5, 1.5))
            ref = np.where(dom.contains(pts), 0.0, cKDTree(dom._boundary_samples()).query(pts)[0])
        assert np.max(np.abs(dom.distance(pts) - ref)) <= 1e-15

    def test_point_set_needs_finite_points(self):
        with pytest.raises(ValueError, match="bounding box"):
            UnionDomain([Disk((0.0, 0.0), 0.0), Disk((np.nan, 1.0), 0.0)])

    @pytest.mark.parametrize("make", [lambda: Disk((np.nan, 0.0), 1.0), lambda: Disk((0.0, 0.0), np.nan),
                                      lambda: Rect(0.0, 1.0, np.nan, 1.0),
                                      lambda: Polygon([(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)])],
                             ids=["disk_center", "disk_radius", "rect", "polygon"])
    def test_nan_in_a_domain_is_refused(self, make):
        # unrefused, a NaN disk is accepted and decompose calls it unbounded
        with pytest.raises(ValueError, match="bounding box"):
            make()

    def test_json_loader(self):
        spec = {
            "type": "union",
            "parts": [
                {"type": "disk", "center": [0, 0], "radius": 1.0},
                {"type": "rect", "pmin": 2, "pmax": 3, "tmin": -1, "tmax": 1},
                {"type": "polygon", "vertices": [[-3, -3], [-2, -3], [-2, -2]]},
            ],
        }
        dom = domain_from_json(json.dumps(spec))
        assert dom.contains((0.5, 0))
        assert dom.contains((2.5, 0))
        assert dom.contains((-2.2, -2.9))
        assert not dom.contains((1.5, 1.5))

    def test_json_unknown_type(self):
        with pytest.raises(ValueError):
            domain_from_json({"type": "blob"})

    @pytest.mark.parametrize("spec", [
        {"type": "disk", "center": [0, 0], "radius": 1.0, "resolution": 0.01},
        {"type": "rect", "pmin": 0, "pmax": 1, "tmin": 0, "tmax": 1, "radius": 2.0},
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]], "resolution": 0.01},
        {"type": "union", "parts": [{"type": "disk", "center": [0, 0], "radius": 1.0, "r": 1}]},
    ], ids=["disk", "rect", "polygon", "union_part"])
    def test_json_key_its_type_does_not_read_rejected(self, spec):
        with pytest.raises(ValueError, match="does not read"):
            domain_from_json(spec)


class TestPhasePoint:
    def test_label_and_norm(self):
        pt = PhasePoint(3.0, 4.0)
        assert pt.label == 3 + 4j
        assert pt.norm == 5.0
        assert abs(pt.label) == pt.norm

    def test_sharp_offset_not_lattice(self):
        s = sharp_point(0, 0)
        assert (s.p, s.theta) == (0.5, 0.5)
        assert as_point((1, 2)) + s == PhasePoint(1.5, 2.5)
