"""The allocation-free kernels against the code they replace.

The oracles below are the earlier forms: the chirp as one expression,
the polygon distance over (N, E, 2) temporaries, the neighborhood rule on
every point, the meshgrid weight of hdelta_norm, the twice-squared field of
concentration, the biorthogonality loop with one annihilate too many, and the
hand-written box and Zak grids.  Where the arithmetic is unchanged the new
form must agree bit for bit.  The Gabor transform is held to the dense sum in
long double, phases reduced mod 1 before the factor 2 pi.
"""

import math
import tracemalloc

import numpy as np
import pytest

from criticalgabor import (CoefficientSet, Disk, Polygon, Rect, SampledSignal,
                           UnionDomain, atom, concentration, decompose, gabor_transform,
                           hdelta_norm, hermite_signal, synthesize, tail_mass, theta, zak,
                           zak_atom_field)
from criticalgabor import higher, verify
from criticalgabor.certainty import nested_domains
from criticalgabor.gabor import _ROWS, _box_grids
from criticalgabor.higher import annihilate, default_sharp_nodes, dual_atoms
from criticalgabor.expansion import sharp_functional
from criticalgabor.numerics import _chirp
from criticalgabor.phaseplane import Neighborhood, neighborhood_masks
from support import FunctionDomain, grid_points

T, H = 8.0, 1.0 / 64.0


def old_chirp(c, M):
    m2 = np.arange(M, dtype=float) ** 2
    frac, e = math.frexp(c)
    bits = 53 - max(M - 1, 1).bit_length() * 2
    c_hi = math.ldexp(round(math.ldexp(frac, bits)), e - bits)
    return np.exp(1j * np.pi * (np.fmod(c_hi * m2, 2.0) + (c - c_hi) * m2))


def long_double_gabor_transform(f, box, dlam):
    """2^{1/4} h sum_n f(x_n) e^{-pi (x_n - p)^2 - 2 pi i theta x_n} in long double, on the float grids."""
    ps, ts = _box_grids(box, dlam)
    pi = 4 * np.arctan(np.longdouble(1))
    x = -np.longdouble(f.T) + np.longdouble(f.h) * np.arange(f.values.size).astype(np.longdouble)
    turns = np.multiply.outer(x, ts.astype(np.longdouble))
    turns -= np.round(turns)
    phase = np.exp(-2j * pi * turns)
    out = np.array([(f.values * np.exp(-pi * (x - np.longdouble(p)) ** 2)) @ phase for p in ps])
    return out * np.longdouble(2) ** np.longdouble(0.25) * np.longdouble(f.h)


def old_polygon_distance(vertices, pts):
    x, y = pts[:, 0], pts[:, 1]
    a, b = vertices, np.roll(vertices, -1, axis=0)
    inside = np.zeros(len(pts), dtype=bool)
    for (x1, y1), (x2, y2) in zip(a, b):
        cond = (y1 > y) != (y2 > y)
        xin = x1 + (y - y1) * (x2 - x1) / np.where(y2 != y1, y2 - y1, 1e-300)
        inside ^= cond & (x < xin)
    ab = b - a
    ap = pts[:, None, :] - a[None, :, :]
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    t = np.clip(np.sum(ap * ab[None, :, :], axis=2) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.min(np.hypot(*(pts[:, None, :] - proj).transpose(2, 0, 1)), axis=1)
    return np.where(inside, 0.0, d)


def old_hdelta_norm(f, delta, box=8.0, dlam=1.0 / 16.0):
    V = gabor_transform(f, box, dlam)
    P, Th = np.meshgrid(V.p_grid, V.theta_grid, indexing="ij")
    weight = np.hypot(P, Th) ** delta + 1.0
    return float(np.sqrt(np.sum(weight * np.abs(V.values) ** 2) * dlam ** 2))


def old_concentration(f, D, box, dlam=1.0 / 16.0):
    field = gabor_transform(f, box, dlam)
    outside = ~D.contains(grid_points(field.p_grid, field.theta_grid))
    inside_box = float(np.sum(np.abs(field.values.ravel()) ** 2) * dlam ** 2)
    out_mass = float(np.sum(np.abs(field.values.ravel()[outside]) ** 2) * dlam ** 2)
    rest = f.norm() ** 2 - inside_box
    return out_mass + (rest if rest > 64 * np.finfo(float).eps * f.norm() ** 2 else 0.0)


def old_biorthogonality_gap(m):
    worst = 0.0
    for jj, d in enumerate(dual_atoms(default_sharp_nodes(m), T, H).atoms):
        gsig = d
        for k in range(m + 1):
            val = sharp_functional(gsig)
            worst = max(worst, abs(val - (1.0 if k == jj else 0.0)))
            gsig = annihilate(gsig)
    return worst


def old_tail_mass(coeffs, r, box, dlam):
    g = synthesize(coeffs, T, H)
    if np.isscalar(box):
        box = (-box, box, -box, box)
    box = (box[0] + dlam / 2, box[1] - dlam / 2, box[2] + dlam / 2, box[3] - dlam / 2)
    field = gabor_transform(g, box, dlam)
    outside = ~Neighborhood(UnionDomain([Disk(pt, 0.0) for pt in coeffs.points()]), r).contains(
        grid_points(field.p_grid, field.theta_grid))
    return float(np.sum(np.abs(field.values.ravel()[outside]) ** 2) * dlam ** 2)


def mixed_signal(seed, T, h):
    """Atoms plus white noise, as in test_chirp_paths."""
    rng = np.random.default_rng(seed)
    n = int(round(2 * T / h)) + 1
    vals = 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    for _ in range(3):
        p, th = rng.uniform(4 - T, T - 4), rng.uniform(-4, 4)
        vals = vals + complex(*rng.normal(size=2)) * atom((p, th), T, h).values
    return SampledSignal(T, h, vals)


# the named boxes of test_chirp_paths, on both of its grids where they fit
CHIRP_CASES = [((8.0, 1.0 / 64.0), box, dlam) for box, dlam in
               [(7.4838, 1 / 8), (8.0, 1 / 16), ((-3.1, 5.2, -2.05, 6.3), 0.1), (6.0, 0.3), (6.0, 1 / 3)]]
CHIRP_CASES += [((6.0, 1.0 / 32.0), box, dlam) for box, dlam in
                [(5.5, 1 / 8), (6.0, 1 / 16), ((-3.1, 5.2, -2.05, 6.3), 0.1), (6.0, 0.3), (6.0, 1 / 3)]]


@pytest.mark.parametrize("grid,box,dlam", CHIRP_CASES)
@pytest.mark.parametrize("seed", [24, 7])
def test_gabor_transform_matches_the_per_block_chirp_sum(grid, box, dlam, seed):
    # against the dense sum in long double.  On the dyadic steps the fold is good to
    # roundoff; at 0.1, 0.3 and 1/3 the oracle takes the float grid's own rounding of
    # theta_k (up to 5e-15 at h = 1/32), where the fold reads the exact a/M
    f = mixed_signal(seed, *grid)
    want = long_double_gabor_transform(f, box, dlam)
    got = gabor_transform(f, box, dlam).values
    bound = 1e-15 if dlam in (1 / 8, 1 / 16) else 2e-14
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


@pytest.mark.parametrize("c,M", [(1 / 1024, 1025), (1 / (4096 * 0.37), 1025), (0.1 / 64, 573), (1 / 3, 40),
                                 (-0.3, 40), (0.1, 5), (0.2, 1)])
def test_chirp_is_bitwise_unchanged(c, M):
    np.testing.assert_array_equal(_chirp(c, M), old_chirp(c, M))


def test_gabor_transform_scratch_is_bounded_by_the_block_buffer(hermites):
    # everything but the output fits in 995,328 B, three (_ROWS, 1296) complex
    # buffers; a fresh set of per-block temporaries does not
    f, box, dlam = hermites[2], 8.0, 1.0 / 16.0
    gabor_transform(f, box, dlam)  # numpy's FFT plan cache fills outside the trace
    tracemalloc.start()
    try:
        field = gabor_transform(f, box, dlam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - field.values.nbytes <= 3 * _ROWS * 1296 * 16 == 995_328


def random_polygons():
    rng = np.random.default_rng(11)
    polys = [rng.uniform(-0.6, 0.6, size=(n, 2)) for n in (3, 3, 4, 4, 5, 7)]
    polys.append(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))  # a zero-length edge
    polys.append(np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]))  # self-crossing
    return polys


@pytest.mark.parametrize("k", range(8))
def test_polygon_distance_matches_the_edge_array_form_bitwise(k):
    verts = random_polygons()[k]
    axis = np.linspace(-2.0, 2.0, 240)
    pts = grid_points(axis, axis + 0.013)  # 57,600 points, some on horizontal edges' lines
    pts = np.vstack([pts, verts, 0.5 * (verts + np.roll(verts, -1, axis=0))])
    np.testing.assert_array_equal(Polygon(verts).distance(pts), old_polygon_distance(verts, pts))


def base_domains():
    return {
        "disk": Disk((0.3, -0.2), 1.1),
        "rect": Rect(-1.0, 0.5, -0.25, 1.5),
        # the grid's p = -2 lies 5e-13 outside the left side, within the boundary slack
        "rect_slack": Rect(-1.9999999999995, 0.5, -0.25, 1.5),
        "polygon": Polygon(random_polygons()[3]),
        "union": UnionDomain([Disk((1.0, 1.0), 0.5), Polygon(random_polygons()[0]), Rect(-2, -1, 0, 0.5)]),
        # predicate true only inside its bbox, as the bbox contract asks
        "function": FunctionDomain(lambda p, t: (p ** 2 + 2 * t ** 2 <= 1.0), (-1.0, 1.0, -0.75, 0.75)),
        "pointset": UnionDomain([Disk(pt, 0.0) for pt in [(0.0, 0.0), (1.5, -0.5), (-2.0, 1.25)]]),
        "neighborhood": Neighborhood(Polygon(random_polygons()[1]), 0.25),
    }


@pytest.mark.parametrize("name", sorted(base_domains()))
@pytest.mark.parametrize("r", [0.0, 0.37, 1.5, 3.0])
def test_neighborhood_mask_matches_the_all_points_rule_bitwise(name, r):
    base = base_domains()[name]
    axis = np.arange(-6.0, 6.0 + 1 / 32, 1 / 16)
    pts = grid_points(axis, axis)
    want = base.distance(pts) <= float(r) + 1e-12
    np.testing.assert_array_equal(Neighborhood(base, r).contains(pts), want)


@pytest.mark.parametrize("name", sorted(base_domains()))
def test_masks_of_several_radii_match_one_radius_each(name):
    base = base_domains()[name]
    axis = np.arange(-6.0, 6.0 + 1 / 32, 1 / 16)
    pts = grid_points(axis, axis)
    radii = [1.5, 0.0, 0.37]
    masks = neighborhood_masks(base, pts[:, 0], pts[:, 1], radii)
    for mask, r in zip(masks, radii):
        np.testing.assert_array_equal(mask, base.distance(pts) <= r + 1e-12)


GRID_P = np.arange(-6.0, 6.0 + 1 / 32, 1 / 16)
GRID_T = np.arange(-5.0, 5.0 + 1 / 32, 1 / 8)


@pytest.mark.parametrize("name", sorted(base_domains()))
@pytest.mark.parametrize("r", [0.0, 0.37, 1.5, 3.0])
def test_contains_grid_is_contains_on_the_grid_points_bitwise(name, r):
    base = base_domains()[name]
    pts = grid_points(GRID_P, GRID_T)
    for dom in (base, Neighborhood(base, r)):
        want = dom.contains(pts).reshape(GRID_P.size, GRID_T.size)
        np.testing.assert_array_equal(dom.contains_grid(GRID_P, GRID_T), want)


@pytest.mark.parametrize("name", sorted(base_domains()))
def test_grid_masks_match_the_distance_rule_bitwise(name):
    base = base_domains()[name]
    d = base.distance(grid_points(GRID_P, GRID_T)).reshape(GRID_P.size, GRID_T.size)
    radii = [1.5, 0.0, 0.37, 3.0]
    masks = neighborhood_masks(base, GRID_P[:, None], GRID_T[None, :], radii)
    for mask, r in zip(masks, radii):
        np.testing.assert_array_equal(mask, d <= r + 1e-12)
    if name != "function":  # the one domain whose membership is its own predicate
        np.testing.assert_array_equal(base.contains_grid(GRID_P, GRID_T), d <= 1e-12)


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0])
def test_grid_points_at_exactly_r_from_a_rect_are_inside(r):
    # the edges and r are multiples of 1/16, so whole grid rows lie at distance r
    base = Rect(-1.0, 0.5, -0.25, 1.5)
    d = base.distance(grid_points(GRID_P, GRID_T)).reshape(GRID_P.size, GRID_T.size)
    assert np.count_nonzero(d == r) >= 4
    mask = Neighborhood(base, r).contains_grid(GRID_P, GRID_T)
    np.testing.assert_array_equal(mask, d <= r + 1e-12)
    assert np.all(mask[d == r])


def test_a_zero_radius_d_minus_is_the_closure_of_k():
    nd = nested_domains(Disk((0.25, 0.0), 0.5), 2.0, 1)  # l = 2, so D- = K(max(r - l, 0)) = K(0)
    assert nd.D_minus.r == 0.0
    d = nd.K.distance(grid_points(GRID_P, GRID_T)).reshape(GRID_P.size, GRID_T.size)
    np.testing.assert_array_equal(nd.D_minus.contains_grid(GRID_P, GRID_T), d <= 1e-12)


def test_an_empty_base_raises_rather_than_pass_on_its_bbox():
    # every point here lies within 1.8 of each corner of the bbox, below r = 3,
    # so the upper bound alone would call it inside; the base has no point at all
    empty = FunctionDomain(lambda p, t: np.zeros(np.shape(p), dtype=bool), (-1.0, 1.0, -1.0, 1.0))
    axis = np.linspace(-0.25, 0.25, 5)
    near = Neighborhood(empty, 3.0)
    with pytest.raises(ValueError, match="no occupied cells"):
        near.contains_grid(axis, axis)
    with pytest.raises(ValueError, match="no occupied cells"):
        near.contains((0.0, 0.0))
    with pytest.raises(ValueError, match="no occupied cells"):
        neighborhood_masks(empty, axis[:, None], axis[None, :], [3.0])


@pytest.mark.parametrize("bbox", [(-1.0, 1.0, -1.0, 1.0), (-1.5, 1.5, -1.0, 1.0), (-1.0, 1.0, -1.5, 1.5)])
def test_predicate_outside_its_bbox_is_rejected(bbox):
    # a disk of radius 1.5 reaches past each of these boxes; clipping it to the
    # box would make Neighborhood(D, 0.5).contains((1.8, 0)) silently False
    with pytest.raises(ValueError, match="outside its bounding box"):
        FunctionDomain(lambda p, t: p ** 2 + t ** 2 <= 1.5 ** 2, bbox)


def test_predicate_inside_its_bbox_is_accepted():
    D = FunctionDomain(lambda p, t: p ** 2 + t ** 2 <= 1.5 ** 2, (-1.5, 1.5, -1.5, 1.5))
    assert Neighborhood(D, 0.5).contains((1.8, 0.0))
    # an unbounded box has no ring to sample; nothing reads past it but membership
    assert FunctionDomain(lambda p, t: p > 0, (0, np.inf, -1, 1)).contains((2.0, 3.0))


@pytest.mark.parametrize("K", [Disk((0, 0), 1.0), Polygon([[-1, -0.5], [1, -0.5], [0.2, 1.0]])])
def test_decompose_collar_masks_match_the_neighborhood_rule(K):
    cset = CoefficientSet({(0, 0, False): 1.0, (1, 0, False): 0.5j})
    f = synthesize(cset, T, H)
    dec = decompose(f, K, r=4.0, m=0)
    nd = nested_domains(K, 4.0, 0)
    box = min(f.T, max(abs(b) for b in nd.D.bbox) + 2.0)
    ps, ts = _box_grids(box, 1.0 / 8.0)
    pts = grid_points(ps, ts)
    mid = nd.D_minus.contains(pts) & ~nd.K_plus.contains(pts)
    assert np.any(mid)
    assert dec.report["mid_region_points"] == int(np.count_nonzero(mid))


def test_hdelta_norm_is_bitwise_unchanged(hermites):
    # delta = 2 takes the moment identity, not the grid: on signals inside the
    # box it agrees with the grid sum to roundoff.
    for f in (hermites[3], hermites[1] + 0.5j * hermites[2]):
        for delta in (0.0, 1.0, 2.5):
            assert hdelta_norm(f, delta) == old_hdelta_norm(f, delta)
        assert hdelta_norm(f, 2.0) == pytest.approx(old_hdelta_norm(f, 2.0), rel=1e-14, abs=0)
    assert hdelta_norm(hermites[3], 2.5, (-3.0, 4.0, -2.5, 5.0), 1 / 8) == \
        old_hdelta_norm(hermites[3], 2.5, (-3.0, 4.0, -2.5, 5.0), 1 / 8)


@pytest.mark.parametrize("D", [Disk((0, 0), 1.5), Rect(-2, 1, -1, 2), Polygon(random_polygons()[5])])
def test_concentration_is_bitwise_unchanged(hermites, D):
    for f in (hermites[0], hermites[3], hermites[1] + 0.5j * hermites[2]):
        box = min(f.T, max(abs(b) for b in D.bbox) + 2.0)
        assert concentration(f, D) == old_concentration(f, D, box)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_biorthogonality_check_applies_annihilate_m_times_per_atom(monkeypatch, m):
    want = old_biorthogonality_gap(m)
    calls = []

    def counting(f):
        calls.append(1)
        return annihilate(f)

    monkeypatch.setattr(higher, "annihilate", counting)
    assert verify._biorthogonality_gap(m, T, H) == want
    assert len(calls) == (m + 1) * m


@pytest.mark.parametrize("N", [8, 16, 32])
def test_zak_midpoint_grids_are_bitwise_unchanged(N):
    y = (np.arange(N) + 0.5) / N
    Z = zak(hermite_signal(2, T, 1.0 / (2 * N)))  # the step that fixes the grid N
    np.testing.assert_array_equal(Z.y, y)
    np.testing.assert_array_equal(Z.xi, y)
    lam = (0.3, -1.2)
    Y, XI = y[:, None], y[None, :]
    want = np.exp(2j * np.pi * lam[1] * Y - np.pi * (Y - lam[0]) ** 2) * theta(XI + lam[1] + 1j * (Y - lam[0]))
    np.testing.assert_array_equal(zak_atom_field(lam, N).values, want)


@pytest.mark.parametrize("box", [4.0, (-4.0, 4.0, -3.5, 4.5)])
def test_tail_mass_is_bitwise_unchanged(box):
    rng = np.random.default_rng(3)
    c = CoefficientSet()
    for k in range(-1, 2):
        for j in range(-1, 2):
            c.set(k, j, complex(*rng.normal(size=2)))
    for r in (1.0, 2.0):
        assert tail_mass(c, r, box, T, H)[0] == old_tail_mass(c, r, box, 1 / 8)
