import warnings

import numpy as np
import pytest

from criticalgabor import certainty, higher, numerics, phaseplane
from criticalgabor import (MAX_ORDER, CoefficientSet, Disk, PhasePoint, Rect, SampledSignal, atom,
                           atom_inner, concentration, decompose, default_order,
                           degrees_of_freedom_report, domain_area, gabor_transform, inner,
                           lattice_points_in, nested_domains, nesting_satisfied,
                           relaxed_coefficients, synthesize)
from criticalgabor.certainty import DECOMP_MARGIN, R_LOCAL
from criticalgabor.gabor import _check_margin, dual_mixing, superpose
from criticalgabor.higher import default_sharp_nodes, order_m_coefficients
from criticalgabor.phaseplane import PhaseDomain, domain_from_json
from support import POOL, FunctionDomain, atom_values, count_calls, pool_signal

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

    @pytest.mark.parametrize("entries", [
        {(1, -1, False): -0.7795577532427447 + 1.2687315727053823j,
         (1, 0, False): -0.057976000069692585 + 1.0744112374891797j,
         (1, 2, False): -0.35896064670446953 + 0.0775724193502392j},
        {(-2, -2, False): -1.707559964644277 + 0.6424188789626476j,
         (-2, 2, False): 0.7691371023243577 - 0.28665124533026j,
         (0, 0, False): 0.26141252516203256 - 0.2753310614637201j},
    ])
    def test_box_mass_roundoff_not_counted(self, entries):
        # lattice mixes whose Gabor mass lies inside the box 6.5, the disk's radius
        # plus 2: ||f||^2 minus the box mass is a few ulp of roundoff (+8.9e-16 for
        # both when written), which must not enter the concentration or, through
        # its square root, the decomposition bound
        f = synthesize(CoefficientSet(entries), 8.0, H64)
        D, dlam = Disk((0, 0), 4.5), 1.0 / 16.0
        field = gabor_transform(f, 6.5, dlam)
        P, Th = np.meshgrid(field.p_grid, field.theta_grid, indexing="ij")
        outside = ~D.contains(np.column_stack([P.ravel(), Th.ravel()]))
        out_mass = float(np.sum(np.abs(field.values.ravel()[outside]) ** 2) * dlam ** 2)
        assert concentration(f, D, dlam=dlam) == out_mass

    def test_unbounded_rejected(self, three_atom_mix):
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

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("K", [Disk((0, 0), 0.3), Rect(-0.5, 0.25, -0.3, 0.4)], ids=["disk", "rect"])
    def test_a_thin_gap_is_not_nested(self, K, m):
        # l - r/2 = 1e-3: the point l straight out from K's right edge is in K+ but not
        # in U (a step-1/4 grid scan used to miss it for the disk at m = 2, 3, 4, the rect at m = 2)
        l = np.sqrt((m + 1) / 2.0) + 1.0
        nd = nested_domains(K, 2.0 * (l - 1e-3), m)
        assert not nesting_satisfied(nd)
        edge = (K.bbox[1] + l, 0.5 * (K.bbox[2] + K.bbox[3]))
        assert nd.K_plus.contains(edge) and not nd.U.contains(edge)

    def test_equal_radii_nest(self):
        nd = nested_domains(Disk((0, 0), 0.3), 4.0, 1)  # l = 2 = r/2, so K+ = U
        assert nd.K_plus.r == nd.U.r
        assert nesting_satisfied(nd)

    def test_default_order(self):
        assert default_order(4.0) == 0
        assert default_order(6.0) == 1
        assert default_order(30.0) == 6  # capped


def sharp_node_loop(nd):
    """The sharp-node choice as a scalar loop over the sharp points of U."""
    candidates = []
    for k, j in lattice_points_in(nd.U, sharp=True).tolist():
        if not nd.K.contains((k + 0.5, j + 0.5)):
            dk = nd.K.distance((k + 0.5, j + 0.5))
            clearance = min(dk, nd.r / 2.0 - dk + 1e-12)
            candidates.append((-clearance, k, j))
    return min(candidates)[1:]


_NODE_CASES = [(domain_from_json(e["domain"]), e["r"], e["m"]) for e in POOL["decompose"]]
_NODE_CASES += [
    (FunctionDomain(lambda p, t: p ** 2 + t ** 2 <= 1.2 ** 2, (-1.2, 1.2, -1.2, 1.2)), 4.0, 0),
    (Disk((0.5, 0.5), 1.0), 4.0, 0),  # four nodes tie on clearance: (-2, 0) and (0, -2) among them
]


@pytest.mark.parametrize("K, r, m", _NODE_CASES,
                         ids=[e["id"] for e in POOL["decompose"]] + ["function_disk", "tied_disk"])
def test_sharp_node_matches_scalar_loop(K, r, m):
    nd = nested_domains(K, r, default_order(r) if m is None else m)
    assert certainty._atom_sites(nd.K, nd.r)[2] == sharp_node_loop(nd)


@pytest.mark.parametrize("K, r", [(Rect(-1, 0.4999999995, -1, 1), 2.0),
                                  (Disk((0, 0), 0.7071067806), 2.0)], ids=["rect", "disk"])
def test_every_sharp_point_of_d_is_in_k_or_a_collar_site(K, r):
    # the sharp point (1/2, 1/2) lies 5e-10 outside K: outside by K's own rule, d <= 1e-12,
    # so it is a collar site, as every sharp point of D is either in K or in the collar
    sharp = certainty._atom_sites(K, r)[1]
    collar = set(map(tuple, sharp.tolist()))
    assert (0, 0) in collar and not K.contains((0.5, 0.5))
    for k, j in lattice_points_in(phaseplane.Neighborhood(K, r), sharp=True).tolist():
        assert K.contains((k + 0.5, j + 0.5)) != ((k, j) in collar)


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
        f = SampledSignal(T12, H64, atom((0, 0), T12, H64).values + 0.8 * atom_values((2.6, 1.4), T12, H64))
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

    @pytest.mark.parametrize("m, r", [(-1, 2.0), (-3, 3.0), (MAX_ORDER + 1, 10.0)])
    def test_order_outside_the_supported_range_refused(self, monkeypatch, m, r):
        # unchecked, m = -1 yields a report with m: -1 and nesting_satisfied True, and
        # m = -3 warns in sqrt, then raises IndexError; both must refuse before any expansion
        def no_work(*args, **kwargs):
            raise AssertionError("an out-of-range order reached the expansion")

        monkeypatch.setattr(certainty, "relaxed_coefficients", no_work)
        f, K = atom((0.2, 0.1), 8.0, H64), Disk((0, 0), 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"order m={m} must be in 0\.\.{MAX_ORDER}"):
                decompose(f, K, r, m)
            with pytest.raises(ValueError, match=rf"0\.\.{MAX_ORDER}"):
                nested_domains(K, r, m)

    @pytest.mark.parametrize("T, K, r, delta, shown", [
        (8.0, Disk((0, 0), 0.3), 2.0, 400.0, r"delta=400\.0 on the phase box 8\.0"),
        (15.0, Disk((0, 0), 0.5), 12.0, 290.0, r"r \*\* delta = 12\.0 \*\* 290\.0"),
    ], ids=["hdelta_norm", "r_power"])
    def test_overflowing_delta_refused_before_any_expansion(self, monkeypatch, T, K, r, delta, shown):
        # the bound's factors: hdelta_norm on the box 8 overflows past delta ~ 292.6, once a nan
        # bound_value; r ** delta past delta ln r = ln(float max), once an OverflowError after the work
        def no_work(*args, **kwargs):
            raise AssertionError("an overflowing delta reached the expansion")

        monkeypatch.setattr(certainty, "relaxed_coefficients", no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=shown):
                decompose(atom((0.2, 0.1), T, H64), K, r, 0, delta)

    def test_nan_delta_refused_before_any_expansion(self, monkeypatch):
        # a NaN smoothness order would give a report with a nan bound_value
        def no_work(*args, **kwargs):
            raise AssertionError("a nan delta reached the expansion")

        monkeypatch.setattr(certainty, "relaxed_coefficients", no_work)
        with pytest.raises(ValueError, match="smoothness order"):
            decompose(atom((0.2, 0.1), 8.0, H64), Disk((0, 0), 0.3), 2.0, 0, float("nan"))

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


def least_squares_baseline(f: SampledSignal, K, r: float) -> float:
    """Best-projection residual onto the same atom set, Gram matrix ridged by
    1e-8 (not part of the constructive decomposition; a sanity floor for
    comparisons only)."""
    lattice, sharp = certainty._atom_sites(K, r)[:2]
    pts = np.vstack([lattice, sharp + 0.5])
    G = np.array([[atom_inner(a, b) for b in pts] for a in pts])
    _check_margin(pts[:, 0], f.T, DECOMP_MARGIN)
    b = np.array([inner(f, SampledSignal(f.T, f.h, atom_values(pt, f.T, f.h))) for pt in pts])
    c = np.linalg.solve(G + 1e-8 * np.eye(len(pts)), b)
    res2 = f.norm() ** 2 - 2 * np.real(np.vdot(c, b)) + np.real(np.vdot(c, G @ c))
    return float(np.sqrt(max(res2, 0.0)))


def remainder(f, nd):
    """decompose's g = f - f_U written out, f_U the relaxed expansion with the
    relocated sharp node kept on U; also its box, the node and the expansion."""
    need = max(abs(b) for b in nd.D.bbox)
    node = certainty._atom_sites(nd.K, nd.r)[2]
    rexp = relaxed_coefficients(f, int(np.ceil(need)) + 2, sharp_node=node)
    fU = CoefficientSet()
    for (k, j, s), v in rexp.coeffs.entries.items():
        if nd.U.contains(PhasePoint(k, j)):
            fU.set(k, j, v)
    fU.set(node[0], node[1], rexp.sharp, sharp=True)
    return f - synthesize(fU, f.T, f.h, 2.0), need + 2.0, node, rexp


def per_point_collar(f, K, r, m, dlam):
    """decompose's alpha, omega and collar leakage, written one mid point at a
    time: each point lambda = l + w of weight c adds c exp(2 pi i w_theta l_p)
    times a fresh local expansion of the atom e_w, shifted to l, with the
    shift's phase exp(-2 pi i j l_p) at every index j, at decompose's own
    cutoff R_LOCAL.  No expansion is shared between points; D's lattice points
    are enumerated once, and each key's D membership is looked up in them."""
    nd = nested_domains(K, r, m)
    g, box, node, rexp = remainder(f, nd)
    gfield = gabor_transform(g, box, dlam)
    P, Th = np.meshgrid(gfield.p_grid, gfield.theta_grid, indexing="ij")
    pts = np.column_stack([P.ravel(), Th.ravel()])
    w_g = gfield.values.ravel() * dlam ** 2
    mid = nd.D_minus.contains(pts) & ~nd.K_plus.contains(pts)

    alpha, omega, leak = CoefficientSet(), CoefficientSet(), CoefficientSet()
    lattice = lattice_points_in(nd.D).tolist()
    in_D = set(map(tuple, lattice))
    for k, j in lattice:
        alpha.set(k, j, rexp.coeffs.get(k, j) if nd.U.contains((k, j)) else 0j)
    for k, j in lattice_points_in(nd.D, sharp=True).tolist():
        if not K.contains((k + 0.5, j + 0.5)):
            omega.set(k, j, 0j, sharp=True)
    omega.add(node[0], node[1], rexp.sharp, sharp=True)
    nodes = default_sharp_nodes(m)
    mixing = dual_mixing(nodes)
    cells = set()
    for (mp, mt), c in zip(pts[mid], w_g[mid]):
        lp, lt = np.floor(mp + 0.5), np.floor(mt + 0.5)
        wp, wt = mp - lp, mt - lt
        cells.add((lp, lt))
        loc = order_m_coefficients(atom((wp, wt), f.T, f.h), m, R=R_LOCAL)
        lead = c * np.exp(2j * np.pi * wt * lp)
        for nu, b in zip(nodes, np.asarray(loc.sharp_block) @ mixing):
            omega.add(int(round(nu.p - 0.5 + lp)), int(round(nu.theta - 0.5 + lt)),
                      lead * b * np.exp(-2j * np.pi * nu.theta * lp), sharp=True)
        for (k, j, _), cv in loc.coeffs.entries.items():
            gk, gj = int(k + lp), int(j + lt)
            target = alpha if (gk, gj) in in_D else leak
            target.add(gk, gj, lead * cv * np.exp(-2j * np.pi * j * lp))
    return {"alpha": alpha, "omega": omega, "leak": leak.l2(), "mid": int(np.count_nonzero(mid)),
            "cells": len(cells), "weight": float(np.sum(np.abs(w_g[mid])))}


def count_expanded_signals(monkeypatch) -> list[int]:
    """Patch certainty's order_m_coefficients to record the number of signals of each call."""
    counts, expand = [], certainty.order_m_coefficients

    def counting(f, *args, **kwargs):
        signals = [f] if isinstance(f, SampledSignal) else list(f)
        counts.append(len(signals))
        out = expand(signals, *args, **kwargs)
        return out[0] if isinstance(f, SampledSignal) else out

    monkeypatch.setattr(certainty, "order_m_coefficients", counting)
    return counts


@pytest.mark.parametrize("entry", POOL["decompose"], ids=[e["id"] for e in POOL["decompose"]])
def test_window_matches_the_full_box(entry):
    # the g field is transformed only on the window of K+ and D-; counts are the
    # pool's recorded ones, and g+ is the full-box field's K+ sum, nesting or not
    f, K, dlam = pool_signal(entry["signal"]), domain_from_json(entry["domain"]), 1.0 / 8.0
    nd = nested_domains(K, entry["r"], default_order(entry["r"]) if entry["m"] is None else entry["m"])
    rep = decompose(f, K, nd.r, nd.m, 2.0, dlam).report
    assert rep["atom_count"] == entry["ref"]["atom_count"]
    assert rep["mid_region_points"] == entry["ref"]["mid_region_points"]

    g, box, _, _ = remainder(f, nd)
    gfield = gabor_transform(g, box, dlam)
    in_Kplus = nd.K_plus.contains_grid(gfield.p_grid, gfield.theta_grid)
    P, Th = np.meshgrid(gfield.p_grid, gfield.theta_grid, indexing="ij")
    g_plus = superpose(np.column_stack([P[in_Kplus], Th[in_Kplus]]), gfield.values[in_Kplus] * dlam ** 2, f.T, f.h)
    tol = 1e-12 * f.norm()
    assert rep["g_norm"] == pytest.approx(g.norm(), abs=tol)
    assert rep["g_plus_norm"] == pytest.approx(g_plus.norm(), abs=tol)


def f_u_and_relaxed(monkeypatch, f, K, r, m):
    """decompose's f_U (the set of its first synthesis) and its relaxed expansion."""
    sets, expansions = [], []

    def synthesizing(coeffs, *args):
        sets.append(coeffs)
        return synthesize(coeffs, *args)

    def expanding(*args, **kwargs):
        expansions.append(relaxed_coefficients(*args, **kwargs))
        return expansions[-1]

    monkeypatch.setattr(certainty, "synthesize", synthesizing)
    monkeypatch.setattr(certainty, "relaxed_coefficients", expanding)
    decompose(f, K, r, m, 2.0, 1.0 / 8.0)
    return sets[0], expansions[0]


_U_CASES = [(pool_signal(e["signal"]), domain_from_json(e["domain"]), e["r"], e["m"], None)
            for e in POOL["decompose"]]
# the lattice point (2, 0) lies at distance exactly r/2 = 1.5 from K, on U's boundary
_U_CASES += [(atom((0.2, 0.1), 8.0, H64), Disk((0, 0), 0.5), 3.0, None, (2, 0))]


@pytest.mark.parametrize("f, K, r, m, boundary_site", _U_CASES,
                         ids=[e["id"] for e in POOL["decompose"]] + ["boundary_site"])
def test_f_u_keys_are_u_contains_over_the_relaxed_keys(monkeypatch, f, K, r, m, boundary_site):
    # f_U's lattice terms are D's lattice points within r/2 of K: the same keys, in the
    # same order and with the same values, as U.contains over every relaxed key
    nd = nested_domains(K, r, default_order(r) if m is None else m)
    f_u, rexp = f_u_and_relaxed(monkeypatch, f, K, nd.r, nd.m)
    want = {key: v for key, v in rexp.coeffs.entries.items() if nd.U.contains(PhasePoint(*key[:2]))}
    assert list(f_u.entries.items())[:-1] == list(want.items())
    assert list(f_u.entries)[-1] == (*rexp.sharp_node, True)
    if boundary_site:
        assert K.distance(boundary_site) == nd.r / 2 and (*boundary_site, False) in want


def test_collar_decompose_keeps_the_layer_map_counters(monkeypatch):
    # bench/layers.py predicts these calls on decompose, and its one collar item makes them
    targets = [(higher, "annihilate"), (numerics, "spectral_derivative"), (higher, "order_m_coefficients"),
               (higher, "dual_atoms"), (phaseplane, "lattice_points_in")]
    calls = count_calls(monkeypatch, targets)
    contains = PhaseDomain.contains

    def counting_contains(self, x):
        calls["contains"] += 1
        return contains(self, x)

    monkeypatch.setattr(PhaseDomain, "contains", counting_contains)
    entry = next(e for e in POOL["decompose"] if e["collar"])
    rep = decompose(pool_signal(entry["signal"]), domain_from_json(entry["domain"]), entry["r"], entry["m"],
                    2.0, 1.0 / 8.0).report
    assert rep["mid_region_points"] > 0
    assert set(calls) == {name for _, name in targets} | {"contains"}


class TestCollarCells:
    @pytest.mark.parametrize("dlam, r, m", [(1.0 / 8.0, 4.0, 0), (1.0 / 16.0, 4.0, 0),
                                            (1.0 / 8.0, 5.0, 2)])
    def test_one_expansion_per_cell_matches_per_point_sum(self, monkeypatch, dlam, r, m):
        # the collar's local expansions summed point by point equal one
        # expansion per nearest lattice point, whatever the sub-cell offsets
        T, K = 8.0, Disk((0, 0), 0.25)
        f = SampledSignal(T, H64, atom((0.5, 0.25), T, H64).values
                          + 0.6j * atom((2.3, -1.7), T, H64).values)
        ref = per_point_collar(f, K, r, m, dlam)
        signals = count_expanded_signals(monkeypatch)
        dec = decompose(f, K, r, m, dlam=dlam)

        assert ref["mid"] > 0 and dec.report["mid_region_points"] == ref["mid"]
        assert sum(signals) == ref["cells"]  # one patch signal per cell, over all calls
        tol = 1e-12 * ref["weight"]
        for got, want in ((dec.alpha, ref["alpha"]), (dec.omega, ref["omega"])):
            assert set(got.entries) == set(want.entries)
            assert max(abs(got.entries[key] - v) for key, v in want.entries.items()) <= tol
        assert dec.report["omega_outside_l2"] == pytest.approx(ref["leak"], abs=tol)

    def test_no_collar_no_local_expansion(self, monkeypatch):
        signals = count_expanded_signals(monkeypatch)
        dec = decompose(atom((0.3, -0.2), 8.0, H64), Disk((0, 0), 0.3), 3.0, 1)
        assert dec.report["mid_region_points"] == 0 and signals == []

    @pytest.mark.parametrize("r, collar", [(3.0, False), (4.0, True)])
    def test_f_u_is_synthesized_once(self, monkeypatch, r, collar):
        # the residual is g less the collar's own terms, so f_U is synthesized once, the
        # collar's terms once more when there are any, and with no collar the residual is g
        sizes = []

        def counting(coeffs, *args):
            sizes.append(len(coeffs))
            return synthesize(coeffs, *args)

        monkeypatch.setattr(certainty, "synthesize", counting)
        f = SampledSignal(8.0, H64, atom((0.5, 0.25), 8.0, H64).values + 0.6j * atom((2.3, -1.7), 8.0, H64).values)
        dec = decompose(f, Disk((0, 0), 0.25), r, 0)
        assert (dec.report["mid_region_points"] > 0) == collar
        assert len(sizes) == 1 + collar
        if not collar:
            assert dec.report["residual_norm"] == dec.report["g_norm"]
        assert (f - dec.synthesized(f.T, f.h) - dec.residual).norm() <= 1e-12 * f.norm()


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
