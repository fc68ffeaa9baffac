"""Certainty decomposition: a signal concentrated in a phase-plane domain D
is, up to a small residual, a combination of lattice atoms in D plus sharp
atoms in the collar D minus K.

The construction follows the constructive proof: expand f with a sharp node
relocated into U \\ K, keep the part supported in U, and re-expand the Gabor
density of the remainder over the collar through local order-m expansions
around the nearest lattice points, by linearity one patch signal per
collar cell, all patches expanded by one stacked call.  The residual is
always the exact difference f - (synthesized terms); the theory only claims
it is small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expansion import _LOG_FLOAT_MAX, hdelta_norm, relaxed_coefficients
from .gabor import (MAX_ORDER, CoefficientSet, _STACK, _block_weights, _box_grids,
                    _superpose_grid, gabor_transform, synthesize)
from .higher import default_sharp_nodes, order_m_coefficients
from .numerics import SampledSignal
from .phaseplane import Neighborhood, PhaseDomain, lattice_points_in, neighborhood_masks

# Empirical constant for the residual guarantee of the decomposition bound,
# fitted once over the in-repo test family (atom mixes in disks) and frozen.
FITTED_CDELTA = 0.05

DEFAULT_DECOMP_DLAM = 1.0 / 8.0
# atom margin from +-T for every synthesis in the decomposition
DECOMP_MARGIN = 2.0
# lattice cutoff |k|, |j| <= R_LOCAL of each collar cell's local order-m expansion
R_LOCAL = 6


def default_order(r: float) -> int:
    """The proof's order choice m = r/e - 1, floored into the supported range."""
    return int(np.clip(np.floor(r / np.e - 1.0), 0, MAX_ORDER))


@dataclass(frozen=True)
class NestedDomains:
    """Collar geometry K in K+ in U in D- in D used by the decomposition.

    l = sqrt((m+1)/2) + 1 is the reach of a local order-m node square; the
    chain is genuinely nested only when l <= r/2, which the proof's own order
    choice guarantees for large r.
    """

    K: PhaseDomain
    r: float
    m: int
    l: float
    K_plus: PhaseDomain
    U: PhaseDomain
    D_minus: PhaseDomain
    D: PhaseDomain


def nested_domains(K: PhaseDomain, r: float, m: int) -> NestedDomains:
    if r <= 0:
        raise ValueError("collar width r must be positive")
    if not 0 <= m <= MAX_ORDER:
        raise ValueError(f"order m={m} must be in 0..{MAX_ORDER}")
    l = float(np.sqrt((m + 1) / 2.0) + 1.0)
    return NestedDomains(
        K=K, r=float(r), m=int(m), l=l,
        K_plus=Neighborhood(K, l),
        U=Neighborhood(K, r / 2.0),
        D_minus=Neighborhood(K, max(r - l, 0.0)),
        D=Neighborhood(K, r),
    )


def nesting_satisfied(nd: NestedDomains) -> bool:
    """K in K+ in U in D- in D: neighborhoods of one bounded K nest exactly
    when their radii 0 <= l <= r/2 <= max(r - l, 0) <= r do, that is l <= r/2."""
    return nd.l <= nd.r / 2.0


def concentration(f: SampledSignal, D: PhaseDomain, dlam: float = 1.0 / 16.0) -> float:
    """Gabor mass of f outside D: grid integral over the box [-b, b]^2,
    b = min(T, max |bbox(D)| + 2), plus the out-of-box remainder
    ||f||^2 - (box mass), counted only above the roundoff floor
    64 eps ||f||^2 of that difference."""
    if not D.is_bounded():
        raise ValueError("concentration needs a bounded domain")
    box = min(f.T, max(abs(b) for b in D.bbox) + 2.0)
    field = gabor_transform(f, box, dlam)
    outside = ~D.contains_grid(field.p_grid, field.theta_grid).ravel()
    power = np.abs(field.values.ravel()) ** 2
    inside_box = float(np.sum(power) * dlam ** 2)
    out_mass = float(np.sum(power[outside]) * dlam ** 2)
    rest = f.norm() ** 2 - inside_box
    return out_mass + (rest if rest > 64 * np.finfo(float).eps * f.norm() ** 2 else 0.0)


def _atom_sites(K: PhaseDomain, r: float) -> tuple[np.ndarray, np.ndarray, tuple[int, int] | None, np.ndarray]:
    """The atom sites of the decomposition over D = K(r) and its relocation node.

    Returns the indices (k, j) of the lattice points in D and of the sharp
    points (k + 1/2, j + 1/2) in D off K, as sorted (n, 2) arrays; the sharp
    node in U \\ K, U = K(r/2): centered in the annulus when possible, largest
    clearance, ties broken by the smallest index (k0, j0), None when U \\ K
    holds no sharp point; and the mask of the lattice points in U.  D's
    lattice and sharp points are enumerated once, and one neighborhood_masks
    call over both lists gives each point's membership in K and in U by
    their own rule.
    """
    D = Neighborhood(K, r)
    lattice, sharp = lattice_points_in(D), lattice_points_in(D, sharp=True)
    pts = np.vstack([lattice, sharp + 0.5])
    in_K, in_U = neighborhood_masks(K, pts[:, 0], pts[:, 1], [0.0, r / 2.0])
    n = len(lattice)
    lattice_in_U, off_K = in_U[:n], ~in_K[n:]
    in_U = in_U[n:] & off_K
    node = None
    if np.any(in_U):
        # the clearance to K and to U's edge, which U's rule puts at r/2 + 1e-12
        d = K.distance(sharp[in_U] + 0.5)
        clearance = np.minimum(d, r / 2.0 - d + 1e-12)
        k0, j0 = sharp[in_U].T
        best = np.lexsort((j0, k0, -clearance))[0]
        node = int(k0[best]), int(j0[best])
    return lattice, sharp[off_K], node, lattice_in_U


@dataclass
class CertaintyDecomposition:
    """Lattice coefficients in D, sharp coefficients in D \\ K, exact residual."""

    alpha: CoefficientSet
    omega: CoefficientSet
    residual: SampledSignal
    report: dict = field(default_factory=dict)

    def synthesized(self, T: float, h: float) -> SampledSignal:
        return synthesize(self.alpha, T, h, DECOMP_MARGIN) + synthesize(self.omega, T, h, DECOMP_MARGIN)


def decompose(f: SampledSignal, K: PhaseDomain, r: float, m: int | None = None,
              delta: float = 2.0, dlam: float = DEFAULT_DECOMP_DLAM) -> CertaintyDecomposition:
    """Split f into lattice atoms in D = K(r), sharp atoms in D \\ K, and a residual.

    The Gabor density of g = f - f_U on D- \\ K+ is re-expanded per cell: the
    points with nearest lattice point l form one patch signal, given one
    order-m expansion (cutoff R_LOCAL) about the origin and shifted to l, which by
    linearity equals the sum of the points' own local expansions
    (_collar_terms).

    The field of g is read only on K+ (for g+) and on D- (for the mid
    points), so it is transformed only on the window of the box grid that
    holds bbox(K) grown by max(l, r - l): both sets are neighborhoods of K
    within that reach.  The window covers K+ as well as D-, since K+ lies in
    D- only when the chain nests (l <= r/2).  Masks, mid points and collar
    cells are read from slices of the box grid, so they are the box's own.

    The residual signal is the exact difference, g less the synthesis of the
    collar's terms, so the identity f = sum(alpha) + sum(omega) + residual
    holds to roundoff by construction;
    the report carries its norm together with the concentration-plus-
    exponential guarantee it is measured against.
    """
    if not K.is_bounded():
        raise ValueError("K must be bounded")
    if m is None:
        m = default_order(r)
    nd = nested_domains(K, r, m)
    if m > r - 1:
        raise ValueError(f"order m={m} exceeds r-1={r - 1}")
    need = max(abs(b) for b in nd.D.bbox)
    if need + 2.0 > f.T:
        raise ValueError(f"grid T={f.T} too small for D reaching {need}; need T >= {need + 2}")
    box = need + 2.0  # concentration's own box, as need + 2 <= T
    # the bound's factors r ** delta and hdelta_norm overflow at a large delta: refused before any expansion
    hnorm = hdelta_norm(f, delta)
    if delta * np.log(r) > _LOG_FLOAT_MAX:
        raise ValueError(f"r ** delta = {r!r} ** {delta!r} passes the float range")

    lattice, sharp, node, in_U = _atom_sites(nd.K, nd.r)
    if node is None:
        raise ValueError("no sharp point available in U \\ K for relocation")
    R_big = int(np.ceil(need)) + 2
    rexp = relaxed_coefficients(f, R_big, sharp_node=node)

    # f_U: relaxed expansion restricted to U (sharp node is in U by construction).  U lies
    # in D, so its lattice points are those of D in U
    entries, kj = rexp.coeffs.entries, lattice.tolist()
    fU_coeffs = CoefficientSet()
    fU_coeffs.entries = {(k, j, False): entries[k, j, False] for (k, j), ok in zip(kj, in_U) if ok}
    fU_coeffs.set(node[0], node[1], rexp.sharp, sharp=True)
    f_U = synthesize(fU_coeffs, f.T, f.h, DECOMP_MARGIN)
    g = f - f_U

    # K+ and D- lie within max(l, r - l) of bbox(K); the slack 1e-9 covers their rule's 1e-12
    ps, ts = _box_grids(box, dlam)
    reach = max(nd.K_plus.r, nd.D_minus.r) + 1e-9
    pmin, pmax, tmin, tmax = nd.K.bbox
    ps = ps[np.searchsorted(ps, pmin - reach):np.searchsorted(ps, pmax + reach, side="right")]
    ts = ts[np.searchsorted(ts, tmin - reach):np.searchsorted(ts, tmax + reach, side="right")]
    gfield = gabor_transform(g, (ps[0], ps[-1], ts[0], ts[-1]), dlam)
    assert gfield.values.shape == (ps.size, ts.size)
    w_g = gfield.values * dlam ** 2
    # K+ and D- are neighborhoods of K: one distance to K classifies the window for both
    in_Kplus, in_Dminus = neighborhood_masks(nd.K, ps[:, None], ts[None, :], [nd.K_plus.r, nd.D_minus.r])
    mid = in_Dminus & ~in_Kplus

    alpha, omega = CoefficientSet(), CoefficientSet()
    # written in CoefficientSet's own entry format: .tolist() gives python ints, get() complexes
    alpha.entries = {(k, j, False): fU_coeffs.get(k, j) for k, j in kj}  # zero on D \ U
    omega.entries = {(k, j, True): 0j for k, j in sharp.tolist()}
    omega.add(node[0], node[1], rexp.sharp, sharp=True)

    # alpha and omega hold every term of f_U (U lies in D), so f less their synthesis is g
    # less that of the collar's own terms: f_U is synthesized once
    residual, omega_out = g, CoefficientSet()  # omega_out: lattice leakage outside D, left in the residual
    if np.any(mid):
        grid = np.broadcast_arrays(ps[:, None], ts[None, :])  # (P, Theta) views: the mask picks from them
        collar_alpha, collar_omega, omega_out = _collar_terms(np.column_stack([x[mid] for x in grid]),
                                                              w_g[mid], f, nd)
        # collar_alpha holds only lattice keys and collar_omega only sharp ones: one synthesis of both
        both = CoefficientSet({**collar_alpha.entries, **collar_omega.entries})
        residual = g - synthesize(both, f.T, f.h, DECOMP_MARGIN)
        for total, part in ((alpha, collar_alpha), (omega, collar_omega)):
            for key, v in part.entries.items():
                total.entries[key] = total.entries.get(key, 0j) + v

    conc = concentration(f, nd.D, min(dlam, 1.0 / 16.0))
    fnorm = f.norm()
    g_plus = SampledSignal(f.T, f.h, _superpose_grid(ps, ts, np.where(in_Kplus, w_g, 0), f.T, f.h))
    n_lattice, n_sharp = len(lattice), len(sharp)
    area = domain_area(nd.D)
    report = {
        "residual_norm": residual.norm(),
        "signal_norm": fnorm,
        "concentration": conc,
        "bound_value": float(np.sqrt(conc) + FITTED_CDELTA * r ** delta * np.exp(-r / np.e) * hnorm),
        "hdelta_norm": hnorm,
        "g_norm": g.norm(),
        "g_plus_norm": g_plus.norm(),
        "omega_outside_l2": omega_out.l2(),
        "count_lattice_in_D": n_lattice,
        "count_sharp_in_collar": n_sharp,
        "atom_count": n_lattice + n_sharp,
        "area_D": area,
        "excess": n_lattice + n_sharp - area,
        "r": float(r), "m": int(m), "delta": float(delta),
        "sharp_node": list(node),
        "mid_region_points": int(np.count_nonzero(mid)),
        "nesting_satisfied": nesting_satisfied(nd),
    }
    return CertaintyDecomposition(alpha, omega, residual, report)


def _collar_terms(pts: np.ndarray, weights: np.ndarray, f: SampledSignal,
                  nd: NestedDomains) -> tuple[CoefficientSet, CoefficientSet, CoefficientSet]:
    """The local order-m expansions of the mid points pts (n, 2) of the given weights,
    summed into three sets of their own: lattice terms in D, sharp terms, and lattice
    terms outside D (the leakage).

    A mid point l + w of weight c adds c exp(2 pi i w_theta l_p) times the
    local expansion of e_w, shifted to l with the phase exp(-2 pi i j l_p) at
    index j, which is 1 on lattice indices and (-1)^{l_p} on the sharp nodes.
    The points with one nearest lattice point l form one patch signal; the
    mid points lie on one phase grid, so every cell's offsets w come from one
    shared offset grid, and the patches are the rows of one stacked
    superposition, _STACK cells at a time, all expanded by one
    order_m_coefficients call.  Each key's terms add in cell order.
    """
    cells, cell_of = _distinct_pairs(np.floor(pts + 0.5).astype(int))
    lp = cells[:, 0]
    offsets = pts - cells[cell_of]
    ps, ip = np.unique(offsets[:, 0], return_inverse=True)
    ts, it = np.unique(offsets[:, 1], return_inverse=True)
    W = np.zeros((len(cells), ps.size, ts.size), dtype=complex)
    W[cell_of, ip, it] = weights * np.exp(2j * np.pi * offsets[:, 1] * lp[cell_of])
    patches = (SampledSignal(f.T, f.h, row) for c in range(0, len(cells), _STACK)
               for row in _superpose_grid(ps, ts, W[c:c + _STACK], f.T, f.h))
    nodes = default_sharp_nodes(nd.m)  # the nodes of every local expansion
    locs = order_m_coefficients(patches, nd.m, R=R_LOCAL)
    cell_kj = cells[:, None, :]

    def summed(kj: np.ndarray, terms: np.ndarray, sharp: bool):
        """The distinct keys among kj and each one's terms, added in cell order."""
        pairs, at = _distinct_pairs(kj)
        total = np.zeros(len(pairs), dtype=complex)
        np.add.at(total, at, terms.ravel())
        return pairs, [(k, j, sharp) for k, j in pairs.tolist()], total.tolist()

    node_kj = np.array([(round(nu.p - 0.5), round(nu.theta - 0.5)) for nu in nodes])
    node_w = (-1.0) ** lp[:, None] * _block_weights([loc.sharp_block for loc in locs], nodes)
    _, keys, total = summed(node_kj + cell_kj, node_w, True)
    omega = CoefficientSet()
    omega.entries = dict(zip(keys, total))

    # every local expansion lists the same -R..R block of keys in the same order
    lattice_kj = np.array([key[:2] for key in locs[0].coeffs.entries])
    lattice_c = np.array([list(loc.coeffs.entries.values()) for loc in locs])
    pairs, keys, total = summed(lattice_kj + cell_kj, lattice_c, False)
    alpha, leak = CoefficientSet(), CoefficientSet()
    for key, v, ok in zip(keys, total, nd.D.contains(pairs.astype(float))):
        (alpha if ok else leak).entries[key] = v
    return alpha, omega, leak


def _distinct_pairs(kj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integer pairs among kj (..., 2), sorted, and the index of each
    pair among them, in row-major order: np.unique(axis=0), through one integer
    code per pair, which sorts far faster than rows do."""
    kj = kj.reshape(-1, 2)
    lo = kj.min(axis=0)
    span = int(kj[:, 1].max() - lo[1]) + 1
    codes, at = np.unique((kj[:, 0] - lo[0]) * span + (kj[:, 1] - lo[1]), return_inverse=True)
    return np.column_stack([codes // span, codes % span]) + lo, at


def domain_area(D: PhaseDomain) -> float:
    """Grid-cell estimate of the symplectic area of a bounded domain, cells 1/16 wide."""
    if not D.is_bounded():
        raise ValueError("area needs a bounded domain")
    pmin, pmax, tmin, tmax = D.bbox
    resolution = 1.0 / 16.0
    inside = D.contains_grid(np.arange(pmin + resolution / 2, pmax, resolution),
                             np.arange(tmin + resolution / 2, tmax, resolution))
    return float(np.count_nonzero(inside) * resolution ** 2)


def degrees_of_freedom_report(K: PhaseDomain, r: float) -> dict:
    """Atom budget of the decomposition index sets against the area of D = K(r)."""
    if not K.is_bounded():
        raise ValueError("K must be bounded")
    lattice, sharp = _atom_sites(K, r)[:2]
    n_lattice, n_sharp = len(lattice), len(sharp)
    area = domain_area(Neighborhood(K, r))
    count = n_lattice + n_sharp
    return {
        "area_D": area,
        "count": count,
        "count_lattice_in_D": n_lattice,
        "count_sharp_in_collar": n_sharp,
        "excess": count - area,
        "normalized_excess": (count - area) / (r * np.sqrt(area)) if area > 0 else float("inf"),
    }
