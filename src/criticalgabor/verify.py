"""Named invariant suite behind the `verify` command.

Each check measures one contract of the library against its stated tolerance
and returns a record {name, measured, tol, passed}.  All randomness is drawn
from a single seeded generator, so a fixed seed yields a byte-identical
report.
"""

from __future__ import annotations

import numpy as np

from . import certainty, expansion, gabor, higher, metaplectic, numerics, phaseplane
from .zak import a_operator_zak, zak as zak_transform, zak_atom_field, zak_inverse, zak_translate_check

UNIQUENESS_FLOOR = 0.15       # frozen; the check measures the Gram floor itself: 0.15104, 5x5 block + sharp
GD_CONSTANT = 3.0             # frozen: fitted coefficient-l2 vs smoothness norm (max 2.44)
CERTAINTY_R = 3.0             # collar width of the small certainty configuration


def _record(name, measured, tol, larger_is_ok=False):
    passed = measured >= tol if larger_is_ok else measured <= tol
    return {"name": name, "measured": float(measured), "tol": float(tol),
            "mode": "min" if larger_is_ok else "max", "passed": bool(passed)}


def _zeros_in(x0, x1, y0, y1, Q) -> float:
    """The number of zeros of theta(., Q) in the rectangle [x0, x1] x [y0, y1]: the winding number of
    theta around its boundary, counterclockwise, summed from the phase steps between 200 samples a
    side (a zero the samples never come near still counts)."""
    s = np.arange(200) / 200
    z = np.concatenate([x0 + (x1 - x0) * s + 1j * y0, x1 + 1j * (y0 + (y1 - y0) * s),
                        x1 - (x1 - x0) * s + 1j * y1, x0 + 1j * (y1 - (y1 - y0) * s)])
    v = numerics.theta(z, Q)
    return float(np.sum(np.angle(np.roll(v, -1) / v)) / (2.0 * np.pi))


def _biorthogonality_gap(m: int, T: float, h: float) -> float:
    """max |gamma_sharp(a^k d_j) - delta_j^k| over the order-m dual atoms d_j, k <= m;
    a is applied m times per atom, once before each sharp value after the first."""
    worst = 0.0
    for jj, d in enumerate(higher.dual_atoms(higher.default_sharp_nodes(m), T, h).atoms):
        for k in range(m + 1):
            if k:
                d = higher.annihilate(d)
            worst = max(worst, abs(expansion.sharp_functional(d) - (1.0 if k == jj else 0.0)))
    return worst


def run_checks(config, rng: np.random.Generator) -> list[dict]:
    if config.m > CERTAINTY_R - 1:  # refused before any check runs
        raise ValueError(f"config: order m={config.m} exceeds r-1 of the certainty check at r={CERTAINTY_R:g}")
    T, h, Q = config.T, config.h, config.Q
    box, dlam = config.box, config.dlam
    checks = []

    # theta block: the periodicity checks use the series without reduction (exposes Q failures)
    series = numerics._theta_series
    grid = np.array([[x + 1j * y for x in np.linspace(0.02, 0.98, 20)]
                     for y in np.linspace(0.02, 0.98, 20)])
    lhs = series(grid + 1j, Q)
    rhs = np.exp(np.pi - 2j * np.pi * grid) * series(grid, Q)
    checks.append(_record("theta_vertical_periodicity", np.max(np.abs(lhs - rhs)), 1e-8))
    checks.append(_record("theta_horizontal_periodicity",
                          np.max(np.abs(series(grid + 1, Q) - series(grid, Q))), 1e-8))
    checks.append(_record("theta_zero_at_midpoint", abs(numerics.theta(0.5 + 0.5j, Q)), 1e-10))
    # with the zero at the midpoint: the only one in the unit cell
    checks.append(_record("theta_zeros_per_cell", abs(_zeros_in(0.0, 1.0, 0.0, 1.0, Q) - 1.0), 1e-12))

    xs = np.linspace(-4, 4, 41)
    checks.append(_record("loc_integral_symmetry",
                          np.max(np.abs(numerics.loc_integral(xs) + numerics.loc_integral(-xs) - 1.0)), 1e-10))

    # gabor block
    e0 = gabor.atom((0, 0), T, h)
    checks.append(_record("atom_unit_norm", abs(e0.norm() - 1.0), 1e-10))
    worst = 0.0
    for _ in range(20):
        lam = tuple(rng.uniform(-3, 3, 2))
        mu = tuple(rng.uniform(-3, 3, 2))
        quad = numerics.inner(gabor.atom(lam, T, h), gabor.atom(mu, T, h))
        worst = max(worst, abs(quad - gabor.atom_inner(lam, mu)))
    checks.append(_record("atom_inner_vs_quadrature", worst, 1e-8))

    worst = 0.0
    for n in range(4):
        f = numerics.hermite_signal(n, T, h)
        ratio = gabor.gabor_transform(f, box, dlam).mass() / f.norm() ** 2
        worst = max(worst, abs(ratio - 1.0))
    checks.append(_record("gabor_parseval", worst, 1e-3))

    f1 = numerics.hermite_signal(1, T, h)
    rec = gabor.field_synthesis(gabor.gabor_transform(f1, box, dlam), T, h)
    checks.append(_record("weak_reconstruction", (rec - f1).norm() / f1.norm(), 1e-2))

    coeffs = gabor.CoefficientSet()
    for k in range(-2, 3):
        for j in range(-2, 3):
            coeffs.set(k, j, complex(*rng.normal(size=2)))
    g = gabor.synthesize(coeffs, T, h)
    checks.append(_record("synthesis_norm_bound", g.norm() / (gabor.SIGMA0 * coeffs.l2()), 1.0 + 1e-9))

    worst = -np.inf
    for _ in range(10):
        c = gabor.CoefficientSet()
        for k in range(-2, 3):
            for j in range(-2, 3):
                c.set(k, j, complex(*rng.normal(size=2)))
        for r in (1.0, 2.0):
            measured, bound = gabor.tail_mass(c, r, box, T, h)
            worst = max(worst, measured - bound)
    checks.append(_record("tail_bound_margin", worst, 0.0))

    # zak block; the smoothness identity: Z is unitary and carries a to a_operator_zak, so at
    # delta = 2, (1 + 1/pi)||Zf||^2 + ||a_Z Zf||^2 is hdelta_norm(f, 2)^2
    worst_u, worst_rt, worst_id = 0.0, 0.0, 0.0
    for n in range(4):
        f = numerics.hermite_signal(n, T, h)
        Z = zak_transform(f)
        worst_u = max(worst_u, abs(Z.norm() / f.norm() - 1.0))
        worst_rt = max(worst_rt, (zak_inverse(Z, T, h) - f).norm() / f.norm())
        hnorm = expansion.hdelta_norm(f, 2.0)
        zak_side = np.sqrt((1.0 + 1.0 / np.pi) * Z.norm() ** 2 + a_operator_zak(Z).norm() ** 2)
        worst_id = max(worst_id, abs(zak_side - hnorm) / hnorm)
    checks.append(_record("zak_unitarity", worst_u, 1e-6))
    checks.append(_record("zak_roundtrip", worst_rt, 1e-8))
    checks.append(_record("zak_smoothness_identity", worst_id, 1e-12))

    Z0 = zak_transform(e0)
    checks.append(_record("zak_gaussian_theta_formula",
                          np.max(np.abs(Z0.values - zak_atom_field((0, 0), Z0.N, Q).values)), 1e-8))
    checks.append(_record("zak_translation_rule",
                          max(zak_translate_check((1, 0), numerics.hermite_signal(0, T, h)),
                              zak_translate_check((0, 1), numerics.hermite_signal(1, T, h))), 1e-6))

    h2 = numerics.hermite_signal(2, T, h)
    Z2 = zak_transform(h2)
    lhs = zak_transform(higher.annihilate(h2))
    rhs = a_operator_zak(Z2)
    checks.append(_record("ladder_zak_consistency",
                          np.sqrt(np.sum(np.abs(lhs.values - rhs.values) ** 2)) / lhs.N, 1e-5))
    checks.append(_record("ladder_kills_gaussian_zak",
                          np.max(np.abs(a_operator_zak(Z0).values)), 1e-5))

    # expansion block
    worst = abs(expansion.sharp_functional(gabor.atom(phaseplane.sharp_point(), T, h)) - 1.0)
    for (k, j) in [(0, 0), (1, 0), (0, 1), (-1, 1), (2, 0), (0, -2), (-1, -1), (1, 1)]:
        worst = max(worst, abs(expansion.sharp_functional(gabor.atom((k, j), T, h))))
    checks.append(_record("sharp_functional_values", worst, 1e-6))
    checks.append(_record("sharp_series_vs_zak_interpolation",
                          abs(expansion.sharp_functional(h2) - expansion.sharp_functional_zak(h2)), 1e-5))

    worst = 0.0
    for lam in [(0, 0), (1, 0), (0, 1)]:
        exp = expansion.relaxed_coefficients(gabor.atom(lam, T, h), R=3)
        unit = exp.coeffs.get(*lam)
        others = max(abs(v) for key, v in exp.coeffs.entries.items()
                     if key != (lam[0], lam[1], False))
        worst = max(worst, abs(unit - 1.0), others, abs(exp.sharp))
    exp = expansion.relaxed_coefficients(gabor.atom(phaseplane.sharp_point(), T, h), R=3)
    worst = max(worst, abs(exp.sharp - 1.0), max(abs(v) for v in exp.coeffs.entries.values()))
    checks.append(_record("expansion_purity", worst, 1e-3))

    gam = expansion.sharp_functional(h2)
    fs = h2 - gam * gabor.atom(phaseplane.sharp_point(), T, h)
    checks.append(_record("division_field_seam_periodicity", expansion.seam_mismatch(fs, Q), 1e-4))

    exp = expansion.relaxed_coefficients(h2, R=8)
    tot = sum(abs(v) ** 2 for v in exp.coeffs.entries.values()) + abs(exp.sharp) ** 2
    checks.append(_record("coefficient_l2_vs_smoothness",
                          tot / expansion.hdelta_norm(h2, 2.0) ** 2, GD_CONSTANT))

    # min ||sum c e|| / ||c|| over the 5x5 lattice block and the sharp atom: sqrt(lambda_min) of their Gram
    pts = [(k, j) for k in range(-2, 3) for j in range(-2, 3)] + [phaseplane.sharp_point()]
    A = np.array([gabor.atom(lam, T, h).values for lam in pts])
    gram = h * (A.conj() @ A.T)
    checks.append(_record("uniqueness_floor", np.sqrt(np.linalg.eigvalsh(gram)[0]), UNIQUENESS_FLOOR,
                          larger_is_ok=True))

    # higher block
    nodes = rng.uniform(-5, 5, size=(7, 2)) @ np.array([1, 1j])
    V = gabor.vandermonde_inverse(nodes)
    W = np.vander(nodes, increasing=True)
    checks.append(_record("vandermonde_inverse", np.max(np.abs(V @ W - np.eye(7))), 1e-10))

    checks.append(_record("dual_atom_biorthogonality",
                          max(_biorthogonality_gap(m, T, h) for m in range(4)), 1e-6))

    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(-2, 2, 2)
        lam = lam / max(np.hypot(*lam) / 2.0, 1.0)
        e = gabor.atom(tuple(lam), T, h)
        worst = max(worst, (higher.annihilate(e) - complex(lam[0], lam[1]) * e).norm())
    checks.append(_record("ladder_eigenrelation", worst, 1e-6))

    # metaplectic block
    worst = 0.0
    for k in range(12):
        S = metaplectic.Rotation(2.0 * np.pi * k / 12.0)
        worst = max(worst, abs(metaplectic.metaplectic_apply(S, h2).norm() - 1.0))
    checks.append(_record("metaplectic_unitarity", worst, 1e-4))

    worst_dev, worst_phase = 0.0, 0.0
    for phi in (np.pi / 4.0, np.pi / 2.0):
        for lam in ((1, 0), (1, 1)):
            res = metaplectic.covariance_check(metaplectic.Rotation(phi), lam, T, h)
            worst_dev = max(worst_dev, res.deviation)
            worst_phase = max(worst_phase, res.phase_error)
    checks.append(_record("metaplectic_covariance", worst_dev, 1e-3))
    checks.append(_record("metaplectic_covariance_phase", worst_phase, 1e-2))
    checks.append(_record("metaplectic_commutation",
                          max(metaplectic.commutation_check(metaplectic.Rotation(np.pi / 2), f1),
                              metaplectic.commutation_check(metaplectic.Rotation(np.pi / 2), f1, adjoint=True)), 1e-3))

    # certainty block (small configuration)
    cset = gabor.CoefficientSet()
    cset.set(0, 0, 1.0)
    cset.set(1, 0, 0.5j)
    fmix = gabor.synthesize(cset, T, h)
    K = phaseplane.Disk((0, 0), 1.5)
    dec = certainty.decompose(fmix, K, CERTAINTY_R, config.m, config.delta, config.decomp_dlam)
    exact = (fmix - dec.synthesized(T, h) - dec.residual).norm()
    checks.append(_record("certainty_exactness", exact, 1e-10))
    checks.append(_record("certainty_residual_vs_bound",
                          dec.report["residual_norm"] - dec.report["bound_value"], 0.0))
    return checks
