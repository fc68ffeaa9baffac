"""Correctness checks for the outputs of each workload, run outside the timed region.

A closed form is used wherever one exists (the Gabor field of an atom mix,
purity of a lattice atom, gamma = 1 of a sharp atom, metaplectic covariance
of atoms and Hermite functions, the decomposition identity).  Everything else
is compared with the reference recorded for the pool spec at the commit that
introduced the benchmark, at a stated tolerance far above roundoff: a residual
may be no worse than its reference, a coefficient digest and scalar outputs
must match it.

Each check comes with a perturbation of the output it reads; the oracle
self-test (``tests/test_oracles.py``) shows that every check rejects it.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from items import DELTA, H, X, atom_values, hermite_values

# Stated tolerances.  Roundoff on these grids is ~1e-14; the perturbations
# the self-test applies are 1e-6 in size.
TOL_EXACT = 1e-9        # closed-form coefficients, digests, scalar outputs (relative)
TOL_SIGNAL = 1e-10      # a synthesized or transformed signal against its oracle (relative)
TOL_ROTATION = 1e-8     # chirp quadrature against the covariance closed form (relative)
TOL_PURITY_LEAK = 1e-3  # off-target coefficients of a lattice atom (measured <= 3.7e-4)
TOL_RESIDUAL = 1e-6     # a residual may exceed its reference by this share


def _digest_weights(keys):
    k = np.array([key[0] for key in keys], dtype=float)
    j = np.array([key[1] for key in keys], dtype=float)
    s = np.array([float(key[2]) for key in keys])
    return np.exp(1j * (1.37 * k + 2.71 * j + 0.53 * s + 0.11 * k * j))


def coefficient_digest(coeffs) -> tuple[complex, float]:
    """Unimodular-weighted sum of every coefficient, and the l1 norm it is scaled by.

    Moving any single coefficient by d moves the digest by exactly |d|.
    """
    keys = sorted(coeffs.entries)
    vals = np.array([coeffs.entries[key] for key in keys], dtype=complex)
    block = np.array(coeffs.sharp_block, dtype=complex)
    digest = complex(np.sum(_digest_weights(keys) * vals)) if keys else 0j
    digest += complex(np.sum(np.exp(1j * (0.9 + 1.7 * np.arange(block.size))) * block))
    return digest, float(np.sum(np.abs(vals)) + np.sum(np.abs(block)))


def _norm(values) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * H))


def synthesis_oracle(coeffs) -> np.ndarray:
    """Direct sum of atoms (and order-m dual atoms) from a coefficient set."""
    out = np.zeros(X.size, dtype=complex)
    for (k, j, sharp), c in coeffs.entries.items():
        off = 0.5 if sharp else 0.0
        out += c * atom_values(k + off, j + off)
    if coeffs.sharp_block:
        labels = np.array([complex(n.p, n.theta) for n in coeffs.nodes])
        W = labels[:, None] ** np.arange(labels.size)[None, :]
        signs = np.array([(-1.0) ** round(n.theta - 0.5) for n in coeffs.nodes])
        mix = np.linalg.inv(W) * signs[None, :]
        base = np.array([atom_values(n.p, n.theta) for n in coeffs.nodes])
        out += np.array(coeffs.sharp_block) @ (mix @ base)
    return out


def _fail(msg):
    return False, msg


def _ok():
    return True, ""


# --------------------------------------------------------------------- expand

def check_roundtrip(item, out):
    a, b = out["coeffs"], out["back"]
    if a.entries != b.entries or a.sharp_block != b.sharp_block or a.nodes != b.nodes:
        return _fail("from_json(to_json(c)) differs from c")
    return _ok()


def check_coefficients(item, out):
    coeffs = out["coeffs"]
    spec = item.spec
    role = spec.get("role")
    c = item.phase
    if role == "lattice":
        k, j = spec["lattice"]
        main = abs(coeffs.entries.get((k, j, False), 0j) - c)
        leak = max((abs(v) for key, v in coeffs.entries.items() if key != (k, j, False) and not key[2]),
                   default=0.0)
        sharp = max([abs(v) for key, v in coeffs.entries.items() if key[2]] +
                    [abs(b) for b in coeffs.sharp_block], default=0.0)
        if main > TOL_EXACT or sharp > TOL_EXACT or leak > TOL_PURITY_LEAK:
            return _fail(f"lattice atom not pure: |c-1|={main:.3g} sharp={sharp:.3g} leak={leak:.3g}")
    elif role == "sharp":
        node = tuple(spec["node"])
        gamma = abs(coeffs.entries.get((node[0], node[1], True), 0j) - c)
        rest = max((abs(v) for key, v in coeffs.entries.items() if not key[2]), default=0.0)
        if gamma > TOL_EXACT or rest > TOL_EXACT:
            return _fail(f"sharp atom: |gamma-1|={gamma:.3g} lattice max={rest:.3g}")
    digest, l1 = coefficient_digest(coeffs)
    ref = c * complex(*item.ref["digest"])
    if abs(digest - ref) > TOL_EXACT * (1.0 + l1):
        return _fail(f"coefficient digest off by {abs(digest - ref):.3g}")
    return _ok()


def check_synthesis(item, out):
    err = _norm(out["rec"].values - synthesis_oracle(out["back"]))
    if err > TOL_SIGNAL * item.signal.norm():
        return _fail(f"synthesize differs from the direct atom sum by {err:.3g}")
    return _ok()


def check_residual(item, out):
    f = item.signal
    direct = _norm(f.values - out["rec"].values) / f.norm()
    res = out["residual"]
    if abs(res - direct) > TOL_EXACT * max(direct, 1e-12):
        return _fail(f"reported residual {res!r} != ||f - rec||/||f|| = {direct!r}")
    limit = item.ref["residual"] * (1 + TOL_RESIDUAL) + 1e-12
    if res > limit:
        return _fail(f"residual {res!r} worse than reference {item.ref['residual']!r}")
    return _ok()


def _move_largest(coeffs, d=1e-6):
    moved = copy.deepcopy(coeffs)
    key = max(moved.entries, key=lambda k: abs(moved.entries[k]))
    moved.entries[key] += d
    return moved


def _perturb_back(item, out):
    return {**out, "back": _move_largest(out["back"])}


def _perturb_coeffs(item, out):
    return {**out, "coeffs": _move_largest(out["coeffs"])}


def _perturb_rec(item, out):
    rec = out["rec"]
    vals = rec.values.copy()
    vals[vals.size // 2] += 1e-6
    return {**out, "rec": type(rec)(rec.T, rec.h, vals)}


def _perturb_residual(item, out):
    f, rec = item.signal, out["rec"]
    worse = type(rec)(rec.T, rec.h, f.values - (1 + 1e-4) * (f.values - rec.values))
    return {**out, "rec": worse, "residual": out["residual"] * (1 + 1e-4)}


# -------------------------------------------------------------------- analyze

def _is_atoms(item):
    return item.spec["signal"]["kind"] == "atoms"


def _atoms(item):
    return [(p, th, item.phase * complex(re, im)) for p, th, re, im in item.spec["signal"]["atoms"]]


def field_oracle(item, field) -> np.ndarray:
    """Closed form <f|e_lambda> = sum_i a_i <e_mu_i|e_lambda> on the field's grid."""
    P, Th = np.meshgrid(field.p_grid, field.theta_grid, indexing="ij")
    out = np.zeros(P.shape, dtype=complex)
    for p, th, a in _atoms(item):
        out += a * np.exp(1j * np.pi * (p + P) * (th - Th) - np.pi * ((p - P) ** 2 + (th - Th) ** 2) / 2)
    return out


def _direct_columns(item, field, cols):
    """<f|e_(p,theta)> by direct summation over the signal grid, for chosen theta columns."""
    f = item.signal.values
    env = np.exp(-np.pi * (X[None, :] - field.p_grid[:, None]) ** 2)
    return np.array([2 ** 0.25 * H * (env * np.exp(-2j * np.pi * field.theta_grid[c] * X)) @ f
                     for c in cols]).T


def _check_columns(field):
    n = field.theta_grid.size
    return sorted({n // 5, n // 2 + 1, (4 * n) // 5})


def check_field(item, out):
    field = out["field"]
    V = field.values
    if _is_atoms(item):
        ref = field_oracle(item, field)
        got = V
    else:
        cols = _check_columns(field)
        ref = _direct_columns(item, field, cols)
        got = V[:, cols]
    err = float(np.max(np.abs(got - ref)))
    if err > TOL_SIGNAL * max(1.0, float(np.max(np.abs(ref)))):
        return _fail(f"Gabor field off its oracle by {err:.3g}")
    return _ok()


def _field_scalars(item, field):
    """(hdelta, parseval) from the closed-form field, or the recorded references."""
    if not _is_atoms(item):
        return item.ref["hdelta"], item.ref["parseval"]
    V = field_oracle(item, field)
    P, Th = np.meshgrid(field.p_grid, field.theta_grid, indexing="ij")
    w = np.hypot(P, Th) ** DELTA + 1.0
    dl2 = field.dlam ** 2
    hdelta = math.sqrt(float(np.sum(w * np.abs(V) ** 2)) * dl2)
    parseval = float(np.sum(np.abs(V) ** 2)) * dl2 / item.signal.norm() ** 2
    return hdelta, parseval


def check_hdelta(item, out):
    ref, _ = _field_scalars(item, out["field"])
    if abs(out["hdelta"] - ref) > TOL_EXACT * ref:
        return _fail(f"hdelta {out['hdelta']!r} != {ref!r}")
    return _ok()


def check_parseval(item, out):
    _, ref = _field_scalars(item, out["field"])
    if abs(out["parseval"] - ref) > TOL_EXACT * ref:
        return _fail(f"Parseval ratio {out['parseval']!r} != {ref!r}")
    return _ok()


def rotation_oracle(item) -> np.ndarray:
    """M_S f up to a global sign: atoms map to e_{S mu} with the covariance phase,
    Hermite function n picks up exp(i (n + 1/2) phi)."""
    phi = item.spec["angle"]
    sig = item.spec["signal"]
    if sig["kind"] == "atoms":
        out = np.zeros(X.size, dtype=complex)
        cs, sn = math.cos(phi), math.sin(phi)
        for p, th, a in _atoms(item):
            q, eta = cs * p - sn * th, sn * p + cs * th
            pred = np.exp(1j * phi / 2 + 1j * np.pi * (p * th - q * eta))
            out += a * pred * atom_values(q, eta)
        return out
    coeffs = [(sig["n"], (1.0, 0.0))] if sig["kind"] == "hermite" else list(enumerate(sig["coeffs"]))
    return sum(item.phase * complex(re, im) * np.exp(1j * (n + 0.5) * phi) * hermite_values(n)
               for n, (re, im) in coeffs)


def check_rotation_norm(item, out):
    ratio = out["rotated"].norm() / item.signal.norm()
    if abs(ratio - 1.0) > TOL_EXACT:
        return _fail(f"rotation changed the norm by a factor {ratio!r}")
    return _ok()


def check_covariance(item, out):
    got = out["rotated"].values
    ref = rotation_oracle(item)
    err = min(_norm(got - ref), _norm(got + ref))
    if err > TOL_ROTATION * item.signal.norm():
        return _fail(f"rotated signal off the covariance closed form by {err:.3g}")
    return _ok()


def _perturb_field(item, out):
    field = out["field"]
    V = np.array(field.values)
    row = int(np.argmax(np.max(np.abs(V.imag), axis=1)))
    V[row] = np.conj(V[row])
    return {**out, "field": type(field)(field.p_grid, field.theta_grid, V, field.dlam)}


def _scale(key, factor):
    def perturb(item, out):
        return {**out, key: out[key] * factor}
    return perturb


def _perturb_rotated(item, out):
    rot = out["rotated"]
    vals = rot.values.copy()
    vals[vals.size // 2] += 1e-6
    return {**out, "rotated": type(rot)(rot.T, rot.h, vals)}


# ------------------------------------------------------------------ decompose

def check_identity(item, out):
    dec = out["dec"]
    total = synthesis_oracle(dec.alpha) + synthesis_oracle(dec.omega) + dec.residual.values
    err = _norm(item.signal.values - total)
    if err > TOL_SIGNAL * item.signal.norm():
        return _fail(f"f - (sum alpha + sum omega + residual) = {err:.3g}")
    return _ok()


def check_decompose_residual(item, out):
    dec = out["dec"]
    measured = dec.residual.norm()
    reported = dec.report["residual_norm"]
    if abs(measured - reported) > TOL_EXACT * max(measured, 1e-12):
        return _fail(f"report residual_norm {reported!r} != ||residual|| {measured!r}")
    limit = item.ref["residual_norm"] * (1 + TOL_RESIDUAL) + 1e-12
    if measured > limit:
        return _fail(f"residual_norm {measured!r} worse than reference {item.ref['residual_norm']!r}")
    return _ok()


def check_counts(item, out):
    rep = out["dec"].report
    for key in ("atom_count", "mid_region_points"):
        if rep[key] != item.ref[key]:
            return _fail(f"{key} {rep[key]} != reference {item.ref[key]}")
    return _ok()


def _perturb_alpha(item, out):
    dec = copy.copy(out["dec"])
    dec.alpha = _move_largest(dec.alpha)
    return {**out, "dec": dec}


def _perturb_dec_residual(item, out):
    dec = copy.copy(out["dec"])
    dec.residual = dec.residual * (1 + 1e-4)
    return {**out, "dec": dec}


def _perturb_counts(item, out):
    dec = copy.copy(out["dec"])
    dec.report = {**dec.report, "atom_count": dec.report["atom_count"] + 1}
    return {**out, "dec": dec}


# name -> (check, perturbation it must reject)
CHECKS = {
    "expand": {
        "json_roundtrip": (check_roundtrip, _perturb_back),
        "coefficients": (check_coefficients, _perturb_coeffs),
        "synthesis": (check_synthesis, _perturb_rec),
        "residual": (check_residual, _perturb_residual),
    },
    "analyze": {
        "field": (check_field, _perturb_field),
        "hdelta": (check_hdelta, _scale("hdelta", 1 + 1e-6)),
        "parseval": (check_parseval, _scale("parseval", 1 + 1e-6)),
        "rotation_norm": (check_rotation_norm, _scale("rotated", 1 + 1e-6)),
        "covariance": (check_covariance, _perturb_rotated),
    },
    "decompose": {
        "identity": (check_identity, _perturb_alpha),
        "residual_norm": (check_decompose_residual, _perturb_dec_residual),
        "counts": (check_counts, _perturb_counts),
    },
}


def check(workload: str, item, out) -> list[str]:
    """Names and messages of the checks this output fails (empty when correct)."""
    failures = []
    for name, (fn, _) in CHECKS[workload].items():
        ok, msg = fn(item, out)
        if not ok:
            failures.append(f"{name}: {msg}")
    return failures


def reference_values(workload: str, out) -> dict:
    """The values recorded in pool.json for a spec (used by record.py)."""
    if workload == "expand":
        digest, _ = coefficient_digest(out["coeffs"])
        return {"residual": out["residual"], "digest": [digest.real, digest.imag]}
    if workload == "analyze":
        return {"hdelta": out["hdelta"], "parseval": out["parseval"]}
    rep = out["dec"].report
    return {"residual_norm": rep["residual_norm"], "atom_count": rep["atom_count"],
            "mid_region_points": rep["mid_region_points"]}
