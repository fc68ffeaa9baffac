"""The one path of the division field F = exp(pi y^2) Z f / Theta(xi + i y)
against the hand-written sums it replaces.

The oracles below are the earlier forms: the integer-index Zak sum, the
refinement at the theta zero as a loop over its four cells (one Zak sum of
the 8x upsampled signal, one theta division and one Fourier block per cell),
and the seam check's two hand-written Zak sums at y + 1 and xi + 1.  The
shared kernel computes the same discrete sums, so it must agree with them to
roundoff.  The refinement, which reads the fine cells off the Zak fibres, is
also held to the refined block built from closed-form atom values at the
fine points.  The step fixes the Zak grid, N = 1/(2h), so a test of grid N
samples its signals at h = 1/(2N).
"""

import numpy as np
import pytest

from criticalgabor import CoefficientSet, hermite_signal, seam_mismatch, synthesize
from criticalgabor import expansion, numerics
from criticalgabor.expansion import _REFINE_FACTOR, _refine_correction, division_field, lattice_coefficients
from criticalgabor.numerics import THETA_TERMS, theta, upsample_periodic
from criticalgabor.zak import _zak_sum, zak

T, H = 8.0, 1.0 / 64.0


def lattice_mix(h):
    rng = np.random.default_rng(3)
    c = CoefficientSet()
    for k in range(-2, 3):
        for j in range(-2, 3):
            c.set(k, j, complex(*rng.normal(size=2)))
    return synthesize(c, T, h)


def sharp_mix(h):
    c = CoefficientSet()
    c.set(0, 0, 1.0, sharp=True)
    c.set(1, 0, 0.3)
    c.set(0, -1, 0.2j)
    c.set(-1, 1, -0.4 + 0.1j)
    return synthesize(c, T, h)


SIGNALS = {**{f"h{n}": (lambda h, n=n: hermite_signal(n, T, h)) for n in range(4)},
           "lattice_mix": lattice_mix, "sharp_mix": sharp_mix}


@pytest.fixture(scope="module", params=sorted(SIGNALS))
def name(request):
    return request.param


@pytest.fixture(scope="module")
def signal(name):
    return SIGNALS[name](H)


def on_grid(name, N):
    """The named signal at the step h = 1/(2N) whose Zak grid is N."""
    return SIGNALS[name](1.0 / (2 * N))


def integer_index_zak(f):
    N = int(round(0.5 / f.h))
    Ti = int(round(f.T))
    qs = np.arange(-Ti, Ti)
    n_idx = (np.arange(N)[:, None] * 2 + 1) + ((qs[None, :] + Ti) * N * 2)
    xi = (np.arange(N) + 0.5) / N
    return f.values[n_idx] @ np.exp(2j * np.pi * np.outer(qs, xi))


def extract_block(F, N, R):
    y = (np.arange(N) + 0.5) / N
    ks = np.arange(-R, R + 1)
    E = np.exp(-2j * np.pi * np.outer(ks, y))
    return E @ F.T @ E.T / N ** 2


def cell_loop_refine_correction(f, F, N, R):
    Ti = int(round(f.T))
    r = _REFINE_FACTOR
    up = upsample_periodic(f.values, r)
    cells = [(N // 2 - 1, N // 2 - 1), (N // 2 - 1, N // 2), (N // 2, N // 2 - 1), (N // 2, N // 2)]
    off = (np.arange(r) + 0.5) / r
    qs = np.arange(-Ti, Ti)
    ks = np.arange(-R, R + 1)
    fine_sum = np.zeros((ks.size, ks.size), dtype=complex)
    coarse_sum = np.zeros_like(fine_sum)
    for (ic, jc) in cells:
        yf = (ic + off) / N
        xif = (jc + off) / N
        n_idx = np.round((yf[:, None] + qs[None, :] + f.T) / (f.h / r)).astype(int)
        Zf = up[n_idx] @ np.exp(2j * np.pi * np.outer(qs, xif))
        Ff = np.exp(np.pi * yf[:, None] ** 2) * Zf / theta(xif[None, :] + 1j * yf[:, None])
        Epf = np.exp(-2j * np.pi * np.outer(ks, xif))
        Etf = np.exp(-2j * np.pi * np.outer(ks, yf))
        fine_sum += Epf @ Ff.T @ Etf.T / (r * N) ** 2
        yc, xic = (ic + 0.5) / N, (jc + 0.5) / N
        phase = np.exp(-2j * np.pi * (np.outer(ks * xic, np.ones(ks.size)) + np.outer(np.ones(ks.size), ks * yc)))
        coarse_sum += F[ic, jc] * phase / N ** 2
    return fine_sum - coarse_sum


def hand_seam_fields(f, N):
    """F recomputed at y + 1 and at xi + 1 from fresh, hand-indexed Zak sums."""
    y = (np.arange(N) + 0.5) / N
    Ti = int(round(f.T))
    qs = np.arange(-Ti - 1, Ti - 1)
    y1 = y + 1.0
    n_idx = np.round((y[:, None] + 1.0 + qs[None, :] + f.T) / f.h).astype(int)
    Zy1 = f.values[n_idx] @ np.exp(2j * np.pi * np.outer(qs, y))
    Fy1 = np.exp(np.pi * y1[:, None] ** 2) * Zy1 / theta(y[None, :] + 1j * y1[:, None])
    xi1 = y + 1.0
    qs = np.arange(-Ti, Ti)
    n_idx = np.round((y[:, None] + qs[None, :] + f.T) / f.h).astype(int)
    Zxi1 = f.values[n_idx] @ np.exp(2j * np.pi * np.outer(qs, xi1))
    Fxi1 = np.exp(np.pi * y[:, None] ** 2) * Zxi1 / theta(xi1[None, :] + 1j * y[:, None])
    return Fy1, Fxi1


@pytest.mark.parametrize("N", [16, 32])
def test_zak_bitwise_equals_integer_index_formula(name, N):
    # bitwise until the kernel reduced q xi mod 1 before the factor 2 pi; the oracle
    # keeps the unreduced 2 pi q xi, measured <= 1.1e-15 max|Z| apart
    f = on_grid(name, N)
    want = integer_index_zak(f)
    Z = zak(f)
    assert Z.N == N
    assert np.max(np.abs(Z.values - want)) <= 2e-15 * np.max(np.abs(want))


# At h = 1/8 (N = 4) the fibres have 8 samples a unit: h3 and the atom mixes reach their
# Nyquist, where neither form is the exact refined sum, so only h0..h2 run there
CELL_LOOP_CASES = [(name, N) for name in sorted(SIGNALS) for N in (4, 8, 16, 32)
                   if N > 4 or name in ("h0", "h1", "h2")]


@pytest.mark.parametrize("R", [3, 6])
@pytest.mark.parametrize("name, N", CELL_LOOP_CASES)
def test_refined_block_matches_cell_loop(name, N, R):
    # The correction is a fine sum minus a coarse sum that cancel to ~1e-4 of
    # either near the theta zero, so it is held to the scale of the lattice
    # block it corrects: both forms sit ~3e-13 of their own size from an
    # extended-precision sum of the same terms.
    signal = on_grid(name, N)
    F, _ = division_field(signal)
    old = cell_loop_refine_correction(signal, F, N, R)
    want = extract_block(F, N, R) + old
    scale = np.max(np.abs(want))
    assert np.max(np.abs(_refine_correction(signal, F, R) - old)) <= 1e-13 * scale
    got = lattice_coefficients(signal, R)
    ks = range(-R, R + 1)
    M = np.array([[got.get(k, j) for j in ks] for k in ks])
    assert np.max(np.abs(M - want)) <= 1e-13 * scale


def test_refined_stack_matches_single_calls():
    signals = [SIGNALS[name](H) for name in ("h1", "h2", "lattice_mix", "sharp_mix")]
    F, _ = division_field(signals)
    stack = _refine_correction(signals, F, 6)
    for f, got in zip(signals, stack):
        F1, Z = division_field(f)
        one = _refine_correction(f, F1, 6)
        scale = np.max(np.abs(extract_block(F1, 32, 6) + one))
        assert np.max(np.abs(got - one)) <= 1e-15 * scale


def atom_values(p, th, x):
    return 2 ** 0.25 * np.exp(-np.pi * (x - p) ** 2 + 2j * np.pi * th * x)


def exact_atom_correction(p, th, N, R):
    """The refined block of the atom at (p, th) truncated to [-T, T): its Zak sums at the
    fine and the coarse nodes from closed-form atom values at the points y + q."""
    r, c = _REFINE_FACTOR, N // 2 - 1
    qs = np.arange(-int(T), int(T))
    ks = np.arange(-R, R + 1)

    def block(nodes, weight):
        Z = atom_values(p, th, nodes[:, None] + qs[None, :]) @ np.exp(2j * np.pi * np.outer(qs, nodes))
        F = np.exp(np.pi * nodes[:, None] ** 2) * Z / theta(nodes[None, :] + 1j * nodes[:, None])
        E = np.exp(-2j * np.pi * np.outer(ks, nodes))
        return E @ F.T @ E.T * weight

    return (block((c + (np.arange(2 * r) + 0.5) / r) / N, 1.0 / (r * N) ** 2)
            - block((c + np.arange(2) + 0.5) / N, 1.0 / N ** 2))


@pytest.mark.parametrize("p, th", [(0, 0), (4, 16), (-4, -16), (4, -16), (-3.5, 9.25), (0.3, 7.7), (2, -13)])
def test_refined_block_matches_exact_atom(p, th):
    # the fine y nodes are interpolated along the fibres: exact to roundoff while the
    # spectrum stays clear of the sample Nyquist 32 and the atom clear of +-T.  R = 17 puts the
    # atom's own coefficient in the block, which sets the scale; measured <= 1e-15 of it
    N, R = 32, 17
    f = numerics.SampledSignal(T, H, atom_values(p, th, -T + H * np.arange(int(2 * T / H) + 1)))
    F, _ = division_field(f)
    want = exact_atom_correction(p, th, N, R)
    scale = np.max(np.abs(extract_block(F, N, R) + want))
    assert np.max(np.abs(_refine_correction(f, F, R) - want)) <= 1e-13 * scale


@pytest.mark.parametrize("N", [16, 32])
def test_seam_mismatch_matches_hand_sums(name, N):
    signal = on_grid(name, N)
    F, _ = division_field(signal)
    Fy1, Fxi1 = hand_seam_fields(signal, N)
    want = max(np.max(np.abs(Fy1 - F)), np.max(np.abs(Fxi1 - F)))
    assert abs(seam_mismatch(signal) - want) <= 1e-13 * np.max(np.abs(F))
    y = (np.arange(N) + 0.5) / N
    for ys, xis, hand in ((y + 1.0, y, Fy1), (y, y + 1.0, Fxi1)):
        got = expansion._divided(_zak_sum(signal.values, T, signal.h, ys, xis), ys, xis)
        assert np.max(np.abs(got - hand)) <= 1e-13 * np.max(np.abs(hand))


@pytest.mark.parametrize("N", [16, 32])
def test_zak_sum_shift_rules(signal, N):
    # Z(y + 1, xi) = exp(-2 pi i xi) Z(y, xi) and Z(y, xi + 1) = Z(y, xi) on the
    # same samples.  q xi is exact on the dyadic midpoints and is reduced mod 1
    # before the factor 2 pi, so the xi rule holds bit for bit; the y rule
    # multiplies by a rounded exp(-2 pi i xi), measured <= 1.1e-15 max|Z| here.
    y = (np.arange(N) + 0.5) / N
    Z = _zak_sum(signal.values, T, H, y, y)
    tol = 1.5e-15 * np.max(np.abs(Z))
    assert np.max(np.abs(_zak_sum(signal.values, T, H, y + 1.0, y) - np.exp(-2j * np.pi * y) * Z)) <= tol
    assert np.array_equal(_zak_sum(signal.values, T, H, y, y + 1.0), Z)


def test_refined_lattice_coefficients_evaluate_theta_twice(monkeypatch):
    calls = []

    def counting_theta(z, terms=THETA_TERMS):
        calls.append(np.shape(z))
        return theta(z, terms)

    monkeypatch.setattr(numerics, "theta", counting_theta)
    monkeypatch.setattr(expansion, "theta", counting_theta)
    lattice_coefficients(hermite_signal(2, T, H), R=6)
    # one division on the midpoint grid, one on the refined 2x2 block
    assert calls == [(32, 32), (2 * _REFINE_FACTOR, 2 * _REFINE_FACTOR)]
