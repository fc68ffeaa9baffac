"""The grid constants of the expansion core and the analysis path, memoised per grid.

theta, the Zak sum's gather index and phases, the Fourier rows of the block
extraction, the fine nodes and twists of the refinement at the theta zero,
the dual mixing matrix, the metaplectic rotation's plan (its chirp and the
FFT of its convolution kernel), and the Gabor transform's window taps,
spectrum phase and fold runs are each built once per key.  A memo hit must give the bits a fresh build gives, no entry may be
served for another grid, stored arrays are read-only, and no memo holds more
than MEMO_SIZE entries.  The oracles are the formulas these functions
evaluated before they were memoised.
"""

import math
import sys
import threading

import numpy as np
import pytest

import criticalgabor.expansion as expansion
import criticalgabor.gabor as gabor
import criticalgabor.metaplectic as metaplectic
import criticalgabor.numerics as numerics
from criticalgabor import (THETA_TERMS, Rotation, atom, dual_atoms, gabor_transform, hermite_signal,
                           metaplectic_apply, theta)
from criticalgabor.expansion import _REFINE_FACTOR, _extract_block, lattice_coefficients, sharp_series
from criticalgabor.gabor import dual_mixing
from criticalgabor.higher import default_sharp_nodes
from criticalgabor.numerics import MEMO_SIZE, Memo
from criticalgabor.zak import _midpoints, _zak_sum, zak_atom_field
from support import factored_kernel_apply, factored_rotation_plan

zak_module = sys.modules["criticalgabor.zak"]  # the package attribute `zak` is the function
MEMOS = [(numerics, "_THETA_MEMO"), (zak_module, "_ZAK_SUM_MEMO"),
         (expansion, "_BLOCK_MEMO"), (gabor, "_MIXING_MEMO"), (expansion, "_REFINE_MEMO"),
         (gabor, "_TAPS_MEMO"), (gabor, "_SPECTRUM_PHASE_MEMO"), (gabor, "_FOLD_MEMO"),
         (metaplectic, "_ROTATION_PLAN_MEMO")]

T, H, N, R = 8.0, 1.0 / 64.0, 32, 6
MID = _midpoints(N)
FINE = (N // 2 - 1 + (np.arange(2 * _REFINE_FACTOR) + 0.5) / _REFINE_FACTOR) / N


@pytest.fixture()
def cold(monkeypatch):
    """Empty memos for the test; calling the fixture's value empties them again."""
    def reset():
        for mod, name in MEMOS:
            monkeypatch.setattr(mod, name, Memo())
    reset()
    return reset


def old_theta(z, terms=THETA_TERMS):
    zarr = np.asarray(z, dtype=complex)
    k = np.round(zarr.imag).astype(int)
    zr = zarr - 1j * k
    q = np.arange(-terms, terms + 1)
    series = 2 ** 0.25 * np.sum(np.exp(2j * np.pi * np.multiply.outer(zr, q) - np.pi * q ** 2), axis=-1)
    return np.exp(np.pi * k ** 2 - 2j * np.pi * k * zr) * series


def old_zak_sum(values, T, step, y, xi):
    Ti = int(round(T))
    shift = int(np.floor(y[0]))
    qs = np.arange(-Ti - shift, Ti - shift)
    n_idx = np.round((y[:, None] + qs[None, :] + T) / step).astype(int)
    return values[n_idx] @ np.exp(2j * np.pi * np.outer(qs, xi))


def old_extract_block(F, y, xi, R):
    ks = np.arange(-R, R + 1)
    Ep = np.exp(-2j * np.pi * np.outer(ks, xi))
    Et = np.exp(-2j * np.pi * np.outer(ks, y))
    return Ep @ F.T @ Et.T


def old_dual_mixing(nodes):
    labels = [complex(*n) for n in nodes]
    signs = np.array([(-1.0) ** round(n[1] - 0.5) for n in nodes])
    return gabor.vandermonde_inverse(labels) * signs[None, :]


def old_gabor_transform(f, box, dlam):
    """The transform with its window, spectrum phase and fold runs built in the call."""
    ps, ts = gabor._box_grids(box, dlam)
    N = f.values.size
    H, a, M, L, b, Mp = gabor.step_periods(dlam, f.h, N)
    G = np.fft.fft(f.values * gabor._grid_phase(-ts[0] * f.h, N), L)
    c0, P, K = ps[0] * H, ps.size, ts.size
    J, s = int(np.floor(gabor._REACH * L / H)), a * L // M
    m = np.arange(-J, J + 1)
    c_int = int(np.floor(c0))
    turns = (m * c_int % L + m * (c0 - c_int)) / L
    w = 2 ** 0.25 / L * np.exp(-np.pi * (m * (H / L)) ** 2 + 2j * np.pi * turns)
    i = np.arange(-J, s * (K - 1) + J + 1)
    g = G[i % L]
    g *= np.exp(1j * np.pi * ((N - 1) * i % (2 * L) / L))
    spec = np.ndarray((K, m.size), complex, g, 0, (s * g.itemsize, g.itemsize))
    slot = b * m % Mp
    cuts = sorted({0, min(Mp, m.size), m.size, *(np.flatnonzero(np.diff(slot) != b) + 1).tolist()})
    runs = [(t0, t1, slice(slot[t0], slot[t1 - 1] + 1, b)) for t0, t1 in zip(cuts, cuts[1:])]
    rows_per_block = gabor._ROWS
    fold = np.zeros((min(rows_per_block, K), Mp), dtype=complex)
    sums = np.empty_like(fold)
    out = np.empty((P, K), dtype=complex)
    for l in range(0, K, rows_per_block):
        rows, blk = spec[l:l + rows_per_block], fold[:min(rows_per_block, K - l)]
        for t0, t1, cols in runs:
            if t0 < Mp:
                np.multiply(rows[:, t0:t1], w[t0:t1], out=blk[:, cols])
            else:
                blk[:, cols] += rows[:, t0:t1] * w[t0:t1]
        np.fft.ifft(blk, axis=1, norm="forward", out=sums[:blk.shape[0]])
        out[:, l:l + rows_per_block] = sums[:blk.shape[0], :P].T
    return out


def old_rotation(angle, f):
    phi = angle % (2 * np.pi)
    if abs(np.sin(phi)) >= metaplectic._MIN_B:
        return factored_kernel_apply(phi, f).values
    return factored_kernel_apply(phi - np.pi / 2, factored_kernel_apply(np.pi / 2, f)).values


def rotation_plan(angle):
    """The plan metaplectic_apply stores for a kernel angle, as one array."""
    metaplectic_apply(Rotation(angle), analysis_signal())
    return np.concatenate(stored(metaplectic._ROTATION_PLAN_MEMO, (angle, T, H, 1025)))


def bits(a):
    return np.asarray(a).tobytes()


def stored(memo, key):
    """The value memo holds under key; fails if there is none."""
    return memo.get(key, lambda: pytest.fail(f"nothing stored under {key}"))


def transform_entries(box, dlam, T_=T, h=H):
    """The taps, spectrum phase and fold runs stored for a transform of the box on the (T, h) grid."""
    n = numerics._sample_count(T_, h)
    Hs, _, _, L, b, Mp = gabor.step_periods(dlam, h, n)
    J, c0 = math.floor(gabor._REACH * L / Hs), gabor._box_grids(box, dlam)[0][0] * Hs
    return (stored(gabor._TAPS_MEMO, (c0, Hs, L, J)), stored(gabor._SPECTRUM_PHASE_MEMO, (n, L)),
            stored(gabor._FOLD_MEMO, (b, Mp, J)))


SAMPLES = np.arange(2 * N) / (2 * N)  # the samples of one unit at h = 1/(2 N): the refinement's fibres


def analysis_signal(T_=T, h=H):
    return hermite_signal(2, T_, h) + (0.5 - 0.25j) * hermite_signal(1, T_, h) + atom((1.5, -2.0), T_, h)


# the analyze pool's six (box, dlam) pairs, an off-lattice box as decompose draws them, and a coarser step
TRANSFORMS = {**{f"transform_box{box}_dlam{round(1 / dlam)}": (analysis_signal, box, dlam)
                 for box in (4.0, 6.0, 8.0) for dlam in (1 / 8, 1 / 16)},
              "transform_off_lattice": (analysis_signal, (-2.3137, 3.0419, -3.7151, 1.9283), 1 / 8),
              "transform_h32": (lambda: analysis_signal(T, 1 / 32), 4.0, 1 / 16)}
# one angle with |sin| >= _MIN_B, one through the quarter turn, as the analyze pool has them
ROTATIONS = {"rotation_kernel": 1.2, "rotation_composed": 0.15}


CASES = {
    "theta_midpoint": (lambda: theta(MID[None, :] + 1j * MID[:, None]),
                       lambda: old_theta(MID[None, :] + 1j * MID[:, None])),
    "theta_refined": (lambda: theta(FINE[None, :] + 1j * FINE[:, None]),
                      lambda: old_theta(FINE[None, :] + 1j * FINE[:, None])),
    "zak_sum_midpoint": (lambda: _zak_sum(hermite_signal(2, T, H).values, T, H, MID, MID),
                         lambda: old_zak_sum(hermite_signal(2, T, H).values, T, H, MID, MID)),
    "zak_sum_refined": (lambda: _zak_sum(hermite_signal(2, T, H).values, T, H, SAMPLES, FINE),
                        lambda: old_zak_sum(hermite_signal(2, T, H).values, T, H, SAMPLES, FINE)),
    "extract_block": (lambda: _extract_block(np.outer(np.cos(MID), MID + 1j), MID, MID, R),
                      lambda: old_extract_block(np.outer(np.cos(MID), MID + 1j), MID, MID, R)),
    "dual_mixing": (lambda: dual_mixing(default_sharp_nodes(3)),
                    lambda: old_dual_mixing([tuple(n) for n in default_sharp_nodes(3)])),
    **{name: (lambda sig=sig, box=box, dlam=dlam: gabor_transform(sig(), box, dlam).values,
              lambda sig=sig, box=box, dlam=dlam: old_gabor_transform(sig(), box, dlam))
       for name, (sig, box, dlam) in TRANSFORMS.items()},
    "rotation_plan": (lambda: rotation_plan(1.2), lambda: np.concatenate(factored_rotation_plan(1.2, analysis_signal()))),
    **{name: (lambda angle=angle: metaplectic_apply(Rotation(angle), analysis_signal()).values,
              lambda angle=angle: old_rotation(angle, analysis_signal()))
       for name, angle in ROTATIONS.items()},
}


# the Zak kernel reduces q xi mod 1 before the factor 2 pi, which the unmemoised
# formula does not: those cases agree with it to roundoff, measured <= 5.7e-16 max|Z|
ROUNDOFF_CASES = {"zak_sum_midpoint", "zak_sum_refined"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_and_warm_calls_match_the_unmemoised_formula_bitwise(cold, case):
    call, oracle = CASES[case]
    first, second, want = call(), call(), oracle()
    assert bits(first) == bits(second)
    if case in ROUNDOFF_CASES:
        assert np.max(np.abs(first - want)) <= 1e-15 * np.max(np.abs(want))
    else:
        assert bits(first) == bits(want)


def test_a_warm_call_builds_nothing(cold):
    z = MID[None, :] + 1j * MID[:, None]
    assert theta(z) is theta(z.copy())
    nodes = default_sharp_nodes(2)
    assert dual_mixing(nodes) is dual_mixing([tuple(n) for n in nodes])
    gabor_transform(analysis_signal(), 6.0, 1 / 16)
    entries = transform_entries(6.0, 1 / 16)
    gabor_transform(analysis_signal(), 6.0, 1 / 16)
    assert all(a is b for a, b in zip(transform_entries(6.0, 1 / 16), entries))
    metaplectic_apply(Rotation(1.2), analysis_signal())
    plan = stored(metaplectic._ROTATION_PLAN_MEMO, (1.2, T, H, 1025))
    metaplectic_apply(Rotation(1.2), analysis_signal())
    assert stored(metaplectic._ROTATION_PLAN_MEMO, (1.2, T, H, 1025)) is plan


def test_boxes_on_one_step_share_the_spectrum_phase_and_fold_runs(cold):
    # decompose transforms a new box every item: each adds its taps, and no other entry
    for box in [(-2.3137, 3.0419, -3.7151, 1.9283), (-1.1, 2.6, -0.4, 2.2), (-1.1, 2.6, 0.1, 1.0)]:
        gabor_transform(analysis_signal(), box, 1 / 8)
    assert (len(gabor._TAPS_MEMO), len(gabor._SPECTRUM_PHASE_MEMO), len(gabor._FOLD_MEMO)) == (2, 1, 1)


def test_two_transforms_on_one_grid_share_no_memory(cold):
    f = analysis_signal()
    assert not np.shares_memory(gabor_transform(f, 4.0, 1 / 8).values, gabor_transform(f, 4.0, 1 / 8).values)
    assert not np.shares_memory(metaplectic_apply(Rotation(1.2), f).values,
                                metaplectic_apply(Rotation(1.2), f).values)


def lattice(T_, h, R_):
    return lattice_coefficients(hermite_signal(2, T_, h), R_).to_json()


# pairs that share every key part but one: an entry built for one must not serve the other
PAIRS = {
    "theta_terms": (lambda: bits(theta(MID + 0.3j, 3)), lambda: bits(theta(MID + 0.3j))),
    # the step alone sets the Zak grid N = 1/(2h): a coarser and a finer one than h = 1/64
    "grid_step": (lambda: lattice(8.0, 1 / 32, R), lambda: lattice(8.0, 1 / 64, R)),
    "step_only": (lambda: lattice(8.0, 1 / 128, R), lambda: lattice(8.0, 1 / 64, R)),
    "half_width": (lambda: lattice(6.0, H, R), lambda: lattice(8.0, H, R)),
    "cutoff": (lambda: lattice(8.0, H, 4), lambda: lattice(8.0, H, 6)),
    "one_node": (lambda: bits(dual_mixing([(0.5, 0.5), (1.5, 0.5), (0.5, 1.5)])),
                 lambda: bits(dual_mixing([(0.5, 0.5), (1.5, 0.5), (-0.5, 0.5)]))),
    "sharp_half_width": (lambda: sharp_series(hermite_signal(3, 6.0, H)),
                         lambda: sharp_series(hermite_signal(3, 8.0, H))),
    "sharp_step": (lambda: sharp_series(hermite_signal(3, T, 1 / 32)),
                   lambda: sharp_series(hermite_signal(3, T, H))),
    # the window's anchor c0 alone, the phase step alone, the sample count alone
    "window_anchor": (lambda: bits(gabor_transform(analysis_signal(), (-3.0, 1.0, -1.0, 1.0), 1 / 8).values),
                      lambda: bits(gabor_transform(analysis_signal(), (-2.5, 1.0, -1.0, 1.0), 1 / 8).values)),
    "phase_step": (lambda: bits(gabor_transform(analysis_signal(), 4.0, 1 / 8).values),
                   lambda: bits(gabor_transform(analysis_signal(), 4.0, 1 / 16).values)),
    "sample_count": (lambda: bits(gabor_transform(analysis_signal(6.0), 4.0, 1 / 8).values),
                     lambda: bits(gabor_transform(analysis_signal(), 4.0, 1 / 8).values)),
    "rotation_angle": (lambda: bits(metaplectic_apply(Rotation(1.3), analysis_signal()).values),
                       lambda: bits(metaplectic_apply(Rotation(1.2), analysis_signal()).values)),
    "rotation_step": (lambda: bits(metaplectic_apply(Rotation(1.2), analysis_signal(T, 1 / 32)).values),
                      lambda: bits(metaplectic_apply(Rotation(1.2), analysis_signal()).values)),
    "rotation_half_width": (lambda: bits(metaplectic_apply(Rotation(1.2), analysis_signal(6.0)).values),
                            lambda: bits(metaplectic_apply(Rotation(1.2), analysis_signal()).values)),
}


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("flip", [False, True])
def test_no_entry_is_served_for_another_grid(cold, pair, flip):
    first, then = PAIRS[pair][::-1] if flip else PAIRS[pair]
    cold()
    fresh = then()
    cold()
    first()
    assert then() == fresh


def test_stored_arrays_are_read_only(cold):
    z = MID[None, :] + 1j * MID[:, None]
    nodes = default_sharp_nodes(2)
    for arr in (theta(z), dual_mixing(nodes), dual_atoms(nodes, T, H).mixing):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    lattice_coefficients(hermite_signal(2, T, H), R)
    plan = expansion._REFINE_MEMO.get(N, lambda: pytest.fail("no refinement plan for N = 32"))
    for arr in (a for a in plan if isinstance(a, np.ndarray)):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1
    gabor_transform(analysis_signal(), 8.0, 1 / 16)
    taps, phase, runs = transform_entries(8.0, 1 / 16)
    assert (taps.nbytes, phase.nbytes) == (257 * 16, 2 * 2048 * 16)  # 2J + 1 taps, a 2L table: 4 and 64 KiB
    assert isinstance(runs, tuple)
    metaplectic_apply(Rotation(0.15), analysis_signal())  # the quarter turn, then the rest
    plans = [stored(metaplectic._ROTATION_PLAN_MEMO, (angle, T, H, 1025)) for angle in (np.pi / 2, 0.15 - np.pi / 2)]
    assert len(metaplectic._ROTATION_PLAN_MEMO) == 2  # one plan per kernel angle, and nothing else
    for arr in (taps, phase, *(arr for plan in plans for arr in plan)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    a, b = Memo().get("key", lambda: (np.zeros(3), np.ones(2)))
    assert not a.flags.writeable and not b.flags.writeable


def test_memo_holds_at_most_its_limit(cold):
    rng = np.random.default_rng(11)
    for p, th in rng.uniform(-2, 2, size=(100, 2)):
        zak_atom_field((p, th), 16)
        assert len(numerics._THETA_MEMO) <= MEMO_SIZE
    assert len(numerics._THETA_MEMO) == MEMO_SIZE


def test_analysis_memos_hold_at_most_their_limit(cold):
    memos = [gabor._TAPS_MEMO, gabor._SPECTRUM_PHASE_MEMO, gabor._FOLD_MEMO, metaplectic._ROTATION_PLAN_MEMO]
    for k in range(MEMO_SIZE + 4):  # a new sample count, box anchor, step and angle each time
        f = hermite_signal(0, 4.0 + k / 4, H)
        gabor_transform(f, (-1.3 + 0.01 * k, -0.8, -0.5, 0.5), (2 * k + 1) / 64)
        metaplectic_apply(Rotation(1.0 + 0.01 * k), f)
        assert all(len(memo) <= MEMO_SIZE for memo in memos)
    assert [len(memo) for memo in memos] == [MEMO_SIZE] * len(memos)


def test_memo_evicts_the_least_recently_used():
    memo = Memo()
    for key in range(MEMO_SIZE):
        memo.get(key, lambda key=key: np.array([key]))
    memo.get(0, lambda: pytest.fail("entry 0 was rebuilt"))  # 0 is now the most recent
    memo.get(MEMO_SIZE, lambda: np.array([MEMO_SIZE]))  # evicts 1
    assert memo.get(0, lambda: pytest.fail("entry 0 was evicted"))[0] == 0
    assert memo.get(1, lambda: np.array([-1]))[0] == -1


def test_memo_under_threads_keeps_its_limit_and_values():
    memo = Memo()
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        for key in rng.integers(0, 2 * MEMO_SIZE, 300):
            if memo.get(int(key), lambda key=key: np.array([key]))[0] != key:
                errors.append(key)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(memo) <= MEMO_SIZE
