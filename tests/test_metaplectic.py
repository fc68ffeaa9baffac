import numpy as np
import pytest

from criticalgabor import (Disk, Rotation, SampledSignal, atom, commutation_check,
                           covariance_check, gabor_transform, hdelta_norm,
                           inner, loc_integral, metaplectic_apply)
from criticalgabor.metaplectic import _MIN_B
from criticalgabor.numerics import _chirp_sum
from support import POOL, hdelta_invariance_check

T8, H64 = 8.0, 1.0 / 64.0
_ANALYZE = POOL["analyze"]


class TestRotation:
    def test_matrix_is_symplectic_orthogonal(self):
        for phi in np.linspace(0, 2 * np.pi, 9):
            S = Rotation(phi)
            M = np.array([[S.a, S.b], [S.c, S.d]])
            assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(M.T @ M, np.eye(2), atol=1e-12)

    def test_quarter_turn_maps_like_j_inverse(self):
        S = Rotation(np.pi / 2)
        out = S((1, 0))
        assert (out.p, out.theta) == pytest.approx((0.0, 1.0), abs=1e-12)


    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match=f"rotation angle must be finite, got {angle!r}"):
            Rotation(angle)


class TestMetaplecticApply:
    def test_identity(self, hermites):
        f = hermites[2]
        assert (metaplectic_apply(Rotation(0.0), f) - f).norm() == 0.0

    def test_half_turn_is_parity(self, hermites):
        f = hermites[1]
        out = metaplectic_apply(Rotation(np.pi), f)
        np.testing.assert_allclose(out.values, 1j * f.values[::-1], atol=1e-12)

    def test_quarter_turn_moves_atom(self):
        out = metaplectic_apply(Rotation(np.pi / 2), atom((1, 0)))
        target = atom((0, 1))
        assert np.max(np.abs(np.abs(out.values) - np.abs(target.values))) < 1e-4

    def test_unitarity_twelve_angles(self, hermites):
        f = hermites[2]
        for k in range(12):
            out = metaplectic_apply(Rotation(2 * np.pi * k / 12), f)
            assert abs(out.norm() - f.norm()) < 1e-4

    def test_group_law_sample(self, hermites):
        f = hermites[2]
        twice = metaplectic_apply(Rotation(np.pi / 4), metaplectic_apply(Rotation(np.pi / 4), f))
        direct = metaplectic_apply(Rotation(np.pi / 2), f)
        c = inner(twice, direct)
        assert np.sqrt(max(twice.norm() ** 2 - abs(c) ** 2, 0)) < 1e-3
        assert min(abs(c - 1), abs(c + 1)) < 1e-2

    def test_small_angle_composite_path_unitary(self, hermites):
        f = hermites[1]
        out = metaplectic_apply(Rotation(0.2), f)
        assert abs(out.norm() - f.norm()) < 1e-4


class TestCovariance:
    def test_identity_angle(self):
        res = covariance_check(Rotation(0.0), (1, 0))
        assert res.deviation < 1e-12
        assert res.phase_error < 1e-10

    @pytest.mark.parametrize("phi,lam", [
        (np.pi / 2, (1, 0)),
        (np.pi / 2, (1, 1)),
        (np.pi / 4, (1, 0)),
        (np.pi / 4, (1, 1)),
    ])
    def test_acceptance_pairs(self, phi, lam):
        res = covariance_check(Rotation(phi), lam)
        assert res.deviation <= 1e-3
        assert res.phase_error <= 1e-2

    @pytest.mark.parametrize("phi", [0.03, -0.03, np.pi + 0.04])
    def test_angles_near_identity_and_parity(self, phi):
        # only exact multiples of pi snap; a nearby angle goes through the kernel
        res = covariance_check(Rotation(phi), (2, 1))
        assert res.deviation <= 1e-8
        assert res.phase_error <= 1e-8

    def test_out_of_safe_region_rejected(self):
        with pytest.raises(ValueError):
            covariance_check(Rotation(np.pi / 4), (5, 0))


class TestCommutation:
    def test_identity_angle(self, hermites):
        assert commutation_check(Rotation(0.0), hermites[1]) < 1e-12

    def test_quarter_turn(self, hermites):
        assert commutation_check(Rotation(np.pi / 2), hermites[1]) <= 1e-3

    def test_adjoint_variant(self, hermites):
        assert commutation_check(Rotation(np.pi / 2), hermites[1], adjoint=True) <= 1e-3


class TestSmoothnessInvariance:
    def test_identity_angle(self, hermites):
        assert hdelta_invariance_check(Rotation(0.0), hermites[2]) < 1e-12

    def test_quarter_turn(self, hermites):
        assert hdelta_invariance_check(Rotation(np.pi / 2), hermites[2]) <= 1e-3

    @pytest.mark.parametrize("angle", [np.pi / 4, np.pi / 3])
    def test_default_grid_serves_oblique_angles(self, hermites, angle):
        # default radius: largest multiple of step with r sqrt(2) + margin <= T, 2.75 at T = 8
        S = Rotation(angle)
        got = hdelta_invariance_check(S, hermites[2])
        assert got <= 1e-12
        assert got == hdelta_invariance_check(S, hermites[2], 2.75)

    def test_norm_consequence(self, hermites):
        f = hermites[2]
        rotated = metaplectic_apply(Rotation(np.pi / 3), f)
        n1, n2 = hdelta_norm(f, 2.0), hdelta_norm(rotated, 2.0)
        assert abs(n2 - n1) / n1 <= 1e-2

    def test_rotated_localization(self, e0):
        # int |M_S f|^2 I(x - q) dx <= out-of-disk Gabor mass + tolerance
        phi, D = np.pi / 3, Disk((0, 0), 1.0)
        q = 1.0  # sup of p over the rotated disk
        rotated = metaplectic_apply(Rotation(phi), e0)
        lhs = float(np.sum(np.abs(rotated.values) ** 2 * loc_integral(rotated.x - q)) * rotated.h)
        field = gabor_transform(e0, box=4.0, dlam=1 / 16)
        P, Th = np.meshgrid(field.p_grid, field.theta_grid, indexing="ij")
        outside = ~D.contains(np.column_stack([P.ravel(), Th.ravel()]))
        rhs = float(np.sum(np.abs(field.values.ravel()[outside]) ** 2) * (1 / 16) ** 2)
        assert lhs <= rhs + 1e-3


def two_exp_kernel_apply(angle, f):
    """The kernel sum with one exp for the chirp before it (rate d/b) and one for the chirp after (a/b)."""
    a, b, d = np.cos(angle), -np.sin(angle), np.cos(angle)
    x = f.x
    front = np.exp(1j * np.pi * (d * x ** 2 + 2.0 * f.T * x) / b)
    back = np.exp(1j * np.pi * (a * x ** 2 + 2.0 * f.T * x) / b) * f.values
    scale = (1j * b) ** -0.5 * np.exp(2j * np.pi * f.T ** 2 / b) * f.h
    return SampledSignal(f.T, f.h, scale * front * _chirp_sum(back, f.h ** 2 / b, x.size))


@pytest.mark.parametrize("angle", [e["angle"] for e in _ANALYZE], ids=[e["id"] for e in _ANALYZE])
def test_kernel_shares_its_chirp_bitwise(hermites, angle):
    # metaplectic_apply on the analyze pool's angles against the two-exp kernel, branch for branch:
    # the snaps, the kernel, and the quarter turn composed with the kernel where |sin| < _MIN_B
    f = hermites[2] + (0.5 - 0.25j) * hermites[1] + atom((1.5, -2.0))
    phi = angle % (2 * np.pi)
    if phi == 0.0 or phi == np.pi:
        steps = []
    elif abs(np.sin(phi)) >= _MIN_B:
        steps = [phi]
    else:
        steps = [np.pi / 2, phi - np.pi / 2]
    want = SampledSignal(f.T, f.h, 1j * f.values[::-1]) if phi == np.pi else f
    for step in steps:
        want = two_exp_kernel_apply(step, want)
    np.testing.assert_array_equal(metaplectic_apply(Rotation(angle), f).values, want.values)


def test_pool_angles_cover_every_branch():
    phis = [e["angle"] % (2 * np.pi) for e in _ANALYZE]
    sins = [abs(np.sin(phi)) for phi in phis if phi not in (0.0, np.pi)]
    assert len(sins) < len(phis) and min(sins) < _MIN_B <= max(sins)
