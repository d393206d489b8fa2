"""Parameter matrices, group operations, factorizations, and sampling."""
import numpy as np
import pytest

from glct import (
    CmCcCmBranch,
    LctParams,
    ValidationError,
    ZeroBVariant,
    cddhfs_decompose,
    cmccm_decompose,
    compose,
    inverse,
    recompose,
    sample_random_params,
)


class TestValidation:
    def test_identity_is_valid(self):
        LctParams(1, 0, 0, 1)

    def test_rounded_reference_row_is_valid(self):
        LctParams(0.10, 0.60, -0.20, 8.80)

    def test_unit_determinant_enforced(self):
        with pytest.raises(ValidationError):
            LctParams(1, 1, 1, 1)

    def test_from_abc(self):
        p = LctParams.from_abc(0.10, 0.60, -0.20)
        assert p.d == pytest.approx(8.80)
        p = LctParams.from_abc(0.40, 0.10, -0.60)
        assert p.d == pytest.approx(2.35)

    def test_from_loose_renormalizes_d(self):
        p = LctParams.from_loose(0.40, -1.10, 0.70, 0.58)
        assert p.d == pytest.approx(0.575)
        assert p.a * p.d - p.b * p.c == pytest.approx(1.0, abs=1e-15)

    def test_from_loose_rejects_far_determinants(self):
        with pytest.raises(ValidationError):
            LctParams.from_loose(1.0, 1.0, 1.0, 1.0)


class TestGroupOps:
    def test_inverse(self):
        p = inverse(LctParams(0.6, 0.8, -0.5, 1.0))
        assert p.astuple() == (1.0, -0.8, 0.5, 0.6)

    def test_compose_with_identity(self):
        p = LctParams(0.6, 0.8, -0.5, 1.0)
        assert compose(p, LctParams.identity()).astuple() == pytest.approx(p.astuple())

    def test_compose_rotations(self):
        r = LctParams(0, 1, -1, 0)
        assert compose(r, r).astuple() == pytest.approx((-1.0, 0.0, 0.0, -1.0))

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = sample_random_params(rng)
            q = compose(p, inverse(p))
            np.testing.assert_allclose(q.matrix, np.eye(2), atol=1e-9)


class TestCddhfsDecompose:
    def test_plain_transform_params(self):
        dp = cddhfs_decompose(LctParams(0, 1, -1, 0))
        assert (dp.xi, dp.delta, dp.alpha_norm) == pytest.approx((0.0, 1.0, 1.0))

    def test_identity_params(self):
        dp = cddhfs_decompose(LctParams(1, 0, 0, 1))
        assert (dp.xi, dp.delta, dp.alpha_norm) == pytest.approx((0.0, 1.0, 0.0))

    def test_hand_evaluated_case(self):
        dp = cddhfs_decompose(LctParams(0.6, 0.8, -0.5, 1.0))
        assert dp.xi == pytest.approx(0.5)
        assert dp.delta == pytest.approx(1.0)
        assert dp.alpha_norm == pytest.approx(np.arctan2(0.8, 0.6) / (np.pi / 2))

    def test_recompose_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = sample_random_params(rng)
            m = recompose(cddhfs_decompose(p))
            assert np.abs(m - p.matrix).max() < 1e-9


class TestCmCcCmDecompose:
    def test_general_branch_chirps(self):
        cp = cmccm_decompose(LctParams(1, 1, 0, 1))
        assert cp.branch is CmCcCmBranch.GENERAL
        assert cp.chirps == pytest.approx((0.0, -1.0, 0.0))
        assert cp.phase == 1.0

    def test_zero_b_eq30(self):
        cp = cmccm_decompose(LctParams(1, 0, 0, 1), ZeroBVariant.EQ30)
        assert cp.branch is CmCcCmBranch.ZERO_B_EQ30
        assert cp.chirps == pytest.approx((1.0, 1.0, 1.0))
        assert cp.phase == pytest.approx(np.exp(-1j * np.pi / 4))

    def test_zero_b_eq31(self):
        cp = cmccm_decompose(LctParams(1, 0, 0, 1), ZeroBVariant.EQ31)
        assert cp.branch is CmCcCmBranch.ZERO_B_EQ31
        assert cp.chirps == pytest.approx((-1.0, -1.0, -1.0))
        assert cp.phase == pytest.approx(np.exp(1j * np.pi / 4))

    def test_recompose_round_trip_general(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            p = sample_random_params(rng)
            m = recompose(cmccm_decompose(p))
            assert np.abs(m - p.matrix).max() < 1e-9

    @pytest.mark.parametrize("variant", [ZeroBVariant.EQ30, ZeroBVariant.EQ31])
    def test_recompose_round_trip_zero_b(self, variant):
        for a in (-2.0, -0.5, 0.7, 1.0, 3.0):
            for c in (-1.5, 0.0, 0.4, 2.0):
                p = LctParams(a, 0.0, c, 1.0 / a)
                m = recompose(cmccm_decompose(p, variant))
                assert np.abs(m - p.matrix).max() < 1e-9

    def test_inverse_negates_general_chirps_in_reverse(self):
        # the factor-wise cancellation behind exact reversibility
        p = LctParams.from_abc(0.9, -1.3, 0.4)
        fwd = cmccm_decompose(p).chirps
        bwd = cmccm_decompose(inverse(p)).chirps
        assert bwd[0] == -fwd[2] and bwd[1] == -fwd[1] and bwd[2] == -fwd[0]


class TestSampler:
    def test_deterministic_given_seed(self):
        a = [sample_random_params(np.random.default_rng(5)).astuple() for _ in range(3)]
        b = [sample_random_params(np.random.default_rng(5)).astuple() for _ in range(3)]
        assert a == b

    def test_distribution_contract(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            p = sample_random_params(rng)
            assert abs(p.a) >= 0.05
            assert -2 <= p.a <= 2 and -2 <= p.b <= 2 and -2 <= p.c <= 2
            assert abs(p.a * p.d - p.b * p.c - 1.0) < 1e-12

    def test_accepts_plain_seed(self):
        assert sample_random_params(5).astuple() == sample_random_params(np.random.default_rng(5)).astuple()
