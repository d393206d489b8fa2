"""Parameter matrices, group operations, factorizations, and sampling."""
import numpy as np
import pytest

from glct import (
    LctParams,
    ValidationError,
    ZeroBVariant,
    compose,
    inverse,
    recompose,
    sample_random_params,
)
from glct import params
from glct.params import DET_TOL, KINDS, ZERO_B_TOL, ParamBlock, sample_abc


def one_row_cddhfs(p):
    """The cddhfs group of one parameter set: a one-row block's."""
    return ParamBlock.from_params([p]).cddhfs()[0]


def one_row_cmccm(p, variant=ZeroBVariant.EQ30):
    """The cmccm group of one parameter set: a one-row block's."""
    return ParamBlock.from_params([p]).cmccm(variant)[0]


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
        assert compose(p, LctParams(1, 0, 0, 1)).astuple() == pytest.approx(p.astuple())

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
    # rates in applied order: fractional order alpha_norm, scale delta, chirp xi
    def test_plain_transform_params(self):
        group = one_row_cddhfs(LctParams(0, 1, -1, 0))
        assert group.kinds == KINDS["cddhfs"] and group.phases is None
        assert tuple(group.rates[:, 0]) == pytest.approx((1.0, 1.0, 0.0))

    def test_identity_params(self):
        assert tuple(one_row_cddhfs(LctParams(1, 0, 0, 1)).rates[:, 0]) == pytest.approx((0.0, 1.0, 0.0))

    def test_hand_evaluated_case(self):
        alpha_norm, delta, xi = one_row_cddhfs(LctParams(0.6, 0.8, -0.5, 1.0)).rates[:, 0]
        assert xi == pytest.approx(0.5)
        assert delta == pytest.approx(1.0)
        assert alpha_norm == pytest.approx(np.arctan2(0.8, 0.6) / (np.pi / 2))

    def test_recompose_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            p = sample_random_params(rng)
            m = recompose(one_row_cddhfs(p))
            assert np.abs(m - p.matrix).max() < 1e-9

    def test_recompose_takes_one_row(self):
        (group,) = ParamBlock([(0.6, 0.8, -0.5, 1.0)] * 2).cddhfs()
        with pytest.raises(ValidationError, match="one row"):
            recompose(group)


class TestCmCcCmDecompose:
    # rates in applied order: chirp rates x3, x2, x1 of D1 V D2 V^T D3
    def test_general_branch_chirps(self):
        group = one_row_cmccm(LctParams(1, 1, 0, 1))
        assert group.kinds == KINDS["general-b"]
        assert tuple(group.rates[:, 0]) == pytest.approx((0.0, -1.0, 0.0))
        assert group.phases is None

    def test_zero_b_eq30(self):
        group = one_row_cmccm(LctParams(1, 0, 0, 1), ZeroBVariant.EQ30)
        assert group.kinds == KINDS["eq30"]
        assert tuple(group.rates[:, 0]) == pytest.approx((1.0, 1.0, 1.0))
        assert group.phases[0] == pytest.approx(np.exp(-1j * np.pi / 4))

    def test_zero_b_eq31(self):
        group = one_row_cmccm(LctParams(1, 0, 0, 1), ZeroBVariant.EQ31)
        assert group.kinds == KINDS["eq31"]
        assert tuple(group.rates[:, 0]) == pytest.approx((-1.0, -1.0, -1.0))
        assert group.phases[0] == pytest.approx(np.exp(1j * np.pi / 4))

    def test_recompose_round_trip_general(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            p = sample_random_params(rng)
            m = recompose(one_row_cmccm(p))
            assert np.abs(m - p.matrix).max() < 1e-9

    @pytest.mark.parametrize("variant", [ZeroBVariant.EQ30, ZeroBVariant.EQ31])
    def test_recompose_round_trip_zero_b(self, variant):
        for a in (-2.0, -0.5, 0.7, 1.0, 3.0):
            for c in (-1.5, 0.0, 0.4, 2.0):
                p = LctParams(a, 0.0, c, 1.0 / a)
                m = recompose(one_row_cmccm(p, variant))
                assert np.abs(m - p.matrix).max() < 1e-9

    def test_inverse_negates_general_chirps_in_reverse(self):
        # the factor-wise cancellation behind exact reversibility
        p = LctParams.from_abc(0.9, -1.3, 0.4)
        fwd = one_row_cmccm(p).rates[:, 0]
        bwd = one_row_cmccm(inverse(p)).rates[:, 0]
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


# ---------------------------------------------------------------------------
# ParamBlock: the column-wise group operations and factorizations against the
# one-row functions, compared as bytes. The one-row factorizations are now
# views of the block code, so the rates are also checked against a frozen
# copy of the scalar formulas they replaced.

ZB = {ZeroBVariant.EQ30: "eq30", ZeroBVariant.EQ31: "eq31"}


def _frozen_cddhfs(a, b, c, d):
    rr = a * a + b * b
    return (float(np.arctan2(b, a) / (np.pi / 2.0)), float(np.hypot(a, b)), (a * c + b * d) / rr)


def _frozen_cmccm(a, b, c, d, variant):
    """(branch, rates in applied order, phase) of the scalar factorization."""
    if abs(b) > ZERO_B_TOL:
        return "general-b", ((a - 1.0) / b, -b, (d - 1.0) / b), 1.0 + 0.0j
    if variant is ZeroBVariant.EQ30:
        return "eq30", ((c + 1.0) / d, d, 1.0 / d), complex(np.exp(-1j * np.pi / 4.0))
    return "eq31", (-1.0 / a, -a, (c - 1.0) / a), complex(np.exp(1j * np.pi / 4.0))


def _bytes(rows) -> bytes:
    return np.array(rows, dtype=float).tobytes()


@pytest.fixture(scope="module")
def draws():
    """10 000 sampled parameter sets, then zero-b rows: b of 0, -0 and just
    inside ZERO_B_TOL, and b just outside it."""
    rng = np.random.default_rng(20240611)
    ps = [sample_random_params(rng) for _ in range(10_000)]
    for b in (0.0, -0.0, 0.9 * ZERO_B_TOL, -ZERO_B_TOL, 1.1 * ZERO_B_TOL):
        for a, c in ((0.5, 1.0), (-2.0, 0.3), (1.0, 0.0), (1.7, -1.9)):
            ps.append(LctParams(a, b, c, (1.0 + b * c) / a))
    return ps


class TestParamBlock:
    def test_rows_validate_as_lct_params(self, draws):
        rows = [p.astuple() for p in draws]
        assert ParamBlock(rows).abcd.tobytes() == _bytes(rows)
        abc = np.array(rows)[:, :3]
        assert ParamBlock.from_abc(abc).abcd.tobytes() == _bytes(
            [LctParams.from_abc(*r).astuple() for r in abc])

    @pytest.mark.parametrize("row", [
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 0.0, 0.0, 1.0 + 2 * DET_TOL),
        (np.nan, 0.0, 0.0, 1.0),
        (1.0, np.inf, 0.0, 1.0),
        (np.inf, 0.0, 0.0, 0.0),
    ], ids=["det-2", "det-off", "nan", "inf-b", "inf-times-0"])
    def test_invalid_row_raises_as_lct_params(self, row):
        with pytest.raises(ValidationError) as scalar:
            LctParams(*row)
        block = [(1.0, 0.0, 0.0, 1.0), row, (1.0, 1.0, 1.0, 1.0)]  # the first bad row is named
        with pytest.raises(ValidationError) as vectorized:
            ParamBlock(block)
        assert str(vectorized.value) == str(scalar.value)

    def test_from_abc_rejects_zero_a(self):
        with pytest.raises(ValidationError) as scalar:
            LctParams.from_abc(0.0, 1.0, -1.0)
        with pytest.raises(ValidationError) as vectorized:
            ParamBlock.from_abc([(1.0, 1.0, 0.0), (0.0, 1.0, -1.0)])
        assert str(vectorized.value) == str(scalar.value)

    def test_block_shape_is_checked(self):
        with pytest.raises(ValidationError):
            ParamBlock(np.ones((3, 3)))

    def test_inverse(self, draws):
        block = ParamBlock.from_params(draws).inverse()
        assert block.abcd.tobytes() == _bytes([inverse(p).astuple() for p in draws])

    def test_compose(self, draws):
        # compose multiplies the 2x2 matrices with BLAS, which may fuse the
        # multiply-adds; a product spelled out elementwise rounds differently
        # on such a BLAS and fails this comparison
        half = len(draws) // 2
        p1, p2 = draws[:half], draws[half:2 * half]
        block = ParamBlock.from_params(p1).compose(ParamBlock.from_params(p2))
        assert block.abcd.tobytes() == _bytes([compose(q1, q2).astuple() for q1, q2 in zip(p1, p2)])
        with pytest.raises(ValidationError):
            ParamBlock.from_params(p1).compose(ParamBlock.from_params(p2[:-1]))

    def test_slices_are_row_views(self, draws):
        block = ParamBlock.from_params(draws)
        assert len(block[10:20]) == 10
        assert block[10:20].astuples() == tuple(p.astuple() for p in draws[10:20])

    def test_integer_index_is_a_one_row_block(self, draws):
        block = ParamBlock.from_params(draws)
        for i in (0, 7, -1):
            assert block[i].abcd.shape == (1, 4) and len(block[i]) == 1
            assert block[i].astuples() == (draws[i].astuple(),)

    def test_cddhfs(self, draws):
        (group,) = ParamBlock.from_params(draws).cddhfs()
        assert group.kinds == KINDS["cddhfs"] and group.phases is None
        np.testing.assert_array_equal(group.rows, np.arange(len(draws)))
        assert group.rates.flags.c_contiguous
        want = _bytes([one_row_cddhfs(p).rates[:, 0] for p in draws])
        assert group.rates.T.tobytes() == want == _bytes([_frozen_cddhfs(*p.astuple()) for p in draws])

    @pytest.mark.parametrize("variant", [ZeroBVariant.EQ30, ZeroBVariant.EQ31])
    def test_cmccm(self, draws, variant):
        groups = ParamBlock.from_params(draws).cmccm(variant)
        assert [g.kinds for g in groups] == [KINDS["general-b"], KINDS[ZB[variant]]]
        np.testing.assert_array_equal(np.sort(np.concatenate([g.rows for g in groups])), np.arange(len(draws)))
        for kinds, rows, rates, phases in groups:
            assert rates.flags.c_contiguous and rates.shape == (3, len(rows))
            scalar = [one_row_cmccm(draws[i], variant) for i in rows]
            frozen = [_frozen_cmccm(*draws[i].astuple(), variant) for i in rows]
            assert all(cp.kinds == kinds and (cp.phases is None) == (phases is None) for cp in scalar)
            assert all(KINDS[branch] == kinds for branch, _, _ in frozen)
            assert rates.T.tobytes() == _bytes([cp.rates[:, 0] for cp in scalar]) == _bytes([f[1] for f in frozen])
            phase = [1.0 + 0.0j if cp.phases is None else complex(cp.phases[0]) for cp in scalar]
            assert phase == [f[2] for f in frozen]
            if phases is None:
                assert phase == [1.0] * len(rows)
            else:
                assert phases.tobytes() == np.array(phase, dtype=complex).tobytes()

    @pytest.mark.parametrize("variant,row", [
        (ZeroBVariant.EQ30, (5.0, 1e-10, -1e10, 0.0)),
        (ZeroBVariant.EQ31, (0.0, 1e-10, -1e10, 5.0)),
    ], ids=["eq30-d0", "eq31-a0"])
    def test_zero_b_errors(self, variant, row):
        p = LctParams(*row)
        with pytest.raises(ValidationError) as scalar:
            one_row_cmccm(p, variant)
        with pytest.raises(ValidationError) as vectorized:
            ParamBlock([(0.6, 0.8, -0.5, 1.0), row]).cmccm(variant)
        assert str(vectorized.value) == str(scalar.value)
        assert ("d != 0" if variant is ZeroBVariant.EQ30 else "a != 0") in str(scalar.value)
        # the general-b branch never divides by d or a
        other = ZeroBVariant.EQ31 if variant is ZeroBVariant.EQ30 else ZeroBVariant.EQ30
        ParamBlock([row]).cmccm(other)

    @pytest.mark.parametrize("rows", [[(0.6, 0.8, -0.5, 1.0)], [(1.0, 0.0, 0.0, 1.0)]], ids=["general-b", "zero-b"])
    @pytest.mark.parametrize("variant", ["eq99", "EQ30", None, 30])
    def test_unknown_zero_b_variant_raises_whatever_the_rows(self, rows, variant):
        with pytest.raises(ValidationError, match="unknown zero-b variant"):
            ParamBlock(rows).cmccm(variant)
        with pytest.raises(ValidationError, match="unknown zero-b variant"):
            one_row_cmccm(LctParams(*rows[0]), variant)

    @pytest.mark.parametrize("variant", ZeroBVariant)
    def test_zero_b_variant_by_value(self, variant):
        for row in ((0.6, 0.8, -0.5, 1.0), (1.0, 0.0, 0.0, 1.0)):
            (by_value,), (by_member,) = ParamBlock([row]).cmccm(variant.value), ParamBlock([row]).cmccm(variant)
            assert by_value.kinds == by_member.kinds and by_value.rates.tobytes() == by_member.rates.tobytes()


class TestSampleAbc:
    def test_rows_and_state_equal_one_row_draws(self, monkeypatch):
        # a bound of 1.5 rejects most draws, so every generator redraws
        for min_abs_a in (params.MIN_ABS_A, 1.5):
            monkeypatch.setattr(params, "MIN_ABS_A", min_abs_a)
            gens = [np.random.default_rng(s) for s in range(40)]
            refs = [np.random.default_rng(s) for s in range(40)]
            rows = np.concatenate([sample_abc(g, 3) for g in gens])
            want = [sample_random_params(r).astuple()[:3] for r in refs for _ in range(3)]
            assert rows.tobytes() == _bytes(want)
            assert all(g.random() == r.random() for g, r in zip(gens, refs))

    def test_single_generator(self):
        rows = sample_abc(np.random.default_rng(4), 5)
        rng = np.random.default_rng(4)
        assert rows.tobytes() == _bytes([sample_random_params(rng).astuple()[:3] for _ in range(5)])
