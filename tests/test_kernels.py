"""Transforms on one factor graph (a one-factor product) and their operator identities."""
import numpy as np
import pytest

from glct import (
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    ValidationError,
    ZeroBVariant,
    apply_glct,
    cartesian_product,
    gfrft_nd,
    gft_nd,
    inverse,
    make_path,
    make_ring,
)

from conftest import run_spec


def one_factor(graph):
    return ProductContext(cartesian_product([graph]))


@pytest.fixture(scope="module")
def ring4():
    return one_factor(make_ring(4))


@pytest.fixture(scope="module")
def ring6():
    return one_factor(make_ring(6))


@pytest.fixture(scope="module")
def path2():
    return one_factor(make_path(2))


def rand(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def gft(x, ctx):
    return gft_nd(SignalNd(ctx.shape, x), ctx).values


def igft(xhat, ctx):
    return run_spec(SignalNd(ctx.shape, xhat), TransformSpec("igft"), ctx)


def gfrft(x, alpha, ctx):
    return gfrft_nd(SignalNd(ctx.shape, x), alpha, ctx).values


def gcm(x, xi, ctx):
    return run_spec(SignalNd(ctx.shape, x), TransformSpec("gcm", {"xi": xi}), ctx)


def gscale(x, sigma, ctx):
    return run_spec(SignalNd(ctx.shape, x), TransformSpec("gscale", {"sigma": sigma}), ctx)


def glct(x, p, ctx, variant="cmccm", zero_b_variant=ZeroBVariant.EQ30):
    return apply_glct(SignalNd(ctx.shape, x), p, ctx, variant, zero_b_variant).values


class TestGft:
    def test_dc_projection(self, ring4):
        np.testing.assert_allclose(gft(np.ones(4), ring4), [2, 0, 0, 0], atol=1e-12)

    def test_parseval(self, ring6):
        x = rand(6)
        assert np.linalg.norm(gft(x, ring6)) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_eigenvector_maps_to_unit_coefficient(self, ring6):
        for k in (0, 3, 5):
            xhat = gft(ring6.factors[0].basis.vectors[:, k], ring6)
            expected = np.zeros(6)
            expected[k] = 1.0
            np.testing.assert_allclose(xhat, expected, atol=1e-12)

    def test_round_trip(self, ring6):
        x = rand(6, 1)
        np.testing.assert_allclose(igft(gft(x, ring6), ring6), x, atol=1e-10)

    def test_length_mismatch_raises(self, ring6):
        with pytest.raises(ValidationError):
            gft_nd(SignalNd((5,), np.ones(5)), ring6)


class TestGfrft:
    def test_zero_order_is_identity(self, ring6):
        x = rand(6, 2)
        np.testing.assert_allclose(gfrft(x, 0.0, ring6), x, atol=1e-10)

    def test_unit_order_is_plain_transform(self, ring6):
        x = rand(6, 3)
        np.testing.assert_allclose(gfrft(x, 1.0, ring6), gft(x, ring6), atol=1e-9)

    def test_orders_add(self, ring6):
        x = rand(6, 4)
        two_step = gfrft(gfrft(x, 0.3, ring6), 0.7, ring6)
        np.testing.assert_allclose(two_step, gft(x, ring6), atol=1e-9)


class TestGcm:
    def test_zero_rate_is_identity(self, ring6):
        x = rand(6, 5)
        np.testing.assert_allclose(gcm(x, 0.0, ring6), x, atol=1e-12)

    def test_modulus_preserved(self, ring6):
        x = rand(6, 6)
        np.testing.assert_allclose(np.abs(gcm(x, 2.3, ring6)), np.abs(x), atol=1e-12)

    def test_rates_add(self, ring6):
        x = rand(6, 7)
        lhs = gcm(gcm(x, 1.1, ring6), -0.4, ring6)
        np.testing.assert_allclose(lhs, gcm(x, 0.7, ring6), atol=1e-10)


class TestGscale:
    def test_hand_example(self, path2):
        np.testing.assert_allclose(gscale(np.array([1.0, 0.0]), 2.0, path2), [0.5, -0.5], atol=1e-12)

    def test_unit_factor_applies_operator(self, ring6):
        x = rand(6, 8)
        np.testing.assert_allclose(gscale(x, 1.0, ring6), ring6.factors[0].z @ x, atol=1e-12)

    def test_null_space(self, ring6):
        # constants are in the Laplacian null space
        np.testing.assert_allclose(gscale(np.ones(6), 3.7, ring6), 0.0, atol=1e-12)

    def test_zero_factor_raises(self, ring6):
        with pytest.raises(ValidationError):
            gscale(np.ones(6), 0.0, ring6)


class TestGlct1d:
    def test_cmccm_matches_explicit_chain(self, ring6):
        x = rand(6, 9)
        out = glct(x, LctParams(1, 1, 0, 1), ring6)
        chain = gcm(igft(gcm(gft(gcm(x, 0.0, ring6), ring6), -1.0, ring6), ring6), 0.0, ring6)
        np.testing.assert_allclose(out, chain, atol=1e-12)

    def test_cmccm_preserves_norm(self, ring6):
        x = rand(6, 10)
        p = LctParams.from_abc(0.6, 0.8, -0.5)
        out = glct(x, p, ring6)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), abs=1e-9)

    def test_cmccm_exact_inversion(self, ring6):
        x = rand(6, 11)
        p = LctParams.from_abc(-1.2, 0.7, 1.1)
        recon = glct(glct(x, p, ring6), inverse(p), ring6)
        nmse = np.sum(np.abs(recon - x) ** 2) / np.sum(np.abs(x) ** 2)
        assert nmse < 1e-20

    def test_cddhfs_plain_transform_reduction(self, ring6):
        # (0, 1; -1, 0) decomposes to zero chirp, unit scale, order one
        x = rand(6, 12)
        out = glct(x, LctParams(0, 1, -1, 0), ring6, variant="cddhfs")
        np.testing.assert_allclose(out, gscale(gft(x, ring6), 1.0, ring6), atol=1e-9)

    def test_linearity(self, ring6):
        x, y = rand(6, 13), rand(6, 14)
        p = LctParams.from_abc(0.3, -0.9, 0.5)
        for variant in ("cddhfs", "cmccm"):
            lhs = glct(2.0 * x + 3.0j * y, p, ring6, variant=variant)
            rhs = 2.0 * glct(x, p, ring6, variant=variant) + 3.0j * glct(y, p, ring6, variant=variant)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("variant", [ZeroBVariant.EQ30, ZeroBVariant.EQ31])
    def test_zero_b_operator_is_unitary(self, ring6, variant):
        p = LctParams(2.0, 0.0, 0.7, 0.5)
        t = np.column_stack(
            [glct(e, p, ring6, zero_b_variant=variant) for e in np.eye(6, dtype=complex)]
        )
        assert np.abs(t.conj().T @ t - np.eye(6)).max() < 1e-9

    def test_unknown_variant_raises(self, ring6):
        with pytest.raises(ValidationError):
            glct(rand(6), LctParams(1, 0, 0, 1), ring6, variant="other")
