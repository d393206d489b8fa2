"""Transforms on one factor graph (a one-factor product), their operator
identities, and what a factor decomposition keeps."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from glct import (
    GsoKind,
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    ValidationError,
    ZeroBVariant,
    apply_glct,
    cartesian_product,
    decompose_graph,
    gft_matrix,
    gso,
    inverse,
    make_family,
    make_path,
    make_ring,
)
from glct import kernels
from glct.spectral import _ORTHOGONAL_TOL, eig_unitary_angles, principal_angle

from conftest import reference_setup, run_spec


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
    return run_spec(SignalNd(ctx.shape, x), TransformSpec("gft"), ctx)


def igft(xhat, ctx):
    return run_spec(SignalNd(ctx.shape, xhat), TransformSpec("igft"), ctx)


def gfrft(x, alpha, ctx):
    return run_spec(SignalNd(ctx.shape, x), TransformSpec("gfrft", {"alpha": alpha}), ctx)


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
            run_spec(SignalNd((5,), np.ones(5)), TransformSpec("gft"), ring6)


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

    @pytest.mark.parametrize("variant", ["cddhfs", "cmccm"])
    def test_unknown_zero_b_variant_raises_under_either_variant(self, ring6, variant):
        with pytest.raises(ValidationError, match="unknown zero-b variant"):
            glct(rand(6), LctParams.from_abc(0.6, 0.8, -0.5), ring6, variant, "bogus")


class TestRetained:
    """Per factor, set-up keeps V and the values stage on a view of V; F and Z
    are built on the first op that reads them."""

    @pytest.fixture
    def ctx(self):
        return ProductContext(cartesian_product([make_ring(40), make_path(5)]))

    def _x(self, ctx):
        return rand(int(np.prod(ctx.shape)), 15)

    def test_setup_keeps_neither_z_nor_f(self, ctx):
        for dec in ctx.factors:
            assert "z" not in vars(dec) and "f" not in vars(dec)
            assert np.shares_memory(dec.spectrum.source, dec.basis.vectors)

    def test_cmccm_builds_f_and_not_z(self, ctx):
        glct(self._x(ctx), LctParams.from_abc(0.6, 0.8, -0.5), ctx)
        for dec in ctx.factors:
            assert "f" in vars(dec) and "z" not in vars(dec)
            assert dec.f.flags.c_contiguous
            assert dec.f.tobytes() == gft_matrix(dec.basis).tobytes()

    def test_cddhfs_builds_z(self, ctx):
        glct(self._x(ctx), LctParams.from_abc(0.6, 0.8, -0.5), ctx, variant="cddhfs")
        for dec in ctx.factors:
            assert "z" in vars(dec)
            assert dec.z.tobytes() == gso(dec.graph, dec.kind).tobytes()


def test_setup_working_set_on_ring400():
    """decompose_graph(ring(400)) keeps V and q (2 n^2 doubles, plus the
    angles and a few n-vectors) and peaks near 4 n^2 doubles, as traced by
    tracemalloc. LAPACK's eigensolver workspace is allocated outside numpy
    and so outside tracemalloc; it is not counted here. Holding Z and a copy
    of F as well read 4.04 and 7.08 n^2; a fresh temporary for every step
    and residual peaked at 5.09 n^2."""
    n = 400
    graph = make_ring(n)
    decompose_graph(make_ring(8))  # warm: imports and first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dec = decompose_graph(graph)
        retained, peak = (b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert dec.basis.vectors.shape == (n, n)
    assert retained <= 2.2 * n * n * 8
    assert peak <= 4.5 * n * n * 8


SETUP_GRAPHS = [("ring", 300), ("path", 40), ("ring", 100), ("path", 15), ("complete", 14), ("comet", 6),
                ("lowstretch", 16)]


def _hex(diagnostics: dict) -> dict:
    return {key: float(v).hex() if isinstance(v, float) else v for key, v in diagnostics.items()}


def implied_orthogonality(n: int, r: float) -> float:
    """The bound on the computed max |F^T F - I| that decompose_graph derives
    from r = max |V^T V - I|: n (r + gamma_n) + gamma_n, gamma_n = n u / (1 - n u)."""
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    return n * (r + gamma) + gamma


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("family,n", SETUP_GRAPHS, ids=[f"{family}{n}" for family, n in SETUP_GRAPHS])
def test_setup_matches_reference_expressions_to_the_bit(family, n, kind):
    graph = make_family(family, n)
    ref, dec = reference_setup(graph, kind), decompose_graph(graph, kind)
    assert dec.z.tobytes() == ref["z"].tobytes()
    assert dec.basis.vectors.tobytes() == ref["vectors"].tobytes()
    assert dec.basis.values.tobytes() == ref["values"].tobytes()
    assert dec.spectrum._q.tobytes() == ref["q"].tobytes()
    in_angle_order = ref["mu"][np.argsort(principal_angle(ref["mu"]), kind="stable")]
    assert dec.spectrum.values.tobytes() == in_angle_order.tobytes()
    assert dec.spectrum.angles.tobytes() == np.sort(principal_angle(ref["mu"])).tobytes()
    assert _hex(dec.diagnostics) == _hex(ref["diagnostics"])
    # the bound that stands in for the values stage's input check covers what that check computes
    assert ref["f_orthogonality"] <= implied_orthogonality(n, dec.diagnostics["sym_orthonormality"]) < _ORTHOGONAL_TOL


class TestDerivedOrthogonality:
    """decompose_graph skips the values stage's explicit |F^T F - I| check only
    while eig_sym's measured residual r implies it: n (r + gamma_n) + gamma_n < 1e-8."""

    @pytest.fixture
    def explicit_checks(self, monkeypatch):
        calls, real = [], kernels.eig_unitary_angles
        monkeypatch.setattr(kernels, "eig_unitary_angles", lambda f: calls.append(f) or real(f))
        return calls

    @staticmethod
    def _with_residual(monkeypatch, r):
        """Make eig_sym report ``r`` as its sym_orthonormality residual."""
        real = kernels.eig_sym

        def eig_sym(z):
            basis = real(z)
            return dataclasses.replace(basis, residuals={**basis.residuals, "sym_orthonormality": r})

        monkeypatch.setattr(kernels, "eig_sym", eig_sym)

    @pytest.mark.parametrize("scale,explicit", [(0.99, False), (1.0, True), (float("nan"), True)])
    def test_explicit_check_runs_unless_the_bound_is_below_tolerance(self, explicit_checks, monkeypatch,
                                                                      scale, explicit):
        graph = make_ring(30)
        derived = decompose_graph(graph)
        assert explicit_checks == []
        self._with_residual(monkeypatch, scale * (_ORTHOGONAL_TOL / 30 - implied_orthogonality(30, 0.0) / 30))
        dec = decompose_graph(graph)
        assert len(explicit_checks) == explicit
        if explicit:
            assert np.shares_memory(explicit_checks[0], dec.basis.vectors)
        assert dec.spectrum.angles.tobytes() == derived.spectrum.angles.tobytes()
        assert dec.spectrum._q.tobytes() == derived.spectrum._q.tobytes()
        assert _hex(dec.spectrum.residuals) == _hex(derived.spectrum.residuals)

    def test_public_values_stage_still_rejects_a_non_orthogonal_input(self):
        f = gft_matrix(decompose_graph(make_ring(6)).basis)
        f[0] *= 1.0 + 1e-7
        with pytest.raises(ValidationError, match="not finite and orthogonal within 1e-08"):
            eig_unitary_angles(f)
