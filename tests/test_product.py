"""Factored multi-dimensional transforms against dense Kronecker oracles."""
import functools
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glct import (
    Graph,
    GsoKind,
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    ValidationError,
    ZeroBVariant,
    block_rows,
    cartesian_product,
    compress_gfrft,
    dense_operator,
    gft_matrix,
    glct_cddhfs_nd,
    glct_cmccm_nd,
    inverse,
    make_comet,
    make_complete,
    make_path,
    make_ring,
    mult_count,
    kronecker_sum,
    sample_random_params,
)
from glct.params import KINDS, ZERO_B_TOL, ParamBlock, ProgramGroup, sample_abc
from glct.product import BLOCK_BYTES, program_block
from glct import cli, product, spectral
from glct.experiments import BENCHMARK_SIGNALS, _benchmark_setup, benchmark_signal
from glct.io import write_graph, write_signal
from glct.spectral import _runs, eig_unitary_angles

from conftest import run_spec

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GENERAL_ABCD = (0.6, 0.8, -0.5, 1.0)
ZERO_B_ABCD = (2.0, 0.0, 0.7, 0.5)

ORACLE_SPECS = [
    TransformSpec("gft"),
    TransformSpec("igft"),
    TransformSpec("gfrft", {"alpha": 0.4}),
    TransformSpec("gcm", {"xi": 0.8}),
    TransformSpec("gscale", {"sigma": 1.7}),
    TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}),
    TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
    TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq30"),
    TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq31"),
]


def factored_matrix(spec, ctx):
    """Apply the factored transform to every basis vector."""
    n = ctx.graph.n
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols.append(run_spec(SignalNd(ctx.shape, e), spec, ctx))
    return np.column_stack(cols)


def gft(x, ctx):
    """The SignalNd ``x`` through the transform, run by ``run_spec``."""
    return SignalNd(ctx.shape, run_spec(x, TransformSpec("gft"), ctx))


def gfrft(x, alpha, ctx):
    """The SignalNd ``x`` through the fractional transform of order ``alpha``, run by ``run_spec``."""
    return SignalNd(ctx.shape, run_spec(x, TransformSpec("gfrft", {"alpha": alpha}), ctx))


def igft(x, ctx):
    """The SignalNd ``x`` through the inverse transform, run by ``run_spec``."""
    return SignalNd(ctx.shape, run_spec(x, TransformSpec("igft"), ctx))


def gcm(x, xi, ctx):
    """The SignalNd ``x`` through the chirp of rate ``xi``, run by ``run_spec``."""
    return SignalNd(ctx.shape, run_spec(x, TransformSpec("gcm", {"xi": xi}), ctx))


def gscale(x, sigma, ctx):
    """The SignalNd ``x`` through the scaling by ``sigma``, run by ``run_spec``."""
    return SignalNd(ctx.shape, run_spec(x, TransformSpec("gscale", {"sigma": sigma}), ctx))


def _frac_group(alphas):
    """The program that runs row t of a block through the fractional transform of order alphas[t]."""
    return [ProgramGroup(("frac",), np.arange(len(alphas)), np.array([alphas], dtype=float), None)]


class TestSignalNd:
    def test_tensor_round_trip(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(3, 4, 2))
        sig = SignalNd.from_tensor(t)
        np.testing.assert_array_equal(sig.tensor().real, t)
        assert sig.values[1] == t[1, 0, 0]  # first axis fastest

    def test_length_mismatch_raises(self):
        with pytest.raises(ValidationError):
            SignalNd((2, 3), np.ones(5))

    def test_values_are_read_only(self):
        sig = SignalNd((2,), np.ones(2))
        with pytest.raises(ValueError):
            sig.values[0] = 3.0

    @pytest.mark.parametrize("shape,n", [((-1, -3), 3), ((2.7, 2), 4), ((2.0, 2), 4), ((0, 2), 0), ((True, 2), 2)],
                             ids=["negative", "fraction", "float", "zero", "bool"])
    def test_sizes_must_be_positive_integers(self, shape, n):
        with pytest.raises(ValidationError, match="sizes must be positive integers"):
            SignalNd(shape, np.ones(n))

    def test_numpy_integer_sizes_are_ints(self):
        sig = SignalNd((np.int64(2), np.uint8(3)), np.ones(6))
        assert sig.shape == (2, 3) and all(type(s) is int for s in sig.shape)


class TestGftNd:
    def test_dc_coefficient(self):
        ctx = ProductContext(cartesian_product([make_ring(4), make_path(2)]))
        xhat = gft(SignalNd(ctx.shape, np.ones(8)), ctx)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 2.0 * np.sqrt(2.0)
        np.testing.assert_allclose(xhat.values, expected, atol=1e-10)

    def test_matrix_chain_equals_vec_form(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 1)
        f1 = gft_matrix(ctx_ring4_path3.factors[0].basis)
        f2 = gft_matrix(ctx_ring4_path3.factors[1].basis)
        chain = f1 @ x.tensor() @ f2.T
        np.testing.assert_allclose(gft(x, ctx_ring4_path3).tensor(), chain, atol=1e-10)

    def test_round_trip(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 2)
        back = igft(gft(x, ctx_ring4_path3), ctx_ring4_path3)
        np.testing.assert_allclose(back.values, x.values, atol=1e-10)

    def test_parseval(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 3)
        y = gft(x, ctx_ring4_path3)
        assert np.linalg.norm(y.values) == pytest.approx(np.linalg.norm(x.values), abs=1e-10)

    def test_shape_mismatch_raises(self, ctx_ring4_path3):
        with pytest.raises(ValidationError):
            gft(SignalNd((4, 4), np.ones(16)), ctx_ring4_path3)
        # as many entries as the graph has vertices, in the wrong shape
        with pytest.raises(ValidationError, match="does not match graph shape"):
            glct_cmccm_nd(SignalNd((3, 4), np.ones(12)), LctParams(*GENERAL_ABCD), ctx_ring4_path3)


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.op}-{s.zero_b_variant}")
    def test_2d(self, spec, ctx_ring4_path3):
        dense = dense_operator(spec, ctx_ring4_path3.graph)
        np.testing.assert_allclose(
            factored_matrix(spec, ctx_ring4_path3), dense, atol=1e-9
        )

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.op}-{s.zero_b_variant}")
    def test_3d(self, spec, ctx_3d):
        dense = dense_operator(spec, ctx_3d.graph)
        np.testing.assert_allclose(factored_matrix(spec, ctx_3d), dense, atol=1e-9)

    def test_dense_gft_times_dense_igft_is_identity(self, ctx_ring4_path3):
        g = ctx_ring4_path3.graph
        prod = dense_operator(TransformSpec("gft"), g) @ dense_operator(TransformSpec("igft"), g)
        assert np.abs(prod - np.eye(g.n)).max() < 1e-10

    def test_adjacency_gso(self, ctx_ring4_path3):
        from glct import GsoKind

        graph = ctx_ring4_path3.graph
        ctx = ProductContext(graph, GsoKind.ADJACENCY)
        for spec in (
            TransformSpec("gfrft", {"alpha": 0.4}, gso="adjacency"),
            TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}, gso="adjacency"),
            TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}, gso="adjacency"),
        ):
            np.testing.assert_allclose(
                factored_matrix(spec, ctx), dense_operator(spec, graph), atol=1e-9
            )

    def test_adjacency_cmccm_exact_inversion(self, ctx_ring4_path3, rand_signal):
        from glct import GsoKind

        ctx = ProductContext(ctx_ring4_path3.graph, GsoKind.ADJACENCY)
        x = rand_signal(ctx, 21)
        p = LctParams(*GENERAL_ABCD)
        back = glct_cmccm_nd(glct_cmccm_nd(x, p, ctx), inverse(p), ctx)
        assert np.abs(back.values - x.values).max() < 1e-9

    def test_size_cap(self):
        big = cartesian_product([make_ring(70), make_ring(70)])
        with pytest.raises(ValidationError):
            dense_operator(TransformSpec("gft"), big)


class TestOps:
    def test_gfrft_order_zero_and_one(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 4)
        np.testing.assert_allclose(gfrft(x, 0.0, ctx_ring4_path3).values, x.values, atol=1e-10)
        np.testing.assert_allclose(
            gfrft(x, 1.0, ctx_ring4_path3).values,
            gft(x, ctx_ring4_path3).values,
            atol=1e-9,
        )

    def test_gcm_identity_and_modulus(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 5)
        np.testing.assert_allclose(gcm(x, 0.0, ctx_ring4_path3).values, x.values, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(gcm(x, 1.9, ctx_ring4_path3).values), np.abs(x.values), atol=1e-12
        )

    def test_gcm_powers_add(self, ctx_ring4_path3, rand_signal):
        # separability keeps the combined diagonal exactly power-additive
        x = rand_signal(ctx_ring4_path3, 6)
        lhs = gcm(gcm(x, 0.45, ctx_ring4_path3), 1.3, ctx_ring4_path3)
        rhs = gcm(x, 1.75, ctx_ring4_path3)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)

    def test_gscale_constant_signal_nulls(self, ctx_ring4_path3):
        out = gscale(SignalNd(ctx_ring4_path3.shape, np.ones(12)), 2.5, ctx_ring4_path3)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_gscale_matches_kronecker_sum(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 7)
        zsum = kronecker_sum([dec.z for dec in ctx_ring4_path3.factors])
        np.testing.assert_allclose(
            gscale(x, 1.0, ctx_ring4_path3).values, zsum @ x.values, atol=1e-10
        )

    def test_gscale_linearity(self, ctx_ring4_path3, rand_signal):
        x, y = rand_signal(ctx_ring4_path3, 8), rand_signal(ctx_ring4_path3, 9)
        mix = SignalNd(x.shape, 1.5 * x.values - 2.0j * y.values)
        lhs = gscale(mix, 0.7, ctx_ring4_path3).values
        rhs = 1.5 * gscale(x, 0.7, ctx_ring4_path3).values - 2.0j * gscale(y, 0.7, ctx_ring4_path3).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_gscale_zero_sigma_raises(self, ctx_ring4_path3):
        with pytest.raises(ValidationError):
            gscale(SignalNd(ctx_ring4_path3.shape, np.ones(12)), 0.0, ctx_ring4_path3)

    def test_cddhfs_plain_transform_reduction(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 10)
        out = glct_cddhfs_nd(x, LctParams(0, 1, -1, 0), ctx_ring4_path3)
        expected = gscale(gft(x, ctx_ring4_path3), 1.0, ctx_ring4_path3)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-9)

    def test_cmccm_norm_and_inversion(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 11)
        p = LctParams(*GENERAL_ABCD)
        y = glct_cmccm_nd(x, p, ctx_ring4_path3)
        assert np.linalg.norm(y.values) == pytest.approx(np.linalg.norm(x.values), abs=1e-9)
        back = glct_cmccm_nd(y, inverse(p), ctx_ring4_path3)
        assert np.abs(back.values - x.values).max() < 1e-9

    def test_transform_linearity(self, ctx_ring4_path3, rand_signal):
        x, y = rand_signal(ctx_ring4_path3, 12), rand_signal(ctx_ring4_path3, 13)
        p = LctParams(*GENERAL_ABCD)
        mix = SignalNd(x.shape, 0.5 * x.values + 2.0 * y.values)
        for fn in (
            lambda s: glct_cmccm_nd(s, p, ctx_ring4_path3),
            lambda s: glct_cddhfs_nd(s, p, ctx_ring4_path3),
        ):
            lhs = fn(mix).values
            rhs = 0.5 * fn(x).values + 2.0 * fn(y).values
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


#: Relative bound on the cddhfs reductions below. The worst measured on
#: x1..x4 under both shift operators, at one BLAS thread, was 3.5e-15.
REDUCTION_RTOL = 1e-13


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
@pytest.mark.parametrize("name", BENCHMARK_SIGNALS)
def test_cddhfs_reduces_to_its_ops_at_unit_scale(name, kind):
    """Under cddhfs a rotation (cos t, sin t; -sin t, cos t) runs frac(t / (pi / 2))
    then scale(1), and (1, 0; c, 1) runs scale(1) then cm(c): the factorization
    gives chirp rate 0 and order 0, to rounding. Neither is the fractional
    transform or the chirp itself, since scale(1) is the Kronecker sum of the
    shift operators, not the identity."""
    x, ctx = _benchmark_setup(name, kind)

    def close(got, want):
        return np.linalg.norm(got.values - want.values) / np.linalg.norm(want.values) < REDUCTION_RTOL

    for t in (np.pi / 6, 0.4, -1.1, 2.5):
        p = LctParams(np.cos(t), np.sin(t), -np.sin(t), np.cos(t))
        assert close(glct_cddhfs_nd(x, p, ctx), gscale(gfrft(x, t / (np.pi / 2), ctx), 1.0, ctx)), t
    for c in (-1.3, 0.7, 2.0):
        assert close(glct_cddhfs_nd(x, LctParams(1.0, 0.0, c, 1.0), ctx), gcm(gscale(x, 1.0, ctx), c, ctx)), c


class TestUnitarity:
    @pytest.mark.parametrize(
        "spec",
        [
            TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
            TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq30"),
            TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq31"),
        ],
        ids=["general", "eq30", "eq31"],
    )
    def test_cmccm_branches_unitary(self, spec, ctx_ring4_path3):
        t = dense_operator(spec, ctx_ring4_path3.graph)
        assert np.abs(t.conj().T @ t - np.eye(ctx_ring4_path3.graph.n)).max() < 1e-9


class TestTransformSpec:
    def test_unknown_op_raises(self):
        with pytest.raises(ValidationError):
            TransformSpec("dct")

    @pytest.mark.parametrize("field", [{"gso": "lap"}, {"zero_b_variant": "eq99"}], ids=["gso", "zero-b"])
    @pytest.mark.parametrize("abcd", [GENERAL_ABCD, ZERO_B_ABCD], ids=["general-b", "zero-b"])
    def test_unknown_enum_value_raises(self, field, abcd):
        with pytest.raises(ValidationError, match="unknown"):
            TransformSpec("glct_cmccm", {"abcd": abcd}, **field)

    def test_missing_abcd_raises(self):
        with pytest.raises(ValidationError):
            TransformSpec("glct_cmccm").abcd()

    @pytest.mark.parametrize("value", [None, "fast", float("nan"), float("-inf")],
                             ids=["missing", "non-numeric", "nan", "-inf"])
    @pytest.mark.parametrize("op,key", [("gfrft", "alpha"), ("gcm", "xi"), ("gscale", "sigma")])
    def test_bad_rate_raises(self, ctx_ring4_path3, op, key, value):
        spec = TransformSpec(op, {} if value is None else {key: value})
        with pytest.raises(ValidationError):
            run_spec(SignalNd(ctx_ring4_path3.shape, np.ones(12)), spec, ctx_ring4_path3)
        with pytest.raises(ValidationError):
            dense_operator(spec, ctx_ring4_path3.graph)
        with pytest.raises(ValidationError):
            mult_count(spec, ctx_ring4_path3.shape)


@pytest.mark.parametrize("call", [
    lambda x, ctx: gfrft(x, float("nan"), ctx),
    lambda x, ctx: program_block(np.ones((2, x.n)), _frac_group([0.5, float("nan")]), ctx),
    lambda x, ctx: compress_gfrft(x, float("nan"), ctx, 0.5),
], ids=["gfrft_spec", "gfrft_block", "compress_gfrft"])
def test_non_finite_single_op_rate_raises(ctx_ring4_path3, call):
    x = SignalNd(ctx_ring4_path3.shape, np.arange(12.0))
    with pytest.raises(ValidationError, match="finite"):
        call(x, ctx_ring4_path3)


class TestMultCount:
    def test_chirp_multiplication_cost(self):
        assert mult_count(TransformSpec("gcm", {"xi": 1.0}), (7, 9)) == 4 * 63

    @pytest.mark.parametrize("shape", [(100.9, 15), (100.0, 15), (0, 15), (-2, 15), (False, 15)],
                             ids=["fraction", "float", "zero", "negative", "bool"])
    def test_sizes_must_be_positive_integers(self, shape):
        with pytest.raises(ValidationError, match="sizes must be positive integers"):
            mult_count(TransformSpec("gft"), shape)

    def test_deterministic(self):
        spec = TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD})
        assert mult_count(spec, (100, 15)) == mult_count(spec, (100, 15))

    def test_monotone_when_sizes_grow(self):
        for spec in (
            TransformSpec("gft"),
            TransformSpec("gfrft", {"alpha": 0.3}),
            TransformSpec("gscale", {"sigma": 2.0}),
            TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}),
            TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
        ):
            counts = [mult_count(spec, (n, n + 2)) for n in (4, 8, 16, 32)]
            assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_cmccm_beats_cddhfs_at_study_size(self):
        cm = mult_count(TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}), (100, 15))
        cd = mult_count(TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}), (100, 15))
        assert cm < cd

    def test_zero_b_costs_more_than_general(self):
        general = mult_count(TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}), (16, 8))
        zero_b = mult_count(TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}), (16, 8))
        assert zero_b > general

    @pytest.mark.parametrize("shape", [(7, 9), (100, 15), (2, 1, 5)])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"{s.op}-{s.zero_b_variant}")
    def test_matches_frozen_formulas(self, spec, shape):
        assert mult_count(spec, shape) == _frozen_mult_count(spec, shape)


def _frozen_mult_count(spec, shape):
    """The count as one formula per op, frozen from before counts were read
    off the op programs."""
    p = int(np.prod(shape))
    s = int(np.sum(shape))
    if spec.op in ("gft", "igft"):
        return 2 * p * s
    if spec.op == "gfrft":
        return 4 * p * s
    if spec.op == "gcm":
        return 4 * p
    if spec.op == "gscale":
        return 2 * p * s + 2 * p
    if spec.op == "glct_cddhfs":
        return (4 * p * s) + (2 * p * s + 2 * p) + 4 * p
    if spec.program().kinds == KINDS["general-b"]:
        return 3 * 4 * p + 2 * (2 * p * s)
    return 3 * 4 * p + 3 * (2 * p * s) + 4 * p


# ---------------------------------------------------------------------------
# Differential test: the per-axis executor against the chained implementation
# it replaced, frozen here as the reference. The chained form applies one
# public op at a time (chirp tensor, GFT, chirp, inverse GFT, ...) through
# tensordot, with fractional powers taken as exp(t * log(mu)).


def _ref_frac_diag_power(mu, t):
    mu = np.asarray(mu, dtype=complex)
    mu = mu / np.abs(mu)
    mu = np.where(mu.imag == 0.0, mu.real + 0.0j, mu)
    return np.exp(float(t) * np.log(mu))


def _ref_axes_apply(x, mats):
    t = x.tensor()
    for axis, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)
    return SignalNd.from_tensor(t)


def _ref_gft(x, ctx):
    return _ref_axes_apply(x, [dec.f for dec in ctx.factors])


def _ref_igft(x, ctx):
    return _ref_axes_apply(x, [dec.basis.vectors for dec in ctx.factors])


def _ref_gcm(x, xi, ctx):
    t = x.tensor()
    for axis, dec in enumerate(ctx.factors):
        view = [1] * t.ndim
        view[axis] = ctx.shape[axis]
        t = t * _ref_frac_diag_power(dec.spectrum.values, xi).reshape(view)
    return SignalNd.from_tensor(t)


def _ref_cddhfs(x, p, ctx):
    alpha_norm, delta, xi = ParamBlock.from_params([p]).cddhfs()[0].rates[:, 0]
    frac = []
    for dec in ctx.factors:
        pv = dec.spectrum.vectors
        frac.append((pv * _ref_frac_diag_power(dec.spectrum.values, alpha_norm)) @ pv.conj().T)
    y = _ref_axes_apply(x, frac).tensor()
    acc = np.zeros_like(y)
    for axis, dec in enumerate(ctx.factors):
        acc = acc + np.moveaxis(np.tensordot(dec.z, y, axes=(1, axis)), 0, axis)
    return _ref_gcm(SignalNd.from_tensor(acc / delta), xi, ctx)


def _ref_cmccm(x, p, ctx, zero_b_variant):
    kinds, _, rates, phases = ParamBlock.from_params([p]).cmccm(zero_b_variant)[0]
    x3, x2, x1 = rates[:, 0]
    if kinds == KINDS["eq31"]:
        x = _ref_igft(x, ctx)
    y = _ref_gcm(_ref_gft(_ref_gcm(x, x3, ctx), ctx), x2, ctx)
    y = _ref_gcm(_ref_igft(y, ctx), x1, ctx)
    if kinds == KINDS["general-b"]:
        return y
    if kinds == KINDS["eq30"]:
        y = _ref_gft(y, ctx)
    return SignalNd(y.shape, phases[0] * y.values)


def _differential_params():
    rng = np.random.default_rng(314)
    sets = [(LctParams(*GENERAL_ABCD), "eq30"), (LctParams(*ZERO_B_ABCD), "eq30"),
            (LctParams(*ZERO_B_ABCD), "eq31"),
            # b inside ZERO_B_TOL takes the zero-b branches
            (LctParams.from_abc(1.3, 4e-10, -0.6), "eq30"),
            (LctParams.from_abc(1.3, 4e-10, -0.6), "eq31"),
            # small |a| makes d and the chirp rates large
            (LctParams.from_abc(1e-3, 0.9, 0.4), "eq30"),
            (LctParams.from_abc(-2e-3, 0.0, 0.4), "eq31")]
    sets += [(sample_random_params(rng), "eq30") for _ in range(6)]
    return sets


# two axes; three axes, the middle one with factors before and after it (R > 1
# and L > 1); a one-vertex factor in the middle
DIFFERENTIAL_GRAPHS = {
    "ring4xpath3": lambda: [make_ring(4), make_path(3)],
    "path2xring8xpath2": lambda: [make_path(2), make_ring(8), make_path(2)],
    "ring5xsinglexpath3": lambda: [make_ring(5), Graph(n=1, edges=()), make_path(3)],
}


@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize("graph", sorted(DIFFERENTIAL_GRAPHS))
def test_matches_chained_reference(graph, kind, rand_signal):
    ctx = ProductContext(cartesian_product(DIFFERENTIAL_GRAPHS[graph]()), GsoKind(kind))
    x = rand_signal(ctx, 17)
    for p, zb in _differential_params():
        zb = ZeroBVariant(zb)
        for got, ref in (
            (glct_cmccm_nd(x, p, ctx, zb), _ref_cmccm(x, p, ctx, zb)),
            (glct_cddhfs_nd(x, p, ctx), _ref_cddhfs(x, p, ctx)),
        ):
            err = np.linalg.norm(got.values - ref.values) / np.linalg.norm(ref.values)
            assert err < 1e-12, (p, zb, err)


# ---------------------------------------------------------------------------
# Blocks: row t of a block executor equals the one-signal call with row t's
# parameters, at every block size around the byte budget, on blocks whose rows
# mix the general-b branch with one zero-b variant.


@pytest.mark.parametrize("kind", ["laplacian", "adjacency"])
@pytest.mark.parametrize("graph", sorted(DIFFERENTIAL_GRAPHS))
def test_block_rows_match_single_calls(graph, kind):
    """Every block height takes the first rows of one draw, so each row's
    one-signal results are computed once for all heights."""
    ctx = ProductContext(cartesian_product(DIFFERENTIAL_GRAPHS[graph]()), GsoKind(kind))
    n = ctx.graph.n
    sets = [p for p, _ in _differential_params()]
    rng = np.random.default_rng(29)
    budget = block_rows(n)
    xs = rng.normal(size=(budget + 1, n)) + 1j * rng.normal(size=(budget + 1, n))
    rows = [sets[i % len(sets)] for i in range(budget + 1)]
    alphas = ParamBlock.from_params(rows).cddhfs()[0].rates[0].tolist()
    names = [*ZeroBVariant, "cddhfs", "gfrft"]
    singles = []
    for x, p, alpha in zip(xs, rows, alphas):
        x = SignalNd(ctx.shape, x)
        singles.append([glct_cmccm_nd(x, p, ctx, zb) for zb in ZeroBVariant]
                       + [glct_cddhfs_nd(x, p, ctx), gfrft(x, alpha, ctx)])
    for t in (1, budget - 1, budget, budget + 1):
        params = ParamBlock.from_params(rows[:t])
        groups = [params.cmccm(zb) for zb in ZeroBVariant]  # one block per zero-b variant
        groups += [params.cddhfs(), _frac_group(alphas[:t])]
        blocks = [program_block(xs[:t], g, ctx) for g in groups]
        for i in range(t):
            for block, single, name in zip(blocks, singles[i], names):
                err = np.linalg.norm(block[i] - single.values) / np.linalg.norm(single.values)
                assert err < 1e-13, (t, i, rows[i], name, err)


SHARED_SPECS = {
    "general-b": TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
    "eq30": TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq30"),
    "eq31": TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq31"),
    "cddhfs": TransformSpec("glct_cddhfs", {"abcd": LctParams.from_abc(1.2, 0.5, -0.3).astuple()}),  # delta != 1
    "gfrft": TransformSpec("gfrft", {"alpha": 0.4}),
}


@pytest.mark.parametrize("name", sorted(SHARED_SPECS))
def test_shared_rate_column_equals_repeated_column(name):
    """A group whose one rate column (and phase) serves every row equals, byte
    for byte, the group with that column repeated once per row, over more rows
    than one chunk, on ring(20) x path(4)."""
    ctx = ProductContext(cartesian_product([make_ring(20), make_path(4)]))
    t = block_rows(ctx.graph.n) + 5
    rng = np.random.default_rng(31)
    xs = rng.normal(size=(t, ctx.graph.n)) + 1j * rng.normal(size=(t, ctx.graph.n))
    group = SHARED_SPECS[name].program()._replace(rows=np.arange(t))
    repeated = group._replace(rates=np.repeat(group.rates, t, axis=1),
                              phases=None if group.phases is None else np.repeat(group.phases, t))
    assert program_block(xs, [group], ctx).tobytes() == program_block(xs, [repeated], ctx).tobytes()


@pytest.mark.parametrize("rows", [[[0], [0]], [[0], [2]], [[0, 0]], [[1.0, 0.0]]],
                         ids=["row-twice", "row-out-of-range", "row-twice-in-a-group", "float-rows"])
def test_groups_must_name_each_row_once(ctx_ring4_path3, rows):
    """Two groups that both name row 0 left row 1 of the output uninitialized."""
    groups = [ProgramGroup(("frac",), np.array(r), np.full((1, len(r)), 0.5), None) for r in rows]
    with pytest.raises(ValidationError, match="once"):
        program_block(np.ones((2, 12), complex), groups, ctx_ring4_path3)


def test_one_group_gives_each_row_its_own_rates(ctx_ring4_path3):
    """A single group whose rows are not 0..T-1 in order gathers them: row
    rows[j] runs rate column j and phase j."""
    rng = np.random.default_rng(47)
    xs = rng.normal(size=(3, 12)) + 1j * rng.normal(size=(3, 12))
    rows, rates, phases = np.array([2, 0, 1]), rng.uniform(-1.0, 1.0, size=(2, 3)), np.exp(1j * np.arange(3.0))
    got = program_block(xs, [ProgramGroup(("frac", "cm"), rows, rates, phases)], ctx_ring4_path3)
    order = np.argsort(rows)
    want = program_block(xs, [ProgramGroup(("frac", "cm"), np.arange(3), rates[:, order], phases[order])],
                         ctx_ring4_path3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def _made_and_replaced(kinds, rates, phases):
    """The two ways to make a two-row group of ``kinds``, ``rates`` and
    ``phases``: the constructor, and ``_replace`` on a group that can run."""
    fine = ProgramGroup(("ft",), np.arange(2), np.empty((0, 2)), None)
    return (lambda: ProgramGroup(kinds, np.arange(2), rates, phases),
            lambda: fine._replace(kinds=kinds, rates=rates, phases=phases))


@pytest.mark.parametrize("rates,phases", [
    (np.full((2, 2), 0.5), None),
    (np.full((0, 2), 0.5), None),
    (np.full((1, 3), 0.5), None),
    (np.full(2, 0.5), None),
    (np.full((1, 2), 0.5), np.ones(3)),
    (np.full((1, 1), 0.5), np.ones(2)),
], ids=["extra-rate-row", "missing-rate-row", "extra-column", "1-d-rates", "extra-phase", "phase-per-row-of-shared"])
def test_group_rates_and_phases_must_fit(rates, phases):
    """A group checks when it is made, by the constructor and by ``_replace``."""
    for make in _made_and_replaced(("frac",), rates, phases):
        with pytest.raises(ValidationError, match="rates of shape"):
            make()


@pytest.mark.parametrize("kinds,rates,phases,match", [
    (("foo",), np.empty((0, 2)), None, "unknown op kinds"),
    (("frac", "cm"), np.array([[0.5, 0.5], [0.3, np.nan]]), None, "finite"),
    (("frac",), np.array([[0.5, np.inf]]), None, "finite"),
    (("frac", "scale", "cm"), np.array([[0.5, 0.5], [1.5, 0.0], [0.3, 0.3]]), None, "nonzero"),
    (("ft",), np.empty((0, 2)), np.array([1.0, np.nan]), "phases must be finite"),
], ids=["unknown-kind", "nan-cm-rate", "inf-frac-rate", "zero-scale-rate", "nan-phase"])
def test_executor_rejects_programs_it_cannot_run(ctx_ring4_path3, kinds, rates, phases, match):
    """A kind that is no op would run as V, a non-finite rate or phase would
    give NaN rows and a zero scale rate would divide by zero; the bad entry is
    in the second row of each group. No such group exists: the constructor
    and ``_replace`` reject it when it is made, and the executor rejects the
    same fields as a plain tuple, which nothing checked."""
    for make in _made_and_replaced(kinds, rates, phases):
        with pytest.raises(ValidationError, match=match):
            make()
    with pytest.raises(ValidationError, match="ProgramGroup"):
        program_block(np.ones((2, 12), complex), [(kinds, np.arange(2), rates, phases)], ctx_ring4_path3)


@pytest.mark.parametrize("rate,product", [(1e-200, 0.0), (1e200, float("inf"))], ids=["underflow", "overflow"])
def test_scale_rates_must_multiply_to_a_divisor(rate, product):
    """Two scale rates that each pass alone but multiply to 0 or to inf on
    the second row: the executor divides by the product, which gave NaN rows
    with a warning on ring(5) x path(3), and rows of zeros without one. The
    group is rejected when it is made; rates whose product divides run."""
    ctx = ProductContext(cartesian_product([make_ring(5), make_path(3)]))
    rates = np.array([[1.5, rate], [2.0, rate]])
    for make in _made_and_replaced(("scale", "scale"), rates, None):
        with pytest.raises(ValidationError, match=f"multiply to a finite value .* got {product}$"):
            make()
    fine = ProgramGroup(("scale", "scale"), np.arange(2), np.array([[1.5, rate], [2.0, 1.0 / rate]]), None)
    with np.errstate(all="raise"):
        assert np.isfinite(program_block(np.ones((2, ctx.graph.n), complex), [fine], ctx)).all()


def test_executor_rejects_a_plain_tuple(ctx_ring4_path3):
    """A tuple of fields that would run is still rejected: only a ProgramGroup
    has been checked."""
    group = _frac_group([0.5, 0.25])[0]
    assert program_block(np.ones((2, 12), complex), [group], ctx_ring4_path3).shape == (2, 12)
    for groups in ([tuple(group)], [group, tuple(group._replace(rows=np.arange(2, 4)))]):
        with pytest.raises(ValidationError, match="ProgramGroup"):
            program_block(np.ones((len(groups) * 2, 12), complex), groups, ctx_ring4_path3)


def test_block_budget_and_shape_check(ctx_ring4_path3):
    assert block_rows(288) == 48
    assert block_rows(1500) == 9
    assert block_rows(10**6) == 1
    with pytest.raises(ValidationError):
        program_block(np.ones((2, 12)), ParamBlock([GENERAL_ABCD]).cmccm(), ctx_ring4_path3)
    with pytest.raises(ValidationError):
        program_block(np.ones((1, 11)), _frac_group([0.5]), ctx_ring4_path3)


@pytest.mark.parametrize("name", sorted(SHARED_SPECS))
def test_shared_rate_column_is_prepared_once(name, monkeypatch):
    """A group with one rate column computes its chirp diagonals once, not once
    per chunk, over more rows than one chunk: one diag_powers call for the
    group, with every chirp column's rate in it."""
    ctx = ProductContext(cartesian_product([make_ring(20), make_path(4)]))
    t = block_rows(ctx.graph.n) + 5
    calls = []
    diag_powers = ProductContext.diag_powers
    monkeypatch.setattr(ProductContext, "diag_powers", lambda self, rates: calls.append(rates) or diag_powers(self, rates))
    group = SHARED_SPECS[name].program()._replace(rows=np.arange(t))
    program_block(np.ones((t, ctx.graph.n), complex), [group], ctx)
    assert len(calls) == 1
    assert calls[0].shape == (sum(kind in ("cm", "frac") for kind in group.kinds), 1)


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("name", [*BENCHMARK_SIGNALS, "ring100-path15"])
def test_diag_powers_equal_direct_trig_bit_for_bit(name, kind):
    """Mirrored or not, each chirp diagonal is cos and sin of t times every
    angle, for a scalar rate, a (T,) and a (C, T) rate array; x1's path(8)
    under the adjacency has no mirror."""
    graph = cartesian_product([make_ring(100), make_path(15)]) if name == "ring100-path15" else \
        benchmark_signal(name)[0]
    ctx = ProductContext(graph, kind)
    rng = np.random.default_rng(5)
    row = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e6, -3e7], rng.uniform(-4, 4, 20)])
    for t in (0.7, -1.3, 0.0, row, np.stack([row, -row[::-1], rng.uniform(-4, 4, row.size)])):
        for dec, d in zip(ctx.factors, ctx.diag_powers(t)):
            x = np.asarray(t)[..., None] * dec.spectrum.angles
            # by parts: adding 1j * sin(x) would turn a sin of -0.0 into +0.0
            want = np.empty(x.shape, complex)
            want.real, want.imag = np.cos(x), np.sin(x)
            assert d.shape == want.shape
            assert (d.view(np.uint64) == want.view(np.uint64)).all()
    if name == "x1":
        assert [dec.spectrum.mirror[0] for dec in ctx.factors] == ([7, 4] if kind is GsoKind.LAPLACIAN else [6, 0])


@pytest.mark.parametrize("kinds", [("cm", "frac"), ("ft", "cm", "frac"), ("ft", "ift", "cm"),
                                   ("frac", "cm", "frac", "ft"), ("cm", "scale", "ft", "frac", "cm")])
def test_any_program_equals_its_ops_one_at_a_time(kinds):
    """Op orders that no factorization makes, on two axes: the program equals
    its single ops applied one after another."""
    ctx = ProductContext(cartesian_product([make_ring(20), make_path(4)]))
    t = 3
    rng = np.random.default_rng(43)
    xs = rng.normal(size=(t, ctx.graph.n)) + 1j * rng.normal(size=(t, ctx.graph.n))
    rated = [k for k in kinds if k in ("cm", "frac", "scale")]
    rates = rng.uniform(0.5, 1.5, size=(len(rated), t))
    got = program_block(xs, [ProgramGroup(kinds, np.arange(t), rates, None)], ctx)
    want, j = xs, 0
    for kind in kinds:
        own = rates[j:j + 1] if kind in rated else np.empty((0, t))
        j += kind in rated
        want = program_block(want, [ProgramGroup((kind,), np.arange(t), own, None)], ctx)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# Chains: each chunk runs through every program of a chain before the next
# chunk starts. A cmccm program of p^-1 takes the chirp diagonals of p's,
# conjugated and in reverse column order, instead of a trig pass of its own.


def _general_b_block(t, seed):
    """``t`` parameter sets drawn as the suites draw them, all with b != 0."""
    params = ParamBlock.from_abc(sample_abc(np.random.default_rng(seed), t))
    assert (np.abs(params.abcd[:, 1]) > ZERO_B_TOL).all()
    return params


@pytest.mark.parametrize("form", list(ZeroBVariant), ids=lambda f: f.value)
def test_inverse_cmccm_program_mirrors_the_forward(form):
    """The general-b program of p^-1 has the kinds of p's and its rates
    negated in reverse order, bit for bit: (d - 1) / (-b) is -((d - 1) / b)."""
    params = _general_b_block(300, 17)
    (forward,), (back,) = params.cmccm(form), params.inverse().cmccm(form.inverse_form)
    assert back.kinds == forward.kinds and back.phases is None is forward.phases
    assert back.rates.tobytes() == np.negative(forward.rates[::-1]).tobytes()
    assert product._mirrors(back, forward) and not product._mirrors(forward, forward)


def _mirror_case(name):
    graphs = {"ring100-path15": lambda: cartesian_product([make_ring(100), make_path(15)]),
              "ring800": lambda: cartesian_product([make_ring(800)]),
              "path8": lambda: cartesian_product([make_path(8)])}
    return graphs[name]() if name in graphs else benchmark_signal(name)[0]


@pytest.mark.parametrize("name,kind", [
    *((name, kind) for name in (*BENCHMARK_SIGNALS, "ring100-path15") for kind in GsoKind),
    ("ring800", GsoKind.LAPLACIAN), ("path8", GsoKind.ADJACENCY),
], ids=lambda v: v.value if isinstance(v, GsoKind) else v)
def test_mirrored_diagonals_equal_direct_ones_bit_for_bit(name, kind):
    """The forward's diagonal stacks, conjugated and reversed, equal
    diag_powers(-rates[::-1]) bit for bit, on factors whose values stage
    found a mirror and on ring(800) under the Laplacian and path(8) under the
    adjacency, where it found none."""
    ctx = ProductContext(_mirror_case(name), kind)
    if name in ("ring800", "path8"):
        assert [dec.spectrum.mirror[0] for dec in ctx.factors] == [0]
    params = _general_b_block(40, 19)
    (forward,), (back,) = params.cmccm(), params.inverse().cmccm(ZeroBVariant.EQ31)
    direct = ctx.diag_powers(np.negative(forward.rates[::-1]))
    for reuse in (False, True):  # conjugated into new arrays, or in the forward's memory
        earlier = product._prepare(forward.kinds, forward.rates, None, ctx)
        mirrored = product._mirror(back.kinds, earlier, reuse)[-1]
        for got, want, stack in zip(mirrored, direct, earlier[-1], strict=True):
            assert got.shape == want.shape and (got.view(np.uint64) == want.view(np.uint64)).all()
            assert np.shares_memory(got, stack) is reuse


@pytest.mark.parametrize("name", ["x1", "x2"])  # a first axis of 14 vertices in pair form, 18 stacked
@pytest.mark.parametrize("variant", ["cmccm", "cddhfs"])
def test_chain_equals_its_programs_one_after_another(name, variant):
    """A chain gives the bytes of its programs run as one block call each,
    over two chunks and a part: a program and its inverse, two unrelated
    programs, programs whose rows are gathered into groups (b = 0 on every
    fifth row) between programs that run whole, and programs of one rate
    column; into a new array or ``out``."""
    ctx = ProductContext(benchmark_signal(name)[0])
    t = 2 * block_rows(ctx.graph.n) + 5
    xs, mixed = _mixed_block(ctx, t, 23)
    general, one = _general_b_block(t, 29), ParamBlock([GENERAL_ABCD])
    rng = np.random.default_rng(37)
    zero_b = ParamBlock.from_abc(np.column_stack([rng.uniform(0.5, 2.0, t), np.zeros(t), rng.uniform(-2.0, 2.0, t)]))
    programs = {"mixed": mixed.factorize(variant), "mixed-inverse": mixed.inverse().factorize(variant, "eq31"),
                # eq31 starts with a mode product, which must not write into the block it reads
                "zero-b": zero_b.factorize(variant), "zero-b-inverse": zero_b.inverse().factorize(variant, "eq31"),
                "general": general.factorize(variant), "general-inverse": general.inverse().factorize(variant, "eq31"),
                # one rate column for every row, whose diagonals serve every chunk
                "shared": [g._replace(rows=np.arange(t)) for g in one.factorize(variant)],
                "shared-inverse": [g._replace(rows=np.arange(t)) for g in one.inverse().factorize(variant, "eq31")]}
    for chain in (["general", "general-inverse"], ["mixed", "mixed-inverse"], ["general", "mixed"],
                  ["general", "mixed", "general-inverse", "general"], ["shared", "shared-inverse", "shared"],
                  ["zero-b", "zero-b-inverse"]):
        want = xs
        for key in chain:
            want = program_block(want, programs[key], ctx)
        first, *then = (programs[key] for key in chain)
        assert program_block(xs, first, ctx, then=then).tobytes() == want.tobytes(), chain
        out = np.empty_like(xs)
        assert program_block(xs, first, ctx, then=then, out=out) is out and out.tobytes() == want.tobytes(), chain


@pytest.mark.parametrize("zero_b", [False, True], ids=["general-b", "mixed"])
def test_inverse_in_a_chain_takes_no_trig_pass(zero_b, monkeypatch):
    """In a chain of a cmccm program and its inverse, the inverse general-b
    group computes no diagonals: over three chunks, one diag_powers call per
    chunk, and with b = 0 rows one more per chunk for each six-factor group,
    whose phase keeps it from mirroring (eq31 is not eq30 reversed)."""
    ctx = ProductContext(benchmark_signal("x1")[0])
    t = 2 * block_rows(ctx.graph.n) + 5
    xs, params = _mixed_block(ctx, t, 31) if zero_b else (np.ones((t, ctx.graph.n), complex), _general_b_block(t, 31))
    calls = []
    diag_powers = ProductContext.diag_powers
    monkeypatch.setattr(ProductContext, "diag_powers", lambda self, rates: calls.append(rates) or diag_powers(self, rates))
    program_block(xs, params.cmccm(), ctx, then=[params.inverse().cmccm(ZeroBVariant.EQ31)])
    assert len(calls) == 3 * (3 if zero_b else 1)
    calls.clear()
    program_block(program_block(xs, params.cmccm(), ctx), params.inverse().cmccm(ZeroBVariant.EQ31), ctx)
    assert len(calls) == 3 * (4 if zero_b else 2)


def test_executor_checks_out(ctx_ring4_path3):
    """``out`` must be a writable C-contiguous complex array of the block's shape."""
    group = _frac_group([0.5, 0.25])
    values = np.ones((2, 12), complex)
    read_only = np.empty((2, 12), complex)
    read_only.setflags(write=False)
    for out in (np.empty((3, 12), complex), np.empty((2, 12)), np.empty((12, 2), complex).T, read_only):
        with pytest.raises(ValidationError, match="out="):
            program_block(values, group, ctx_ring4_path3, out=out)


# ---------------------------------------------------------------------------
# The workspace: per thread, never aliased by a result, bounded by the budget.


def _mixed_block(ctx, t, seed):
    """``t`` random rows and a parameter block with general-b and b = 0 rows."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(t, ctx.graph.n)) + 1j * rng.normal(size=(t, ctx.graph.n))
    abc = np.column_stack([rng.uniform(0.5, 2.0, t), rng.uniform(-2.0, 2.0, t), rng.uniform(-2.0, 2.0, t)])
    abc[::5, 1] = 0.0
    return xs, ParamBlock.from_abc(abc)


def test_threads_get_the_bytes_of_sequential_runs():
    """Two threads transforming different blocks at once (other graphs, programs
    and heights, several chunks each) get the bytes of the same calls made one
    after another: each thread runs in a workspace of its own."""
    jobs = []
    for factors, variant, seed in (([make_ring(18), make_path(16)], "cmccm", 1),
                                   ([make_ring(20), make_path(4)], "cddhfs", 2)):
        ctx = ProductContext(cartesian_product(factors))
        xs, params = _mixed_block(ctx, 2 * block_rows(ctx.graph.n) + 3, seed)
        groups = params.factorize(variant)
        jobs.append((lambda xs=xs, groups=groups, ctx=ctx: program_block(xs, groups, ctx)))
    want = [job().tobytes() for job in jobs]
    start, wrong, done = threading.Barrier(len(jobs)), [], []

    def work(i):
        start.wait(timeout=30)
        for _ in range(15):
            wrong.extend([i] * (jobs[i]().tobytes() != want[i]))
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(done) == [0, 1] and wrong == []


@pytest.mark.parametrize("extra", [-1, 2])  # one chunk, two chunks
def test_results_never_alias_the_workspace(extra):
    ctx = ProductContext(cartesian_product([make_ring(18), make_path(16)]))
    xs, params = _mixed_block(ctx, block_rows(ctx.graph.n) + extra, 3)
    first = program_block(xs, params.cddhfs(), ctx)
    kept = first.copy()
    second = program_block(xs[::-1].copy(), params.cddhfs(), ctx)
    assert first.tobytes() == kept.tobytes()
    buffers = product._THREAD.workspace.slots.values()
    assert buffers and not any(np.shares_memory(y, buf) for y in (first, second) for buf in buffers)


def test_large_rows_leave_the_kept_workspace_within_budget(rand_signal):
    """A row larger than BLOCK_BYTES (ring(800) x path(40), 512 KB) runs in a
    workspace of its own that the call drops: the thread's kept workspace does
    not grow, and none of its buffers exceeds the budget."""
    small = ProductContext(cartesian_product([make_ring(18), make_path(16)]))
    xs, params = _mixed_block(small, block_rows(small.graph.n), 4)
    program_block(xs, params.cddhfs(), small)
    ws = product._THREAD.workspace
    before = {slot: buf.nbytes for slot, buf in ws.slots.items()}
    big = ProductContext(cartesian_product([make_ring(800), make_path(40)]))
    assert 16 * big.graph.n > BLOCK_BYTES
    glct_cmccm_nd(rand_signal(big, 5), LctParams(*GENERAL_ABCD), big)
    assert ws is product._THREAD.workspace
    assert {slot: buf.nbytes for slot, buf in ws.slots.items()} == before
    assert all(size <= BLOCK_BYTES for size in before.values())


def test_kept_workspace_holds_only_the_block_buffers():
    """After cmccm, cddhfs and gfrft blocks on x2 and on the study signal the
    thread keeps the two block buffers, the Kronecker-sum term and the stacked
    real and imaginary parts, none larger than the budget."""
    for graph in (benchmark_signal("x2")[0], cartesian_product([make_ring(100), make_path(15)])):
        ctx = ProductContext(graph)
        xs, params = _mixed_block(ctx, block_rows(ctx.graph.n), 8)
        program_block(xs, params.cmccm(), ctx)
        program_block(xs, params.cddhfs(), ctx)
        program_block(xs, _frac_group(np.linspace(-0.9, 0.9, len(xs))), ctx)
    slots = product._THREAD.workspace.slots
    assert set(slots) == {"x0", "x1", "a", "b"}
    assert all(buf.nbytes <= BLOCK_BYTES for buf in slots.values())


def test_study_arrays_beyond_the_budget_are_fresh():
    """A study array within BLOCK_BYTES lives in the thread's study
    workspace, whose slot the next array of that slot reuses; a larger one is
    made fresh, and the workspace keeps nothing of it. Run in a thread of its
    own, whose workspaces start empty."""
    seen = []

    def work():
        studies = product._THREAD.studies
        small = product._study_array("rows", (2, BLOCK_BYTES // 32))
        again = product._study_array("rows", (1, 3), float)
        big = product._study_array("big", (1, BLOCK_BYTES // 16 + 1))
        seen.append((np.shares_memory(small, studies.slots["rows"]), np.shares_memory(again, small),
                     set(studies.slots), big.shape))

    th = threading.Thread(target=work)
    th.start()
    th.join(timeout=30)
    assert seen == [(True, True, {"rows"}, (1, BLOCK_BYTES // 16 + 1))]


def test_kron_sum_adds_from_zero(ctx_3d, monkeypatch):
    """The Kronecker sum adds its mode products to 0, as Python's ``sum`` does,
    so mode products that are all -0.0 sum to +0.0. BLAS gives no -0.0 mode
    product on these graphs, so -0.0 arrays stand in for them."""

    def negative_zero(x, shape, axis, mat, out, ws):
        out[...] = complex(-0.0, -0.0)
        return out

    monkeypatch.setattr(product, "_shared", negative_zero)
    x = np.ones((2, ctx_3d.graph.n), complex)
    got = product._kron_sum(x, ctx_3d, np.empty_like(x), product._Workspace())
    want = sum(negative_zero(x, ctx_3d.shape, axis, None, np.empty_like(x), None) for axis in range(3))
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got.view(float)).any()


# ---------------------------------------------------------------------------
# The two first-axis paths of a real matrix: one GEMM on interleaved (re, im)
# pairs up to PAIR_MAX vertices, stacked real and imaginary parts above.

#: First-factor sizes on both sides of the rule, each a path times ring(12),
#: and a path alone: one fibre per row, which takes the stacked form.
FIRST_AXIS_SIZES = (2, 8, product.PAIR_MAX, product.PAIR_MAX + 1)
FIRST_AXIS_GRAPHS = [(n0, l) for n0 in FIRST_AXIS_SIZES for l in (12, 1)]


def _first_axis_graph(n0, l):
    """path(n0) times ring(l), or path(n0) alone for l = 1."""
    return cartesian_product([make_path(n0)] + ([make_ring(l)] if l > 1 else []))


def _stacked_shared(x, shape, axis, mat, out, ws):
    """The mode product as the executor made it on every first axis before
    pair operands, kept here as it was: on the first axis a real matrix acts on
    the real and imaginary parts stacked in the memory of ``out``, with the
    product in the workspace slot "b"."""
    n, r = shape[axis], int(np.prod(shape[:axis]))
    real = mat.dtype.kind == "f"
    if r == 1:
        rows, res = x.reshape(-1, n), out.reshape(-1, n)
        if not real:
            np.matmul(rows, mat.T, out=res)
            return out
        half = rows.shape[0]
        parts = out.reshape(-1).view(float).reshape(2 * half, n)
        parts[:half], parts[half:] = rows.real, rows.imag
        prod = np.matmul(parts, mat.T, out=ws.take("b", parts.shape, float))
        res.real, res.imag = prod[:half], prod[half:]
        return out
    if real:
        np.matmul(mat, x.reshape(-1, n, r).view(float), out=out.reshape(-1, n, r).view(float))
    else:
        np.matmul(mat, x.reshape(-1, n, r), out=out.reshape(-1, n, r))
    return out


#: Programs that apply V, V^T and Z on the first axis: cmccm in both zero-b
#: forms (``_mixed_block`` puts b = 0 on every fifth row), cddhfs, and the
#: transform and its inverse.
FIRST_AXIS_PROGRAMS = ("cmccm-eq30", "cmccm-eq31", "cddhfs", "gft", "igft")


def _first_axis_program(name, params):
    """The groups of program ``name`` of FIRST_AXIS_PROGRAMS on the rows of ``params``."""
    if name.startswith("cmccm"):
        return params.cmccm(ZeroBVariant(name.removeprefix("cmccm-")))
    if name == "cddhfs":
        return params.cddhfs()
    kinds = ("ft",) if name == "gft" else ("ift",)
    return [ProgramGroup(kinds, np.arange(len(params)), np.empty((0, len(params))), None)]


def check_first_axis_paths(kind):
    """On each graph of FIRST_AXIS_GRAPHS under GSO ``kind``: every
    row of a two-chunk block equals the stacked product of ``_stacked_shared``
    bit for bit, and blocks of 1, block_rows(P) and block_rows(P) + 1 rows
    equal their one-row calls bit for bit (cddhfs on a graph of one fibre
    per row excepted). Both need one BLAS thread; the
    test runs this in a child that has it."""
    for n0, l in FIRST_AXIS_GRAPHS:
        ctx = ProductContext(_first_axis_graph(n0, l), kind)
        step = block_rows(ctx.graph.n)
        xs, params = _mixed_block(ctx, step + 1, n0)
        for name in FIRST_AXIS_PROGRAMS:
            groups = _first_axis_program(name, params)
            got = program_block(xs, groups, ctx)
            pair_max, shared = product.PAIR_MAX, product._shared
            product.PAIR_MAX, product._shared = 0, _stacked_shared
            try:
                want = program_block(xs, groups, ctx)
            finally:
                product.PAIR_MAX, product._shared = pair_max, shared
            assert got.tobytes() == want.tobytes(), (kind, n0, l, name, "stacked")
        # on one fibre per row a one-row call's complex P^H is a GEMV, which
        # rounds unlike the block's GEMM rows on either path, so cddhfs is left out
        names = [name for name in FIRST_AXIS_PROGRAMS if l > 1 or name != "cddhfs"]
        for t, name in itertools.product((1, step, step + 1), names):
            block = program_block(xs[:t], _first_axis_program(name, params[:t]), ctx)
            for i in sorted({*range(0, t, max(1, t // 40)), t - 1}):  # about 40 rows, the last included
                one = program_block(xs[i:i + 1], _first_axis_program(name, params[i]), ctx)
                assert block[i].tobytes() == one[0].tobytes(), (kind, n0, l, name, t, i)


@pytest.mark.parametrize("kind", list(GsoKind), ids=[k.value for k in GsoKind])
def test_first_axis_paths_give_the_stacked_bytes(kind):
    """Run in a child with BLAS pinned to one thread: a multi-threaded GEMM
    may split a block differently and round its rows differently."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])}
    code = f"from test_product import check_first_axis_paths; check_first_axis_paths({kind.value!r})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n0,l", FIRST_AXIS_GRAPHS)
def test_pair_path_takes_no_stacking_buffer(n0, l, monkeypatch):
    """A chunk whose first factor has at most PAIR_MAX vertices takes no slot
    "b" in a fresh workspace; one vertex more, or one fibre per row, and it
    does. The pair operands are built by the first transform that applies
    them, and kept."""
    monkeypatch.setattr(product._THREAD, "workspace", product._Workspace())
    ctx = ProductContext(_first_axis_graph(n0, l))
    first, pairs = ctx.factors[0], {"v_pairs", "f_pairs", "z_pairs"}
    assert not pairs & set(vars(first))
    xs, params = _mixed_block(ctx, block_rows(ctx.graph.n), 5)
    for name in FIRST_AXIS_PROGRAMS:
        program_block(xs, _first_axis_program(name, params), ctx)
    small = n0 <= product.PAIR_MAX and l > 1
    assert ("b" in product._THREAD.workspace.slots) is not small
    assert pairs & set(vars(first)) == (pairs if small else set())
    assert all(not pairs & set(vars(dec)) for dec in ctx.factors[1:])
    if small:
        kept = first.v_pairs
        program_block(xs, params.cmccm(), ctx)
        assert first.v_pairs is kept
        assert first.v_pairs.shape == (2 * n0, 2 * n0) and first.v_pairs.flags.f_contiguous


#: How far the peak allocation of a warm block call may grow per byte of
#: output, between blocks of 2/3 and all of block_rows(P) rows. The output
#: accounts for 1 and the chirp diagonals (T * sum(N_k) entries per rate
#: column) for a little more; the workspace, once grown, and numpy's iterator
#: buffers (8192 entries, 128 KiB complex, per broadcasting operand) do not
#: grow with T. The cases below grow by 1.08 to 1.503; a block-sized temporary
#: in one op of their chains adds 1, and the executor before the workspace
#: peaked at 5.1 times its output on x2.
ALLOCATION_GROWTH = 1.6


def _peak(values, groups, ctx) -> tuple[int, int]:
    """Peak bytes allocated by a block call, and the bytes of its output."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = program_block(values, groups, ctx)
        return tracemalloc.get_traced_memory()[1] - base, out.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["x2-cmccm", "x2-cddhfs", "ring20xpath30-cddhfs", "study-gfrft"])
def test_warm_block_allocates_little_beyond_its_output(case):
    """Blocks on x2 (18 x 16), ring(20) x path(30) and the 100 x 15 study
    signal, through the real V and V^T of cmccm and the complex P and P^H of
    cddhfs and gfrft."""
    if case.startswith("study"):
        ctx = ProductContext(cartesian_product([make_ring(100), make_path(15)]))
        values, _ = _mixed_block(ctx, block_rows(ctx.graph.n), 7)
        program = lambda t: _frac_group(np.linspace(-0.9, 0.9, t))  # noqa: E731
    else:
        graph = benchmark_signal("x2")[0] if case.startswith("x2") else cartesian_product([make_ring(20), make_path(30)])
        ctx = ProductContext(graph)
        values, params = _mixed_block(ctx, block_rows(ctx.graph.n), 6)
        program = lambda t: params[:t].cmccm() if case.endswith("cmccm") else params[:t].cddhfs()  # noqa: E731
    t = len(values)
    part = values[:2 * t // 3].copy()
    program_block(values, program(t), ctx)  # warm: the workspace has grown to the full block
    (full, full_out), (less, less_out) = _peak(values, program(t), ctx), _peak(part, program(len(part)), ctx)
    assert (full - less) / (full_out - less_out) <= ALLOCATION_GROWTH


# ---------------------------------------------------------------------------
# Lazy eigenvectors: the values stage runs when a context is built; P only when
# gfrft, cddhfs or the dense oracle first reads it.


def _ring12_path4():
    return cartesian_product([make_ring(12), make_path(4)])


def _transform_cli(tmp_path, *extra):
    write_graph(tmp_path / "ring.json", make_ring(12))
    write_graph(tmp_path / "path.json", make_path(4))
    rng = np.random.default_rng(8)
    write_signal(tmp_path / "x.json", SignalNd((12, 4), rng.normal(size=48)))
    argv = ["transform", "--signal", tmp_path / "x.json", "--graph", tmp_path / "ring.json",
            "--graph", tmp_path / "path.json", "--params", ",".join(map(str, GENERAL_ABCD)),
            "--out", tmp_path / "y.json", *extra]
    assert cli.main([str(a) for a in argv]) == 0


def test_cmccm_never_builds_eigenvectors(rand_signal):
    ctx = ProductContext(_ring12_path4())
    x = rand_signal(ctx, 3)
    sets = _differential_params()
    for p, zb in sets:
        glct_cmccm_nd(x, p, ctx, ZeroBVariant(zb))
    for zb in ZeroBVariant:
        groups = ParamBlock.from_params([p for p, _ in sets]).cmccm(zb)
        program_block(np.repeat(x.values[None], len(sets), axis=0), groups, ctx)
    assert all("vectors" not in vars(dec.spectrum) for dec in ctx.factors)


def test_cli_cmccm_never_builds_eigenvectors(tmp_path, monkeypatch):
    built = []

    class Recorded(ProductContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "ProductContext", Recorded)
    _transform_cli(tmp_path)
    assert len(built) == 1
    assert all("vectors" not in vars(dec.spectrum) for dec in built[0].factors)


def _record_eigenvector_builds(monkeypatch) -> list:
    """The stages whose eigenvectors are built from here on, one entry a build."""
    stages, build = [], spectral.UnitaryAngles.vectors.func
    recorded = functools.cached_property(lambda stage: stages.append(stage) or build(stage))
    recorded.__set_name__(spectral.UnitaryAngles, "vectors")
    monkeypatch.setattr(spectral.UnitaryAngles, "vectors", recorded)
    return stages


def test_eigenvectors_built_once_per_factor(tmp_path, monkeypatch, rand_signal):
    stages = _record_eigenvector_builds(monkeypatch)
    ctx = ProductContext(_ring12_path4())
    x = rand_signal(ctx, 4)
    for alpha in (0.3, 0.7, 1.2):
        gfrft(x, alpha, ctx)
    assert len(stages) == 2 and stages[0] is not stages[1]
    stages.clear()
    _transform_cli(tmp_path, "--variant", "cddhfs")
    assert len(stages) == 2 and stages[0] is not stages[1]


@pytest.mark.parametrize("op", ["gfrft", "cddhfs"])
def test_shared_decomposition_builds_one_eigenbasis(op, monkeypatch, rand_signal):
    """path(6) x path(6) decomposes path(6) once, so both axes read one stage,
    and that stage alone holds P."""
    stages = _record_eigenvector_builds(monkeypatch)
    ctx = ProductContext(cartesian_product([make_path(6), make_path(6)]))
    x = rand_signal(ctx, 5)
    if op == "gfrft":
        gfrft(x, 0.4, ctx)
    else:
        glct_cddhfs_nd(x, LctParams(*GENERAL_ABCD), ctx)
    built = {id(dec.spectrum): dec.spectrum for dec in ctx.factors if "vectors" in vars(dec.spectrum)}
    assert len(built) == 1 and stages == list(built.values())


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
def test_lazy_eigenvectors_give_the_eager_outputs(kind):
    rng = np.random.default_rng(41)
    params = [LctParams(*GENERAL_ABCD)] + [sample_random_params(rng) for _ in range(3)]
    for name in BENCHMARK_SIGNALS:
        graph, x = benchmark_signal(name)
        lazy, eager = ProductContext(graph, kind), ProductContext(graph, kind)
        for dec in eager.factors:
            dec.spectrum.__dict__["vectors"] = eig_unitary_angles(dec.f).vectors
        for p in params:
            alpha = ParamBlock.from_params([p]).cddhfs()[0].rates[0, 0]
            for op in (lambda c: glct_cddhfs_nd(x, p, c), lambda c: gfrft(x, alpha, c)):
                assert op(lazy).values.tobytes() == op(eager).values.tobytes(), (name, p)


def _other_eigenbasis(stage, rng):
    """Another eigenbasis P of ``stage.source``: each column of ``stage.vectors``
    rephased by a random unit phase, and inside each eigenspace (a run of
    angles less than 1e-9 apart) the columns permuted and rotated by a random
    unitary."""
    p = stage.vectors * np.exp(1j * rng.uniform(-np.pi, np.pi, stage.values.size))
    starts, sizes = _runs(np.diff(stage.angles) > 1e-9)
    for start, size in zip(starts, sizes):
        cols = np.arange(start, start + size)
        u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        p[:, cols] = p[:, rng.permutation(cols)] @ u
    return p


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
@pytest.mark.parametrize("factors", [(make_ring(14), make_path(8)), (make_complete(14), make_comet(6)),
                                     (make_path(20), make_comet(6))],
                         ids=["ring14xpath8", "complete14xcomet6", "path20xcomet6"])
def test_fractional_ops_do_not_depend_on_the_eigenbasis(factors, kind):
    """gfrft and cddhfs run P diag(mu^t) P^H, the matrix function F^t, so any
    other eigenbasis P gives their outputs up to rounding. Under the
    adjacency, path(8) has 2- and path(20) 5-dimensional eigenspaces of F."""
    rng = np.random.default_rng(27)
    graph = cartesian_product(factors)
    base, other = ProductContext(graph, kind), ProductContext(graph, kind)
    for dec, fresh in zip(base.factors, other.factors):
        fresh.spectrum.__dict__["vectors"] = _other_eigenbasis(dec.spectrum, rng)
        assert np.abs(fresh.spectrum.vectors - dec.spectrum.vectors).max() > 0.1
    params = [LctParams(*GENERAL_ABCD)] + [sample_random_params(rng) for _ in range(3)]
    alphas = np.array([[0.3, 1.0, -0.77, 1.9]])
    for groups in ([ProgramGroup(("frac",), np.arange(alphas.size), alphas, None)],
                   ParamBlock.from_params(params).cddhfs()):
        rows = sum(len(g.rows) for g in groups)
        x = rng.normal(size=(rows, graph.n)) + 1j * rng.normal(size=(rows, graph.n))
        want, got = program_block(x, groups, base), program_block(x, groups, other)
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() < 1e-12, err


@pytest.mark.parametrize("factors", [(make_path(6), make_path(6)), (make_path(3), make_ring(4), make_path(3))],
                         ids=["path6xpath6", "path3xring4xpath3"])
def test_repeated_factor_is_decomposed_once(factors, monkeypatch):
    decomposed = []
    decompose = product.decompose_graph
    monkeypatch.setattr(product, "decompose_graph", lambda g, kind: decomposed.append(g) or decompose(g, kind))
    graph = cartesian_product(factors)
    ctx = ProductContext(graph)
    assert ctx.factors[0] is ctx.factors[-1]
    assert len(decomposed) == len(set(factors))
    for spec in ORACLE_SPECS:
        np.testing.assert_allclose(factored_matrix(spec, ctx), dense_operator(spec, graph), atol=1e-9)


def test_gso_given_by_value_builds_the_member_context():
    graph = cartesian_product([make_ring(5), make_path(4)])
    by_value, member = ProductContext(graph, "adjacency"), ProductContext(graph, GsoKind.ADJACENCY)
    assert by_value.kind is GsoKind.ADJACENCY
    for a, b in zip(by_value.factors, member.factors):
        assert a.kind is GsoKind.ADJACENCY
        for left, right in ((a.basis.vectors, b.basis.vectors), (a.basis.values, b.basis.values),
                            (a.spectrum.angles, b.spectrum.angles), (a.z, b.z)):
            assert left.tobytes() == right.tobytes()
    with pytest.raises(ValidationError, match="shift operator"):
        ProductContext(graph, "adjacenc")
