"""Factored multi-dimensional transforms against dense Kronecker oracles."""
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
    apply_spec,
    block_rows,
    cartesian_product,
    cddhfs_block,
    cddhfs_decompose,
    cmccm_block,
    cmccm_decompose,
    compress_gfrft,
    dense_operator,
    gcm_nd,
    gfrft_block,
    gfrft_nd,
    gft_nd,
    gft_matrix,
    glct_cddhfs_nd,
    glct_cmccm_nd,
    gscale_nd,
    igft_nd,
    inverse,
    make_path,
    make_ring,
    mult_count,
    kronecker_sum,
    sample_random_params,
)
from glct.params import KINDS, ParamBlock
from glct import cli, kernels
from glct.experiments import BENCHMARK_SIGNALS, benchmark_signal
from glct.io import write_graph, write_signal
from glct.spectral import eig_unitary

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
        cols.append(apply_spec(SignalNd(ctx.shape, e), spec, ctx).values)
    return np.column_stack(cols)


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


class TestGftNd:
    def test_dc_coefficient(self):
        ctx = ProductContext(cartesian_product([make_ring(4), make_path(2)]))
        xhat = gft_nd(SignalNd(ctx.shape, np.ones(8)), ctx)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 2.0 * np.sqrt(2.0)
        np.testing.assert_allclose(xhat.values, expected, atol=1e-10)

    def test_matrix_chain_equals_vec_form(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 1)
        f1 = gft_matrix(ctx_ring4_path3.factors[0].basis)
        f2 = gft_matrix(ctx_ring4_path3.factors[1].basis)
        chain = f1 @ x.tensor() @ f2.T
        np.testing.assert_allclose(gft_nd(x, ctx_ring4_path3).tensor(), chain, atol=1e-10)

    def test_round_trip(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 2)
        back = igft_nd(gft_nd(x, ctx_ring4_path3), ctx_ring4_path3)
        np.testing.assert_allclose(back.values, x.values, atol=1e-10)

    def test_parseval(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 3)
        assert gft_nd(x, ctx_ring4_path3).norm() == pytest.approx(x.norm(), abs=1e-10)

    def test_shape_mismatch_raises(self, ctx_ring4_path3):
        with pytest.raises(ValidationError):
            gft_nd(SignalNd((4, 4), np.ones(16)), ctx_ring4_path3)


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
        np.testing.assert_allclose(gfrft_nd(x, 0.0, ctx_ring4_path3).values, x.values, atol=1e-10)
        np.testing.assert_allclose(
            gfrft_nd(x, 1.0, ctx_ring4_path3).values,
            gft_nd(x, ctx_ring4_path3).values,
            atol=1e-9,
        )

    def test_gcm_identity_and_modulus(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 5)
        np.testing.assert_allclose(gcm_nd(x, 0.0, ctx_ring4_path3).values, x.values, atol=1e-12)
        np.testing.assert_allclose(
            np.abs(gcm_nd(x, 1.9, ctx_ring4_path3).values), np.abs(x.values), atol=1e-12
        )

    def test_gcm_powers_add(self, ctx_ring4_path3, rand_signal):
        # separability keeps the combined diagonal exactly power-additive
        x = rand_signal(ctx_ring4_path3, 6)
        lhs = gcm_nd(gcm_nd(x, 0.45, ctx_ring4_path3), 1.3, ctx_ring4_path3)
        rhs = gcm_nd(x, 1.75, ctx_ring4_path3)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)

    def test_gscale_constant_signal_nulls(self, ctx_ring4_path3):
        out = gscale_nd(SignalNd(ctx_ring4_path3.shape, np.ones(12)), 2.5, ctx_ring4_path3)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_gscale_matches_kronecker_sum(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 7)
        zsum = kronecker_sum([dec.z for dec in ctx_ring4_path3.factors])
        np.testing.assert_allclose(
            gscale_nd(x, 1.0, ctx_ring4_path3).values, zsum @ x.values, atol=1e-10
        )

    def test_gscale_linearity(self, ctx_ring4_path3, rand_signal):
        x, y = rand_signal(ctx_ring4_path3, 8), rand_signal(ctx_ring4_path3, 9)
        mix = SignalNd(x.shape, 1.5 * x.values - 2.0j * y.values)
        lhs = gscale_nd(mix, 0.7, ctx_ring4_path3).values
        rhs = 1.5 * gscale_nd(x, 0.7, ctx_ring4_path3).values - 2.0j * gscale_nd(y, 0.7, ctx_ring4_path3).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_gscale_zero_sigma_raises(self, ctx_ring4_path3):
        with pytest.raises(ValidationError):
            gscale_nd(SignalNd(ctx_ring4_path3.shape, np.ones(12)), 0.0, ctx_ring4_path3)

    def test_cddhfs_plain_transform_reduction(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 10)
        out = glct_cddhfs_nd(x, LctParams(0, 1, -1, 0), ctx_ring4_path3)
        expected = gscale_nd(gft_nd(x, ctx_ring4_path3), 1.0, ctx_ring4_path3)
        np.testing.assert_allclose(out.values, expected.values, atol=1e-9)

    def test_cmccm_norm_and_inversion(self, ctx_ring4_path3, rand_signal):
        x = rand_signal(ctx_ring4_path3, 11)
        p = LctParams(*GENERAL_ABCD)
        y = glct_cmccm_nd(x, p, ctx_ring4_path3)
        assert y.norm() == pytest.approx(x.norm(), abs=1e-9)
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
    def test_dict_round_trip(self):
        spec = TransformSpec("glct_cmccm", {"abcd": list(GENERAL_ABCD)}, zero_b_variant="eq31")
        assert TransformSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_op_raises(self):
        with pytest.raises(ValidationError):
            TransformSpec("dct")

    @pytest.mark.parametrize("field", [{"gso": "lap"}, {"zero_b_variant": "eq99"}], ids=["gso", "zero-b"])
    @pytest.mark.parametrize("abcd", [GENERAL_ABCD, ZERO_B_ABCD], ids=["general-b", "zero-b"])
    def test_unknown_enum_value_raises(self, field, abcd):
        with pytest.raises(ValidationError, match="unknown"):
            TransformSpec("glct_cmccm", {"abcd": abcd}, **field)

    def test_gso_mismatch_raises(self, ctx_ring4_path3):
        spec = TransformSpec("gft", gso="adjacency")
        with pytest.raises(ValidationError):
            apply_spec(SignalNd(ctx_ring4_path3.shape, np.ones(12)), spec, ctx_ring4_path3)

    def test_missing_abcd_raises(self):
        with pytest.raises(ValidationError):
            TransformSpec("glct_cmccm").abcd()

    @pytest.mark.parametrize("value", [None, "fast", float("nan"), float("-inf")],
                             ids=["missing", "non-numeric", "nan", "-inf"])
    @pytest.mark.parametrize("op,key", [("gfrft", "alpha"), ("gcm", "xi"), ("gscale", "sigma")])
    def test_bad_rate_raises(self, ctx_ring4_path3, op, key, value):
        spec = TransformSpec(op, {} if value is None else {key: value})
        with pytest.raises(ValidationError):
            apply_spec(SignalNd(ctx_ring4_path3.shape, np.ones(12)), spec, ctx_ring4_path3)
        with pytest.raises(ValidationError):
            dense_operator(spec, ctx_ring4_path3.graph)
        with pytest.raises(ValidationError):
            mult_count(spec, ctx_ring4_path3.shape)


@pytest.mark.parametrize("call", [
    lambda x, ctx: gfrft_nd(x, float("nan"), ctx),
    lambda x, ctx: gcm_nd(x, float("inf"), ctx),
    lambda x, ctx: gscale_nd(x, float("nan"), ctx),
    lambda x, ctx: gfrft_block(np.ones((2, x.n)), [0.5, float("nan")], ctx),
    lambda x, ctx: compress_gfrft(x, float("nan"), ctx, 0.5),
], ids=["gfrft_nd", "gcm_nd", "gscale_nd", "gfrft_block", "compress_gfrft"])
def test_non_finite_single_op_rate_raises(ctx_ring4_path3, call):
    x = SignalNd(ctx_ring4_path3.shape, np.arange(12.0))
    with pytest.raises(ValidationError, match="finite"):
        call(x, ctx_ring4_path3)


class TestMultCount:
    def test_chirp_multiplication_cost(self):
        assert mult_count(TransformSpec("gcm", {"xi": 1.0}), (7, 9)) == 4 * 63

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
    if cmccm_decompose(spec.abcd(), ZeroBVariant(spec.zero_b_variant)).kinds == KINDS["general-b"]:
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
        t = t * _ref_frac_diag_power(dec.fourier.values, xi).reshape(view)
    return SignalNd.from_tensor(t)


def _ref_cddhfs(x, p, ctx):
    alpha_norm, delta, xi = cddhfs_decompose(p).rates[:, 0]
    frac = []
    for dec in ctx.factors:
        pv = dec.fourier.vectors
        frac.append((pv * _ref_frac_diag_power(dec.fourier.values, alpha_norm)) @ pv.conj().T)
    y = _ref_axes_apply(x, frac).tensor()
    acc = np.zeros_like(y)
    for axis, dec in enumerate(ctx.factors):
        acc = acc + np.moveaxis(np.tensordot(dec.z, y, axes=(1, axis)), 0, axis)
    return _ref_gcm(SignalNd.from_tensor(acc / delta), xi, ctx)


def _ref_cmccm(x, p, ctx, zero_b_variant):
    kinds, _, rates, phases = cmccm_decompose(p, zero_b_variant)
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


# ring(4) x path(3): N^2 > P on axis 0 and N^2 <= P on axis 1; the middle axis
# of path(2) x ring(8) x path(2) has N^2 > P; a one-vertex factor in the middle
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
    ctx = ProductContext(cartesian_product(DIFFERENTIAL_GRAPHS[graph]()), GsoKind(kind))
    n = ctx.graph.n
    sets = [p for p, _ in _differential_params()]
    rng = np.random.default_rng(29)
    budget = block_rows(n)
    for t in (1, budget - 1, budget, budget + 1):
        xs = rng.normal(size=(t, n)) + 1j * rng.normal(size=(t, n))
        rows = [sets[i % len(sets)] for i in range(t)]
        params = ParamBlock.from_params(rows)
        alphas = [cddhfs_decompose(p).rates[0, 0] for p in rows]
        cmccm = {zb: cmccm_block(xs, params, ctx, zb) for zb in ZeroBVariant}  # one block per zero-b variant
        cddhfs, gfrft = cddhfs_block(xs, params, ctx), gfrft_block(xs, alphas, ctx)
        for i, p in enumerate(rows):
            x = SignalNd(ctx.shape, xs[i])
            pairs = [(cmccm[zb], glct_cmccm_nd(x, p, ctx, zb), zb) for zb in ZeroBVariant]
            pairs += [(cddhfs, glct_cddhfs_nd(x, p, ctx), None), (gfrft, gfrft_nd(x, alphas[i], ctx), None)]
            for block, single, zb in pairs:
                err = np.linalg.norm(block[i] - single.values) / np.linalg.norm(single.values)
                assert err < 1e-13, (t, i, p, zb, err)


def test_block_budget_and_shape_check(ctx_ring4_path3):
    assert block_rows(288) == 16
    assert block_rows(10**6) == 1
    with pytest.raises(ValidationError):
        cmccm_block(np.ones((2, 12)), ParamBlock([GENERAL_ABCD]), ctx_ring4_path3)
    with pytest.raises(ValidationError):
        gfrft_block(np.ones((1, 11)), [0.5], ctx_ring4_path3)


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
        cmccm_block(np.repeat(x.values[None], len(sets), axis=0), ParamBlock.from_params([p for p, _ in sets]), ctx, zb)
    assert all("fourier" not in dec.__dict__ for dec in ctx.factors)


def test_cli_cmccm_never_builds_eigenvectors(tmp_path, monkeypatch):
    built = []

    class Recorded(ProductContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "ProductContext", Recorded)
    _transform_cli(tmp_path)
    assert len(built) == 1
    assert all("fourier" not in dec.__dict__ for dec in built[0].factors)


def test_eigenvectors_built_once_per_factor(tmp_path, monkeypatch, rand_signal):
    stages = []
    build = kernels.eig_unitary_vectors
    monkeypatch.setattr(kernels, "eig_unitary_vectors", lambda stage: stages.append(stage) or build(stage))
    ctx = ProductContext(_ring12_path4())
    x = rand_signal(ctx, 4)
    for alpha in (0.3, 0.7, 1.2):
        gfrft_nd(x, alpha, ctx)
    assert len(stages) == 2 and stages[0] is not stages[1]
    stages.clear()
    _transform_cli(tmp_path, "--variant", "cddhfs")
    assert len(stages) == 2 and stages[0] is not stages[1]


@pytest.mark.parametrize("kind", list(GsoKind), ids=lambda k: k.value)
def test_lazy_eigenvectors_give_the_eager_outputs(kind):
    rng = np.random.default_rng(41)
    params = [LctParams(*GENERAL_ABCD)] + [sample_random_params(rng) for _ in range(3)]
    for name in BENCHMARK_SIGNALS:
        graph, x = benchmark_signal(name)
        lazy, eager = ProductContext(graph, kind), ProductContext(graph, kind)
        for dec in eager.factors:
            dec.__dict__["fourier"] = eig_unitary(dec.f)
        for p in params:
            alpha = cddhfs_decompose(p).rates[0, 0]
            for op in (lambda c: glct_cddhfs_nd(x, p, c), lambda c: gfrft_nd(x, alpha, c)):
                assert op(lazy).values.tobytes() == op(eager).values.tobytes(), (name, p)
