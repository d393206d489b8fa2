"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines.
"""
import time

import numpy as np
import pytest

from glct import (
    COMPRESSION_REFERENCE_PARAMS,
    LctParams,
    ProductContext,
    SignalNd,
    TransformSpec,
    cartesian_product,
    complexity_model,
    compress,
    compress_gfrft,
    dense_operator,
    eig_sym,
    gfrft_nd,
    gft_matrix,
    gft_nd,
    gso,
    make_comet,
    make_complete,
    make_low_stretch_tree,
    make_path,
    make_ring,
    mult_count,
    sample_random_params,
    suite_additivity,
    suite_reversibility,
)
from glct.experiments import BENCHMARK_SIGNALS, study_signal
from glct.io import write_csv, write_json
from glct.params import ParamBlock, ZeroBVariant
from glct.spectral import eig_unitary_angles, eig_unitary_vectors

from conftest import frac_operator, recompose, run_spec

GENERAL_ABCD = (0.6, 0.8, -0.5, 1.0)
ZERO_B_ABCD = (2.0, 0.0, 0.7, 0.5)

ALL_TRANSFORM_SPECS = (
    TransformSpec("gft"),
    TransformSpec("igft"),
    TransformSpec("gfrft", {"alpha": 0.4}),
    TransformSpec("gcm", {"xi": 0.8}),
    TransformSpec("gscale", {"sigma": 1.7}),
    TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}),
    TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
    TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq30"),
    TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq31"),
)


def operator_of(spec, ctx):
    n = ctx.graph.n
    cols = []
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols.append(run_spec(SignalNd(ctx.shape, e), spec, ctx))
    return np.column_stack(cols)


def test_criterion_1_oracle_equivalence():
    """Factored transforms match their dense Kronecker oracles column by column."""
    started = time.monotonic()
    graphs = (
        cartesian_product([make_ring(4), make_path(3)]),
        cartesian_product([make_path(2), make_path(3), make_ring(4)]),
    )
    worst = 0.0
    for graph in graphs:
        ctx = ProductContext(graph)
        for spec in ALL_TRANSFORM_SPECS:
            err = np.abs(operator_of(spec, ctx) - dense_operator(spec, graph)).max()
            worst = max(worst, err)
            assert err < 1e-9, f"{spec.op} ({spec.zero_b_variant}) off by {err:.3e} on {graph.shape}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"PASS criterion 1: oracle equivalence, max abs error {worst:.3e} in {elapsed:.1f}s")


def test_criterion_2_exact_reversibility():
    """cmccm reversibility NMSE < 1e-20 over 100 seeded parameter draws per signal."""
    reports = suite_reversibility(trials=100, seed=11, variants=("cmccm",))
    worst = max(r.values.max() for r in reports)
    for r in reports:
        assert r.values.max() < 1e-20, f"{r.signal}: worst NMSE {r.values.max():.3e}"
    print(f"PASS criterion 2: cmccm reversibility exact, worst NMSE {worst:.3e}")


def test_criterion_3_comparative_reversibility():
    """Mean cddhfs reversibility NMSE >= mean cmccm on at least 3 of 4 signals."""
    reports = suite_reversibility(trials=1000, seed=17)
    means = {(r.signal, r.variant): r.mean for r in reports}
    wins = sum(
        means[(s, "cddhfs")] >= means[(s, "cmccm")] for s in BENCHMARK_SIGNALS
    )
    assert wins >= 3, f"cmccm better on only {wins} signals: {means}"
    print(
        "PASS criterion 3: cmccm reversibility better on "
        f"{wins}/4 signals (e.g. x1 means {means[('x1', 'cddhfs')]:.3e} vs {means[('x1', 'cmccm')]:.3e})"
    )


def test_criterion_4_additivity_harness(tmp_path):
    """Additivity suite: finite NMSE, deterministic per seed, sorted curves emitted."""
    reports = suite_additivity(trials=1000, seed=23)
    assert len(reports) == 8  # 4 signals x 2 variants
    for r in reports:
        assert np.isfinite(r.values).all() and (r.values >= 0).all()
    write_json(tmp_path / "additivity_means.json", {"reports": [
        {k: v for k, v in r.summary_dict().items() if k != "values"} for r in reports
    ]})

    short_a = suite_additivity(trials=50, seed=29)
    short_b = suite_additivity(trials=50, seed=29)
    for ra, rb in zip(short_a, short_b):
        np.testing.assert_array_equal(ra.values, rb.values)
    for r in short_a:
        path = tmp_path / f"additivity_{r.signal}_{r.variant}.csv"
        write_csv(path, ("rank", "nmse"),
                  [{"rank": i + 1, "nmse": float(v)} for i, v in enumerate(r.sorted_values())])
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,nmse" and len(lines) == 51
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values)
    means = {(r.signal, r.variant): r.mean for r in reports}
    print(
        "PASS criterion 4: additivity harness deterministic and emitted "
        f"(x1 means cddhfs {means[('x1', 'cddhfs')]:.3e}, cmccm {means[('x1', 'cmccm')]:.3e})"
    )


def test_criterion_5_complexity_model():
    """Operation-count formulas reproduce exactly; measured counts agree in ordering."""
    assert complexity_model((16, 8), "cddhfs") == 1472.0
    assert complexity_model((16, 8), "cmccm") == 640.0
    # formula value of the zero-b count at (16, 8): 12*24 + 6*(64 + 24)
    assert complexity_model((16, 8), "cmccm_zero_b") == 816.0
    assert complexity_model((100, 15), "cddhfs") > complexity_model((100, 15), "cmccm")
    measured_cm = mult_count(TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}), (100, 15))
    measured_cd = mult_count(TransformSpec("glct_cddhfs", {"abcd": GENERAL_ABCD}), (100, 15))
    assert measured_cm < measured_cd
    print(
        "PASS criterion 5: complexity model 1472/640/816 at (16,8); "
        f"measured counts at (100,15): cmccm {measured_cm} < cddhfs {measured_cd}"
    )


def test_criterion_6_unitarity_and_parseval():
    """cmccm branches and fractional powers are unitary; transforms preserve norms."""
    cmccm_specs = (
        TransformSpec("glct_cmccm", {"abcd": GENERAL_ABCD}),
        TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq30"),
        TransformSpec("glct_cmccm", {"abcd": ZERO_B_ABCD}, zero_b_variant="eq31"),
    )
    graphs = (
        cartesian_product([make_ring(4), make_path(3)]),
        cartesian_product([make_path(8), make_path(8)]),
    )
    worst = 0.0
    for graph in graphs:
        eye = np.eye(graph.n)
        for spec in cmccm_specs:
            t = dense_operator(spec, graph)
            worst = max(worst, np.abs(t.conj().T @ t - eye).max())
    assert worst < 1e-9

    for g in (make_ring(8), make_comet(6), make_complete(8), make_low_stretch_tree(16)):
        fe = eig_unitary_vectors(eig_unitary_angles(gft_matrix(eig_sym(gso(g)))))
        for t in (-1.5, 0.25, 0.5, 1.0, 2.7):
            u = frac_operator(fe, t)
            assert np.abs(u.conj().T @ u - np.eye(g.n)).max() < 1e-9

    rng = np.random.default_rng(31)
    ctx = ProductContext(cartesian_product([make_ring(6), make_path(5)]))
    x = SignalNd(ctx.shape, rng.normal(size=30) + 1j * rng.normal(size=30))
    assert abs(np.linalg.norm(gft_nd(x, ctx).values) - np.linalg.norm(x.values)) < 1e-10
    for alpha in (0.3, 0.8):
        assert abs(np.linalg.norm(gfrft_nd(x, alpha, ctx).values) - np.linalg.norm(x.values)) < 1e-10
    print(f"PASS criterion 6: unitarity within {worst:.3e}; norms preserved")


def test_criterion_7_compression_pipeline():
    """Full-ratio losslessness, per-seed monotonicity, and valid reference rows."""
    started = time.monotonic()
    graph, x = study_signal(100, 15, seed=37)
    ctx = ProductContext(graph)

    _, full = compress(x, LctParams.from_abc(*GENERAL_ABCD[:3]), ctx, gamma=1.0)
    assert full.re < 1e-9 and full.nrms < 1e-9 and abs(full.cc - 1.0) < 1e-9

    gammas = [round(0.1 * k, 1) for k in range(1, 10)]
    reports = [compress_gfrft(x, 1.0, ctx, g)[1] for g in gammas]
    res = [r.re for r in reports]
    nrms = [r.nrms for r in reports]
    ccs = [r.cc for r in reports]
    assert all(a >= b for a, b in zip(res, res[1:]))
    assert all(a >= b for a, b in zip(nrms, nrms[1:]))
    assert all(a <= b for a, b in zip(ccs, ccs[1:]))

    for a, b, c, d in COMPRESSION_REFERENCE_PARAMS:
        assert abs(a * d - b * c - 1.0) <= 0.02
        LctParams.from_loose(a, b, c, d)  # renormalizes and validates
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        "PASS criterion 7: compression pipeline lossless at gamma=1, monotone over gamma, "
        f"{len(COMPRESSION_REFERENCE_PARAMS)} reference rows valid, {elapsed:.1f}s"
    )


def test_criterion_8_parameter_round_trip():
    """Both factorizations recompose to the original (a, b; c, d) on 10000 draws."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10000):
        p = sample_random_params(rng)
        m = p.matrix
        one = ParamBlock.from_params([p])
        err_cd = np.abs(recompose(one.cddhfs()[0]) - m).max()
        err_cm = np.abs(recompose(one.cmccm()[0]) - m).max()
        worst = max(worst, err_cd, err_cm)
        assert err_cd < 1e-9 and err_cm < 1e-9
    for a in (-2.0, -0.4, 0.5, 1.0, 2.5):
        for c in (-1.7, 0.0, 0.8):
            p = LctParams(a, 0.0, c, 1.0 / a)
            for variant in (ZeroBVariant.EQ30, ZeroBVariant.EQ31):
                err = np.abs(recompose(ParamBlock.from_params([p]).cmccm(variant)[0]) - p.matrix).max()
                worst = max(worst, err)
                assert err < 1e-9
    print(f"PASS criterion 8: parameter round trips within {worst:.3e} over 10000 draws")
